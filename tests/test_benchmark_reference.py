"""The benchmark checks every run's outputs against the reference outputs
recorded in perfbench/reference/; a change that moves them should fail
here, in the test suite, and not only in a benchmark run. This guard loads
perfbench/workloads.py, checks.py and tracing.py by path, without writing
anything under perfbench/, and runs the first unit of work of two
workloads at seed 0 under the benchmark's probes. train-rw's first unit is
a two-epoch run of about half a minute, so it is checked by the benchmark
only."""

import importlib.util
import json
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def load(monkeypatch, name):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # Dataclasses look their module up in sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["train-mulmlp", "eval-gat"])
def test_first_unit_matches_the_reference(monkeypatch, name):
    workloads, checks, tracing = (load(monkeypatch, module) for module in
                                  ("workloads", "checks", "tracing"))
    with open(PERFBENCH / "reference" / f"{name}.json") as f:
        reference = json.load(f)["seeds"]["0"]
    w = workloads.WORKLOADS[name]
    unit, ref_index = w.units(w.setup(seed=0), seed=0)
    checker = checks.Checker()
    with tracing.installed(tracing.probe_patches(tracing.Tracer(), checker)):
        checker.begin_unit()
        unit(0)
        checker.end_unit(reference[ref_index(0)])
    assert checker.attempted > 0, name
    assert checker.failed == 0, checker.errors
