"""The benchmark's workloads call into the library (ModelConfig.from_name,
Model, training.train, evaluate, run_experiment), and its probes replace
some of those functions with wrappers of a fixed signature
(perfbench/tracing.py). A change to those calls or signatures should fail
here and not only in a benchmark run. This guard loads perfbench's
workloads, tracing and checks by path, without writing anything under
perfbench/, and runs each workload's smoke-sized set-up and first unit of
work under the probes, with every operation checked."""

import importlib.util
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def load(monkeypatch, module):
    """perfbench/<module>.py as a module, writing no bytecode."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{module}",
                                                  PERFBENCH / f"{module}.py")
    loaded = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, loaded)
    spec.loader.exec_module(loaded)
    return loaded


@pytest.mark.parametrize("name", ["train-mulmlp", "eval-gat", "train-rw"])
def test_smoke_workload_runs_one_unit(monkeypatch, name):
    workloads, tracing, checks = (load(monkeypatch, module) for module in
                                  ("workloads", "tracing", "checks"))
    w = workloads.smoke(workloads.WORKLOADS[name])
    s = w.setup(seed=0)
    assert s.model.cfg.name == w.model
    unit, ref_index = w.units(s, seed=0)
    checker = checks.Checker()
    checker.begin_unit()
    with tracing.installed(tracing.probe_patches(tracing.Tracer(), checker)):
        assert unit(0) is not None
    checker.end_unit(None)  # smoke outputs have no recorded reference
    assert checker.attempted >= 1 and checker.failed == 0, checker.errors
    assert ref_index(0) == 0
