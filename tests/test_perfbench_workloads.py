"""The benchmark's workloads call into the library (ModelConfig.from_name,
Model, training.train, evaluate, run_experiment); a change to those calls
should fail here and not only in a benchmark run. This guard loads
perfbench/workloads.py by path, without writing anything under perfbench/,
and runs each workload's smoke-sized set-up and first unit of work."""

import importlib.util
import pathlib
import sys

import pytest

WORKLOADS = (pathlib.Path(__file__).resolve().parents[1] / "perfbench"
             / "workloads.py")


def load_workloads(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["train-mulmlp", "eval-gat", "train-rw"])
def test_smoke_workload_runs_one_unit(monkeypatch, name):
    workloads = load_workloads(monkeypatch)
    w = workloads.smoke(workloads.WORKLOADS[name])
    s = w.setup(seed=0)
    assert s.model.cfg.name == w.model
    unit, ref_index = w.units(s, seed=0)
    assert unit(0) is not None
    assert ref_index(0) == 0
