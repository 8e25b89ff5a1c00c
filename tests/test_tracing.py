"""The traced benchmark patches names where the models look them up; a
refactor that renames or stops calling one of them would leave a metric
silently at 0. This guard loads perfbench/tracing.py by path, without
writing anything under perfbench/, and runs a small traced workload."""

import importlib.util
import pathlib
import sys

import numpy as np

from gridflow import grid
from gridflow.graphnets import GraphTensors, Model, ModelConfig

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# Layer spans that perfbench reports per-layer metrics from, all reached by
# the workload below: a flow variant's training step and a regular
# variant's prediction.
LAYER_SPANS = (
    "graphnets.gru", "graphnets.init_node_states", "graphnets.implicit_readout",
    "graphnets.Model.forward", "attnflow.transition_logits",
    "attnflow.transition_matrix", "attnflow.flow_step",
    "attnflow.attend_message", "autodiff.backward",
)


def load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_patches_resolve_and_every_op_is_called(monkeypatch):
    tracing = load_tracing(monkeypatch)
    tracer = tracing.Tracer()
    g = grid.add_selfloops(
        grid.corrupt(grid.build_grid(4), grid.CorruptionParams(0.1, 0.0, seed=0)))
    cfg = dict(dims=10, attn_dims=4, heads=5, steps=2, dtype="float64")
    gt = GraphTensors(g)
    mulmlp = Model(ModelConfig.from_name("ggnn-mulmlp", **cfg), gt, seed=0)
    gat = Model(ModelConfig.from_name("gat", **cfg), gt, seed=0)
    # Building the patch lists looks up every name they replace; the probes
    # are not installed, so they need no checker.
    layer = tracing.layer_patches(tracer)
    tracing.probe_patches(tracer, None)
    with tracing.installed(layer):
        mulmlp.loss(np.array([0, 3]), np.array([2, 5])).backward()
        gat.predict(np.array([1]))
    summary = tracer.summary()
    for op in tracing.AUTODIFF_OPS:
        assert summary.get(f"autodiff.{op}", {}).get("calls", 0) > 0, op
    for span in LAYER_SPANS:
        assert summary.get(span, {}).get("calls", 0) > 0, span
