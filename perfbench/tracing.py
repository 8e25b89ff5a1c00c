"""In-memory spans and the wrappers that record them.

Every wrapper is installed from outside the package by replacing the name
where its caller looks it up, and is removed when the `installed` block
exits; nothing under src/ knows about it. There are two sets:

* probes (`probe_patches`): O(1) per train step, eval batch or evaluate()
  call. They time the workload's operations and hand the outputs to the
  checker. Installed in every run.
* layer wrappers (`layer_patches`): one span per call into each layer's
  public functions and per VJP closure an autodiff op records. Installed
  only in the traced run.

Probes are installed after the layer wrappers, so they are the outermost
wrapper where both touch one call chain and the synthetic step and batch
spans enclose the layer spans.
"""
from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager

from gridflow import attnflow, autodiff, data, graphnets, optim, training

_clock = time.perf_counter

# The autodiff ops the models call; tmean is left out because it is only
# tsum followed by mul, which are wrapped themselves.
AUTODIFF_OPS = (
    "take", "typed_affine", "scale_affine_tanh", "segment_sum",
    "segment_softmax", "rowdot", "matmul", "add", "mul", "tanh", "sigmoid",
    "leaky_relu", "softmax", "concat", "slice_axis", "reshape", "tsum", "log",
)

STEP = "training.step"  # opt.zero_grad() entry to opt.step() exit
EVAL_BATCH = "training.eval_batch"  # model.predict() entry to ranks_of() exit


class Tracer:
    """Spans with name, start, end and parent index (-1 for none).

    Self time (duration minus the time covered by direct children) is
    accumulated as spans close, so aggregation is one pass.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name_id, start, end, parent]
        self._child: list[float] = []
        self._stack: list[int] = []
        self.out_bytes: dict[str, int] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid: int) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([nid, _clock(), 0.0, parent])
        self._child.append(0.0)
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        now = _clock()
        # Pop down to idx, so a span an exception left open cannot become
        # the parent of later spans.
        while self._stack and self._stack.pop() != idx:
            pass
        span = self.spans[idx]
        span[2] = now
        if span[3] >= 0:
            self._child[span[3]] += now - span[1]

    def end_open(self, nid: int) -> None:
        """Close the innermost open span named nid, if any."""
        for idx in reversed(self._stack):
            if self.spans[idx][0] == nid:
                self.end(idx)
                return

    def durations(self, name: str) -> list[float]:
        nid = self._ids.get(name)
        return [e - s for n, s, e, _ in self.spans if n == nid and e]

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total (inclusive) seconds, self seconds."""
        out = {n: {"calls": 0, "total": 0.0, "self": 0.0} for n in self.names}
        for (nid, start, end, _), child in zip(self.spans, self._child):
            if not end:
                continue
            row = out[self.names[nid]]
            row["calls"] += 1
            row["total"] += end - start
            row["self"] += end - start - child
        return out

    def write(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "names": self.names, "spans": self.spans}, f)


@contextmanager
def installed(patches):
    """Apply (owner, attr, replacement) patches; restore them on exit."""
    saved = []
    try:
        for owner, attr, replacement in patches:
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _span(tracer: Tracer, name: str, fn):
    nid = tracer.name_id(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.begin(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(idx)

    return traced


def _traced_op(tracer: Tracer, op: str, fn):
    fwd = tracer.name_id(f"autodiff.{op}")
    bwd = tracer.name_id(f"autodiff.{op}.bwd")
    key = f"autodiff.{op}"
    tracer.out_bytes[key] = 0

    def traced_vjp(vjp):
        def call(g):
            idx = tracer.begin(bwd)
            try:
                return vjp(g)
            finally:
                tracer.end(idx)
        return call

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.begin(fwd)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if out.data.flags.owndata:  # views allocate nothing
            tracer.out_bytes[key] += out.data.nbytes
        if out._vjps:
            out._vjps = tuple((p, traced_vjp(f)) for p, f in out._vjps)
        return out

    return traced


def layer_patches(tracer: Tracer) -> list:
    """Span wrappers for the layers' public functions, patched where each
    caller looks the name up: data imports the grid and dynamics
    functions by name, graphnets and attnflow call autodiff and attnflow
    through the module, and classes are patched on the class."""
    spans = [
        (data, "build_dataset", "data.build_dataset"),
        (data, "rollout", "dynamics.rollout"),
        (data, "build_grid", "grid.build_grid"),
        (data, "corrupt", "grid.corrupt"),
        (data, "add_selfloops", "grid.add_selfloops"),
        (graphnets.GraphTensors, "__init__", "graphnets.GraphTensors"),
        (graphnets, "gru", "graphnets.gru"),
        (graphnets, "init_node_states", "graphnets.init_node_states"),
        (graphnets, "implicit_readout", "graphnets.implicit_readout"),
        (graphnets.Model, "forward", "graphnets.Model.forward"),
        (attnflow, "transition_logits", "attnflow.transition_logits"),
        (attnflow, "transition_matrix", "attnflow.transition_matrix"),
        (attnflow, "flow_step", "attnflow.flow_step"),
        (attnflow, "attend_message", "attnflow.attend_message"),
        (autodiff.Tensor, "backward", "autodiff.backward"),
        (training, "train", "training.train"),
        (training, "select_snapshots", "training.select_snapshots"),
    ]
    patches = [(owner, attr, _span(tracer, name, vars(owner)[attr]))
               for owner, attr, name in spans]
    patches += [(autodiff, op, _traced_op(tracer, op, getattr(autodiff, op)))
                for op in AUTODIFF_OPS]
    return patches


def probe_patches(tracer: Tracer, checker) -> list:
    """Step and eval-batch spans plus output capture for the checker.

    Reads the functions currently installed, so call it after the layer
    wrappers are in place."""
    step, batch = tracer.name_id(STEP), tracer.name_id(EVAL_BATCH)
    zero_grad = vars(optim.Adam)["zero_grad"]
    adam_step = _span(tracer, "optim.Adam.step", vars(optim.Adam)["step"])
    predict = _span(tracer, "graphnets.Model.predict",
                    vars(graphnets.Model)["predict"])
    ranks_of = _span(tracer, "metrics.ranks_of", training.ranks_of)
    metrics = _span(tracer, "metrics.metrics", training.compute_metrics)
    flow_loss = _span(tracer, "attnflow.flow_loss", attnflow.flow_loss)

    def probe_zero_grad(self):
        tracer.begin(step)
        return zero_grad(self)

    def probe_step(self, *args, **kwargs):
        out = adam_step(self, *args, **kwargs)
        tracer.end_open(step)
        checker.on_step()
        return out

    def probe_predict(self, src_indices):
        tracer.begin(batch)
        return predict(self, src_indices)

    def probe_ranks_of(scores, target_indices):
        ranks = ranks_of(scores, target_indices)
        tracer.end_open(batch)
        checker.on_ranks(scores, target_indices, ranks)
        return ranks

    def probe_metrics(ranks):
        report = metrics(ranks)
        checker.on_report(ranks, report)
        return report

    def probe_flow_loss(focused, dst_indices):
        loss = flow_loss(focused, dst_indices)
        checker.on_loss(focused.data, float(loss.data))
        return loss

    return [
        (optim.Adam, "zero_grad", probe_zero_grad),
        (optim.Adam, "step", probe_step),
        (graphnets.Model, "predict", probe_predict),
        (training, "ranks_of", probe_ranks_of),
        (training, "compute_metrics", probe_metrics),
        (attnflow, "flow_loss", probe_flow_loss),
        (training, "evaluate", _span(tracer, "training.evaluate",
                                     training.evaluate)),
    ]
