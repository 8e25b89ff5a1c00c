"""Output checks for every train step and eval batch a run makes.

Each operation is checked twice:

* against itself: losses are finite, every row of a prediction sums to 1
  (the focused attention of flow variants included), ranks equal a
  sort-based oracle, and each MetricsReport equals the metrics recomputed
  from the ranks it was given;
* against the reference recorded by record_reference.py for the same
  workload and seed: per-microbatch train losses within LOSS_RTOL, ranks
  equal up to ties that float32 rounding could flip (PROB_RTOL), and the
  MetricsReport equal whenever all its ranks are.

An operation that fails any check, or raises, counts once in `failed`.
"""
from __future__ import annotations

import numpy as np

# A rewrite that reorders float32 sums moves the loss by about 1e-6 after
# one step; 1e-3 leaves room for the drift over a few hundred Adam steps.
LOSS_RTOL = 1e-3
# Two nodes whose probabilities differ by less than this share of the
# target's probability may swap rank without counting as a mismatch.
PROB_RTOL = 1e-4
ROWSUM_ATOL = 1e-3
REPORT_FIELDS = ("hits1", "hits5", "hits10", "mr", "mrr", "n")


def report_fields(report) -> list:
    return [getattr(report, f) for f in REPORT_FIELDS]


def oracle_ranks(scores: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """1 + number of scores strictly above the target's, by sorting."""
    out = np.empty(len(targets), dtype=np.int64)
    for i, (row, t) in enumerate(zip(scores, targets)):
        srt = np.sort(row)
        out[i] = 1 + len(row) - np.searchsorted(srt, row[t], side="right")
    return out


def oracle_report(ranks: np.ndarray) -> list:
    r = ranks.astype(np.float64)
    return [float((r <= 1).mean()), float((r <= 5).mean()),
            float((r <= 10).mean()), float(r.mean()), float((1.0 / r).mean()),
            len(r)]


def _close(a, b, rtol) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(b))


class Checker:
    """Collects the outputs the probes capture during one unit of work and
    checks them when the unit ends, outside every timed span."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.train_examples = 0
        self.eval_examples = 0
        self.units: list[list] = []  # per unit, the op summaries
        self._events: list[tuple] = []

    # -- capture (called from the probes) ---------------------------------

    def on_loss(self, focused, value):
        self._events.append(("loss", focused, value))

    def on_step(self):
        self._events.append(("step",))

    def on_ranks(self, scores, targets, ranks):
        self._events.append(("batch", np.asarray(scores),
                             np.asarray(targets), np.asarray(ranks)))

    def on_report(self, ranks, report):
        self._events.append(("report", np.asarray(ranks), report))

    # -- checking ----------------------------------------------------------

    def begin_unit(self):
        self._events = []

    def abort(self, message: str):
        """The unit raised: its operation in flight counts as failed."""
        self.attempted += 1
        self.failed += 1
        self.errors.append(message)
        self._events = []

    def end_unit(self, ref_ops: list | None):
        """Check the unit's operations; ref_ops is the reference for this
        unit, or None when none was recorded."""
        ops, errs = [], []
        losses, since_report, exact = [], [], True
        for ev in self._events:
            kind = ev[0]
            if kind == "loss":
                losses.append(ev)
                continue
            if kind == "report":
                if not ops:
                    errs.append(["MetricsReport without an eval batch"])
                    ops.append({"kind": "report"})
                    continue
                ref = _ref(ref_ops, len(ops) - 1)
                errs[-1] += self._check_report(ev, ops[-1], ref, since_report,
                                               exact)
                since_report, exact = [], True
                continue
            ref = _ref(ref_ops, len(ops))
            if kind == "step":
                op, e = self._check_step(losses, ref)
                losses = []
            else:
                op, e, same = self._check_batch(ev, ref)
                since_report.append(ev[3])
                exact = exact and same
            ops.append(op)
            errs.append(e)
        if losses:
            errs.append([f"{len(losses)} losses after the last optimizer step"])
            ops.append({"kind": "loss"})
        if ref_ops is not None and len(ops) != len(ref_ops):
            errs.append([f"unit made {len(ops)} operations, reference "
                         f"{len(ref_ops)}"])
        for e in errs:
            self.attempted += 1
            if e:
                self.failed += 1
                self.errors.extend(e)
        self.units.append(ops)
        self._events = []

    def _check_step(self, losses, ref):
        values = [v for _, _, v in losses]
        errs = []
        if not values:
            errs.append("optimizer step without a loss")
        for focused, value in ((f, v) for _, f, v in losses):
            self.train_examples += focused.shape[0]
            if not np.isfinite(value):
                errs.append(f"non-finite loss {value}")
            sums = focused.sum(axis=1, dtype=np.float64)
            if np.max(np.abs(sums - 1.0)) > ROWSUM_ATOL:
                errs.append("focused attention rows do not sum to 1")
        if ref is not None:
            if ref.get("kind") != "step" or len(ref["losses"]) != len(values):
                errs.append("step does not line up with the reference")
            elif not all(_close(a, b, LOSS_RTOL)
                         for a, b in zip(values, ref["losses"])):
                errs.append(f"losses {values} differ from reference "
                            f"{ref['losses']}")
        return {"kind": "step", "losses": values}, errs

    def _check_batch(self, ev, ref):
        _, scores, targets, ranks = ev
        errs = []
        self.eval_examples += len(targets)
        scores = scores.astype(np.float64)
        sums = scores.sum(axis=1)
        if np.max(np.abs(sums - 1.0)) > ROWSUM_ATOL:
            errs.append("prediction rows do not sum to 1")
        if not np.array_equal(ranks, oracle_ranks(scores, targets)):
            errs.append("ranks_of disagrees with the sort-based oracle")
        same = True
        if ref is not None:
            want = np.asarray(ref.get("ranks", []))
            same = np.array_equal(ranks, want)
            if ref.get("kind") != "batch" or want.shape != ranks.shape:
                errs.append("eval batch does not line up with the reference")
                same = False
            elif not same:
                pt = scores[np.arange(len(targets)), targets]
                tol = PROB_RTOL * np.abs(pt) + 1e-30
                lo = 1 + (scores > (pt + tol)[:, None]).sum(axis=1)
                hi = (scores > (pt - tol)[:, None]).sum(axis=1)
                bad = int(np.sum((want < lo) | (want > hi)))
                if bad:
                    errs.append(f"{bad} ranks differ from the reference "
                                "beyond float32 ties")
        return {"kind": "batch", "ranks": ranks.tolist()}, errs, same

    def _check_report(self, ev, op, ref, since_report, exact):
        _, ranks, report = ev
        got = report_fields(report)
        errs = []
        if not since_report or not np.array_equal(
                ranks, np.concatenate(since_report)):
            errs.append("MetricsReport ranks are not the evaluated batches'")
        if not all(_close(a, b, 1e-12) for a, b in
                   zip(got, oracle_report(ranks))):
            errs.append(f"MetricsReport {got} does not match its ranks")
        if ref is not None and exact and "report" in ref:
            if not all(_close(a, b, 1e-9) for a, b in zip(got, ref["report"])):
                errs.append(f"MetricsReport {got} differs from reference "
                            f"{ref['report']}")
        op["report"] = got
        return errs


def _ref(ref_ops, i):
    if ref_ops is None or i >= len(ref_ops):
        return None
    return ref_ops[i]
