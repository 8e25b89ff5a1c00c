"""Ranking metrics: Hits@k, mean rank, mean reciprocal rank.

Tie policy is optimistic: rank = 1 + number of scores strictly greater
than the target's, so ties never count against the target.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

TIE_POLICY = "optimistic"


@dataclass
class MetricsReport:
    hits1: float
    hits5: float
    hits10: float
    mr: float
    mrr: float
    n: int

    def to_json_dict(self) -> dict:
        doc = dataclasses.asdict(self)
        doc["tie_policy"] = TIE_POLICY
        return doc


def ranks_of(scores: np.ndarray, target_indices) -> np.ndarray:
    """1-based rank of each row's target in a (B, n) score matrix, under
    the optimistic tie policy."""
    scores = np.asarray(scores)
    targets = scores[np.arange(len(scores)), np.asarray(target_indices)]
    return 1 + np.sum(scores > targets[:, None], axis=1)


def metrics(ranks) -> MetricsReport:
    ranks = np.asarray(ranks, dtype=np.float64)
    if len(ranks) == 0:
        raise ValueError("metrics needs at least one rank")
    return MetricsReport(
        hits1=float(np.mean(ranks <= 1)),
        hits5=float(np.mean(ranks <= 5)),
        hits10=float(np.mean(ranks <= 10)),
        mr=float(np.mean(ranks)),
        mrr=float(np.mean(1.0 / ranks)),
        n=len(ranks),
    )
