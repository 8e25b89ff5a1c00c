import json

import numpy as np
import pytest

from gridflow.metrics import TIE_POLICY, MetricsReport, metrics, ranks_of


def test_known_rank_set():
    report = metrics([1, 2, 10, 100])
    assert report.hits1 == 0.25
    assert report.hits5 == 0.5
    assert report.hits10 == 0.75
    assert report.mr == pytest.approx(28.25)
    assert report.mrr == pytest.approx((1 + 0.5 + 0.1 + 0.01) / 4)
    assert report.n == 4


def test_rank_of_simple():
    scores = [[0.1, 0.9, 0.5]] * 3
    assert ranks_of(scores, [1, 2, 0]).tolist() == [1, 2, 3]


def test_ties_are_optimistic():
    scores = [[0.5, 0.5, 0.5, 0.1]] * 4
    assert ranks_of(scores, [0, 1, 2, 3]).tolist() == [1, 1, 1, 4]
    assert TIE_POLICY == "optimistic"


def test_ranks_of_matches_scalar_oracle():
    rng = np.random.default_rng(0)
    for trial in range(20):
        n = int(rng.integers(2, 40))
        scores = rng.integers(0, 5, size=(50, n)).astype(float)  # lots of ties
        targets = rng.integers(0, n, size=50)
        vec = ranks_of(scores, targets)
        for row, t, r in zip(scores, targets, vec):
            # independent oracle: position within a stable descending sort
            order = np.sort(row)[::-1]
            assert r == 1 + int(np.searchsorted(-order, -row[t]))
            # scalar oracle: scores strictly above the target's
            assert r == 1 + int(np.sum(row > row[t]))


def test_monotone_transform_preserves_ranks():
    rng = np.random.default_rng(1)
    scores = rng.standard_normal((30, 12))
    targets = rng.integers(0, 12, size=30)
    a = ranks_of(scores, targets)
    b = ranks_of(np.exp(2.0 * scores), targets)
    assert np.array_equal(a, b)


def test_hits_ordering():
    rng = np.random.default_rng(2)
    ranks = rng.integers(1, 200, size=500)
    report = metrics(ranks)
    assert report.hits1 <= report.hits5 <= report.hits10
    assert 0.0 <= report.mrr <= 1.0
    assert report.mr >= 1.0


def test_metrics_rejects_empty():
    with pytest.raises(ValueError):
        metrics([])


def test_json_export():
    doc = json.loads(json.dumps(metrics([1, 1, 3]).to_json_dict()))
    assert doc["tie_policy"] == "optimistic"
    assert doc["n"] == 3
    assert doc["hits1"] == pytest.approx(2 / 3)
    assert MetricsReport(**{k: doc[k] for k in
                            ("hits1", "hits5", "hits10", "mr", "mrr", "n")})
