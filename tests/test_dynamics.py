import math

import numpy as np
import pytest

from gridflow import dynamics, grid
from gridflow.dynamics import (
    BLOCKED,
    MAX_STEPS,
    edge_distribution,
    latent_direction,
    rollout,
)


def test_line_direction_is_constant():
    for t in range(5):
        assert np.allclose(latent_direction("line", t, [(3, 4)]), [1.0, 0.4])


def test_sine_direction_follows_time():
    for t in (0, 3, 11):
        d = latent_direction("sine", t, [(0, 0)])
        assert d[0] == 1.0
        assert d[1] == pytest.approx(math.sin(0.4 * t + 1.6))


def test_location_direction_uses_current_position():
    d = latent_direction("location", 7, [(1, 1), (5, 10)])
    theta = 0.2 * 5 + 0.2 * 10
    assert np.allclose(d, [math.cos(theta), math.sin(theta)])


def test_history_direction_uses_coordinate_maxima():
    history = [(2, 9), (6, 1), (4, 4)]
    theta = 0.2 * 6 + 0.2 * 9
    d = latent_direction("history", 0, history)
    assert np.allclose(d, [math.cos(theta), math.sin(theta)])
    # the current position participates in the maxima
    d2 = latent_direction("history", 0, history + [(8, 0)])
    theta2 = 0.2 * 8 + 0.2 * 9
    assert np.allclose(d2, [math.cos(theta2), math.sin(theta2)])


def test_latent_direction_requires_history():
    with pytest.raises(ValueError):
        latent_direction("line", 0, [])


def test_unknown_preset():
    with pytest.raises(ValueError):
        latent_direction("spiral", 0, [(0, 0)])


def test_edge_distribution_normalizes():
    p = edge_distribution([1.0, 0.4], 0.2)
    assert p.shape == (8,)
    assert p.sum() == pytest.approx(1.0)
    assert np.all(p > 0)


def test_edge_distribution_matches_formula():
    direction = np.array([0.3, -0.7])
    sigma = 0.5
    unit = direction / np.linalg.norm(direction)
    raw = np.array(
        [
            math.exp(float(grid.OFFSETS[t] @ unit)
                     / np.linalg.norm(grid.OFFSETS[t]) / sigma**2)
            for t in range(8)
        ]
    )
    assert np.allclose(edge_distribution(direction, sigma), raw / raw.sum())


def test_edge_distribution_prefers_aligned_type():
    p = edge_distribution([1.0, 0.0], 0.2)
    assert p.argmax() == grid.E
    p = edge_distribution([-1.0, -1.0], 0.2)
    assert p.argmax() == grid.SW


def test_edge_distribution_scale_invariance():
    a = edge_distribution([0.2, 0.5], 0.3)
    b = edge_distribution([2.0, 5.0], 0.3)
    assert np.allclose(a, b)


def test_edge_distribution_large_direction_is_stable():
    p = edge_distribution([1e300, 1e300], 0.05)
    assert np.isfinite(p).all()
    assert p.sum() == pytest.approx(1.0)
    assert np.array_equal(p, edge_distribution([1, 1], 0.05))


def test_edge_distribution_validation():
    with pytest.raises(ValueError):
        edge_distribution([0.0, 0.0], 0.2)
    with pytest.raises(ValueError):
        edge_distribution([1.0, 0.0], 0.0)


def test_empirical_frequencies_match_distribution():
    rng = np.random.default_rng(11)
    direction = [1.0, 0.4]
    p = edge_distribution(direction, 0.4)
    draws = 20000
    counts = np.zeros(8)
    cum = np.cumsum(p)
    for u in rng.random(draws):
        counts[min(int(np.searchsorted(cum, u)), 7)] += 1
    assert np.abs(counts / draws - p).max() < 0.02


def test_rollout_terminates_and_records_source():
    g = grid.build_grid(6)
    rng = np.random.default_rng(0)
    traj = rollout(g, 7, "line", 0.2, 10, rng)
    assert traj.source == 7
    assert traj.length <= 10
    assert traj.terminated_by in (MAX_STEPS, BLOCKED)
    assert traj.length == len(traj.nodes) - 1


def test_rollout_respects_graph_edges():
    g = grid.corrupt(grid.build_grid(8), grid.CorruptionParams(0.2, 0.0, seed=5))
    triples = {(int(a), int(b)) for a, b, _ in g.edges}
    for seed in range(20):
        traj = rollout(g, int(g.nodes[0]), "location", 0.5, 12,
                       np.random.default_rng(seed))
        for a, b in zip(traj.nodes, traj.nodes[1:]):
            assert (a, b) in triples


def test_rollout_blocked_at_border():
    # A 2x2 grid with a strongly eastward direction: from the east border
    # the sampled east move fails immediately.
    g = grid.build_grid(2)
    blocked = 0
    for seed in range(50):
        traj = rollout(g, 1, "line", 0.1, 5, np.random.default_rng(seed))
        if traj.terminated_by == BLOCKED and traj.length == 0:
            blocked += 1
    assert blocked > 25  # sigma 0.1 makes east overwhelmingly likely


def test_rollout_max_steps():
    g = grid.build_grid(30)
    traj = rollout(g, 0, "line", 0.2, 4, np.random.default_rng(3))
    if traj.terminated_by == MAX_STEPS:
        assert traj.length == 4


def test_rollout_unknown_source():
    g = grid.build_grid(3)
    with pytest.raises(ValueError):
        rollout(g, 99, "line", 0.2, 4, np.random.default_rng(0))


def test_rollout_deterministic_per_rng_seed():
    g = grid.build_grid(10)
    a = rollout(g, 12, "sine", 0.3, 16, np.random.default_rng(42))
    b = rollout(g, 12, "sine", 0.3, 16, np.random.default_rng(42))
    assert a.nodes == b.nodes and a.terminated_by == b.terminated_by
