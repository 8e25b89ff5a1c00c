import math

import numpy as np
import pytest

from gridflow import dynamics, grid
from gridflow.dynamics import (
    DIRECTION_PRESETS,
    edge_distribution,
    latent_direction,
    rollout,
)


def test_line_direction_is_constant():
    for t in range(5):
        assert np.allclose(latent_direction("line", t, 3, 4), [1.0, 0.4])


def test_sine_direction_follows_time():
    for t in (0, 3, 11):
        d = latent_direction("sine", t, 0, 0)
        assert d[0] == 1.0
        assert d[1] == pytest.approx(math.sin(0.4 * t + 1.6))


def test_location_direction_uses_current_position():
    d = latent_direction("location", 7, 5, 10)
    theta = 0.2 * 5 + 0.2 * 10
    assert np.allclose(d, [math.cos(theta), math.sin(theta)])


def test_history_direction_uses_coordinate_maxima():
    """history keys on the running maxima (x, y), which the caller keeps."""
    d = latent_direction("history", 0, 6, 9)
    theta = 0.2 * 6 + 0.2 * 9
    assert np.allclose(d, [math.cos(theta), math.sin(theta)])


def test_unknown_preset():
    with pytest.raises(ValueError):
        latent_direction("spiral", 0, 0, 0)


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


def scalar_rollout(graph, src, direction, sigma, max_steps, rng):
    """The one-trajectory-at-a-time sampler that rollout batches: the node
    ids of one rollout from src, drawing rng.random() once per step."""
    moves = {v: {} for v in graph.nodes.tolist()}
    for a, b, t in graph.edges.tolist():
        moves[a][t] = b
    n = graph.n_side
    cur = int(src)
    max_x, max_y = cur % n, cur // n
    nodes = [cur]
    for t in range(max_steps):
        if direction == "history":
            d = latent_direction(direction, t, max_x, max_y)
        else:
            d = latent_direction(direction, t, cur % n, cur // n)
        p = edge_distribution(d, sigma)
        e = int(np.searchsorted(np.cumsum(p), rng.random()))
        e = min(e, grid.N_DIRECTIONS - 1)
        if e not in moves[cur]:
            break
        cur = moves[cur][e]
        max_x, max_y = max(max_x, cur % n), max(max_y, cur // n)
        nodes.append(cur)
    return nodes


def scalar_paths(graph, direction, sigma, max_steps, n_rollout, seed):
    """rollout's output, built by the scalar oracle source by source."""
    rows = []
    for src in graph.nodes.tolist():
        rng = np.random.default_rng([seed, 1, src])
        for _ in range(n_rollout):
            nodes = scalar_rollout(graph, src, direction, sigma, max_steps, rng)
            rows.append(nodes + [-1] * (max_steps + 1 - len(nodes)))
    return np.array(rows, dtype=np.int64).reshape(-1, max_steps + 1)


def lengths(paths):
    return (paths >= 0).sum(axis=1)


def test_block_draw_equals_scalar_draws():
    """rollout draws each source's uniforms as one block; this holds only
    while numpy's rng.random(k) gives the doubles of k rng.random() calls."""
    for seed in ([0, 1, 5], [3, 1, 1023], 7):
        block = np.random.default_rng(seed).random(160)
        rng = np.random.default_rng(seed)
        assert block.tolist() == [rng.random() for _ in range(160)]


GRAPHS = {
    "full6": grid.build_grid(6),
    "full2": grid.build_grid(2),
    "node-drop": grid.corrupt(grid.build_grid(9), 0.2, 0.0, seed=4),
    "edge-drop": grid.corrupt(grid.build_grid(8), 0.0, 0.3, seed=1),
    "edge-drop2": grid.corrupt(grid.build_grid(2), 0.0, 0.5, seed=0),
    "empty": grid.corrupt(grid.build_grid(4), 1.0, 0.0, seed=0),
}


@pytest.mark.parametrize("direction", DIRECTION_PRESETS)
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_rollout_matches_scalar_oracle(name, direction):
    g = GRAPHS[name]
    for seed in range(3):
        for sigma, max_steps, n_rollout in ((0.3, 7, 4), (1.5, 3, 2)):
            got = rollout(g, direction, sigma, max_steps, n_rollout, seed)
            want = scalar_paths(g, direction, sigma, max_steps, n_rollout,
                                seed)
            assert got.dtype == want.dtype
            assert got.shape == (g.n_nodes * n_rollout, max_steps + 1)
            assert np.array_equal(got, want)


def test_rollout_terminates_and_records_source():
    g = grid.build_grid(6)
    paths = rollout(g, "line", 0.2, 10, 3, seed=0)
    assert paths.dtype == np.int64
    assert np.array_equal(paths[:, 0], np.repeat(g.nodes, 3))
    n = lengths(paths)
    assert np.all((n >= 1) & (n <= 11))
    assert np.array_equal(paths >= 0, np.arange(11) < n[:, None])


def test_rollout_respects_graph_edges():
    g = grid.corrupt(grid.build_grid(8), 0.2, 0.0, seed=5)
    pairs = {(int(a), int(b)) for a, b, _ in g.edges}
    paths = rollout(g, "location", 0.5, 12, 20, seed=0)
    for row in paths.tolist():
        nodes = [v for v in row if v >= 0]
        for a, b in zip(nodes, nodes[1:]):
            assert (a, b) in pairs


def test_rollout_blocked_at_border():
    # A 2x2 grid with a strongly eastward direction: from the east border
    # the sampled east move fails immediately.
    g = grid.build_grid(2)
    paths = rollout(g, "line", 0.1, 5, 50, seed=0)
    from_east = paths[paths[:, 0] == 1]
    assert np.sum(lengths(from_east) == 1) > 25  # east is overwhelmingly likely


def test_rollout_max_steps():
    g = grid.build_grid(30)
    paths = rollout(g, "line", 0.2, 4, 5, seed=3)
    assert paths.shape[1] == 5
    assert np.any(lengths(paths[paths[:, 0] == 0]) == 5)


def test_rollout_deterministic_per_rng_seed():
    g = grid.build_grid(10)
    a = rollout(g, "sine", 0.3, 16, 3, seed=42)
    b = rollout(g, "sine", 0.3, 16, 3, seed=42)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, rollout(g, "sine", 0.3, 16, 3, seed=43))
