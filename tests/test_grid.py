import json

import numpy as np
import pytest

from gridflow import grid
from gridflow.grid import CorruptionParams, GridGraph


def test_full_grid_counts():
    for n in (2, 3, 8):
        g = grid.build_grid(n)
        assert g.n_nodes == n * n
        assert g.n_edges == 2 * (2 * n - 1) * (2 * n - 2)


def test_build_grid_rejects_tiny():
    with pytest.raises(ValueError):
        grid.build_grid(1)


def test_node_ids_are_row_major():
    g = grid.build_grid(3)
    assert np.array_equal(g.coords(4), [1, 1])
    assert np.array_equal(g.coords(7), [1, 2])


def test_edge_types_match_offsets():
    g = grid.build_grid(4)
    for src, dst, etype in g.edges:
        dx, dy = grid.OFFSETS[etype]
        x, y = g.coords(src)
        assert (x + dx, y + dy) == tuple(g.coords(dst))


def test_reverse_edge_type():
    assert grid.reverse_edge_type(grid.E) == grid.W
    assert grid.reverse_edge_type(grid.NE) == grid.SW
    assert grid.reverse_edge_type(grid.SELFLOOP) == grid.SELFLOOP
    for t in range(8):
        assert grid.reverse_edge_type(grid.reverse_edge_type(t)) == t


def test_every_directed_edge_has_reverse():
    g = grid.build_grid(5)
    triples = {tuple(e) for e in g.edges.tolist()}
    for src, dst, etype in g.edges:
        assert (dst, src, grid.reverse_edge_type(etype)) in triples


def test_corruption_params_validate():
    with pytest.raises(ValueError):
        CorruptionParams(p_node_drop=-0.1)
    with pytest.raises(ValueError):
        CorruptionParams(p_edge_drop=1.5)


def test_node_drop_is_deterministic():
    g = grid.build_grid(8)
    a = grid.corrupt(g, CorruptionParams(0.1, 0.0, seed=3))
    b = grid.corrupt(g, CorruptionParams(0.1, 0.0, seed=3))
    assert np.array_equal(a.nodes, b.nodes)
    assert np.array_equal(a.edges, b.edges)
    c = grid.corrupt(g, CorruptionParams(0.1, 0.0, seed=4))
    assert not np.array_equal(a.nodes, c.nodes)


def test_node_drop_removes_incident_edges():
    g = grid.build_grid(6)
    c = grid.corrupt(g, CorruptionParams(0.1, 0.0, seed=0))
    alive = set(c.nodes.tolist())
    for src, dst, _ in c.edges:
        assert src in alive and dst in alive


def test_edge_drop_removes_both_directions():
    g = grid.build_grid(6)
    c = grid.corrupt(g, CorruptionParams(0.0, 0.2, seed=1))
    triples = {tuple(e) for e in c.edges.tolist()}
    for src, dst, etype in c.edges:
        assert (dst, src, grid.reverse_edge_type(etype)) in triples
    assert c.n_edges < g.n_edges


def test_no_isolated_nodes_after_corruption():
    for seed in range(5):
        c = grid.corrupt(grid.build_grid(6), CorruptionParams(0.0, 0.45, seed=seed))
        degree = {int(v): 0 for v in c.nodes}
        for src, dst, _ in c.edges:
            degree[src] += 1
            degree[dst] += 1
        assert all(d > 0 for d in degree.values())


def test_node_drop_rate_statistics():
    kept = []
    g = grid.build_grid(16)
    for seed in range(30):
        c = grid.corrupt(g, CorruptionParams(0.1, 0.0, seed=seed))
        kept.append(c.n_nodes)
    # 256 nodes, keep probability 0.9 before isolated-node cleanup.
    assert 0.85 < np.mean(kept) / 256 < 0.93


def test_selfloop_augmentation():
    c = grid.corrupt(grid.build_grid(5), CorruptionParams(0.1, 0.0, seed=2))
    s = grid.add_selfloops(c)
    assert s.has_selfloops()
    loops = s.edges[s.edges[:, 2] == grid.SELFLOOP]
    assert set(loops[:, 0]) == set(s.nodes)
    assert np.array_equal(loops[:, 0], loops[:, 1])
    # idempotent
    again = grid.add_selfloops(s)
    assert np.array_equal(again.edges, s.edges)
    # directional count unchanged
    assert s.n_directional_edges() == c.n_edges


def test_json_round_trip(tmp_path):
    g = grid.add_selfloops(
        grid.corrupt(grid.build_grid(5), CorruptionParams(0.1, 0.1, seed=9))
    )
    path = tmp_path / "graph.json"
    g.save(path)
    loaded = GridGraph.load(path)
    assert loaded.n_side == g.n_side
    assert np.array_equal(loaded.nodes, g.nodes)
    assert np.array_equal(loaded.edges, g.edges)
    doc = json.loads(path.read_text())
    assert set(doc) >= {"n_side", "nodes", "edges"}


def test_neighbor_and_has_edge():
    g = grid.build_grid(3)
    assert g.moves[0] == {grid.E: 1, grid.NE: 4, grid.N: 3}
    assert g.moves[4][grid.SW] == 0 and len(g.moves[4]) == 8
    c = grid.corrupt(grid.build_grid(6), CorruptionParams(0.0, 0.3, seed=2))
    assert c.moves.keys() == set(c.nodes.tolist())
    assert sorted([s, d, t] for s, step in c.moves.items()
                  for t, d in step.items()) == c.edges.tolist()
