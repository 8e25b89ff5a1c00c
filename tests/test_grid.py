import json

import numpy as np
import pytest

from gridflow import grid
from gridflow.grid import GridGraph


def reverse_edge_type(edge_type):
    """Opposite direction: E<->W, NE<->SW, N<->S, NW<->SE; selfloop fixed."""
    return edge_type if edge_type == grid.SELFLOOP else (edge_type + 4) % 8


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
    """The oracle of the edge-pair tests below."""
    assert reverse_edge_type(grid.E) == grid.W
    assert reverse_edge_type(grid.NE) == grid.SW
    assert reverse_edge_type(grid.SELFLOOP) == grid.SELFLOOP
    for t in range(8):
        assert reverse_edge_type(reverse_edge_type(t)) == t


def test_every_directed_edge_has_reverse():
    g = grid.build_grid(5)
    triples = {tuple(e) for e in g.edges.tolist()}
    for src, dst, etype in g.edges:
        assert (dst, src, reverse_edge_type(etype)) in triples


def test_corruption_params_validate():
    g = grid.build_grid(3)
    with pytest.raises(ValueError, match="outside"):
        grid.corrupt(g, -0.1, 0.0, seed=0)
    with pytest.raises(ValueError, match="outside"):
        grid.corrupt(g, 0.0, 1.5, seed=0)


def test_node_drop_is_deterministic():
    g = grid.build_grid(8)
    a = grid.corrupt(g, 0.1, 0.0, seed=3)
    b = grid.corrupt(g, 0.1, 0.0, seed=3)
    assert np.array_equal(a.nodes, b.nodes)
    assert np.array_equal(a.edges, b.edges)
    c = grid.corrupt(g, 0.1, 0.0, seed=4)
    assert not np.array_equal(a.nodes, c.nodes)


def test_node_drop_removes_incident_edges():
    g = grid.build_grid(6)
    c = grid.corrupt(g, 0.1, 0.0, seed=0)
    alive = set(c.nodes.tolist())
    for src, dst, _ in c.edges:
        assert src in alive and dst in alive


def test_edge_drop_removes_both_directions():
    g = grid.build_grid(6)
    c = grid.corrupt(g, 0.0, 0.2, seed=1)
    triples = {tuple(e) for e in c.edges.tolist()}
    for src, dst, etype in c.edges:
        assert (dst, src, reverse_edge_type(etype)) in triples
    assert c.n_edges < g.n_edges


def test_no_isolated_nodes_after_corruption():
    for seed in range(5):
        c = grid.corrupt(grid.build_grid(6), 0.0, 0.45, seed=seed)
        degree = {int(v): 0 for v in c.nodes}
        for src, dst, _ in c.edges:
            degree[src] += 1
            degree[dst] += 1
        assert all(d > 0 for d in degree.values())


def corrupt_oracle(graph, p_node_drop, p_edge_drop, seed):
    """The set-based corruption that grid.corrupt's masks replaced: the
    same draws, kept nodes and dropped pairs as sets, edges re-sorted."""
    rng = np.random.default_rng(seed)
    node_keep = rng.random(graph.n_nodes) >= p_node_drop
    kept_nodes = set(graph.nodes[node_keep].tolist())
    rep_edges = graph.edges[graph.edges[:, 2] < 4]
    rep_keep = rng.random(len(rep_edges)) >= p_edge_drop
    dropped_pairs = set()
    for (src, dst, t), keep in zip(rep_edges.tolist(), rep_keep.tolist()):
        if not keep:
            dropped_pairs.add((src, dst, t))
            dropped_pairs.add((dst, src, reverse_edge_type(t)))
    kept = [(src, dst, t) for src, dst, t in graph.edges.tolist()
            if src in kept_nodes and dst in kept_nodes
            and (src, dst, t) not in dropped_pairs]
    edges = np.array(kept, dtype=np.int64).reshape(-1, 3)
    edges = edges[np.lexsort((edges[:, 2], edges[:, 1], edges[:, 0]))]
    touched = set(edges[:, 0].tolist()) | set(edges[:, 1].tolist())
    nodes = np.array(sorted(kept_nodes & touched), dtype=np.int64)
    return nodes, edges


@pytest.mark.parametrize("n_side", [2, 3, 7, 32])
def test_corrupt_matches_set_oracle(n_side):
    g = grid.build_grid(n_side)
    for p_node_drop, p_edge_drop in ((0.0, 0.0), (0.1, 0.0), (0.0, 0.2),
                                     (0.3, 0.3), (0.5, 0.0), (0.0, 0.5),
                                     (0.9, 0.9), (1.0, 0.0), (0.0, 1.0)):
        for seed in range(3):
            c = grid.corrupt(g, p_node_drop, p_edge_drop, seed)
            nodes, edges = corrupt_oracle(g, p_node_drop, p_edge_drop, seed)
            for got, want in ((c.nodes, nodes), (c.edges, edges)):
                assert got.dtype == want.dtype
                assert got.shape == want.shape
                assert np.array_equal(got, want)


def test_node_drop_rate_statistics():
    kept = []
    g = grid.build_grid(16)
    for seed in range(30):
        c = grid.corrupt(g, 0.1, 0.0, seed=seed)
        kept.append(c.n_nodes)
    # 256 nodes, keep probability 0.9 before isolated-node cleanup.
    assert 0.85 < np.mean(kept) / 256 < 0.93


def test_selfloop_augmentation():
    c = grid.corrupt(grid.build_grid(5), 0.1, 0.0, seed=2)
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
        grid.corrupt(grid.build_grid(5), 0.1, 0.1, seed=9)
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
    table = g.move_table()
    assert table.shape == (9, 8) and table.dtype == np.int64
    assert {t: d for t, d in enumerate(table[0].tolist()) if d >= 0} == {
        grid.E: 1, grid.NE: 4, grid.N: 3}
    assert table[4, grid.SW] == 0 and np.all(table[4] >= 0)
    c = grid.add_selfloops(grid.corrupt(grid.build_grid(6), 0.3, 0.3, seed=2))
    table = c.move_table()
    src, t = np.nonzero(table >= 0)
    rows = np.stack([src, table[src, t], t], axis=1)
    assert sorted(rows.tolist()) == c.edges[c.edges[:, 2] != grid.SELFLOOP].tolist()
