"""Corrupted N x N grid-world graphs with typed directed edges.

Node ids are canonical: id = y * n_side + x, assigned on the full grid and
kept stable through corruption (no renumbering). Edge types are coded 0..8
in the order E, NE, N, NW, W, SW, S, SE, SELFLOOP.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

E, NE, N, NW, W, SW, S, SE, SELFLOOP = range(9)
N_EDGE_TYPES = 9
N_DIRECTIONS = 8

# Integer (dx, dy) offsets of the 8 directional types, counterclockwise from east.
OFFSETS = np.array(
    [[1, 0], [1, 1], [0, 1], [-1, 1], [-1, 0], [-1, -1], [0, -1], [1, -1]],
    dtype=np.int64,
)

_UNIT_VECTORS = OFFSETS / np.linalg.norm(OFFSETS, axis=1, keepdims=True)


@dataclass
class GridGraph:
    """A (possibly corrupted) grid graph.

    nodes: sorted array of surviving node ids.
    edges: (E, 3) array of (src, dst, type) rows in canonical order
           (sorted by src, dst, type).
    """

    n_side: int
    nodes: np.ndarray
    edges: np.ndarray

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def n_directional_edges(self) -> int:
        return int(np.sum(self.edges[:, 2] != SELFLOOP))

    def has_selfloops(self) -> bool:
        return bool(np.any(self.edges[:, 2] == SELFLOOP))

    def coords(self, ids) -> np.ndarray:
        """(x, y) coordinates for node ids, shape (..., 2)."""
        ids = np.asarray(ids)
        return np.stack([ids % self.n_side, ids // self.n_side], axis=-1)

    def move_table(self) -> np.ndarray:
        """(n_side^2, 8) destination of each node id's directional edge of
        each type, -1 where the graph has no such edge."""
        table = np.full((self.n_side * self.n_side, N_DIRECTIONS), -1,
                        dtype=np.int64)
        src, dst, t = self.edges[self.edges[:, 2] != SELFLOOP].T
        table[src, t] = dst
        return table

    def to_json_dict(self) -> dict:
        xs = self.nodes % self.n_side
        ys = self.nodes // self.n_side
        return {
            "n_side": int(self.n_side),
            "nodes": [
                {"id": int(v), "x": int(x), "y": int(y)}
                for v, x, y in zip(self.nodes, xs, ys)
            ],
            "edges": self.edges.tolist(),
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "GridGraph":
        nodes = np.array(sorted(n["id"] for n in doc["nodes"]), dtype=np.int64)
        edges = _canonical_edges(np.array(doc["edges"], dtype=np.int64))
        return cls(doc["n_side"], nodes, edges)

    def save(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_json_dict(), f)

    @classmethod
    def load(cls, path) -> "GridGraph":
        with open(path) as f:
            return cls.from_json_dict(json.load(f))


def _canonical_edges(edges: np.ndarray) -> np.ndarray:
    if len(edges) == 0:
        return edges.reshape(0, 3)
    order = np.lexsort((edges[:, 2], edges[:, 1], edges[:, 0]))
    return edges[order]


def build_grid(n_side: int) -> GridGraph:
    """Full n x n grid: N^2 nodes and 2(2N-1)(2N-2) directional edges."""
    if n_side < 2:
        raise ValueError(f"n_side must be >= 2, got {n_side}")
    n = n_side
    nodes = np.arange(n * n, dtype=np.int64)
    xs, ys = nodes % n, nodes // n
    chunks = []
    for t in range(N_DIRECTIONS):
        dx, dy = OFFSETS[t]
        tx, ty = xs + dx, ys + dy
        ok = (tx >= 0) & (tx < n) & (ty >= 0) & (ty < n)
        src = nodes[ok]
        dst = ty[ok] * n + tx[ok]
        chunks.append(np.stack([src, dst, np.full(len(src), t)], axis=1))
    edges = _canonical_edges(np.concatenate(chunks))
    return GridGraph(n_side, nodes, edges)


def corrupt(graph: GridGraph, p_node_drop: float, p_edge_drop: float,
            seed: int) -> GridGraph:
    """Drop nodes, then undirected edge pairs, then isolated nodes.

    Dropping a node removes all its incident edges; dropping an edge removes
    both directions. Deterministic given seed: one random per node, then
    one per representative edge (types 0..3) in canonical order.
    """
    for p in (p_node_drop, p_edge_drop):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"drop probability {p} outside [0, 1]")
    if graph.has_selfloops():
        raise ValueError("corrupt expects a graph without selfloops")
    rng = np.random.default_rng(seed)
    n_ids = graph.n_side * graph.n_side

    alive = np.zeros(n_ids, dtype=bool)  # by node id
    alive[graph.nodes] = rng.random(graph.n_nodes) >= p_node_drop

    src, dst, t = graph.edges.T
    # An undirected pair is named by its representative, the direction coded
    # 0..3; on a grid its source and type determine its destination.
    rep = t < 4
    pair = np.where(rep, src, dst) * 4 + t % 4
    dropped = np.zeros(4 * n_ids, dtype=bool)
    dropped[pair[rep]] = rng.random(int(rep.sum())) < p_edge_drop

    # A filtered canonical edge array stays canonical. Removing the nodes
    # that no kept edge touches deletes no edges, so one pass suffices.
    edges = graph.edges[alive[src] & alive[dst] & ~dropped[pair]]
    return GridGraph(graph.n_side, np.unique(edges[:, :2]), edges)


def add_selfloops(graph: GridGraph) -> GridGraph:
    """One (v, v, SELFLOOP) per surviving node; idempotent."""
    base = graph.edges[graph.edges[:, 2] != SELFLOOP]
    loops = np.stack(
        [graph.nodes, graph.nodes, np.full(graph.n_nodes, SELFLOOP, dtype=np.int64)],
        axis=1,
    )
    edges = _canonical_edges(np.concatenate([base, loops.reshape(-1, 3)]))
    return GridGraph(graph.n_side, graph.nodes.copy(), edges)
