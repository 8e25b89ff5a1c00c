"""Latent direction presets and trajectory sampling on grid graphs.

An edge type e is drawn at each step from
    P(e) proportional to exp(<d_e/|d_e|, d/|d|> / sigma^2)
over the 8 directional types, where d is the latent direction of one of
the presets in DIRECTION_PRESETS at the current time and position, or,
for history, at the running maxima of the coordinates visited.
Choosing an edge that does not exist in the corrupted graph terminates the
trajectory.

RNG contract: each source node draws from its own stream,
default_rng([seed, 1, source]), so its trajectories do not depend on the
other sources. Its rollouts take that stream's doubles in order, one per
step taken, the step that chooses a missing edge included; the edge type
is the number of entries of the cumulative distribution below the draw,
capped at 7.
"""
from __future__ import annotations

import math

import numpy as np

from .grid import GridGraph, N_DIRECTIONS, _UNIT_VECTORS

DIRECTION_PRESETS = ("line", "sine", "location", "history")


def latent_direction(direction: str, t: int, x: int, y: int) -> np.ndarray:
    """Unnormalized direction vector of a preset at step t and the position
    (x, y) that it keys on: the current node's for location, the running
    coordinate maxima, the current node's included, for history."""
    if direction == "line":
        return np.array([1.0, 0.4])
    if direction == "sine":
        return np.array([1.0, math.sin(0.4 * t + 1.6)])
    if direction in ("location", "history"):
        theta = 0.2 * x + 0.2 * y
        return np.array([math.cos(theta), math.sin(theta)])
    raise ValueError(f"unknown direction preset {direction!r}")


def edge_distribution(direction, sigma: float) -> np.ndarray:
    """Probabilities of the 8 directional edge types under the sampling law."""
    direction = np.asarray(direction, dtype=np.float64)
    norm = math.hypot(*direction)  # np.linalg.norm overflows past 1e154
    if norm == 0.0:
        raise ValueError("direction vector must be nonzero")
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    logits = (_UNIT_VECTORS @ (direction / norm)) / (sigma * sigma)
    logits -= logits.max()
    p = np.exp(logits)
    return p / p.sum()


def _cumulative_table(direction: str, sigma: float, max_steps: int,
                      n_side: int) -> np.ndarray:
    """Cumulative edge distribution of each key a preset's direction
    depends on, one row per key: one row for line, step t for sine, the
    node id for location, and y * n_side + x of the running coordinate
    maxima (x, y) for history."""
    if direction == "line":
        args = [(0, (0, 0))]
    elif direction == "sine":
        args = [(t, (0, 0)) for t in range(max_steps)]
    else:
        args = [(0, (k % n_side, k // n_side)) for k in range(n_side * n_side)]
    return np.array([np.cumsum(edge_distribution(
        latent_direction(direction, t, *xy), sigma)) for t, xy in args])


def rollout(graph: GridGraph, direction: str, sigma: float, max_steps: int,
            n_rollout: int, seed: int) -> np.ndarray:
    """Sample n_rollout trajectories from every surviving node, by the RNG
    contract in the module docstring; sigma must be finite and positive,
    and seed a non-negative Python int (GenParams checks both).

    Returns a (len(graph.nodes) * n_rollout, max_steps + 1) int64 array of
    node ids: row s * n_rollout + r is rollout r from graph.nodes[s],
    padded with -1 after the node where it stopped. Sampling is always
    over all 8 directional types; selfloops are never drawn. Every step
    runs at once over the walkers still live.
    """
    n = graph.n_side
    sources = graph.nodes
    draws = np.empty((len(sources), n_rollout * max_steps))
    # The uint32 entropy words of [seed, 1, src], as SeedSequence makes
    # them from that list: seed's words, low first, then 1, then src's one
    # word (src < 2^32). Only the last word changes from stream to stream.
    words = [seed >> shift & 0xFFFFFFFF
             for shift in range(0, max(seed.bit_length(), 1), 32)]
    entropy = np.array(words + [1, 0], dtype=np.uint32)
    for row, src in zip(draws, sources.tolist()):
        entropy[-1] = src
        np.random.default_rng(entropy).random(out=row)
    used = np.zeros(len(sources), dtype=np.int64)  # draws taken per source
    cum = _cumulative_table(direction, sigma, max_steps, n)
    moves = graph.move_table()
    paths = np.full((len(sources), n_rollout, max_steps + 1), -1,
                    dtype=np.int64)
    paths[:, :, 0] = sources[:, None]
    for r in range(n_rollout):
        walker = np.arange(len(sources))  # source index of each live walker
        cur = sources.copy()
        max_x, max_y = cur % n, cur // n
        for t in range(max_steps):
            if not len(walker):
                break
            if direction == "line":
                key = 0
            elif direction == "sine":
                key = t
            elif direction == "location":
                key = cur
            else:
                key = max_y * n + max_x
            u = draws[walker, used[walker]]
            used[walker] += 1
            e = np.minimum((cum[key] < u[:, None]).sum(axis=1),
                           N_DIRECTIONS - 1)
            nxt = moves[cur, e]
            ok = nxt >= 0
            walker, cur = walker[ok], nxt[ok]
            max_x = np.maximum(max_x[ok], cur % n)
            max_y = np.maximum(max_y[ok], cur // n)
            paths[walker, r, t + 1] = cur
    return paths.reshape(len(sources) * n_rollout, max_steps + 1)
