"""Latent direction functions and trajectory sampling on grid graphs.

An edge type e is drawn at each step from
    P(e) proportional to exp(<d_e/|d_e|, d/|d|> / sigma^2)
over the 8 directional types, where d is the latent direction at the
current (time, position, history). Choosing an edge that does not exist in
the corrupted graph terminates the trajectory.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import GridGraph, N_DIRECTIONS, _UNIT_VECTORS

MAX_STEPS = "max_steps"
BLOCKED = "blocked_edge"
DIRECTION_PRESETS = ("line", "sine", "location", "history")


@dataclass
class DirectionFunction:
    """One of the four preset latent dynamics, or the general form
    d = (a1*cos(theta) + b1, a2*sin(theta) + b2),
    theta = omega*t + l1*x + l2*y + phi.
    """

    variant: str = "line"  # line | sine | location | history | general
    a1: float = 1.0
    b1: float = 0.0
    a2: float = 1.0
    b2: float = 0.0
    omega: float = 0.0
    l1: float = 0.0
    l2: float = 0.0
    phi: float = 0.0

    @classmethod
    def preset(cls, name: str) -> "DirectionFunction":
        name = name.lower()
        if name not in DIRECTION_PRESETS:
            raise ValueError(f"unknown direction preset {name!r}")
        return cls(variant=name)


def latent_direction(fn: DirectionFunction, t: int, history) -> np.ndarray:
    """Unnormalized direction vector at step t given the coordinate history
    (including the current position as its last element)."""
    if len(history) == 0:
        raise ValueError("history must contain at least the current position")
    x, y = history[-1]
    v = fn.variant
    if v == "line":
        return np.array([1.0, 0.4])
    if v == "sine":
        return np.array([1.0, math.sin(0.4 * t + 1.6)])
    if v == "location":
        theta = 0.2 * x + 0.2 * y
        return np.array([math.cos(theta), math.sin(theta)])
    if v == "history":
        theta = 0.2 * max(p[0] for p in history) + 0.2 * max(p[1] for p in history)
        return np.array([math.cos(theta), math.sin(theta)])
    if v == "general":
        theta = fn.omega * t + fn.l1 * x + fn.l2 * y + fn.phi
        return np.array(
            [fn.a1 * math.cos(theta) + fn.b1, fn.a2 * math.sin(theta) + fn.b2]
        )
    raise ValueError(f"unknown direction variant {fn.variant!r}")


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


@dataclass
class Trajectory:
    nodes: list
    terminated_by: str

    @property
    def length(self) -> int:
        """Number of transitions."""
        return len(self.nodes) - 1

    @property
    def source(self) -> int:
        return self.nodes[0]

    @property
    def destination(self) -> int:
        return self.nodes[-1]


def rollout(graph: GridGraph, src: int, direction: DirectionFunction,
            sigma: float, max_steps: int, rng) -> Trajectory:
    """Sample one trajectory from src.

    Sampling is always over all 8 directional types; selfloops are never
    drawn. Following a missing edge (including off-grid moves) terminates.
    """
    if src not in graph.node_set():
        raise ValueError(f"source node {src} not in graph")
    n = graph.n_side
    lookup = graph.edge_lookup()
    cur = int(src)
    history = [(cur % n, cur // n)]
    nodes = [cur]
    for t in range(max_steps):
        d = latent_direction(direction, t, history)
        p = edge_distribution(d, sigma)
        e = int(np.searchsorted(np.cumsum(p), rng.random()))
        e = min(e, N_DIRECTIONS - 1)
        if (cur, e) not in lookup:
            return Trajectory(nodes, BLOCKED)
        cur = graph.neighbor(cur, e)
        history.append((cur % n, cur // n))
        nodes.append(cur)
    return Trajectory(nodes, MAX_STEPS)
