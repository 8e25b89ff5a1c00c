"""Attention-flow visualization: tab-separated trace export and an SVG
grid heatmap.

Heatmap values follow max aggregation of per-step max-normalized focused
attention: value_i = max over t of a^t_i / max_j a^t_j. The source cell is
therefore always exactly 1 (a^0 is one-hot). Corrupted-away nodes and
edges appear as gaps in the rendering.
"""
from __future__ import annotations

import numpy as np

from .grid import SELFLOOP, GridGraph

CELL, GAP = 18, 6  # heatmap cell side and the gap between cells, in pixels


def _as_float64(model):
    """Clone the model in double precision for publication-grade traces."""
    if model.cfg.np_dtype == np.float64:
        return model
    from dataclasses import replace

    clone = type(model)(replace(model.cfg, dtype="float64"), model.gt)
    clone.load_state_dict(model.state_dict())
    return clone


def attention_trace(model, src_index: int):
    """Focused/flowing attention per step for one source.

    Returns (focused (T+1, n), flowing (T, E)) numpy arrays.
    """
    if not model.cfg.explicit_flow:
        raise ValueError(
            "attention flow is unavailable for regular variants; use the "
            "implicit readout heatmap instead"
        )
    model = _as_float64(model)
    fr = model.forward(np.array([src_index]), trace=True)
    focused = np.stack([a[0] for a in fr.focused])
    flowing = np.stack([f[0] for f in fr.flowing])
    return focused, flowing


def write_node_trace(path, gt, focused) -> None:
    with open(path, "w") as f:
        f.write("step\tnode_id\tattention\n")
        for t, row in enumerate(focused):
            for i, a in enumerate(row):
                f.write(f"{t}\t{gt.node_ids[i]}\t{float(a)!r}\n")


def write_edge_trace(path, gt, flowing) -> None:
    with open(path, "w") as f:
        f.write("step\tsrc_id\tdst_id\tedge_type\tattention\n")
        for t, row in enumerate(flowing):
            for e, a in enumerate(row):
                f.write(
                    f"{t}\t{gt.src_ids[e]}\t{gt.dst_ids[e]}\t{gt.etype[e]}\t"
                    f"{float(a)!r}\n"
                )


def read_node_trace(path):
    """Inverse of write_node_trace; returns (steps, node_ids, attention)."""
    rows = np.loadtxt(path, skiprows=1, ndmin=2)
    return rows[:, 0].astype(int), rows[:, 1].astype(int), rows[:, 2]


def heatmap_values(focused: np.ndarray) -> np.ndarray:
    """Per-node max over steps of the step-max-normalized attention."""
    focused = np.asarray(focused, dtype=np.float64)
    peaks = focused.max(axis=1, keepdims=True)
    if np.any(peaks <= 0):
        raise ValueError("each step needs positive attention somewhere")
    return (focused / peaks).max(axis=0)


def _color(v: float) -> str:
    """White at 0 to dark red at 1."""
    v = min(max(float(v), 0.0), 1.0)
    r = 255 - int(round(75 * v))
    gb = int(round(255 * (1.0 - v)))
    return f"rgb({r},{gb},{gb})"


def render_svg(graph: GridGraph, values_by_id: dict, src_id: int,
               dst_id: int) -> str:
    """SVG heatmap of an N-by-N grid; y grows upward (row 0 at the bottom).

    values_by_id maps surviving node id to a value in [0, 1]. Surviving
    grid links are drawn as connectors, so corrupted nodes and edges show
    up as gaps.
    """
    n, cell, gap = graph.n_side, CELL, GAP
    pitch = cell + gap
    size = n * pitch + gap

    def corner(node_id):
        x, y = graph.coords(node_id)
        return gap + x * pitch, gap + (n - 1 - y) * pitch

    def center(node_id):
        px, py = corner(node_id)
        return px + cell / 2, py + cell / 2

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{size}" viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="#f4f4f4"/>',
    ]
    drawn = set()
    for src, dst, etype in graph.edges:
        if etype == SELFLOOP or (dst, src) in drawn:
            continue
        drawn.add((src, dst))
        (x1, y1), (x2, y2) = center(src), center(dst)
        parts.append(
            f'<line x1="{x1:g}" y1="{y1:g}" x2="{x2:g}" y2="{y2:g}" '
            f'stroke="#c8c8c8" stroke-width="1.5"/>'
        )
    for node_id in graph.nodes:
        px, py = corner(node_id)
        fill = _color(values_by_id.get(int(node_id), 0.0))
        parts.append(
            f'<rect x="{px}" y="{py}" width="{cell}" height="{cell}" '
            f'fill="{fill}" stroke="#888" stroke-width="0.5"/>'
        )
    for node_id, stroke in ((src_id, "#1a7f1a"), (dst_id, "#1a1aff")):
        cx, cy = center(node_id)
        parts.append(
            f'<circle cx="{cx:g}" cy="{cy:g}" r="{cell * 0.45:g}" '
            f'fill="none" stroke="{stroke}" stroke-width="2.5"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def flow_heatmap(model, gt, src_index: int, dst_index: int):
    """End-to-end: trace, heatmap values, SVG. Returns (focused, flowing,
    values_by_id, svg)."""
    focused, flowing = attention_trace(model, src_index)
    values = heatmap_values(focused)
    by_id = {int(gt.node_ids[i]): float(values[i]) for i in range(gt.n)}
    svg = render_svg(gt.graph, by_id,
                     int(gt.node_ids[src_index]), int(gt.node_ids[dst_index]))
    return focused, flowing, by_id, svg


def readout_heatmap(model, gt, src_index: int, dst_index: int):
    """Fallback for regular variants: heatmap of the implicit readout
    distribution (single step, so normalization is just division by max)."""
    probs = model.predict(np.array([src_index]))[0]
    values = probs / probs.max()
    by_id = {int(gt.node_ids[i]): float(values[i]) for i in range(gt.n)}
    svg = render_svg(gt.graph, by_id,
                     int(gt.node_ids[src_index]), int(gt.node_ids[dst_index]))
    return by_id, svg
