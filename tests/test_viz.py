import numpy as np
import pytest

from gridflow import autodiff, grid, viz
from gridflow.graphnets import GraphTensors, Model, ModelConfig


def make_model(name="ggnn-mul", dtype="float32"):
    g = grid.add_selfloops(
        grid.corrupt(grid.build_grid(5), 0.1, 0.0, seed=1))
    gt = GraphTensors(g)
    cfg = ModelConfig.from_name(name, dims=10, attn_dims=4, steps=3, dtype=dtype)
    return Model(cfg, gt, seed=0), gt


def test_attention_trace_shapes_and_conservation():
    model, gt = make_model()
    focused, flowing = viz.attention_trace(model, 0)
    assert focused.shape == (4, gt.n)
    assert flowing.shape == (3, gt.n_edges)
    # a^0 is one-hot on the source
    assert focused[0, 0] == 1.0 and focused[0].sum() == 1.0
    # conservation at publication tolerance regardless of model dtype
    assert np.abs(focused.sum(axis=1) - 1.0).max() < 1e-9
    assert np.abs(flowing.sum(axis=1) - 1.0).max() < 1e-9


def test_attention_trace_records_no_tape(monkeypatch):
    """The float64 clone's parameters require grad, but nothing
    differentiates a trace, so its forward runs with recording off."""
    model, _ = make_model()
    forward, enabled = Model.forward, []

    def recording(self, *args, **kwargs):
        enabled.append(autodiff._grad_enabled)
        return forward(self, *args, **kwargs)

    monkeypatch.setattr(Model, "forward", recording)
    viz.attention_trace(model, 0)
    assert enabled == [False]


def test_attention_trace_rejects_regular_variants():
    model, _ = make_model("ggnn")
    with pytest.raises(ValueError):
        viz.attention_trace(model, 0)


def test_heatmap_values():
    focused = np.array([[1.0, 0.0, 0.0], [0.2, 0.6, 0.2], [0.1, 0.1, 0.8]])
    v = viz.heatmap_values(focused)
    # per-node: node 0 peaks at step 0 (1/1), node 1 at step 1 (0.6/0.6),
    # node 2 at step 2 (0.8/0.8)
    assert np.allclose(v, [1.0, 1.0, 1.0])
    v2 = viz.heatmap_values(np.array([[0.5, 0.25, 0.25]]))
    assert np.allclose(v2, [1.0, 0.5, 0.5])
    with pytest.raises(ValueError):
        viz.heatmap_values(np.zeros((1, 3)))


def test_source_cell_is_always_one():
    model, gt = make_model("rw-stationary")
    focused, _ = viz.attention_trace(model, 2)
    values = viz.heatmap_values(focused)
    assert values[2] == 1.0
    assert values.max() <= 1.0 and values.min() >= 0.0


def test_trace_files_round_trip(tmp_path):
    model, gt = make_model()
    focused, flowing = viz.attention_trace(model, 1)
    npath = tmp_path / "nodes.tsv"
    epath = tmp_path / "edges.tsv"
    viz.write_node_trace(npath, gt, focused)
    viz.write_edge_trace(epath, gt, flowing)

    header = npath.read_text().splitlines()[0]
    assert header == "step\tnode_id\tattention"
    steps, ids, attn = np.loadtxt(npath, skiprows=1, unpack=True)
    assert len(steps) == focused.size
    back = attn.reshape(focused.shape)
    assert np.array_equal(back, focused)  # repr round-trips exactly
    assert set(ids.tolist()) == set(gt.node_ids.tolist())

    lines = epath.read_text().splitlines()
    assert lines[0] == "step\tsrc_id\tdst_id\tedge_type\tattention"
    assert len(lines) == 1 + flowing.size
    first = lines[1].split("\t")
    assert int(first[0]) == 0
    assert int(first[1]) == gt.src_ids[0] and int(first[2]) == gt.dst_ids[0]


def test_render_svg_structure():
    g = grid.add_selfloops(
        grid.corrupt(grid.build_grid(4), 0.2, 0.0, seed=0))
    values = {int(v): 0.5 for v in g.nodes}
    svg = viz.render_svg(g, values, int(g.nodes[0]), int(g.nodes[-1]))
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    # one cell per surviving node plus the background rect
    assert svg.count("<rect") == g.n_nodes + 1
    # undirected links drawn once each, selfloops skipped
    assert svg.count("<line") == g.n_directional_edges() // 2
    # source and destination markers
    assert svg.count("<circle") == 2
    assert 'stroke="#1a7f1a"' in svg and 'stroke="#1a1aff"' in svg


def test_color_ramp():
    assert viz._color(0.0) == "rgb(255,255,255)"
    assert viz._color(1.0) == "rgb(180,0,0)"
    assert viz._color(-1.0) == "rgb(255,255,255)"  # clamped


def test_flow_heatmap_end_to_end():
    model, gt = make_model("fullgn-noact")
    focused, flowing, by_id, svg = viz.flow_heatmap(model, gt, 0, gt.n - 1)
    assert set(by_id) == set(int(v) for v in gt.node_ids)
    assert max(by_id.values()) == pytest.approx(1.0)
    assert "<svg" in svg


def test_readout_heatmap_for_regular_variants():
    model, gt = make_model("ggnn")
    by_id, svg = viz.readout_heatmap(model, gt, 0, 1)
    assert max(by_id.values()) == pytest.approx(1.0)
    assert "<svg" in svg
