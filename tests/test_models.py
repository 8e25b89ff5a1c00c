import numpy as np
import pytest

from gridflow import autodiff as ad, grid
from gridflow.graphnets import (
    MODEL_NAMES,
    GraphTensors,
    Model,
    ModelConfig,
    implicit_readout,
)


def small_graph(seed=0):
    g = grid.corrupt(grid.build_grid(4), grid.CorruptionParams(0.1, 0.0, seed=seed))
    return grid.add_selfloops(g)


def small_cfg(name, **kw):
    base = dict(dims=10, attn_dims=4, heads=5, steps=3, dtype="float64")
    base.update(kw)
    return ModelConfig.from_name(name, **base)


def test_model_name_list():
    assert len(MODEL_NAMES) == 14
    assert "ggnn-mulmlp" in MODEL_NAMES
    assert "rw-stationary" in MODEL_NAMES
    for name in MODEL_NAMES:
        cfg = small_cfg(name)
        assert cfg.name == name


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(core="transformer")
    with pytest.raises(ValueError):
        ModelConfig(acting="gated")
    with pytest.raises(ValueError):
        ModelConfig(dims=8, attn_dims=8)
    with pytest.raises(ValueError):
        ModelConfig(core="gat", dims=42, heads=5, attn_dims=8)


def test_explicit_flow_flag():
    assert not small_cfg("fullgn").explicit_flow
    assert small_cfg("fullgn-noact").explicit_flow
    assert small_cfg("rw-dynamic").explicit_flow


def test_graph_tensors_require_selfloops():
    with pytest.raises(ValueError):
        GraphTensors(grid.build_grid(3))


def test_graph_tensors_layout():
    gt = GraphTensors(small_graph())
    assert gt.n == gt.graph.n_nodes
    assert gt.n_edges == len(gt.graph.edges)
    # edges are sorted by type; (node, type) keys index node-side tables
    assert np.all(np.diff(gt.etype) >= 0)
    assert np.array_equal(gt.src_type, gt.src * gt.n_types + gt.etype)
    assert np.array_equal(gt.dst_type, gt.dst * gt.n_types + gt.etype)
    # compact indices round-trip
    assert np.array_equal(gt.node_ids[gt.to_indices(gt.node_ids)], gt.node_ids)


def test_graph_tensors_reject_shared_node_type_keys():
    g = grid.add_selfloops(grid.build_grid(3))
    assert [0, 1, grid.E] in g.edges.tolist()
    # a second E edge out of node 0, and a second E edge into node 1
    for extra in ([0, 4, grid.E], [3, 1, grid.E]):
        bad = grid.GridGraph(g.n_side, g.nodes.copy(),
                             np.concatenate([g.edges, [extra]]))
        with pytest.raises(ValueError, match="share"):
            GraphTensors(bad)


def test_all_variants_forward_and_backward():
    g = small_graph()
    for name in MODEL_NAMES:
        model = Model(small_cfg(name), g, seed=1)
        src = np.array([0, 2])
        dst = np.array([1, 3])
        probs = model.predict(src)
        assert probs.shape == (2, model.gt.n)
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9
        assert probs.min() >= 0.0
        loss = model.loss(src, dst)
        assert np.isfinite(float(loss.data))
        loss.backward(free_graph=True)
        grads = [p.grad for p in model.params.values() if p.grad is not None]
        assert grads, name
        assert all(np.all(np.isfinite(gr)) for gr in grads), name


def test_gradient_check_per_variant():
    """End-to-end reverse-mode gradients vs finite differences, all variants."""
    g = small_graph(seed=5)
    src = np.array([0, 1])
    dst = np.array([3, 2])
    for name in MODEL_NAMES:
        model = Model(small_cfg(name, dims=6, attn_dims=2, heads=3, steps=2),
                      g, seed=2)

        def f():
            return model.loss(src, dst)

        err = ad.grad_check(f, list(model.params.values()), min_coords=20, seed=0)
        assert err < 1e-4, f"{name}: {err:.3g}"


def test_trace_shapes():
    model = Model(small_cfg("ggnn-mul"), small_graph(), seed=0)
    r = model.forward([1], trace=True)
    assert len(r.focused) == model.cfg.steps + 1
    assert len(r.flowing) == model.cfg.steps
    assert r.focused[0].shape == (1, model.gt.n)
    assert r.flowing[0].shape == (1, model.gt.n_edges)
    assert np.allclose(r.probs.data, r.focused[-1])


def test_implicit_readout_definition():
    h = ad.Tensor(np.random.default_rng(0).standard_normal((2, 5, 6)))
    out = implicit_readout(h, 4)
    scores = h.data[..., :4].sum(-1) / 2.0
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    assert np.allclose(out.data, e / e.sum(axis=1, keepdims=True))


def test_seed_determinism():
    g = small_graph()
    a = Model(small_cfg("gat-mul"), g, seed=3)
    b = Model(small_cfg("gat-mul"), g, seed=3)
    c = Model(small_cfg("gat-mul"), g, seed=4)
    assert np.array_equal(a.predict([0]), b.predict([0]))
    assert not np.array_equal(a.predict([0]), c.predict([0]))


def test_checkpoint_round_trip(tmp_path):
    g = small_graph()
    a = Model(small_cfg("fullgn-mulmlp"), g, seed=0)
    path = tmp_path / "model.npz"
    a.save(path)
    b = Model(small_cfg("fullgn-mulmlp"), g, seed=9)
    assert not np.array_equal(a.predict([2]), b.predict([2]))
    b.load(path)
    assert np.array_equal(a.predict([2]), b.predict([2]))


def test_checkpoint_shape_mismatch():
    g = small_graph()
    a = Model(small_cfg("ggnn"), g, seed=0)
    state = a.state_dict()
    state["embed"] = state["embed"][:, :2]
    with pytest.raises(ValueError):
        a.load_state_dict(state)


def test_float32_default_dtype():
    g = small_graph()
    for name in MODEL_NAMES:
        model = Model(ModelConfig.from_name(name, dims=10, attn_dims=4,
                                            heads=5, steps=2), g, seed=0)
        assert model.params["embed"].data.dtype == np.float32
        assert model.predict([0]).dtype == np.float32
        model.loss([0, 2], [1, 3]).backward()
        grads = {k: p for k, p in model.params.items() if p.grad is not None}
        assert grads, name
        for pname, p in grads.items():
            assert p.grad.dtype == p.data.dtype, f"{name} {pname}"
