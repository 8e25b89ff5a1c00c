import numpy as np
import pytest

from gridflow import autodiff as ad, grid
from gridflow.graphnets import (
    MICROBATCH_SIZE,
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
    # Besides plain unknowns: the random walks with an acting of their own
    # and an explicit "regular", which name no variant, and the underscore
    # spelling, which only from_name accepts.
    for name in ("transformer", "ggnn-gated", "ggnn-regular",
                 "rw-stationary-mul", "rw-dynamic-mulmlp",
                 "rw-dynamic-regular", "rw_stationary"):
        with pytest.raises(ValueError, match="unknown model"):
            ModelConfig(name)
    with pytest.raises(ValueError):
        ModelConfig(dims=8, attn_dims=8)
    with pytest.raises(ValueError):
        ModelConfig("gat", dims=42, heads=5, attn_dims=8)
    assert ModelConfig.from_name("RW_Stationary").name == "rw-stationary"
    assert ModelConfig.from_name("GGNN_MulMlp").name == "ggnn-mulmlp"
    cfg = ModelConfig.from_name("gat-mul")
    assert (cfg.core, cfg.acting) == ("gat", "mul")


def test_explicit_flow_flag():
    assert not small_cfg("fullgn").explicit_flow
    assert small_cfg("fullgn-noact").explicit_flow
    assert small_cfg("rw-dynamic").explicit_flow
    assert small_cfg("rw-stationary").explicit_flow


def test_graph_tensors_require_selfloops():
    with pytest.raises(ValueError):
        GraphTensors(grid.build_grid(3))


def test_graph_tensors_layout():
    gt = GraphTensors(small_graph())
    assert gt.n == gt.graph.n_nodes
    assert gt.n_edges == len(gt.graph.edges)
    # edges are sorted by type; each fills its sender's slot of its type
    assert np.all(np.diff(gt.etype) >= 0)
    assert np.array_equal(gt.src_type, gt.src * gt.n_types + gt.etype)
    assert gt.pad.sum() == gt.recv_pad.sum() == gt.n * gt.n_types - gt.n_edges
    assert not gt.pad.reshape(-1)[gt.src_type].any()
    # recv and send are inverse permutations; an edge's receiver slot holds
    # its sender slot, and pads pair with pads
    recv, send = gt.recv.reshape(-1), gt.send.reshape(-1)
    assert np.array_equal(recv[send], np.arange(gt.n * gt.n_types))
    assert np.array_equal(recv[gt.dst * gt.n_types + gt.etype], gt.src_type)
    assert np.array_equal(gt.pad.reshape(-1)[recv], gt.recv_pad.reshape(-1))
    # compact indices round-trip
    assert np.array_equal(gt.node_ids[gt.to_indices(gt.node_ids)], gt.node_ids)


def test_to_indices_rejects_unknown_ids():
    gt = GraphTensors(small_graph())
    present = gt.node_ids[[0, -1]]
    assert np.array_equal(gt.to_indices(present), [0, gt.n - 1])
    assert np.array_equal(gt.to_indices(int(present[1])), [gt.n - 1])
    absent = np.setdiff1d(np.arange(-1, gt.node_ids.max() + 3), gt.node_ids)
    for bad in absent:
        with pytest.raises(ValueError, match=f"\\[{bad}\\]"):
            gt.to_indices([present[0], bad])


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
    """Every parameter of every variant gets a finite gradient of its own
    dtype: a variant owns nothing that its prediction does not read. At 3
    steps, a flow variant's global state of the first node update reaches
    the transition of the third step."""
    g = small_graph()
    src = np.array([0, 2])
    dst = np.array([1, 3])
    for dtype, atol in (("float32", 1e-5), ("float64", 1e-9)):
        for name in MODEL_NAMES:
            model = Model(small_cfg(name, dtype=dtype), g, seed=1)
            probs = model.predict(src)
            assert probs.shape == (2, model.gt.n)
            assert np.abs(probs.sum(axis=1) - 1.0).max() < atol
            assert probs.min() >= 0.0
            loss = model.loss(src, dst)
            assert np.isfinite(float(loss.data))
            loss.backward()
            for pname, p in model.params.items():
                where = (dtype, name, pname)
                assert p.grad is not None, where
                assert p.grad.dtype == p.data.dtype, where
                assert np.all(np.isfinite(p.grad)), where


def test_flow_variants_skip_the_last_node_update(monkeypatch):
    """A flow variant reads its node states only through the transitions,
    so it runs steps - 1 node updates; a regular variant reads out the
    states of the last one and runs steps. rw-stationary runs none."""
    g = small_graph()
    updates = []
    for step in ("_fullgn_step", "_ggnn_step", "_gat_step",
                 "_rw_dynamic_step"):
        def counting(self, *args, _step=getattr(Model, step)):
            updates.append(1)
            return _step(self, *args)

        monkeypatch.setattr(Model, step, counting)
    for name in MODEL_NAMES:
        cfg = small_cfg(name)
        updates.clear()
        Model(cfg, g, seed=1).forward([0, 2])
        if name == "rw-stationary":
            expected = 0
        else:
            expected = cfg.steps - 1 if cfg.explicit_flow else cfg.steps
        assert len(updates) == expected, name


def test_predict_equals_one_forward():
    """predict's microbatches give the distributions of one forward over
    the whole batch; 9 pairs leave a short last chunk."""
    g = small_graph()
    src = np.array([0, 2, 5, 1, 7, 3, 0, 9, 4])
    for name in MODEL_NAMES:
        model = Model(small_cfg(name), g, seed=1)
        with ad.no_grad():
            whole = model.forward(src).probs.data
        np.testing.assert_allclose(model.predict(src), whole, rtol=0,
                                   atol=1e-12, err_msg=name)


def test_predict_chunks_unless_transition_shared(monkeypatch):
    """predict runs forward on at most MICROBATCH_SIZE examples, except for
    rw-stationary, which shares one transition across the batch and runs
    one forward per call."""
    g = small_graph()
    src = np.arange(9)
    for name in ("ggnn-mulmlp", "gat", "rw-dynamic", "rw-stationary"):
        model = Model(small_cfg(name), g, seed=1)
        sizes, forward = [], model.forward

        def recording(s, **kw):
            sizes.append(len(s))
            return forward(s, **kw)

        monkeypatch.setattr(model, "forward", recording)
        assert model.predict(src).shape == (9, model.gt.n)
        assert sum(sizes) == 9, name
        if name == "rw-stationary":
            assert sizes == [9]
        else:
            assert max(sizes) <= MICROBATCH_SIZE, (name, sizes)


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


def test_gat_score_fold_matches_unfused():
    """GAT's scores from the folded maps (W_t a, b_t . a) equal a . z of the
    per-slot z = h W_t + b_t, as do the messages built from them and the
    grads of msg.W, msg.b, gat.a1 and gat.a2. msg.b is drawn non-zero, so
    a fold that drops the bias term b_t . a fails."""
    rng = np.random.default_rng(5)
    model = Model(small_cfg("gat"), small_graph(), seed=1)
    gt, p, cfg = model.gt, model.params, model.cfg
    k, hw = cfg.heads, cfg.dims // cfg.heads
    p["msg.b"].data = rng.standard_normal(p["msg.b"].shape)
    h = ad.Tensor(rng.standard_normal((2, gt.n, cfg.dims)))
    names = ("msg.W", "msg.b", "gat.a1", "gat.a2")

    def unfused():
        z = ad.reshape(ad.typed_affine(h, p["msg.W"], p["msg.b"]),
                       (-1, gt.n, gt.n_types, k, hw))
        s_i, s_j = (ad.rowdot(z, ad.reshape(p[a], (1, 1, 1, k, hw)))
                    for a in ("gat.a1", "gat.a2"))
        alpha = ad.take(ad.segment_softmax(
            ad.leaky_relu(ad.add(ad.take(s_i, gt.recv), s_j)),
            gt.recv_pad, axis=2), gt.send)
        weighted = ad.mul(z, ad.reshape(alpha, alpha.data.shape + (1,)))
        return [s_i, s_j,
                ad.reshape(weighted, (-1, gt.n, gt.n_types, cfg.dims))]

    def folded():
        maps = model._gat_score_maps()
        return ([ad.typed_affine(h, w, b) for w, b in maps]
                + [model._gat_messages(h, maps)])

    weights = [rng.standard_normal(out.shape) for out in unfused()]

    def run(outputs):
        for t in p.values():
            t.zero_grad()
        loss = ad.tsum(ad.mul(outputs[0], weights[0]))
        for out, w in zip(outputs[1:], weights[1:]):
            loss = ad.add(loss, ad.tsum(ad.mul(out, w)))
        loss.backward()
        return [out.data for out in outputs], [p[n].grad for n in names]

    (outs_u, grads_u), (outs_f, grads_f) = run(unfused()), run(folded())
    for what, u, f in zip(("s_i", "s_j", "messages"), outs_u, outs_f):
        assert np.abs(u - f).max() < 1e-10, what
    for name, u, f in zip(names, grads_u, grads_f):
        assert np.abs(u - f).max() < 1e-10, name


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


def test_checkpoint_of_another_variant_is_rejected():
    """A flow variant's checkpoint carries trans.* parameters that the
    regular variant lacks; loading either into the other names them."""
    g = small_graph()
    flow = Model(small_cfg("ggnn-mul"), g, seed=0)
    regular = Model(small_cfg("ggnn"), g, seed=0)
    with pytest.raises(ValueError, match="unexpected.*'trans.W'"):
        regular.load_state_dict(flow.state_dict())
    with pytest.raises(ValueError, match="missing.*'trans.W'"):
        flow.load_state_dict(regular.state_dict())
    # a checkpoint of the unpacked transition layout names both sides
    old = regular.state_dict()
    old.update({k: np.zeros(1) for k in ("trans.w1", "trans.w2", "trans.wo",
                                          "trans.b")})
    with pytest.raises(ValueError, match=r"missing parameters \['trans.W'\], "
                       r"unexpected \['trans.w1', 'trans.w2', 'trans.wo'\]"):
        flow.load_state_dict(old)


def test_float32_default_dtype():
    g = small_graph()
    for name in MODEL_NAMES:
        model = Model(ModelConfig.from_name(name, dims=10, attn_dims=4,
                                            heads=5, steps=2), g, seed=0)
        assert model.params["embed"].data.dtype == np.float32
        for pname, p in model.params.items():
            assert p.data.flags.c_contiguous, f"{name} {pname}"
        assert model.predict([0]).dtype == np.float32
        model.loss([0, 2], [1, 3]).backward()
        grads = {k: p for k, p in model.params.items() if p.grad is not None}
        assert grads, name
        for pname, p in grads.items():
            assert p.grad.dtype == p.data.dtype, f"{name} {pname}"


def test_traced_flowing_sums_to_focused_attention():
    """Per-edge flowing attention from the trace, summed per sender, is the
    step's focused attention, and summed per receiver, the next step's."""
    g = small_graph(seed=2)
    for name in ("ggnn-mul", "gat-noact", "fullgn-mulmlp"):
        model = Model(small_cfg(name, steps=4), g, seed=3)
        gt = model.gt
        r = model.forward(np.array([0, 5, gt.n - 1]), trace=True)
        for step, flowing in enumerate(r.flowing):
            assert flowing.shape == (3, gt.n_edges)
            by_sender = np.zeros((gt.n, 3))
            np.add.at(by_sender, gt.src, flowing.T)
            by_receiver = np.zeros((gt.n, 3))
            np.add.at(by_receiver, gt.dst, flowing.T)
            assert np.allclose(by_sender.T, r.focused[step],
                               rtol=1e-12, atol=1e-12), (name, step)
            assert np.allclose(by_receiver.T, r.focused[step + 1],
                               rtol=1e-12, atol=1e-12), (name, step)


def test_pad_slots_do_not_change_outputs_or_grads(monkeypatch):
    """Finite non-zero junk added to the pad slots of every segment op's
    input leaves predictions, loss and parameter grads bit-identical."""
    g = small_graph(seed=4)
    src, dst = np.array([0, 3]), np.array([2, 5])
    segment_sum, segment_softmax = ad.segment_sum, ad.segment_softmax
    rng = np.random.default_rng(0)
    calls = []

    def with_junk(x, pad, node_axis):
        shape = x.data.shape
        pad = pad.reshape(pad.shape + (1,) * (len(shape) - node_axis - 2))
        junk = rng.uniform(-50.0, 50.0, shape) + 100.0
        calls.append(int(pad.sum()))
        return ad.add(x, np.where(pad, junk, 0.0))

    def junk_sum(x, recv, recv_pad, receiver, pad):
        return segment_sum(with_junk(x, pad, 1), recv, recv_pad, receiver, pad)

    def junk_softmax(x, pad, axis=-1):
        node_axis = axis % x.data.ndim - 1
        return segment_softmax(with_junk(x, pad, node_axis), pad, axis)

    def run(model):
        probs = model.predict(src)
        loss = model.loss(src, dst)
        loss.backward()
        grads = {k: p.grad for k, p in model.params.items()}
        for p in model.params.values():
            p.zero_grad()
        return probs, float(loss.data), grads

    for name in MODEL_NAMES:
        model = Model(small_cfg(name, dims=6, attn_dims=2, heads=3, steps=2),
                      g, seed=2)
        clean = run(model)
        with monkeypatch.context() as m:
            m.setattr(ad, "segment_sum", junk_sum)
            m.setattr(ad, "segment_softmax", junk_softmax)
            calls.clear()
            dirty = run(model)
        assert calls and min(calls) > 0, name
        assert np.array_equal(clean[0], dirty[0]), name
        assert clean[1] == dirty[1], name
        for k, grad in clean[2].items():
            assert np.array_equal(grad, dirty[2][k]), (name, k)
