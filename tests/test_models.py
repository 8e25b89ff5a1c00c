import numpy as np
import pytest

from gridflow import attnflow, autodiff as ad, graphnets, grid, training
from gridflow.graphnets import (
    MICROBATCH_SIZE,
    MODEL_NAMES,
    GraphTensors,
    Model,
    ModelConfig,
    implicit_readout,
)


def small_graph(seed=0):
    g = grid.corrupt(grid.build_grid(4), 0.1, 0.0, seed=seed)
    return grid.add_selfloops(g)


# Flow variants with a step: their transitions, and their acted messages,
# are computed at the rows the focused attention has reached.
STEPPED_FLOW = [name for name in MODEL_NAMES
                if ModelConfig.from_name(name).explicit_flow
                and name != "rw-stationary"]
# Variants whose node states live in a light cone (graphnets.Cone).
LIGHT_CONE = [name for name in MODEL_NAMES
              if ModelConfig.from_name(name).core in ("ggnn", "gat")]


def small_cfg(name, **kw):
    base = dict(dims=10, attn_dims=4, steps=3, dtype="float64")
    base.update(kw)
    return ModelConfig.from_name(name, **base)


def grad_cfg(name, **kw):
    """small_cfg at 6 dims, 10 for GAT (a multiple of GAT_HEADS), and 2
    attention dims."""
    dims = 10 if name.startswith("gat") else 6
    return small_cfg(name, dims=dims, attn_dims=2, **kw)


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
        ModelConfig("gat", dims=42, attn_dims=8)
    for field, value in (("dims", 0), ("attn_dims", 0), ("attn_dims", -3),
                         ("steps", 0), ("steps", -1)):
        with pytest.raises(ValueError, match=f"{field} must be >= 1"):
            ModelConfig(**{field: value})
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
            model = Model(small_cfg(name, dtype=dtype), GraphTensors(g),
                          seed=1)
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
    states of the last one and runs steps. rw-stationary runs none. GGNN
    and GAT run each update in two passes, all of the background pass's
    first (its layout is the graph), then the ring pass's (a Cone)."""
    g = small_graph()
    updates = []
    for step in ("_fullgn_step", "_ggnn_step", "_gat_step",
                 "_rw_dynamic_step"):
        def counting(self, *args, _step=getattr(Model, step)):
            updates.append(type(args[-1]).__name__)
            return _step(self, *args)

        monkeypatch.setattr(Model, step, counting)
    for name in MODEL_NAMES:
        cfg = small_cfg(name)
        updates.clear()
        Model(cfg, GraphTensors(g), seed=1).forward([0, 2])
        if name == "rw-stationary":
            expected = 0
        else:
            expected = cfg.steps - 1 if cfg.explicit_flow else cfg.steps
        if name in LIGHT_CONE:
            assert updates == (["GraphTensors"] * expected
                               + ["Cone"] * expected), name
        else:
            assert len(updates) == expected, name


def test_predict_equals_one_forward():
    """predict's microbatches give the distributions of one forward over
    the whole batch: on 9 distinct sources, which leave a short last chunk,
    and on a repeated, unsorted source list, whose pairs predict read from
    one row per distinct source."""
    g = small_graph()
    for src in (np.array([0, 2, 5, 1, 7, 3, 0, 9, 4]),
                np.array([5, 0, 5, 2, 9, 0, 3, 5])):
        for name in MODEL_NAMES:
            model = Model(small_cfg(name), GraphTensors(g), seed=1)
            with ad.no_grad():
                whole = model.forward(src).probs.data
            np.testing.assert_allclose(model.predict(src), whole, rtol=0,
                                       atol=1e-12, err_msg=name)


def test_predict_chunks_unless_transition_shared(monkeypatch):
    """predict runs forward on the distinct sources only, in chunks of at
    most MICROBATCH_SIZE, ceil(distinct / MICROBATCH_SIZE) of them, except
    for rw-stationary, which shares one transition across the batch and
    runs one forward per call; and it builds the batch's shared background
    states once per call, for every chunk."""
    g = small_graph()
    src = np.array([5, 0, 5, 2, 9, 0, 3, 5, 8, 1, 8])
    distinct = len(set(src.tolist()))
    for name in ("ggnn-mulmlp", "gat", "ggnn", "rw-dynamic",
                 "rw-stationary"):
        model = Model(small_cfg(name), GraphTensors(g), seed=1)
        chunks, backgrounds = [], []
        forward, background = model.forward, model.background

        def recording(s, **kw):
            chunks.append(list(s))
            return forward(s, **kw)

        def counting(*args):
            backgrounds.append(1)
            return background(*args)

        monkeypatch.setattr(model, "forward", recording)
        monkeypatch.setattr(model, "background", counting)
        assert model.predict(src).shape == (len(src), model.gt.n)
        assert len(backgrounds) == 1, name
        flat = [s for chunk in chunks for s in chunk]
        assert sorted(flat) == sorted(set(src.tolist())), (name, chunks)
        if name == "rw-stationary":
            assert len(chunks) == 1, name
        else:
            assert len(chunks) == -(-distinct // MICROBATCH_SIZE), name
            assert max(map(len, chunks)) <= MICROBATCH_SIZE, (name, chunks)


def test_predict_raises_on_non_finite_predictions():
    """rw-stationary has no node update, so no state check sees a NaN
    embedding. Its predictions are NaN, which ranks_of would rank first
    (Hits@1 = MRR = 1); predict, and so evaluate, raise instead."""
    model = Model(small_cfg("rw-stationary"), GraphTensors(small_graph()),
                  seed=1)
    model.params["embed"].data[3] = np.nan
    with pytest.raises(FloatingPointError, match="non-finite predictions"):
        model.predict([0, 2])
    with pytest.raises(FloatingPointError, match="non-finite predictions"):
        training.evaluate(model, np.array([0, 2]), np.array([1, 3]))


def test_forward_raises_on_non_finite_node_states():
    """A NaN GRU weight makes the first node update's states NaN; forward
    stops there, in loss and predict alike."""
    model = Model(small_cfg("ggnn"), GraphTensors(small_graph()), seed=1)
    model.params["gru.Wm"].data[0, 0] = np.nan
    for run in (lambda: model.forward([0, 2]), lambda: model.predict([0, 2]),
                lambda: model.loss([0, 2], [1, 3])):
        with pytest.raises(FloatingPointError, match="non-finite node states"):
            run()


def test_forward_validates_source_indices():
    """forward, loss and predict take a non-empty 1-D array of node indices
    0..n-1: a negative index does not wrap around to the last node, an
    index of n is not a bare IndexError, and an empty batch is refused
    before any reshape, for every variant."""
    gt = GraphTensors(small_graph())
    cases = [([-1], "outside the node set"), ([gt.n], "outside the node set"),
             ([], "non-empty 1-D"), ([[0, 2]], "non-empty 1-D")]
    for name in MODEL_NAMES:
        model = Model(small_cfg(name), gt, seed=1)
        for src, message in cases:
            for run in (lambda: model.forward(src),
                        lambda: model.loss(src, [1] * len(src)),
                        lambda: model.predict(src)):
                with pytest.raises(ValueError, match=message):
                    run()


def test_grad_scale_leaves_float64_loss_and_grads_bit_identical(monkeypatch):
    """Every VJP is linear in g and a power-of-two scale commutes with float
    rounding, so backward seeded with GRAD_SCALE gives every variant the
    float64 grads of an engine seeded with 1, bit for bit."""
    g = small_graph(seed=5)
    src, dst = np.array([0, 1]), np.array([3, 2])

    def run(name):
        model = Model(grad_cfg(name), GraphTensors(g), seed=2)
        loss = model.loss(src, dst)
        loss.backward()
        return loss.data, {k: p.grad for k, p in model.params.items()}

    scaled = {name: run(name) for name in MODEL_NAMES}
    monkeypatch.setattr(ad, "GRAD_SCALE", 1.0)
    for name in MODEL_NAMES:
        loss, grads = run(name)
        assert np.array_equal(scaled[name][0], loss), name
        for k, grad in grads.items():
            assert np.array_equal(scaled[name][1][k], grad), (name, k)


def test_float32_grads_stay_finite_at_the_log_floor():
    """The largest gradient comes from a destination probability just above
    LOG_FLOOR: -log's VJP is 1e12, about 2^40, times GRAD_SCALE. The
    transition parameters are scaled until a reached destination's
    probability lies within 10x of LOG_FLOOR; every float32 grad of
    ggnn-mulmlp stays finite."""
    src = np.array([0])
    model = Model(small_cfg("ggnn-mulmlp", dtype="float32", steps=3),
                  GraphTensors(small_graph()), seed=1)
    trans = {k: p.data.copy() for k, p in model.params.items()
             if k.startswith("trans.")}
    probs = model.predict(src)[0]
    dst = int(np.argmin(np.where(probs > 0, probs, np.inf)))

    def p_dst(scale):
        for k, data in trans.items():
            model.params[k].data[...] = data * scale
        return model.predict(src)[0, dst]

    lo, hi = 1.0, 2.0
    while p_dst(hi) > ad.LOG_FLOOR:
        lo, hi = hi, 2 * hi
    for _ in range(60):
        mid = np.sqrt(lo * hi)
        p = p_dst(mid)
        if ad.LOG_FLOOR < p < 10 * ad.LOG_FLOOR:
            break
        lo, hi = (mid, hi) if p > ad.LOG_FLOOR else (lo, mid)
    assert ad.LOG_FLOOR < p < 10 * ad.LOG_FLOOR
    model.loss(src, [dst]).backward()
    for k, param in model.params.items():
        assert param.grad.dtype == np.float32, k
        assert np.all(np.isfinite(param.grad)), k
    assert np.abs(model.params["trans.W"].grad).max() > 0


def test_gat_score_fold_matches_unfused(monkeypatch):
    """GAT's scores from the folded maps (W_t a, b_t . a) equal a . z of the
    per-slot z = h W_t + b_t, as do the messages that its step receives
    from them, on a light cone with every row reached, and the grads of
    msg.W, msg.b, gat.a1 and gat.a2. msg.b is drawn non-zero, so a fold
    that drops the bias term b_t . a fails."""
    rng = np.random.default_rng(5)
    model = Model(small_cfg("gat"), GraphTensors(small_graph()), seed=1)
    gt, p, cfg = model.gt, model.params, model.cfg
    k, hw = graphnets.GAT_HEADS, cfg.dims // graphnets.GAT_HEADS
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
            gt.recv_pad), gt.send)
        weighted = ad.mul(z, ad.reshape(alpha, alpha.data.shape + (1,)))
        return [s_i, s_j, ad.segment_sum(weighted, gt)]

    every = np.ones((2, gt.n), dtype=bool)
    cone = graphnets.Cone(gt, np.stack([every, every]), 0,
                          graphnets.pool_rows(every))
    segment_sum = ad.segment_sum

    def folded():
        maps = model._gat_score_maps()
        received = []

        def recording(*args):
            received.append(segment_sum(*args))
            return received[-1]

        pool = ad.concat([ad.reshape(h, (1, 2 * gt.n, cfg.dims)),
                          np.zeros((1, gt.n, cfg.dims))], axis=1)
        with monkeypatch.context() as m:
            m.setattr(ad, "segment_sum", recording)
            model._pick_step(2)(pool, None, None, None, cone)
        return ([ad.typed_affine(h, w, b) for w, b in maps]
                + [ad.reshape(ad.slice_axis(received[0], 1, 0, 2 * gt.n),
                              (2, gt.n, k, hw))])

    weights = [rng.standard_normal(out.shape) for out in unfused()]

    def run(outputs):
        for t in p.values():
            t.grad = None
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
    model = Model(small_cfg("ggnn-mul"), GraphTensors(small_graph()), seed=0)
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
    a = Model(small_cfg("gat-mul"), GraphTensors(g), seed=3)
    b = Model(small_cfg("gat-mul"), GraphTensors(g), seed=3)
    c = Model(small_cfg("gat-mul"), GraphTensors(g), seed=4)
    assert np.array_equal(a.predict([0]), b.predict([0]))
    assert not np.array_equal(a.predict([0]), c.predict([0]))


def test_checkpoint_round_trip(tmp_path):
    g = small_graph()
    a = Model(small_cfg("fullgn-mulmlp"), GraphTensors(g), seed=0)
    path = tmp_path / "model.npz"
    np.savez(path, **a.state_dict())
    b = Model(small_cfg("fullgn-mulmlp"), GraphTensors(g), seed=9)
    assert not np.array_equal(a.predict([2]), b.predict([2]))
    with np.load(path) as f:
        b.load_state_dict(dict(f))
    assert np.array_equal(a.predict([2]), b.predict([2]))


def test_checkpoint_shape_mismatch():
    g = small_graph()
    a = Model(small_cfg("ggnn"), GraphTensors(g), seed=0)
    state = a.state_dict()
    state["embed"] = state["embed"][:, :2]
    with pytest.raises(ValueError):
        a.load_state_dict(state)


def test_checkpoint_of_another_variant_is_rejected():
    """A flow variant's checkpoint carries trans.* parameters that the
    regular variant lacks; loading either into the other names them."""
    g = small_graph()
    flow = Model(small_cfg("ggnn-mul"), GraphTensors(g), seed=0)
    regular = Model(small_cfg("ggnn"), GraphTensors(g), seed=0)
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
                                            steps=2),
                      GraphTensors(g), seed=0)
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
        model = Model(small_cfg(name, steps=4), GraphTensors(g), seed=3)
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
    input and weight, in the whole graph's slots, in a flow step's compact
    ones and in a light cone's, leaves predictions, loss and parameter
    grads bit-identical, and every receiver slot that is not a pad reads a
    slot of its input. Every variant runs at 3 steps, whose reach here
    covers every row; GGNN and GAT also run at 2, where their light cones
    leave rows to the background, on the graph and on the graph with one
    edge made one-way too, where a pad slot's receiver slot in
    GraphTensors is another node's."""
    g = small_graph(seed=4)
    src, dst = np.array([0, 3]), np.array([2, 5])
    one_way = grid.GridGraph(g.n_side, g.nodes,
                             g.edges[~(g.edges == [8, 4, 6]).all(axis=1)])
    for graph in (g, one_way):
        assert not GraphTensors(graph).reach(src, 2)[2].all()
    segment_sum, segment_softmax = ad.segment_sum, ad.segment_softmax
    rng = np.random.default_rng(0)
    calls = []

    def with_junk(x, pad):
        shape = x.data.shape
        pad = pad.reshape(pad.shape + (1,) * (len(shape) - 3))
        junk = rng.uniform(-50.0, 50.0, shape) + 100.0
        calls.append(int(pad.sum()))
        return ad.add(x, np.where(pad, junk, 0.0))

    def junk_sum(x, slots, weight=None):
        n_slots = x.data.shape[1] * x.data.shape[2]
        real = slots.recv[~slots.recv_pad]
        assert 0 <= real.min() and real.max() < n_slots
        pad = getattr(slots, "pad", None)
        if pad is None:  # a Cone: the sender pads of the pool rows it reads
            gt, at = slots._gt, slots._at
            node = np.empty(slots._k + gt.n, dtype=np.int64)
            node[at] = np.arange(len(at)) % gt.n
            node[-gt.n:] = np.arange(gt.n)  # the background rows
            pad = gt.pad[node[slots.sender_rows]]
        if weight is not None:
            weight = with_junk(weight, slots.recv_pad)
        return segment_sum(with_junk(x, pad), slots, weight)

    def junk_softmax(x, pad):
        return segment_softmax(with_junk(x, pad), pad)

    def run(model):
        probs = model.predict(src)
        loss = model.loss(src, dst)
        loss.backward()
        grads = {k: p.grad for k, p in model.params.items()}
        for p in model.params.values():
            p.grad = None
        return probs, float(loss.data), grads

    cases = [(name, 3, g) for name in MODEL_NAMES]
    cases += [(name, 2, graph) for name in LIGHT_CONE
              for graph in (g, one_way)]
    for name, steps, graph in cases:
        model = Model(grad_cfg(name, steps=steps), GraphTensors(graph),
                      seed=2)
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


def test_frontier_sparse_flow_matches_full_reach(monkeypatch):
    """Each stepped flow variant and each GGNN and GAT variant, as shipped,
    gives the loss, predictions, parameter grads and traced focused and
    flowing attention of a run whose reach is forced to every node, so
    that every row is computed for every example, within 1e-10 at
    float64: the rows that a flow step skips meet a structural zero (and
    MulMlp's count of tanh(act.b) terms stands in for them), and the rows
    that a light cone leaves to the background hold its state. The biases
    are drawn non-zero, so that tanh(act.b) is. The shipped run skips rows
    at some flow step, and runs each GGNN or GAT update's GRU at n rows in
    the background pass and at sum_b |reach_b[t + 1]| rows in the ring
    pass; the forced one skips none and runs the ring pass at B n."""
    g = small_graph(seed=6)
    src, dst = np.array([0, 5]), np.array([3, 9])
    rng = np.random.default_rng(4)
    transitions, updates = [], []
    transition_matrix, gru = attnflow.transition_matrix, graphnets.gru

    def recording_transition(logits, slots):
        transitions.append(logits.data.shape[:2])
        return transition_matrix(logits, slots)

    def recording_gru(h, *args):
        updates.append(h.data.shape[:2])
        return gru(h, *args)

    def run(model):
        probs = model.predict(src)
        transitions.clear()
        updates.clear()
        loss = model.loss(src, dst)
        rows = list(transitions), list(updates)
        loss.backward()
        grads = {k: p.grad for k, p in model.params.items()}
        for p in model.params.values():
            p.grad = None
        traced = model.forward(src, trace=True)
        return (probs, float(loss.data), grads, rows,
                traced.focused + traced.flowing)

    monkeypatch.setattr(attnflow, "transition_matrix", recording_transition)
    monkeypatch.setattr(graphnets, "gru", recording_gru)
    for name in MODEL_NAMES:
        if name not in STEPPED_FLOW + LIGHT_CONE:
            continue
        model = Model(small_cfg(name, steps=4), GraphTensors(g), seed=3)
        for k, p in model.params.items():
            if k.endswith(".b"):
                p.data = rng.standard_normal(p.data.shape)
        shipped = run(model)
        with monkeypatch.context() as m:
            m.setattr(GraphTensors, "reach", lambda self, s, steps: np.ones(
                (steps + 1, len(s), self.n), dtype=bool))
            full = run(model)
        b, n = len(src), model.gt.n
        if name in STEPPED_FLOW:
            every = (1, b * n)
            assert full[3][0] and set(full[3][0]) == {every}, name
            assert min(r[1] for r in shipped[3][0]) < every[1], name
        if name in LIGHT_CONE:
            reach = model.gt.reach(src, 4)
            steps = 3 if name in STEPPED_FLOW else 4
            background = [(1, n)] * steps
            assert shipped[3][1] == background + [
                (1, int(reach[t + 1].sum())) for t in range(steps)], name
            assert full[3][1] == background + [(1, b * n)] * steps, name
            assert int(reach[1].sum()) < b * n, name
        assert np.abs(shipped[0] - full[0]).max() < 1e-10, name
        assert abs(shipped[1] - full[1]) < 1e-10, name
        for k, want in full[2].items():
            got = shipped[2][k]
            assert got is not None and got.dtype == want.dtype, (name, k)
            scale = max(1.0, np.abs(want).max())
            assert np.abs(got - want).max() < 1e-10 * scale, (name, k)
        assert len(shipped[4]) == len(full[4]), name
        for got, want in zip(shipped[4], full[4]):
            assert np.abs(got - want).max() < 1e-10, name


def test_state_rows_skip_rows_the_last_reach_misses(monkeypatch):
    """GGNN-Mul and GGNN-MulMlp run each GRU update's ring pass only at
    the rows of the reach it writes, and its background pass, which the
    batch shares, at the n rows of the graph. At 3 steps from sources 0
    and 5 the flow's last step needs no update, so the last one writes
    reach[2]: 21 of the 28 per-example rows, run at 21 rows, not at the
    2 * 14 of a run whose reach is forced to every node; the background
    pass runs at 14 rows in both. Loss, predictions and every grad equal
    that run's, in float64 with non-zero biases."""
    g = small_graph(seed=6)
    src, dst = np.array([0, 5]), np.array([3, 9])
    rng = np.random.default_rng(5)
    rows = []
    gru = graphnets.gru

    def recording(h, *args):
        rows.append(h.data.shape[:2])
        return gru(h, *args)

    def run(model):
        rows.clear()
        probs = model.predict(src)
        loss = model.loss(src, dst)
        loss.backward()
        grads = {k: p.grad for k, p in model.params.items()}
        for p in model.params.values():
            p.grad = None
        return probs, float(loss.data), grads, list(rows)

    monkeypatch.setattr(graphnets, "gru", recording)
    for name in ("ggnn-mul", "ggnn-mulmlp"):
        model = Model(small_cfg(name, steps=3), GraphTensors(g), seed=3)
        for k, p in model.params.items():
            if k.endswith(".b"):
                p.data = rng.standard_normal(p.data.shape)
        b, n = len(src), model.gt.n
        kept = int(model.gt.reach(src, 3)[2].sum())
        assert kept == 21 < b * n
        shipped = run(model)
        with monkeypatch.context() as m:
            m.setattr(GraphTensors, "reach", lambda self, s, steps: np.ones(
                (steps + 1, len(s), self.n), dtype=bool))
            full = run(model)
        # predict's background pass, its two ring passes (one per update),
        # then the loss's background and ring passes
        for got, last in ((shipped[3], kept), (full[3], b * n)):
            assert got[:2] == got[4:6] == [(1, n)] * 2, name
            assert got[-1] == (1, last), name
        assert np.abs(shipped[0] - full[0]).max() < 1e-10, name
        assert abs(shipped[1] - full[1]) < 1e-10, name
        for k, want in full[2].items():
            got = shipped[2][k]
            assert got is not None and got.dtype == want.dtype, (name, k)
            scale = max(1.0, np.abs(want).max())
            assert np.abs(got - want).max() < 1e-10 * scale, (name, k)
