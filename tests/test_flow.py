"""Attention-flow invariants checked against dense matrix oracles."""

import numpy as np
import pytest

from gridflow import attnflow, autodiff as ad, grid
from gridflow.attnflow import (
    MUL,
    MUL_MLP,
    attend_message,
    flow_loss,
    flow_step,
    onehot_focus,
    transition_logits,
    transition_matrix,
)
from gridflow.graphnets import (
    GAT_HEADS,
    MODEL_NAMES,
    Frontier,
    GraphTensors,
    Model,
    ModelConfig,
    pool_rows,
)


def random_graph(seed, n_side=5):
    g = grid.corrupt(grid.build_grid(n_side), 0.1, 0.1, seed=seed)
    return GraphTensors(grid.add_selfloops(g))


def pack_trans(w1, w2, wo, b):
    """Packed transition weights: W[t] = [Wo_t | w2_t], b[t] = [w1_t : b_t]."""
    return (ad.Tensor(np.concatenate([wo, w2.T[:, :, None]], axis=2),
                      requires_grad=True),
            ad.Tensor(np.concatenate([w1.T, b[:, None]], axis=1),
                      requires_grad=True))


def random_trans(gt, d, rng):
    return pack_trans(rng.standard_normal((d, gt.n_types)),
                      rng.standard_normal((d, gt.n_types)),
                      rng.standard_normal((gt.n_types, d, d)) * 0.3,
                      rng.standard_normal(gt.n_types))


def tau(h, w, b, src, dst, et):
    """w1_t . h_i + w2_t . h_j + h_j^T Wo_t h_i + b_t, read from the blocks."""
    d = h.shape[-1]
    return (h[src] @ b.data[et, :d]
            + h[dst] @ w.data[et, :, d]
            + h[dst] @ w.data[et, :, :d] @ h[src]
            + b.data[et, d])


def dense_transition(gt, h, w, b):
    """O(n^2) oracle for the per-edge transition, as a dense (n, n) matrix."""
    t = np.full((gt.n, gt.n), -np.inf)
    for src, dst, et in zip(gt.src, gt.dst, gt.etype):
        t[src, dst] = tau(h, w, b, src, dst, et)
    e = np.exp(t - t.max(axis=1, keepdims=True))
    e[~np.isfinite(e)] = 0.0
    return e / e.sum(axis=1, keepdims=True)


def test_logits_match_dense_oracle():
    rng = np.random.default_rng(0)
    gt = random_graph(0)
    d = 6
    w, b = random_trans(gt, d, rng)
    h = rng.standard_normal((gt.n, d))
    logits = gt.edge_values(
        transition_logits(ad.Tensor(h[None]), gt, w, b).data)[0]
    for i, (src, dst, et) in enumerate(zip(gt.src, gt.dst, gt.etype)):
        assert logits[i] == pytest.approx(tau(h, w, b, src, dst, et),
                                          rel=1e-10)


def test_transition_rows_are_stochastic():
    rng = np.random.default_rng(2)
    for seed in range(10):
        gt = random_graph(seed)
        w, b = random_trans(gt, 4, rng)
        h = rng.standard_normal((2, gt.n, 4))
        trans = transition_matrix(transition_logits(ad.Tensor(h), gt, w, b), gt)
        row_sums = np.zeros((2, gt.n))
        np.add.at(row_sums.T, gt.src, gt.edge_values(trans.data).T)
        assert np.abs(row_sums - 1.0).max() < 1e-12
        assert trans.data.min() >= 0.0
        assert np.all(trans.data[:, gt.pad] == 0.0)


def test_flow_matches_dense_matvec():
    rng = np.random.default_rng(3)
    for seed in range(8):
        gt = random_graph(seed, n_side=4)
        w, b = random_trans(gt, 4, rng)
        h = rng.standard_normal((gt.n, 4))
        trans = transition_matrix(
            transition_logits(ad.Tensor(h[None]), gt, w, b), gt)
        dense = dense_transition(gt, h, w, b)
        # per-edge values agree with the dense matrix entries
        per_edge = gt.edge_values(trans.data)[0]
        for i, (s, d_) in enumerate(zip(gt.src, gt.dst)):
            assert per_edge[i] == pytest.approx(dense[s, d_], abs=1e-12)
        focused = onehot_focus(gt.n, [0, gt.n - 1], np.float64)
        a = focused.data.copy()
        for _ in range(4):
            # one transition, shared by the batch of 2
            flowing, focused = flow_step(focused, trans, gt)
            a = a @ dense
            assert np.abs(focused.data - a).max() < 1e-12


def test_flow_conserves_mass():
    rng = np.random.default_rng(4)
    gt = random_graph(11)
    w, b = random_trans(gt, 6, rng)
    h = rng.standard_normal((3, gt.n, 6))
    trans = transition_matrix(transition_logits(ad.Tensor(h), gt, w, b), gt)
    focused = onehot_focus(gt.n, [0, 1, 2], np.float64)
    for _ in range(6):
        flowing, focused = flow_step(focused, trans, gt)
        assert np.abs(flowing.data.sum(axis=(1, 2)) - 1.0).max() < 1e-12
        assert np.abs(focused.data.sum(axis=1) - 1.0).max() < 1e-12


def test_rw_stationary_transition_is_step_and_example_invariant():
    g = grid.add_selfloops(
        grid.corrupt(grid.build_grid(5), 0.1, 0.0, seed=2))
    model = Model(ModelConfig("rw-stationary", dims=10,
                              attn_dims=4, steps=5, dtype="float64"),
                  GraphTensors(g), seed=0)
    r1 = model.forward([0, 1], trace=True)
    r2 = model.forward([1], trace=True)
    # per-step flowing attention divided by the sender mass recovers the
    # same transition entries whenever the sender mass is nonzero
    def implied(result, b, step):
        gt = model.gt
        mass = result.focused[step][b][gt.src]
        flow = result.flowing[step][b]
        keep = mass > 1e-12
        return keep, flow[keep] / mass[keep]

    k0, t0 = implied(r1, 1, 0)
    for step in range(1, 5):
        k, t = implied(r1, 1, step)
        both = k0 & k
        assert np.allclose(t0[both[k0]], t[both[k]])
    kb, tb = implied(r2, 0, 0)
    assert np.array_equal(k0, kb) and np.allclose(t0, tb)


def test_attend_message_variants():
    """Acting returns the (messages, weight) pair that the receive op sums:
    Mul folds the flowing attention into the weight, and MulMlp acts on
    messages that come weighted and projected. The weight carries a
    per-head axis, as GAT's."""
    rng = np.random.default_rng(5)
    gt = random_graph(5)
    slots = (2, gt.n, gt.n_types)
    flowing = ad.Tensor(rng.random(slots))
    messages = ad.Tensor(rng.standard_normal(slots + (2, 3)))
    weight = ad.Tensor(rng.random(slots + (2,)))
    # Mul's weight is in the receiver slots, where each edge's flowing
    # attention is picked to
    received = flowing.data.reshape(2, -1)[:, gt.recv].reshape(slots)
    m, wt = attend_message(MUL, flowing, messages, gt)
    assert m is messages and np.array_equal(wt.data, received)
    m, wt = attend_message(MUL, flowing, messages, gt, weight=weight)
    assert m is messages
    assert np.allclose(wt.data, weight.data * received[..., None])
    projected = ad.Tensor(rng.standard_normal(slots + (6,)))
    b = ad.Tensor(rng.standard_normal(6))
    mlp, wt = attend_message(MUL_MLP, flowing, projected, gt, b)
    expect = np.tanh(flowing.data[..., None] * projected.data + b.data)
    assert wt is None and np.allclose(mlp.data, expect)
    with pytest.raises(ValueError):
        attend_message("gate", flowing, messages, gt)


def test_flow_loss_is_mean_negative_log():
    probs = ad.Tensor(np.array([[0.2, 0.8], [0.5, 0.5]]), requires_grad=True)
    loss = flow_loss(probs, [1, 0])
    assert float(loss.data) == pytest.approx(-(np.log(0.8) + np.log(0.5)) / 2)
    loss.backward()
    assert probs.grad[0, 1] == pytest.approx(-1 / (2 * 0.8))
    assert probs.grad[1, 1] == 0.0
    with pytest.raises(ValueError):
        flow_loss(probs, [0, 9])


def test_flow_loss_survives_zero_probability():
    probs = ad.Tensor(np.array([[1.0, 0.0]]))
    assert np.isfinite(float(flow_loss(probs, [1]).data))


def test_onehot_focus():
    a0 = onehot_focus(4, [2, 0], np.float32)
    assert a0.data.dtype == np.float32
    assert np.array_equal(a0.data, [[0, 0, 1, 0], [1, 0, 0, 0]])


def test_noact_messages_equal_regular_messages():
    g = grid.add_selfloops(
        grid.corrupt(grid.build_grid(4), 0.1, 0.0, seed=3))
    reg = Model(ModelConfig("ggnn", dims=12, attn_dims=4,
                            steps=3, dtype="float64"), GraphTensors(g), seed=7)
    noa = Model(ModelConfig("ggnn-noact", dims=12, attn_dims=4,
                            steps=3, dtype="float64"), GraphTensors(g), seed=7)
    # shared-core parameters are drawn identically from the same seed
    for name in ("embed", "msg.W", "gru.Wm", "gru.Whh"):
        assert np.array_equal(reg.params[name].data, noa.params[name].data)
    h = ad.Tensor(np.random.default_rng(0).standard_normal((2, reg.gt.n, 12)))
    assert np.allclose(ad.typed_affine(h, *reg._ggnn_weights()).data,
                       ad.typed_affine(h, *noa._ggnn_weights()).data)


def test_mulmlp_fold_matches_unfused_acting():
    """GGNN-MulMlp folds act.W into its message weights; its acted messages
    and their grads equal tanh((f m) act.W + act.b) built from plain ops."""
    g = grid.add_selfloops(
        grid.corrupt(grid.build_grid(4), 0.1, 0.0, seed=3))
    d = 6
    model = Model(ModelConfig("ggnn-mulmlp", dims=d, attn_dims=2,
                              steps=2, dtype="float64"),
                  GraphTensors(g), seed=5)
    gt, p = model.gt, model.params
    rng = np.random.default_rng(1)
    for name in ("msg.b", "act.b"):  # nonzero, so their folds are exercised
        p[name].data = rng.standard_normal(p[name].data.shape)
    h = ad.Tensor(rng.standard_normal((2, gt.n, d)))
    slots = (2, gt.n, gt.n_types)
    flowing = ad.Tensor(rng.random(slots), requires_grad=True)
    weights = ad.Tensor(rng.standard_normal(slots + (d,)))
    leaves = [p["msg.W"], p["msg.b"], p["act.W"], p["act.b"], flowing]

    def acted_and_grads(acted):
        for t in leaves:
            t.grad = None
        ad.tsum(ad.mul(acted, weights)).backward()
        return acted.data, [t.grad.copy() for t in leaves]

    fused = acted_and_grads(attend_message(
        MUL_MLP, flowing, ad.typed_affine(h, *model._ggnn_weights()), gt,
        p["act.b"])[0])

    m = []
    for t in range(gt.n_types):
        w_t = ad.reshape(ad.slice_axis(p["msg.W"], 0, t, t + 1), (d, d))
        b_t = ad.reshape(ad.slice_axis(p["msg.b"], 0, t, t + 1), (d,))
        m.append(ad.reshape(ad.add(ad.matmul(h, w_t), b_t), (2, gt.n, 1, d)))
    scaled = ad.mul(ad.concat(m, axis=2), ad.reshape(flowing, slots + (1,)))
    plain = acted_and_grads(
        ad.tanh(ad.add(ad.matmul(scaled, p["act.W"]), p["act.b"])))

    assert np.abs(fused[0] - plain[0]).max() < 1e-10
    for got, want in zip(fused[1], plain[1]):
        assert np.abs(got - want).max() < 1e-10 * max(1.0, np.abs(want).max())


def gat_messages(model, h):
    """Per-slot, per-head GAT messages z (B, n, n_types, heads, d / heads)
    and their attention alpha (B, n, n_types, heads) in the sender slots,
    at every row of the dense states h (B, n, d), from plain ops."""
    gt, p, d = model.gt, model.params, model.cfg.dims
    k, hw = GAT_HEADS, d // GAT_HEADS
    z = ad.reshape(ad.typed_affine(h, p["msg.W"], p["msg.b"]),
                   (-1, gt.n, gt.n_types, k, hw))
    s_i, s_j = (ad.rowdot(z, ad.reshape(p[a], (1, 1, 1, k, hw)))
                for a in ("gat.a1", "gat.a2"))
    alpha = ad.take(ad.segment_softmax(
        ad.leaky_relu(ad.add(ad.take(s_i, gt.recv), s_j)),
        gt.recv_pad), gt.send)
    return z, alpha


def test_gat_mulmlp_acting_matches_unfused(monkeypatch):
    """GAT-MulMlp weights its messages z by alpha and projects them by
    act.W in its step, before the acting; its acted messages and their
    grads equal tanh(f (alpha z) act.W + act.b) built from plain ops."""
    g = grid.add_selfloops(
        grid.corrupt(grid.build_grid(4), 0.1, 0.0, seed=3))
    d = 10
    model = Model(ModelConfig("gat-mulmlp", dims=d, attn_dims=2, steps=2,
                              dtype="float64"),
                  GraphTensors(g), seed=5)
    gt, p = model.gt, model.params
    rng = np.random.default_rng(1)
    for name in ("msg.b", "act.b"):  # nonzero, so their terms are exercised
        p[name].data = rng.standard_normal(p[name].data.shape)
    # Every row reached: a light cone whose pool holds the batch's rows in
    # order, then the background's, and whose step's compact slots are the
    # batch's rows, (1, 2 n, n_types).
    pool = ad.Tensor(rng.standard_normal((1, 3 * gt.n, d)))
    h = ad.reshape(ad.slice_axis(pool, 1, 0, 2 * gt.n), (2, gt.n, d))
    every = np.ones((2, gt.n), dtype=bool)
    at = pool_rows(every)
    ring = Frontier(gt, np.stack([every, every]), 0, at)
    slots = (1, 2 * gt.n, gt.n_types)
    flowing = ad.Tensor(rng.random(slots), requires_grad=True)
    weights = ad.Tensor(rng.standard_normal(slots + (d,)))
    leaves = [p[k] for k in ("msg.W", "msg.b", "gat.a1", "gat.a2", "act.W",
                             "act.b")] + [flowing]

    def acted_and_grads(acted):
        for t in leaves:
            t.grad = None
        ad.tsum(ad.mul(acted, weights)).backward()
        return acted.data, [t.grad.copy() for t in leaves]

    acted, attend = [], attnflow.attend_message

    def recording(*args):
        out = attend(*args)
        acted.append(out[0])
        return out

    monkeypatch.setattr(attnflow, "attend_message", recording)
    model._pick_step(2)(pool, None, flowing, None, ring)
    fused = acted_and_grads(acted[0])

    z, alpha = gat_messages(model, h)
    weighted = ad.reshape(ad.mul(z, ad.reshape(alpha, alpha.shape + (1,))),
                          slots + (d,))
    scaled = ad.mul(weighted, ad.reshape(flowing, slots + (1,)))
    plain = acted_and_grads(
        ad.tanh(ad.add(ad.matmul(scaled, p["act.W"]), p["act.b"])))

    assert np.abs(fused[0] - plain[0]).max() < 1e-10
    for got, want in zip(fused[1], plain[1]):
        assert np.abs(got - want).max() < 1e-10 * max(1.0, np.abs(want).max())


def hop_distances(gt, source):
    """Breadth-first hop distance of every node from source over the edge
    list (src, dst); unreachable nodes get n."""
    dist = np.full(gt.n, gt.n)
    dist[source] = 0
    frontier = [source]
    while frontier:
        nxt = set()
        for i in frontier:
            for j in gt.dst[gt.src == i]:
                if dist[j] > dist[i] + 1:
                    dist[j] = dist[i] + 1
                    nxt.add(j)
        frontier = sorted(nxt)
    return dist


def test_focused_attention_is_zero_outside_the_reach():
    """GraphTensors.reach equals the nodes within t hops by breadth-first
    search of the edge list, and at every step of every flow variant the
    focused attention, and the flowing attention of every edge out of an
    unreached sender, is exactly zero outside it."""
    g = grid.add_selfloops(
        grid.corrupt(grid.build_grid(5), 0.1, 0.1, seed=5))
    n = GraphTensors(g).n
    src = np.array([0, n // 2, n - 1])
    steps = 5
    for name in MODEL_NAMES:
        cfg = ModelConfig.from_name(
            name, dims=10 if name.startswith("gat") else 8, attn_dims=2,
            steps=steps, dtype="float64")
        if not cfg.explicit_flow:
            continue
        model = Model(cfg, GraphTensors(g), seed=1)
        gt = model.gt
        reach = gt.reach(src, steps)
        dist = np.stack([hop_distances(gt, s) for s in src])
        oracle = np.stack([dist <= t for t in range(steps + 1)])
        assert np.array_equal(reach, oracle), name
        assert not reach[steps - 1].all(), name  # the reach is not trivial
        r = model.forward(src, trace=True)
        for t in range(steps + 1):
            assert np.all(r.focused[t][~reach[t]] == 0.0), (name, t)
            assert r.focused[t][reach[t]].any(), (name, t)
        for t in range(steps):
            unreached_sender = ~reach[t][:, gt.src]
            assert np.all(r.flowing[t][unreached_sender] == 0.0), (name, t)
