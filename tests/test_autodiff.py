"""Operator-level checks of the reverse-mode engine against central finite
differences and independent numpy oracles."""

import numpy as np
import pytest

from gridflow import autodiff as ad, grid
from gridflow.autodiff import Tensor
from gridflow.graphnets import Frontier, GraphTensors, StateRows


def fd_grad(f, x, eps=1e-6):
    """Central finite differences of a scalar function of one array."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    out = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f()
        flat[i] = orig - eps
        lo = f()
        flat[i] = orig
        out[i] = (hi - lo) / (2 * eps)
    return g


def check_unary(op, x, tol=1e-7, **kw):
    t = Tensor(x.copy(), requires_grad=True)
    loss = ad.tsum(ad.mul(op(t, **kw), Tensor(np.cos(np.arange(x.size)).reshape(x.shape))))
    loss.backward()
    weights = np.cos(np.arange(x.size)).reshape(x.shape)

    def scalar():
        with ad.no_grad():
            return float(ad.tsum(ad.mul(op(Tensor(t.data), **kw), Tensor(weights))).data)

    assert np.abs(t.grad - fd_grad(scalar, t.data)).max() < tol


def test_add_mul_with_broadcasting():
    rng = np.random.default_rng(0)
    a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal((4,)), requires_grad=True)
    loss = ad.tsum(ad.mul(ad.add(a, b), ad.add(a, b)))
    loss.backward()
    assert a.grad.shape == (3, 4)
    assert b.grad.shape == (4,)
    assert np.allclose(a.grad, 2 * (a.data + b.data))
    assert np.allclose(b.grad, 2 * (a.data + b.data).sum(axis=0))


def test_matmul_weight_and_vector():
    rng = np.random.default_rng(1)
    for shape_w in ((5, 3),):
        x = Tensor(rng.standard_normal((2, 4, 5)), requires_grad=True)
        w = Tensor(rng.standard_normal(shape_w), requires_grad=True)
        loss = ad.tsum(ad.tanh(ad.matmul(x, w)))
        loss.backward()

        def scalar_x():
            with ad.no_grad():
                return float(ad.tsum(ad.tanh(ad.matmul(Tensor(x.data), Tensor(w.data)))).data)

        assert np.abs(x.grad - fd_grad(scalar_x, x.data)).max() < 1e-7
        assert np.abs(w.grad - fd_grad(scalar_x, w.data)).max() < 1e-7


def test_matmul_rejects_3d_rhs():
    with pytest.raises(ValueError):
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 3, 3))))


def test_elementwise_ops_against_finite_differences():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((3, 5))
    check_unary(ad.tanh, x)
    check_unary(ad.sigmoid, x)
    check_unary(ad.leaky_relu, x + 0.05)
    check_unary(lambda t: ad.log(t), np.abs(x) + 0.5)
    check_unary(ad.softmax, x)


def test_log_floor_clamps_and_zeroes_gradient():
    x = Tensor(np.array([1e-20, 0.5]), requires_grad=True)
    y = ad.tsum(ad.log(x))
    assert np.isfinite(y.data)
    y.backward()
    assert x.grad[0] == 0.0
    assert x.grad[1] == pytest.approx(2.0)


def test_sum_mean_reductions():
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
    ad.tsum(ad.mul(ad.tsum(x, axis=1), 2.0)).backward()
    assert np.allclose(x.grad, 2.0)
    x.zero_grad()
    ad.tsum(ad.tmean(x, axis=2)).backward()
    assert np.allclose(x.grad, 0.25)


def test_concat_slice_reshape_round_trip():
    rng = np.random.default_rng(4)
    a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal((2, 5)), requires_grad=True)
    cat = ad.concat([a, b], axis=1)
    back = ad.slice_axis(cat, 1, 3, 8)
    loss = ad.tsum(ad.mul(ad.reshape(back, (10,)), np.arange(10.0)))
    loss.backward()
    assert np.allclose(a.grad, 0.0)
    assert np.allclose(b.grad, np.arange(10.0).reshape(2, 5))


def test_rowdot_matches_mul_sum():
    rng = np.random.default_rng(5)
    a = Tensor(rng.standard_normal((3, 4, 6)), requires_grad=True)
    b = Tensor(rng.standard_normal((3, 4, 6)), requires_grad=True)
    out = ad.rowdot(a, b)
    assert np.allclose(out.data, (a.data * b.data).sum(-1))
    ad.tsum(ad.tanh(out)).backward()
    g = (1 - np.tanh(out.data) ** 2)[..., None]
    assert np.allclose(a.grad, g * b.data)
    assert np.allclose(b.grad, g * a.data)
    # a broadcast operand gets its gradient summed over the broadcast axis
    a = Tensor(rng.standard_normal((3, 4, 1, 6)), requires_grad=True)
    b = Tensor(rng.standard_normal((3, 4, 5, 6)), requires_grad=True)
    out = ad.rowdot(a, b)
    assert np.allclose(out.data, (a.data * b.data).sum(-1))
    ad.tsum(ad.tanh(out)).backward()
    g = (1 - np.tanh(out.data) ** 2)[..., None]
    assert a.grad.shape == a.data.shape
    assert np.allclose(a.grad, (g * b.data).sum(axis=2, keepdims=True))
    assert np.allclose(b.grad, g * a.data)


def test_scale_affine_tanh_matches_unfused():
    rng = np.random.default_rng(6)
    s = Tensor(rng.standard_normal((2, 7)), requires_grad=True)
    q = Tensor(rng.standard_normal((2, 7, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal(3), requires_grad=True)
    fused = ad.scale_affine_tanh(s, q, b)
    plain = ad.tanh(ad.add(ad.mul(q, ad.reshape(s, (2, 7, 1))), b))
    assert np.allclose(fused.data, plain.data)
    ad.tsum(ad.mul(fused, 0.7)).backward()
    grads = [t.grad.copy() for t in (s, q, b)]
    for t in (s, q, b):
        t.zero_grad()
    ad.tsum(ad.mul(plain, 0.7)).backward()
    for g, t in zip(grads, (s, q, b)):
        assert np.allclose(g, t.grad)


def test_typed_affine_matches_gathered_oracle():
    """out[..., i, t] = x[..., i] @ w[t] + b[t] for every (node, type) slot,
    for node rows with and without a batch axis, with finite-difference
    grads."""
    rng = np.random.default_rng(7)
    n, nt, din, dout = 5, 4, 3, 6
    w = Tensor(rng.standard_normal((nt, din, dout)), requires_grad=True)
    b = Tensor(rng.standard_normal((nt, dout)), requires_grad=True)
    for lead in ((2,), ()):
        x = Tensor(rng.standard_normal(lead + (n, din)), requires_grad=True)
        out = ad.typed_affine(x, w, b)
        expect = np.einsum("...ni,tio->...nto", x.data, w.data) + b.data
        assert out.data.shape == lead + (n, nt, dout)
        assert np.allclose(out.data, expect, rtol=1e-12, atol=1e-12)
        weights = rng.standard_normal(out.data.shape)
        for t in (x, w, b):
            t.zero_grad()
        ad.tsum(ad.mul(out, Tensor(weights))).backward()

        def scalar():
            with ad.no_grad():
                o = ad.typed_affine(Tensor(x.data), Tensor(w.data),
                                    Tensor(b.data))
                return float(ad.tsum(ad.mul(o, Tensor(weights))).data)

        for t in (x, w, b):
            assert t.grad.shape == t.data.shape
            assert np.abs(t.grad - fd_grad(scalar, t.data)).max() < 1e-6


def slot_graph(seed):
    g = grid.corrupt(grid.build_grid(4), grid.CorruptionParams(0.1, 0.1, seed=seed))
    return GraphTensors(grid.add_selfloops(g))


def test_take_permutes_slots():
    """take reorders the flat (node, type) slots of every batch row, with
    any trailing axes, and its gradient is the inverse reordering."""
    rng = np.random.default_rng(11)
    gt = slot_graph(11)
    send = gt.send.reshape(-1)
    for trail in ((), (2,)):
        x = Tensor(rng.standard_normal((3, gt.n, gt.n_types) + trail),
                   requires_grad=True)
        out = ad.take(x, gt.send)
        flat = x.data.reshape((3, -1) + trail)
        assert out.data.shape == x.data.shape
        assert np.array_equal(out.data.reshape(flat.shape), flat[:, send])
        weights = rng.standard_normal(out.data.shape)
        x.zero_grad()
        ad.tsum(ad.mul(out, Tensor(weights))).backward()
        expect = np.zeros_like(flat)
        expect[:, send] = weights.reshape(flat.shape)
        assert np.array_equal(x.grad, expect.reshape(x.data.shape))


def frontier(gt, src, t):
    """The compact slots of step t of a flow from src."""
    reach = gt.reach(src, t + 1)
    every = StateRows(np.ones((len(src), gt.n), dtype=bool))
    return Frontier(gt, reach[t], reach[t + 1], every)


def check_op(op, inputs, tol=1e-6):
    """op's finite-difference grads at float64; at float32, float32 output
    and grads; and no write into an input or the incoming grad."""
    rng = np.random.default_rng(0)
    ts = [Tensor(x.copy(), requires_grad=True) for x in inputs]
    out = op(*ts)
    weights = rng.standard_normal(out.data.shape)
    ad.tsum(ad.mul(out, Tensor(weights))).backward()
    for t in ts:
        def scalar():
            with ad.no_grad():
                o = op(*[Tensor(u.data) for u in ts])
                return float(ad.tsum(ad.mul(o, Tensor(weights))).data)

        assert t.grad.shape == t.data.shape
        assert np.abs(t.grad - fd_grad(scalar, t.data)).max() < tol
    xs = [x.astype(np.float32) for x in inputs]
    before = [x.copy() for x in xs]
    out = op(*[Tensor(x, requires_grad=True) for x in xs])
    g = weights.astype(np.float32)
    g_before = g.copy()
    assert out.data.dtype == np.float32
    for _, vjp in out._vjps:
        assert vjp(g).dtype == np.float32
    assert np.array_equal(g, g_before)
    for x, x0 in zip(xs, before):
        assert np.array_equal(x, x0)


def test_take_picks_rows_and_compact_slots():
    """take by a subset index: flat (example, node) rows of a batch, and a
    Frontier's injective pick of its ring slots for the sender slots, whose
    unpicked slots get zero gradient."""
    rng = np.random.default_rng(13)
    gt = slot_graph(13)
    fr = frontier(gt, [0, gt.n - 1], 1)
    assert len(fr.rows) < 2 * gt.n
    assert len(np.unique(fr.send)) == fr.send.size  # picks each slot once
    rows = rng.standard_normal((1, 2 * gt.n, 3))
    ring_slots = rng.standard_normal((1, len(fr.ring), gt.n_types, 2))
    for x, index in ((rows, fr.rows), (ring_slots, fr.send)):
        out = ad.take(Tensor(x), index)
        flat = x.reshape((1, -1) + x.shape[1 + index.ndim:])
        assert out.data.shape == (1,) + index.shape + flat.shape[2:]
        assert np.array_equal(out.data, flat[:, index])
        check_op(lambda t, index=index: ad.take(t, index), [x])
    # the ring map's value at each real sender slot is its receiver's
    node = fr.rows % gt.n
    real = ~fr.pad
    ring_at = np.searchsorted(fr.ring, fr.receiver)
    assert np.array_equal((fr.send // gt.n_types)[real], ring_at[real])
    assert np.array_equal(fr.send[real] % gt.n_types,
                          (gt.send[node] % gt.n_types)[real])


def test_take_negative_index_picks_nothing():
    """A negative index gives a zero slot, which takes no gradient back; the
    dense (B, n) rows of a compact (1, m) layout are made this way."""
    rng = np.random.default_rng(12)
    x = rng.standard_normal((1, 5, 3))
    index = np.array([-1, 2, -1, 0, 4, -1])
    out = ad.take(Tensor(x), index)
    assert out.data.shape == (1, 6, 3)
    expect = np.where((index < 0)[None, :, None], 0.0, x[:, index.clip(0)])
    assert np.array_equal(out.data, expect)
    check_op(lambda t: ad.take(t, index), [x])


def test_segment_sum_matches_add_at():
    """Receiver sums over slots equal np.add.at of the edge values into
    their receivers; pads add nothing and get zero gradient."""
    rng = np.random.default_rng(8)
    gt = slot_graph(8)
    for trail in ((), (2,)):
        x = Tensor(rng.standard_normal((3, gt.n, gt.n_types) + trail),
                   requires_grad=True)
        out = ad.segment_sum(x, gt)
        edges = x.data.reshape((3, -1) + trail)[:, gt.src_type]
        expect = np.zeros((3, gt.n) + trail)
        np.add.at(np.moveaxis(expect, 1, 0), gt.dst, np.moveaxis(edges, 1, 0))
        assert np.allclose(out.data, expect, rtol=1e-12, atol=1e-12)
        weights = rng.standard_normal(out.data.shape)
        ad.tsum(ad.mul(out, Tensor(weights))).backward()
        grad = x.grad.reshape((3, -1) + trail)
        assert np.array_equal(grad[:, gt.pad.reshape(-1)], np.zeros_like(
            grad[:, gt.pad.reshape(-1)]))
        assert np.array_equal(grad[:, gt.src_type], weights[:, gt.dst])


def test_segment_sum_receives_compact_rows_with_weights():
    """From a Frontier's compact sender rows, with and without a per-slot
    weight, segment_sum equals np.add.at of the reached senders' edge
    values into the batch's dense rows, with finite-difference grads,
    float32 kept, no input written, and pad junk in x and the weight
    ignored."""
    rng = np.random.default_rng(14)
    gt = slot_graph(14)
    src = [3, 0]
    fr = frontier(gt, src, 2)
    k, nt = len(fr.rows), gt.n_types
    assert 0 < k < 2 * gt.n
    x = rng.standard_normal((1, k, nt, 3))
    wt = rng.random((1, k, nt))
    # oracle: the compact values at their dense sender slots, zero elsewhere
    dense_x = np.zeros((2 * gt.n, nt, 3))
    dense_x[fr.rows] = x[0]
    dense_w = np.zeros((2 * gt.n, nt))
    dense_w[fr.rows] = wt[0]
    dense_x, dense_w = (v.reshape((2, gt.n * nt) + v.shape[2:])
                        for v in (dense_x, dense_w))
    for weight in (None, wt):
        edges = dense_x[:, gt.src_type]
        if weight is not None:
            edges = edges * dense_w[:, gt.src_type, None]
        expect = np.zeros((gt.n, 2, 3))
        np.add.at(expect, gt.dst, np.moveaxis(edges, 1, 0))
        inputs = [x] if weight is None else [x, weight]
        out = ad.segment_sum(*[Tensor(v) for v in inputs[:1]], fr,
                             *[Tensor(v) for v in inputs[1:]])
        assert out.data.shape == (2, gt.n, 3)
        assert np.allclose(out.data, np.moveaxis(expect, 0, 1),
                           rtol=1e-12, atol=1e-12)
        check_op(lambda *t: ad.segment_sum(t[0], fr, *t[1:]), inputs)
        # pad junk changes neither the output nor a grad
        results = []
        for junk in (0.0, 1e30):
            vs = [v.copy() for v in inputs]
            for v in vs:
                v[:, fr.pad] += junk
            ts = [Tensor(v, requires_grad=True) for v in vs]
            o = ad.segment_sum(ts[0], fr, *ts[1:])
            g = rng.standard_normal(o.data.shape) if not results else results[0][2]
            results.append((o.data, [f(g) for _, f in o._vjps], g))
        assert np.array_equal(results[0][0], results[1][0])
        for a, b in zip(results[0][1], results[1][1]):
            assert np.array_equal(a, b)


def test_weighted_segment_sum_matches_materialized_product():
    """segment_sum of x weighted per slot (and per head, as GAT's attention)
    equals segment_sum of the materialized product x * weight, in output
    and in both grads; float32 stays float32 and nothing is written."""
    rng = np.random.default_rng(15)
    gt = slot_graph(15)
    shape = (2, gt.n, gt.n_types, 3)
    x = rng.standard_normal(shape + (4,))
    wt = rng.standard_normal(shape)
    g = rng.standard_normal((2, gt.n, 3, 4))

    def run(weighted):
        xt, wtt = Tensor(x, requires_grad=True), Tensor(wt, requires_grad=True)
        out = (ad.segment_sum(xt, gt, wtt) if weighted else ad.segment_sum(
            ad.mul(xt, ad.reshape(wtt, shape + (1,))), gt))
        ad.tsum(ad.mul(out, Tensor(g))).backward()
        return out.data, xt.grad, wtt.grad

    for got, want in zip(run(True), run(False)):
        assert np.abs(got - want).max() < 1e-12
    check_op(lambda a, b: ad.segment_sum(a, gt, b), [x, wt])


def test_segment_softmax_matches_dense_oracle():
    """Softmax over each node's slots with the pads left out, in sender and
    receiver slots and with a trailing axis, with finite-difference grads."""
    rng = np.random.default_rng(9)
    gt = slot_graph(9)
    for pad, shape, axis in ((gt.pad, (2, gt.n, gt.n_types), -1),
                             (gt.recv_pad, (2, gt.n, gt.n_types, 3), 2)):
        x = Tensor(rng.standard_normal(shape), requires_grad=True)
        p = ad.segment_softmax(x, pad, axis=axis)
        keep = ~pad.reshape(pad.shape + (1,) * (len(shape) - 3))
        for i in range(gt.n):
            row = x.data[:, i][:, keep[i].ravel()]
            e = np.exp(row - row.max(axis=1, keepdims=True))
            assert np.allclose(p.data[:, i][:, keep[i].ravel()],
                               e / e.sum(axis=1, keepdims=True))
        assert np.all(p.data[:, pad] == 0.0)
        weights = rng.standard_normal(shape)
        ad.tsum(ad.mul(p, Tensor(weights))).backward()

        def scalar():
            with ad.no_grad():
                q = ad.segment_softmax(Tensor(x.data), pad, axis=axis)
                return float(ad.tsum(ad.mul(q, Tensor(weights))).data)

        assert np.abs(x.grad - fd_grad(scalar, x.data)).max() < 1e-6
        assert np.all(x.grad[:, pad] == 0.0)


def test_type_axis_ops_keep_dtype_and_inputs_and_ignore_pad_junk():
    """segment_softmax in both slot layouts and leaky_relu keep float32 in
    their output and grad and write into neither their input nor the
    incoming grad; segment_softmax gives the same output and grad when the
    pads hold +-1e30 junk as when they hold clean values."""
    rng = np.random.default_rng(12)
    gt = slot_graph(12)
    cases = (
        (lambda t: ad.segment_softmax(t, gt.pad, axis=-1),
         (2, gt.n, gt.n_types), gt.pad),
        (lambda t: ad.segment_softmax(t, gt.recv_pad, axis=2),
         (2, gt.n, gt.n_types, 3), gt.recv_pad),
        (ad.leaky_relu, (2, gt.n, gt.n_types), None),
    )
    for op, shape, pad in cases:
        x = rng.standard_normal(shape).astype(np.float32)
        g = rng.standard_normal(shape).astype(np.float32)
        inputs = [x]
        if pad is not None:
            junk = x.copy()
            junk[:, pad] = rng.choice(np.float32([-1e30, 1e30]),
                                      size=junk[:, pad].shape)
            inputs.append(junk)
        results = []
        for xd in inputs:
            xd_before, g_before = xd.copy(), g.copy()
            out = op(Tensor(xd, requires_grad=True))
            grad = out._vjps[0][1](g)
            assert out.data.dtype == grad.dtype == np.float32
            assert np.array_equal(xd, xd_before)
            assert np.array_equal(g, g_before)
            assert np.all(np.isfinite(out.data)) and np.all(np.isfinite(grad))
            results.append((out.data, grad))
        for out, grad in results[1:]:
            assert np.array_equal(out, results[0][0])
            assert np.array_equal(grad, results[0][1])


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        ad.mul(x, 2.0).backward()


def test_gradients_accumulate_across_paths():
    x = Tensor(np.array(2.0), requires_grad=True)
    y = ad.add(ad.mul(x, x), ad.mul(x, 3.0))  # x^2 + 3x
    y.backward()
    assert x.grad == pytest.approx(7.0)


def test_backward_on_a_leaf_gives_one():
    x = Tensor(np.array(3.0), requires_grad=True)
    x.backward()
    assert x.grad == 1.0


def test_leaf_read_by_the_loss_gets_an_unscaled_grad():
    w = Tensor(np.array([1.5, -2.0]), requires_grad=True)
    ad.tsum(w).backward()
    assert np.array_equal(w.grad, [1.0, 1.0])
    s = Tensor(np.array(2.0), requires_grad=True)
    ad.mul(s, 3.0).backward()
    assert s.grad == 3.0


def test_two_backwards_accumulate_as_the_unscaled_engine(monkeypatch):
    """Microbatch accumulation: leaf grads are summed in true units, bit for
    bit as by an engine that seeds backward with 1."""
    rng = np.random.default_rng(20)
    w0, b0 = rng.standard_normal((4, 3)), rng.standard_normal(3)
    xs = [rng.standard_normal((2, 4)) for _ in range(2)]

    def grads():
        w = Tensor(w0.copy(), requires_grad=True)
        b = Tensor(b0.copy(), requires_grad=True)
        for x in xs:
            h = ad.tanh(ad.add(ad.matmul(Tensor(x), w), b))
            ad.mul(ad.tsum(ad.mul(h, h)), 0.5).backward()
        return w.grad, b.grad

    scaled = grads()
    monkeypatch.setattr(ad, "GRAD_SCALE", 1.0)
    for got, want in zip(scaled, grads()):
        assert np.array_equal(got, want)


def test_float32_grads_stay_float32():
    w = Tensor(np.ones((3, 2), dtype=np.float32), requires_grad=True)
    s = Tensor(np.array(0.5, dtype=np.float32), requires_grad=True)
    x = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3))
    ad.tsum(ad.mul(ad.tanh(ad.matmul(x, w)), s)).backward()
    assert w.grad.dtype == np.float32 and s.grad.dtype == np.float32


def test_float32_grad_below_the_normal_range_keeps_its_precision(monkeypatch):
    """The gradient at u = x * a is c2 * c1, about 2^-140: subnormal in
    float32 (the smallest normal is 2^-126), with only about 9 significant
    bits left. Seeded with GRAD_SCALE it stays normal, so x's grad matches
    the float64 result to float32 rounding; seeded with 1 it does not."""
    a, c1, c2 = 1.1 * 2.0 ** 100, 1.2345 * 2.0 ** -70, 1.7 * 2.0 ** -70
    x0 = np.linspace(0.5, 1.5, 5)

    def grad(dtype):
        x = Tensor(x0.astype(dtype), requires_grad=True)
        v = ad.mul(ad.mul(x, dtype(a)), dtype(c1))
        ad.tsum(ad.mul(v, dtype(c2))).backward()
        assert x.grad.dtype == dtype
        return x.grad

    want = grad(np.float64)
    assert np.allclose(grad(np.float32), want, rtol=4 * 2.0 ** -24, atol=0)
    monkeypatch.setattr(ad, "GRAD_SCALE", 1.0)
    assert not np.allclose(grad(np.float32), want, rtol=1e-4, atol=0)


def test_no_grad_disables_recording():
    x = Tensor(np.ones(2), requires_grad=True)
    with ad.no_grad():
        y = ad.tsum(ad.mul(x, x))
    assert not y.requires_grad and y._vjps == ()


def test_free_graph_releases_closures():
    x = Tensor(np.ones(3), requires_grad=True)
    y = ad.tsum(ad.tanh(x))
    y.backward()
    assert x.grad is not None
    assert y._vjps == ()


def test_grad_check_passes_on_smooth_function():
    """Also for a Fortran-ordered parameter, which must be perturbed in
    place, not through a flattened copy."""
    rng = np.random.default_rng(10)
    w0 = rng.standard_normal((4, 3))
    x = np.linspace(-1, 1, 8).reshape(2, 4)
    for data in (w0, np.asfortranarray(w0)):
        w = Tensor(data, requires_grad=True)

        def f():
            return ad.tsum(ad.tanh(ad.matmul(Tensor(x), w)))

        assert ad.grad_check(f, [w], seed=0) < 1e-7


def test_grad_check_catches_wrong_gradient():
    w = Tensor(np.ones(3), requires_grad=True)

    calls = 0

    def f():
        nonlocal calls
        calls += 1
        out = ad.tsum(ad.mul(w, w))
        if calls == 1:  # poison the recorded vjp on the backward pass only
            out._vjps = ((w, lambda g: np.zeros(3)),)
        return out

    assert ad.grad_check(f, [w], seed=0) > 0.1


def test_segment_sum_receives_into_compact_state_rows():
    """A Frontier over compact state rows (a subset R of the batch's flat
    rows) points every index at R's rows, pads' receivers included, and
    segment_sum into it gives the whole-batch result at R, which is zero
    outside R; grads match finite differences and float32 is kept."""
    rng = np.random.default_rng(15)
    gt = slot_graph(15)
    src, steps = [3, 0], 2
    reach = gt.reach(src, steps)
    states = StateRows(reach[steps])
    m = len(states.rows)
    assert 0 < m < 2 * gt.n and states.shape == (1, m)
    every = StateRows(np.ones((len(src), gt.n), dtype=bool))
    full, compact = (Frontier(gt, reach[1], reach[2], s)
                     for s in (every, states))
    assert np.array_equal(compact.unreached_in[0],
                          full.unreached_in.reshape(-1)[states.rows])
    for index in (compact.rows, compact.ring, compact.receiver):
        assert index.min() >= 0 and index.max() < m
    x = rng.standard_normal((1, len(full.rows), gt.n_types, 3))
    wt = rng.random((1, len(full.rows), gt.n_types))
    for inputs in ([x], [x, wt]):
        dense = ad.segment_sum(*[Tensor(v) for v in inputs[:1]], full,
                               *[Tensor(v) for v in inputs[1:]]).data
        out = ad.segment_sum(*[Tensor(v) for v in inputs[:1]], compact,
                             *[Tensor(v) for v in inputs[1:]]).data
        flat = dense.reshape((-1, 3))
        assert out.shape == (1, m, 3)
        assert np.array_equal(out[0], flat[states.rows])
        left_out = np.ones(len(flat), dtype=bool)
        left_out[states.rows] = False
        assert not flat[left_out].any()
        check_op(lambda *t: ad.segment_sum(t[0], compact, *t[1:]), inputs)
    # per-row values pass to and from the compact rows unchanged
    rows = rng.standard_normal((2, gt.n, 4))
    picked = states.pick(Tensor(rows))
    assert np.array_equal(picked.data[0], rows.reshape(-1, 4)[states.rows])
    back = states.dense(picked).data.reshape(-1, 4)
    assert np.array_equal(back[states.rows], picked.data[0])
    assert not back[np.setdiff1d(np.arange(2 * gt.n), states.rows)].any()
