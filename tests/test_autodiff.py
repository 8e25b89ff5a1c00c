"""Operator-level checks of the reverse-mode engine against central finite
differences and independent numpy oracles."""

import numpy as np
import pytest

from gridflow import autodiff as ad, grid
from gridflow.autodiff import Tensor
from gridflow.graphnets import GraphTensors


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
    check_unary(lambda t: ad.leaky_relu(t, 0.2), x + 0.05)
    check_unary(lambda t: ad.log(t), np.abs(x) + 0.5)
    check_unary(lambda t: ad.softmax(t, axis=-1), x)


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
    for trail in ((), (2,)):
        x = Tensor(rng.standard_normal((3, gt.n, gt.n_types) + trail),
                   requires_grad=True)
        out = ad.take(x, gt.send)
        flat = x.data.reshape((3, -1) + trail)
        assert np.array_equal(out.data.reshape(flat.shape), flat[:, gt.send])
        weights = rng.standard_normal(out.data.shape)
        x.zero_grad()
        ad.tsum(ad.mul(out, Tensor(weights))).backward()
        expect = np.zeros_like(flat)
        expect[:, gt.send] = weights.reshape(flat.shape)
        assert np.array_equal(x.grad, expect.reshape(x.data.shape))


def test_segment_sum_matches_add_at():
    """Receiver sums over slots equal np.add.at of the edge values into
    their receivers; pads add nothing and get zero gradient."""
    rng = np.random.default_rng(8)
    gt = slot_graph(8)
    for trail in ((), (2,)):
        x = Tensor(rng.standard_normal((3, gt.n, gt.n_types) + trail),
                   requires_grad=True)
        out = ad.segment_sum(x, gt.recv, gt.recv_pad, gt.receiver, gt.pad)
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


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        ad.mul(x, 2.0).backward()


def test_gradients_accumulate_across_paths():
    x = Tensor(np.array(2.0), requires_grad=True)
    y = ad.add(ad.mul(x, x), ad.mul(x, 3.0))  # x^2 + 3x
    y.backward()
    assert x.grad == pytest.approx(7.0)


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
