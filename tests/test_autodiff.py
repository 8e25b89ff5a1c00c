"""Operator-level checks of the reverse-mode engine: the four properties
of every op by one table (see gradcheck.check_op), and independent numpy
oracles of the forward values and of some backward ones."""

import inspect

import numpy as np
import pytest

from gradcheck import check_op, grad_check
from gridflow import autodiff as ad, grid
from gridflow.autodiff import Tensor
from gridflow.graphnets import Frontier, GraphTensors, pool_rows


def slot_graph(seed):
    g = grid.corrupt(grid.build_grid(4), 0.1, 0.1, seed=seed)
    return GraphTensors(grid.add_selfloops(g))


def frontier(gt, src, t):
    """The compact slots of step t of a flow from src, over dense states."""
    reach = gt.reach(src, t + 1)
    return Frontier(gt, reach, t, np.arange(len(src) * gt.n))


def cone(gt, src, t):
    """The ring pass's layout of update t of a forward from src, over its
    light-cone pool, reading every sender; and the pool's size."""
    reach = gt.reach(src, t + 1)
    at = pool_rows(reach[t])
    return (Frontier(gt, reach, t, at, background=True),
            int(reach[t].sum()) + gt.n)


RNG = np.random.default_rng(2)
X = RNG.standard_normal((3, 5))
GT = slot_graph(12)
SLOTS = (2, GT.n, GT.n_types)
# The rows that a light cone's ring pass reads its own states from: each
# background row is read by every example whose next reach newly takes it
# in, up to once per example.
CONE, POOL = cone(GT, [0, 7, GT.n - 1], 1)


def r(*shape):
    """Standard normal draws of the given shape."""
    return RNG.standard_normal(shape)


# One row per public op of autodiff: check_op's arguments, the op on Tensors,
# its float64 inputs and, where they are not the defaults, its pad and tol.
OPS = {
    "add": (ad.add, [r(3, 4), r(4)]),
    "mul": (ad.mul, [r(3, 4), r(4)]),
    "matmul": (ad.matmul, [r(2, 4, 5), r(5, 3)], None, 1e-7),
    "concat": (lambda a, b: ad.concat([a, b], axis=1), [r(2, 3), r(2, 5)]),
    "slice_axis": (lambda t: ad.slice_axis(t, 1, 1, 4), [r(2, 5)]),
    "reshape": (lambda t: ad.reshape(t, (10,)), [r(2, 5)]),
    "tanh": (ad.tanh, [X], None, 1e-7),
    "sigmoid": (ad.sigmoid, [X], None, 1e-7),
    "leaky_relu": (ad.leaky_relu, [X + 0.05], None, 1e-7),
    "log": (ad.log, [np.abs(X) + 0.5], None, 1e-7),
    "softmax": (ad.softmax, [X], None, 1e-7),
    "tsum": (lambda t: ad.tsum(t, axis=1), [r(2, 3, 4)]),
    "tmean": (lambda t: ad.tmean(t, axis=2), [r(2, 3, 4)]),
    "rowdot": (ad.rowdot, [r(3, 4, 1, 6), r(3, 4, 5, 6)]),
    "scale_affine_tanh": (ad.scale_affine_tanh, [r(2, 7), r(2, 7, 3), r(3)]),
    "typed_affine": (ad.typed_affine, [r(2, 5, 3), r(4, 3, 6), r(4, 6)]),
    "take": (lambda t: ad.take(t, CONE.states), [r(1, POOL, 2)]),
    "segment_sum": (lambda x, w: ad.segment_sum(x, GT, w),
                    [r(*SLOTS, 3), RNG.random(SLOTS)], [GT.pad, GT.recv_pad]),
    "segment_softmax": (lambda t: ad.segment_softmax(t, GT.pad), [r(*SLOTS)],
                        GT.pad),
}


@pytest.mark.parametrize("name", OPS)
def test_op_properties(name):
    check_op(*OPS[name])


def test_every_public_op_has_a_row():
    ops = {name for name, f in vars(ad).items()
           if inspect.isfunction(f) and f.__module__ == ad.__name__
           and not name.startswith("_")}
    assert ops == set(OPS)


def tanh_with_vjp(vjp):
    """tanh whose VJP is g -> vjp(g, tanh's output)."""
    def op(t):
        out = ad.tanh(t)
        out._vjps = tuple((p, lambda g: vjp(g, out.data))
                          for p, _ in out._vjps)
        return out

    return op


def writes_input(t):
    out = ad.tanh(t)
    t.data[0] = 0.0
    return out


def take_once(t):
    """take whose VJP gathers g by the inverse index only, so a slot picked
    several times gets back one of its picks."""
    out = ad.take(t, CONE.states)
    inv = np.zeros(POOL, dtype=np.intp)
    inv[CONE.states] = np.arange(CONE.states.size)
    out._vjps = tuple((p, lambda g: np.take(g, inv, axis=1))
                      for p, _ in out._vjps)
    return out


# Broken copies of a row of OPS, and the check_op message each fails with.
MUTANTS = {
    "forward-writes-input": (writes_input, "tanh", "wrote into an input"),
    "float64-vjp": (tanh_with_vjp(lambda g, y: (g * (1 - y * y)).astype(
        np.float64)), "tanh", "float32 not kept"),
    "pad-mask-dropped": (lambda t: ad.segment_softmax(
        t, np.zeros_like(GT.pad)), "segment_softmax", "pad junk"),
    "vjp-writes-g": (tanh_with_vjp(lambda g, y: np.multiply(
        g, 1 - y * y, out=g)), "tanh", "wrote into g"),
    "wrong-gradient": (tanh_with_vjp(lambda g, y: 2 * g * (1 - y * y)), "tanh",
                       "finite differences"),
    "repeated-picks-dropped": (take_once, "take", "finite differences"),
}


@pytest.mark.parametrize("name", MUTANTS)
def test_check_op_catches_mutant(name):
    mutant, row, message = MUTANTS[name]
    with pytest.raises(AssertionError, match=message):
        check_op(mutant, *OPS[row][1:])


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


def test_matmul_rejects_3d_rhs():
    with pytest.raises(ValueError):
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 3, 3))))


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
    x.grad = None
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
    """Also where one operand is broadcast along an axis."""
    rng = np.random.default_rng(5)
    for sa, sb in (((3, 4, 6), (3, 4, 6)), ((3, 4, 1, 6), (3, 4, 5, 6))):
        a, b = rng.standard_normal(sa), rng.standard_normal(sb)
        out = ad.rowdot(Tensor(a), Tensor(b))
        assert np.allclose(out.data, (a * b).sum(-1))
        check_op(ad.rowdot, [a, b])


def test_scale_affine_tanh_matches_unfused():
    rng = np.random.default_rng(6)
    s, q, b = (Tensor(rng.standard_normal(shape))
               for shape in ((2, 7), (2, 7, 3), 3))
    plain = ad.tanh(ad.add(ad.mul(q, ad.reshape(s, (2, 7, 1))), b))
    assert np.allclose(ad.scale_affine_tanh(s, q, b).data, plain.data)


def test_typed_affine_matches_gathered_oracle():
    """out[..., i, t] = x[..., i] @ w[t] + b[t] for every (node, type) slot,
    for node rows with and without a batch axis, and check_op holds in
    both."""
    rng = np.random.default_rng(7)
    n, nt, din, dout = 5, 4, 3, 6
    w = rng.standard_normal((nt, din, dout))
    b = rng.standard_normal((nt, dout))
    for lead in ((2,), ()):
        x = rng.standard_normal(lead + (n, din))
        out = ad.typed_affine(Tensor(x), Tensor(w), Tensor(b))
        expect = np.einsum("...ni,tio->...nto", x, w) + b
        assert out.data.shape == lead + (n, nt, dout)
        assert np.allclose(out.data, expect, rtol=1e-12, atol=1e-12)
        check_op(ad.typed_affine, [x, w, b])


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
        ad.tsum(ad.mul(out, Tensor(weights))).backward()
        expect = np.zeros_like(flat)
        expect[:, send] = weights.reshape(flat.shape)
        assert np.array_equal(x.grad, expect.reshape(x.data.shape))


def test_take_picks_rows_and_compact_slots():
    """take by a subset index: flat (example, node) rows of a batch, and a
    Frontier's injective pick of its ring slots for the sender slots, whose
    unpicked slots get zero gradient; and by an index that picks rows
    several times, a light cone's, whose gradient sums the picks, as
    np.add.at does."""
    rng = np.random.default_rng(13)
    gt = slot_graph(13)
    src = [0, gt.n - 1]
    fr = frontier(gt, src, 1)
    reach = gt.reach(src, 2)
    assert len(fr.sender_rows) < 2 * gt.n
    real = fr.send >= 0
    assert np.array_equal(real, ~fr.pad)
    assert len(np.unique(fr.send[real])) == real.sum()  # picks each slot once
    rows = rng.standard_normal((1, 2 * gt.n, 3))
    ring_slots = rng.standard_normal((1, len(fr.states), gt.n_types, 2))
    for x, index in ((rows, fr.sender_rows), (ring_slots, fr.send)):
        out = ad.take(Tensor(x), index)
        flat = x.reshape((1, -1) + x.shape[1 + index.ndim:])
        expect = np.where((index < 0)[(None, ...) + (None,) * (
            flat.ndim - 2)], 0.0, flat[:, index.clip(0)])
        assert out.data.shape == (1,) + index.shape + flat.shape[2:]
        assert np.array_equal(out.data, expect)
        check_op(lambda t, index=index: ad.take(t, index), [x])
    # the ring map's value at each real sender slot is its receiver's
    senders = np.flatnonzero(reach[1])
    node = senders % gt.n
    receiver = (senders - node)[:, None] + gt.send[node] // gt.n_types
    ring_at = np.searchsorted(np.flatnonzero(reach[2]), receiver)
    assert np.array_equal((fr.send // gt.n_types)[real], ring_at[real])
    assert np.array_equal(fr.send[real] % gt.n_types,
                          (gt.send[node] % gt.n_types)[real])
    # a light cone's rows: background rows are picked up to 3 times
    picks = np.bincount(CONE.states, minlength=POOL)
    assert picks.max() == 3
    x = Tensor(rng.standard_normal((1, POOL, 3)), requires_grad=True)
    out = ad.take(x, CONE.states)
    assert np.array_equal(out.data, x.data[:, CONE.states])
    g = rng.standard_normal(out.data.shape)
    ad.tsum(ad.mul(out, Tensor(g))).backward()
    expect = np.zeros_like(x.data)
    np.add.at(expect[0], CONE.states, g[0])
    assert np.allclose(x.grad, expect, rtol=1e-14, atol=1e-14)


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
    """From a Frontier's compact sender rows into its ring rows, with and
    without a weight per receiver slot, segment_sum equals np.add.at of the
    reached senders' edge values into the batch's dense rows, there, and
    check_op holds with the Frontier's pads."""
    rng = np.random.default_rng(14)
    gt = slot_graph(14)
    src = [3, 0]
    reach = gt.reach(src, 3)
    fr = frontier(gt, src, 2)
    k, nt = len(fr.sender_rows), gt.n_types
    ring = np.flatnonzero(reach[3])
    assert 0 < k < len(ring) < 2 * gt.n
    x = rng.standard_normal((1, k, nt, 3))
    wt = rng.random((1, len(ring), nt))
    # oracle: the compact values at their dense slots, zero elsewhere
    dense_x = np.zeros((2 * gt.n, nt, 3))
    dense_x[fr.sender_rows] = x[0]
    dense_w = np.zeros((2 * gt.n, nt))
    dense_w[ring] = wt[0]
    dense_x, dense_w = (v.reshape((2, gt.n * nt) + v.shape[2:])
                        for v in (dense_x, dense_w))
    for weight in (None, wt):
        edges = dense_x[:, gt.src_type]
        if weight is not None:
            edges = edges * dense_w[:, gt.dst * nt + gt.etype, None]
        expect = np.zeros((gt.n, 2, 3))
        np.add.at(expect, gt.dst, np.moveaxis(edges, 1, 0))
        inputs = [x] if weight is None else [x, weight]
        out = ad.segment_sum(*[Tensor(v) for v in inputs[:1]], fr,
                             *[Tensor(v) for v in inputs[1:]])
        assert out.data.shape == (1, len(ring), 3)
        assert np.allclose(out.data[0],
                           np.moveaxis(expect, 0, 1).reshape(-1, 3)[ring],
                           rtol=1e-12, atol=1e-12)
        check_op(lambda *t: ad.segment_sum(t[0], fr, *t[1:]), inputs,
                 [fr.pad, fr.recv_pad][:len(inputs)])


def test_weighted_segment_sum_matches_materialized_product():
    """segment_sum of x weighted per receiver slot (and per head, as GAT's
    attention) equals segment_sum of the materialized product of x and the
    weight picked into the sender slots, in output and in both grads, and
    check_op holds."""
    rng = np.random.default_rng(15)
    gt = slot_graph(15)
    shape = (2, gt.n, gt.n_types, 3)
    x = rng.standard_normal(shape + (4,))
    wt = rng.standard_normal(shape)
    g = rng.standard_normal((2, gt.n, 3, 4))

    def run(weighted):
        xt, wtt = Tensor(x, requires_grad=True), Tensor(wt, requires_grad=True)
        out = (ad.segment_sum(xt, gt, wtt) if weighted else ad.segment_sum(
            ad.mul(xt, ad.reshape(ad.take(wtt, gt.send), shape + (1,))), gt))
        ad.tsum(ad.mul(out, Tensor(g))).backward()
        return out.data, xt.grad, wtt.grad

    for got, want in zip(run(True), run(False)):
        assert np.abs(got - want).max() < 1e-12
    check_op(lambda a, b: ad.segment_sum(a, gt, b), [x, wt],
             [gt.pad, gt.recv_pad])


def test_segment_softmax_matches_dense_oracle():
    """Softmax over each node's slots with the pads left out, in sender and
    receiver slots and with a trailing axis: the pads get probability 0 and
    zero gradient, and check_op holds."""
    rng = np.random.default_rng(9)
    gt = slot_graph(9)
    for pad, shape in ((gt.pad, (2, gt.n, gt.n_types)),
                       (gt.recv_pad, (2, gt.n, gt.n_types, 3))):
        x = rng.standard_normal(shape)
        p = ad.segment_softmax(Tensor(x, requires_grad=True), pad)
        keep = ~pad.reshape(pad.shape + (1,) * (len(shape) - 3))
        for i in range(gt.n):
            row = x[:, i][:, keep[i].ravel()]
            e = np.exp(row - row.max(axis=1, keepdims=True))
            assert np.allclose(p.data[:, i][:, keep[i].ravel()],
                               e / e.sum(axis=1, keepdims=True))
        assert np.all(p.data[:, pad] == 0.0)
        grad = p._vjps[0][1](rng.standard_normal(shape))
        assert np.all(grad[:, pad] == 0.0)
        check_op(lambda t: ad.segment_softmax(t, pad), [x], pad)


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        ad.mul(x, 2.0).backward()


def states_chain(dtype=np.float64):
    """A leaf w and three non-scalar states r_t, each read by the next
    through three ops, as a background's states are read by its next
    update."""
    rng = np.random.default_rng(30)
    w = Tensor(rng.standard_normal((3, 3)).astype(dtype), requires_grad=True)
    x = Tensor(rng.standard_normal((4, 3)).astype(dtype))
    r = [ad.tanh(ad.matmul(x, w))]
    for _ in range(2):
        r.append(ad.tanh(ad.add(ad.matmul(r[-1], w), ad.mul(r[-1], r[-1]))))
    return w, r


def test_walk_from_seeded_roots_matches_the_scalar_loss():
    """A walk from several non-scalar roots, each holding G_t in scaled
    units, gives the leaf, at float64, bit for bit the grad of backward of
    the scalar sum_t <r_t, G_t>, and drops every interior closure; at
    float32 every grad stays float32. A root that holds no grad must be a
    scalar."""
    rng = np.random.default_rng(31)
    gs = [rng.standard_normal((4, 3)) for _ in range(3)]
    w, r = states_chain()
    ad.tsum(ad.concat([ad.mul(rt, Tensor(g)) for rt, g in zip(r, gs)],
                      axis=0)).backward()
    want = w.grad
    w, r = states_chain()
    for rt, g in zip(r, gs):
        rt.grad = g * ad.GRAD_SCALE
    ad.Tensor.backward(*r)
    assert np.array_equal(w.grad, want)
    assert all(rt.grad is None and rt._vjps == () for rt in r)

    w, r = states_chain(np.float32)
    for rt, g in zip(r, gs):
        rt.grad = (g * ad.GRAD_SCALE).astype(np.float32)
    ad.Tensor.backward(*r)
    assert w.grad.dtype == np.float32
    assert np.allclose(w.grad, want, rtol=1e-5, atol=0)
    with pytest.raises(ValueError, match="scalar loss"):
        ad.Tensor.backward(*states_chain()[1])


def test_walks_stop_at_shared_states_then_carry_them_on():
    """Two losses read the shared states r. Each walk stops at r: the
    states keep their closures and sum their grad in scaled units, in
    their dtype, while every interior closure the walk consumed is
    dropped and the leaf w, which the losses also read directly, gets its
    own share. One walk from r then carries the sum on, as the grad of
    one backward of the summed losses."""
    def losses(r, w):
        out, interior = [], []
        for k, c in enumerate((0.5, -1.5)):
            a = ad.tanh(ad.add(ad.matmul(r[k + 1], w), c))
            interior += [a, *[p for p, _ in a._vjps]]
            out.append(ad.tsum(ad.mul(a, r[0])))
        return out, interior

    for dtype in (np.float64, np.float32):
        w, r = states_chain(dtype)
        (l1, l2), interior = losses(r, w)
        ad.add(l1, l2).backward()
        want = w.grad

        w, r = states_chain(dtype)
        (l1, l2), interior = losses(r, w)
        l1.backward(until=r)
        first = r[0].grad.copy()
        l2.backward(until=r)
        assert all(rt._vjps != () for rt in r)
        assert all(rt.grad.dtype == dtype for rt in r)
        assert all(t._vjps == () and t.grad is None
                   for t in (l1, l2, *interior))
        # The first loss reads r_0 through mul only: the walk leaves it
        # GRAD_SCALE times that factor's true gradient.
        assert np.allclose(first / ad.GRAD_SCALE,
                           np.tanh(r[1].data @ w.data + 0.5), rtol=1e-5)
        assert w.grad is not None and w.grad.dtype == dtype
        ad.Tensor.backward(*r)
        assert all(rt._vjps == () and rt.grad is None for rt in r)
        assert w.grad.dtype == dtype
        tol = 1e-12 if dtype == np.float64 else 1e-5
        assert np.allclose(w.grad, want, rtol=tol, atol=tol * np.abs(want).max())


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

        assert grad_check(f, [w], seed=0) < 1e-7


def test_segment_sum_receives_into_compact_state_rows():
    """A light cone's ring pass receives into its compact state rows, the
    ring rows of each example, from the rows of its pool that it reads:
    every per-example row, and a background row for each sender outside
    an example's reach. With and without a weight, segment_sum there
    equals the dense all-rows sum over the pool laid out at every row, at
    the ring rows; and check_op holds with its pads. The flow step's
    layout of the same step, whose twin this layout is, reads the same
    slots at its reached senders and pads the rest."""
    rng = np.random.default_rng(15)
    gt = slot_graph(15)
    src, nt = [3, 0], gt.n_types
    reach = gt.reach(src, 2)
    layout, pool = cone(gt, src, 1)
    ring = np.flatnonzero(reach[2])
    rows = len(ring)
    assert layout.send is None and layout.recv.shape == (rows, nt)
    assert 0 < len(ring) < 2 * gt.n
    # background slots are read by the ring rows outside whose example's
    # reach[1] they lie
    assert np.bincount(layout.recv[layout.recv >= 0]).max() > 1
    at, senders = pool_rows(reach[1]), layout.sender_rows
    k = int(reach[1].sum())
    assert np.array_equal(senders[:k], np.arange(k))
    assert k < len(senders) < pool
    node = np.empty(pool, dtype=np.int64)
    node[at] = np.arange(len(at)) % gt.n
    node[-gt.n:] = np.arange(gt.n)
    node = node[senders]
    assert np.array_equal(layout.pad, gt.pad[node])
    # The flow step's layout of the same step reads the reached senders
    # only: it has the same ring rows and receiver slots, its sender rows
    # are the k reached rows, which lead the twin's, and each receiver
    # slot reads what the twin's does where that is a reached sender, and
    # is a pad elsewhere.
    fr = Frontier(gt, reach, 1, at)
    twin = fr.twin
    assert twin.send is None and fr.send is not None
    for name in ("states", "nodes", "ring"):
        assert np.array_equal(getattr(fr, name), getattr(twin, name)), name
    assert np.array_equal(twin.sender_rows, senders)
    assert np.array_equal(twin.recv, layout.recv)
    assert np.array_equal(fr.sender_rows, np.arange(k))
    assert fr.recv.shape == twin.recv.shape == (rows, nt)
    reached = ~twin.recv_pad & (twin.recv // nt < k)
    assert np.array_equal(fr.recv_pad, ~reached)
    assert np.array_equal(fr.recv[reached], twin.recv[reached])
    assert np.all(fr.recv[~reached] == -1)
    assert np.array_equal(fr.pad, gt.pad[node[:k]])
    assert np.array_equal(twin.pad, layout.pad)
    x_pool = rng.standard_normal((1, pool, nt, 3))
    x = x_pool[:, senders]
    wt = rng.random((1, rows, nt))
    for inputs in ([x], [x, wt]):
        out = ad.segment_sum(*[Tensor(v) for v in inputs[:1]], layout,
                             *[Tensor(v) for v in inputs[1:]]).data
        assert out.shape == (1, rows, 3)
        dense_x = x_pool[0, at].reshape(2, gt.n, nt, 3)
        weight = None
        if len(inputs) == 2:
            dense_w = np.zeros((2 * gt.n, nt))
            dense_w[ring] = wt[0]
            weight = Tensor(dense_w.reshape(2, gt.n, nt))
        want_ring = ad.segment_sum(Tensor(dense_x), gt, weight).data
        assert np.allclose(out[0], want_ring.reshape(-1, 3)[ring],
                           rtol=1e-12, atol=1e-12)
        check_op(lambda *t: ad.segment_sum(t[0], layout, *t[1:]), inputs,
                 [gt.pad[node], layout.recv_pad][:len(inputs)])
