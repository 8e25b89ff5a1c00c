"""Minimal reverse-mode automatic differentiation over numpy arrays.

A Tensor records its parents and a vector-Jacobian closure per parent at
construction; backward() walks the graph in reverse topological order and
accumulates gradients by summation. Only the operator set the models need
is provided.

Per-edge values live in sender-major slots: axes (n, n_types) whose entry
(i, t) holds node i's outgoing edge of type t, or padding where there is
none. typed_affine produces that layout straight from one GEMM; take
picks slots by a fixed index, such as the permutation moving a
receiver's (node, type) map to its sender slots, or a subset of rows, and
back-propagates by gathering with the inverse index. The segment ops
reduce over each node's slots, dropping the pads: segment_softmax
normalizes over the type axis, and segment_sum reaches the receivers
through the slot permutation. A slot layout may also be compact: the
slots of some rows of a batch, as (1, rows, n_types, ...), whose
receivers are other rows, and may read a row's slots for several
receivers (see graphnets.Frontier, with background).

Reductions over the length-9 type axis are unrolled or done by einsum,
not by numpy's reduce, whose cost on a short strided axis is set by its
per-row loop overhead, not by the bytes it reads. On a (4, 928, 9, 5)
float32 score tensor of 0.67 MB (best of 5 timeit repeats, one BLAS
thread, x86-64): x.max(axis=2) takes 1.06 ms and np.maximum over the 9
type rows 0.21 ms; x.sum(axis=2) takes 0.65 ms and einsum("bntk->bnk")
0.13 ms. np.where's data-dependent selection is as slow, so leaky_relu
is np.maximum(x, LEAKY_SLOPE * x), 0.09 ms, where
np.where(x > 0, x, LEAKY_SLOPE * x) takes 1.23 ms.

Backward seeds the loss's gradient with GRAD_SCALE = 2^64, not 1, and
divides each contribution to a leaf by it, so leaf grads are in true
units: static loss scaling (Micikevicius et al., arXiv 1710.03740),
here against float32's lower end. The flow loss -log a_dst gives rows
that the attention barely reached gradients in proportion to that
attention. Over perfbench's train-mulmlp epoch (ggnn-mulmlp, 32 LINE
pairs, seed 0) run at float64, the VJP outputs span 2^31 down to 2^-247,
and 4.6% of their non-zero entries lie below float32's smallest normal
number, 2^-126. x86 arithmetic on such subnormal operands takes microcode
assists: a (2562, 120) @ (120, 40) float32 GEMM with 3% subnormal
entries in its left operand takes 3.3 ms against 0.32 ms without them
(best of 5 timeit repeats, one BLAS thread). Scaled, 0.2% lie below
2^-126 (0.16% in a float32 run), and the largest entry is below 2^96,
2^32 under float32's largest. The log's VJP is at most 1/LOG_FLOOR,
about 2^40, so 2^104 scaled; a float32 ggnn-mulmlp loss whose
destination probability sits there back-propagates finite grads, with
interior ones up to 2^103.

The scaling is exact: every VJP is linear in g, and multiplying by a
power of two commutes with float rounding unless a value overflows or
leaves the normal range. So float64 grads are bit for bit those of a
seed of 1, and float32 grads too wherever those stayed normal; where
they did not, the scaled ones are the more accurate. Subnormals are not
flushed: zeroing them in each VJP's output with np.where took the
float32 backward of two such epochs from 3.7-3.9 s to 4.7-5.5 s
(scaled: 2.4 s), and the CPU's flush-to-zero mode needs native code, is
set per thread and holds for the whole process.
"""
from __future__ import annotations

import numpy as np

LOG_FLOOR = 1e-12
GRAD_SCALE = 2.0 ** 64  # backward's seed; see the module docstring
LEAKY_SLOPE = 0.2  # GAT's attention scores

_grad_enabled = True


class no_grad:
    """Context manager that disables graph recording."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_vjps")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._vjps = ()

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- graph ------------------------------------------------------------

    def backward(self, *roots, until=()) -> None:
        """Fill grad on every requires_grad tensor reachable from this
        tensor and roots, in one walk in reverse topological order.

        Each root starts from the grad it holds, in scaled units: GRAD_SCALE
        times the true gradient. A root that holds none must be a scalar
        loss, and is seeded with GRAD_SCALE. Each contribution to a leaf (a
        tensor with no recorded VJPs) is divided by GRAD_SCALE, so leaf
        grads, summed over several walks too, are in true units; on a leaf
        itself, backward gives 1. Gradients and recorded closures of
        interior nodes are dropped as soon as they are consumed, so only
        leaves keep a grad.

        The walk does not pass the tensors of until: each keeps its
        closures and sums its grad over walks, in scaled units, which keep
        float32 grads normal (see the module docstring), until a walk
        rooted at it carries the sum on. So the microbatches of a training
        batch, which read one shared background (graphnets.Model.background),
        push its gradient through the background pass's own subgraph once.
        """
        roots = (self,) + roots
        for root in roots:
            if root.grad is None:
                if root.data.ndim != 0:
                    raise ValueError("backward needs a scalar loss or a root "
                                     f"that holds its grad, got shape "
                                     f"{root.shape}")
                root.grad = np.full_like(root.data,
                                         GRAD_SCALE if root._vjps else 1.0)
        topo, seen = [], {id(t) for t in until}
        stack = [(root, False) for root in roots]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent, _ in node._vjps:
                if id(parent) not in seen:
                    stack.append((parent, False))
        for node in reversed(topo):
            g = node.grad
            if g is None:
                continue
            for parent, vjp in node._vjps:
                contrib = vjp(g)
                if not parent._vjps:  # a leaf: back to true units
                    contrib = contrib * (1.0 / GRAD_SCALE)
                parent.grad = contrib if parent.grad is None else parent.grad + contrib
            if node._vjps:
                node.grad = None
                node._vjps = ()


def _make(data, vjps):
    out = Tensor(data)
    vjps = [(p, f) for p, f in vjps if p.requires_grad]
    if _grad_enabled and vjps:
        out.requires_grad = True
        out._vjps = tuple(vjps)
    return out


def _wrap(x, like=None):
    if isinstance(x, Tensor):
        return x
    dtype = like.dtype if like is not None and np.isscalar(x) else None
    return Tensor(np.asarray(x, dtype=dtype))


def _unbroadcast(g, shape):
    """Sum gradient over axes that were broadcast in the forward pass."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- arithmetic ----------------------------------------------------------


def add(a, b):
    a, b = _wrap(a), _wrap(b, a)
    return _make(
        a.data + b.data,
        [(a, lambda g: _unbroadcast(g, a.data.shape)),
         (b, lambda g: _unbroadcast(g, b.data.shape))],
    )


def mul(a, b):
    a = _wrap(a)
    b = _wrap(b, a)
    ad, bd = a.data, b.data
    return _make(
        ad * bd,
        [(a, lambda g: _unbroadcast(g * bd, ad.shape)),
         (b, lambda g: _unbroadcast(g * ad, bd.shape))],
    )


def matmul(a, b):
    """a: (..., k) or (..., m, k); b: (k, n) weight."""
    a, b = _wrap(a), _wrap(b)
    ad, bd = a.data, b.data
    if bd.ndim != 2:
        raise ValueError(f"matmul rhs must be 2D, got shape {bd.shape}")
    k, n = bd.shape
    return _make(ad @ bd, [
        (a, lambda g: g @ bd.T),
        (b, lambda g: ad.reshape(-1, k).T @ g.reshape(-1, n)),
    ])


# -- shape ops -----------------------------------------------------------


def concat(tensors, axis=-1):
    tensors = [_wrap(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)
    out = np.concatenate([t.data for t in tensors], axis=axis)

    def make_vjp(i):
        lo, hi = offsets[i], offsets[i + 1]

        def vjp(g):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            return g[tuple(idx)]

        return vjp

    return _make(out, [(t, make_vjp(i)) for i, t in enumerate(tensors)])


def slice_axis(x, axis, start, stop):
    x = _wrap(x)
    idx = [slice(None)] * x.data.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)
    shape = x.data.shape

    def vjp(g):
        out = np.zeros(shape, dtype=g.dtype)
        out[idx] = g
        return out

    return _make(x.data[idx], [(x, vjp)])


def reshape(x, shape):
    x = _wrap(x)
    old = x.data.shape
    return _make(x.data.reshape(shape), [(x, lambda g: g.reshape(old))])


# -- elementwise nonlinearities ------------------------------------------


def tanh(x):
    x = _wrap(x)
    out = np.tanh(x.data)
    return _make(out, [(x, lambda g: g * (1.0 - out * out))])


def sigmoid(x):
    x = _wrap(x)
    out = 1.0 / (1.0 + np.exp(-x.data))
    return _make(out, [(x, lambda g: g * out * (1.0 - out))])


def leaky_relu(x):
    """max(x, LEAKY_SLOPE x); its derivative is max(sign(x), LEAKY_SLOPE),
    built only when backward runs."""
    x = _wrap(x)
    xd = x.data
    return _make(np.maximum(xd, LEAKY_SLOPE * xd),
                 [(x, lambda g: np.maximum(np.sign(xd), LEAKY_SLOPE) * g)])


def log(x):
    """Natural log with LOG_FLOOR on the argument; clamped entries get zero
    grad."""
    x = _wrap(x)
    clamped = np.maximum(x.data, LOG_FLOOR)
    mask = x.data > LOG_FLOOR
    return _make(np.log(clamped), [(x, lambda g: g * mask / clamped)])


# -- reductions ----------------------------------------------------------


def tsum(x, axis=None):
    x = _wrap(x)
    shape = x.data.shape
    out = x.data.sum(axis=axis)

    def vjp(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, shape).copy()

    return _make(out, [(x, vjp)])


def tmean(x, axis=None):
    x = _wrap(x)
    n = x.data.size if axis is None else x.data.shape[axis]
    return mul(tsum(x, axis=axis), 1.0 / n)


def softmax(x):
    """Softmax over the last axis."""
    x = _wrap(x)
    z = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        return p * (g - (p * g).sum(axis=-1, keepdims=True))

    return _make(p, [(x, vjp)])


def rowdot(a, b):
    """Inner product along the last axis; avoids materializing a * b.

    a and b have the same number of axes, and either may have size 1
    where the other does not, to be broadcast there.
    """
    a, b = _wrap(a), _wrap(b)
    ad_, bd = a.data, b.data
    out = np.einsum("...i,...i->...", ad_, bd)
    axes = "abcdefghijklmnopqrstuvwxy"[:out.ndim]

    def grad(shape, other):
        kept = "".join(c for c, s, o in zip(axes, shape, out.shape) if s == o)
        return lambda g: np.einsum(f"{axes},{axes}z->{kept}z", g,
                                   other).reshape(shape)

    return _make(out, [(a, grad(ad_.shape, bd)), (b, grad(bd.shape, ad_))])


def scale_affine_tanh(s, q, b):
    """Fused tanh(s[..., None] * q + b): MulMlp acting on messages q that
    are already projected by its weight, since tanh((s m) W + b) equals
    tanh(s (m W) + b)."""
    s, q, b = _wrap(s), _wrap(q), _wrap(b)
    sd, qd = s.data[..., None], q.data
    out = np.tanh(sd * qd + b.data)
    cache = {}

    def gpre(g):
        if "g" not in cache:
            cache["g"] = g * (1.0 - out * out)
        return cache["g"]

    return _make(out, [
        (s, lambda g: np.einsum("...i,...i->...", gpre(g), qd)),
        (q, lambda g: gpre(g) * sd),
        (b, lambda g: gpre(g).reshape(-1, out.shape[-1]).sum(axis=0)),
    ])


def typed_affine(x, w, b):
    """Typed affine map of node rows into sender-major slots:
    out[..., i, t, :] = x[..., i, :] @ w[t] + b[t].

    x: (..., n, din) node rows; w: (n_types, din, dout); b: (n_types, dout)
    or None. One GEMM maps every (node, type) pair; the output is that
    GEMM's result reshaped to (..., n, n_types, dout).
    """
    x, w = _wrap(x), _wrap(w)
    b = None if b is None else _wrap(b)
    xd, wd = x.data, w.data
    nt, din, dout = wd.shape
    w_flat = wd.transpose(1, 0, 2).reshape(din, nt * dout)
    y = xd @ w_flat
    if b is not None:
        y += b.data.reshape(nt * dout)

    def rows(g):
        return g.reshape(-1, nt * dout)

    vjps = [
        (x, lambda g: (rows(g) @ w_flat.T).reshape(xd.shape)),
        (w, lambda g: np.ascontiguousarray(
            (xd.reshape(-1, din).T @ rows(g)).reshape(din, nt, dout)
            .transpose(1, 0, 2))),
    ]
    if b is not None:
        vjps.append((b, lambda g: rows(g).sum(axis=0).reshape(nt, dout)))
    return _make(y.reshape(xd.shape[:-1] + (nt, dout)), vjps)


# -- indexed / segment ops -----------------------------------------------


def take(x, index):
    """x (B, ...) with its slots picked by index: the index.ndim axes of x
    after the batch axis are one flat slot axis, and slot s of the result,
    whose slot axes have index's shape, is slot index[s] of x.

    index may pick a slot any number of times: a permutation of the
    (node, type) slots of x (B, n, n_types, ...) with index (n, n_types),
    a subset, or rows read by several examples, such as the background
    rows of a light cone (graphnets.Model.background). A negative index
    picks nothing: that slot of the result is zero, as where compact rows
    are laid out in the batch's dense rows. Backward sums g back into the
    picked slots (see _transpose), with zero at the slots not picked.
    """
    x = _wrap(x)
    shape = x.data.shape
    flat = shape[:1] + (-1,) + shape[1 + index.ndim:]
    n_slots = int(np.prod(shape[1:1 + index.ndim]))
    out = np.take(x.data.reshape(flat), index, axis=1)
    if index.min(initial=0) < 0:
        out.reshape(flat[:1] + (-1,) + flat[2:])[:, index.reshape(-1) < 0] = 0

    def vjp(g):
        g = g.reshape(flat)
        return _transpose(index, n_slots,
                          lambda q: np.take(g, q, axis=1)).reshape(shape)

    return _make(out, [(x, vjp)])


def _transpose(index, n_slots, pick):
    """The transpose of a pick by index: (B, n_slots, ...) whose slot s is
    the sum of pick(q) over the slots q (flat in index) with index[q] ==
    s, or zero where there is none; pick(q) gives the values at an array
    of such slots, (B, len(q), ...).

    A slot picked once is one gather by the inverse index, as for a
    permutation. Slots picked several times, as background rows are, add
    their other picks in rounds: each round writes its picks into the
    inverse index and adds the ones whose write stood, which are distinct
    slots, so a round is one fancy-indexed add, and there are as many
    rounds as the most picks of one slot, less one.
    """
    slot = index.reshape(-1)
    if slot.min(initial=0) < 0:
        q = np.flatnonzero(slot >= 0)
        slot = slot[q]
    else:
        q = np.arange(slot.size)
    inv = np.zeros(n_slots, dtype=np.intp)
    inv[slot] = q
    out = pick(inv)
    left = inv[slot] != q
    repeats = left.any()
    if repeats or slot.size < n_slots:
        unpicked = np.ones(n_slots, dtype=bool)
        unpicked[slot] = False
        out[:, unpicked] = 0
    while repeats:
        slot, q = slot[left], q[left]
        inv[slot] = q
        won = inv[slot] == q
        out[:, slot[won]] += pick(q[won])
        left = ~won
        repeats = left.any()
    return out


def segment_sum(x, slots, weight=None):
    """Per-receiver sums of sender-major slot values x (B, k, n_types, ...),
    each times its weight where one is given.

    slots is a slot layout (graphnets.GraphTensors or Frontier) with two
    index arrays over its receiver slots (r, n_types): recv, the flat slot
    of x that each receiver slot reads, which may read one slot of x many
    times, and recv_pad, the receiver slots that take nothing. The
    output is (B, r, ...), one row per receiver. weight is in the receiver
    slots' layout, (B, r, n_types, ...), and broadcasts over x's last
    axis, so that a weight per receiver slot, such as GAT's attention,
    may weigh a slot of x that several receivers read. Pads add nothing
    and get zero gradient; x must be finite there.

    Backward sums the receiver slots' gradients back into x's slots (see
    _transpose). Where each slot of x is read at most once, the layout
    gives the inverse index, send, x's slot to its receiver slot, and pad,
    the slots of x that no receiver takes; then it is one gather. A layout
    whose receivers read a slot several times has send None.
    """
    x = _wrap(x)
    xd = x.data
    b, k, nt = xd.shape[:3]
    y = np.take(xd.reshape((b, -1) + xd.shape[3:]), slots.recv, axis=1)
    y[:, slots.recv_pad] = 0
    if weight is None:
        out = np.einsum("bnt...->bn...", y)
    else:
        weight = _wrap(weight)
        wd = weight.data
        w = wd.reshape((b, -1) + wd.shape[3:])
        out = np.einsum("bnt...d,bnt...->bn...d", y, wd)

    def vjp_x(g):
        def pick(q):
            gq = np.take(g, q // nt, axis=1)
            if weight is None:
                return gq
            return gq * np.take(w, q, axis=1)[..., None]
        if slots.send is None:
            index = np.where(slots.recv_pad, -1, slots.recv)
            return _transpose(index, k * nt, pick).reshape(xd.shape)
        dx = pick(slots.send.reshape(-1))
        dx[:, slots.pad.reshape(-1)] = 0
        return dx.reshape(xd.shape)

    vjps = [(x, vjp_x)]
    if weight is not None:
        vjps.append((weight,
                     lambda g: np.einsum("bn...d,bnt...d->bnt...", g, y)))
    return _make(out, vjps)


def segment_softmax(x, pad):
    """Softmax over each node's slots: x is (B, k, n_types, ...) with its
    (k, n_types) slot axes after the batch axis, as segment_sum's, and the
    softmax runs along the type axis. Entries where pad is set are left
    out and get probability 0; every node needs at least one slot that is
    not a pad.

    One output buffer takes the masking, shift, exp and normalization in
    place; the max runs over the type rows and the sums over the type axis
    are einsums (see the module docstring), which form no product.
    """
    x = _wrap(x)
    p = x.data.copy()
    # Pads are set by their flat slot index, which is faster than a boolean
    # index over the two slot axes: 19 against 42 us at (1, 928, 9).
    flat = p.reshape(p.shape[:1] + (-1,) + p.shape[3:])
    flat[:, np.flatnonzero(pad)] = -np.inf
    top = p[:, :, 0].copy()
    for t in range(1, p.shape[2]):
        np.maximum(top, p[:, :, t], out=top)
    p -= top[:, :, None]
    np.exp(p, out=p)
    p /= np.einsum("bnt...->bn...", p)[:, :, None]

    def vjp(g):
        return p * (g - np.einsum("bnt...,bnt...->bn...", p, g)[:, :, None])

    return _make(p, [(x, vjp)])
