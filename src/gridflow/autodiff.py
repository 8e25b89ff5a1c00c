"""Minimal reverse-mode automatic differentiation over numpy arrays.

A Tensor records its parents and a vector-Jacobian closure per parent at
construction; backward() walks the graph in reverse topological order and
accumulates gradients by summation. Only the operator set the models need
is provided.

Per-edge values live in sender-major slots: axes (n, n_types) whose entry
(i, t) holds node i's outgoing edge of type t, or padding where there is
none. typed_affine produces that layout straight from one GEMM; take
reorders the slots by a fixed permutation, such as moving a receiver's
(node, type) map to its sender slots, and back-propagates by gathering
with the inverse permutation. The segment ops reduce over each node's
slots, dropping the pads: segment_softmax normalizes over the type axis,
and segment_sum reaches the receivers through the slot permutation.
"""
from __future__ import annotations

import numpy as np

LOG_FLOOR = 1e-12

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

    def backward(self) -> None:
        """Fill grad on every reachable requires_grad tensor.

        Gradients and recorded closures of interior nodes are dropped as
        soon as they are consumed, so only leaves keep a grad.
        """
        if self.data.ndim != 0:
            raise ValueError(f"backward needs a scalar loss, got shape {self.shape}")
        topo, seen, stack = [], set(), [(self, False)]
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
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            g = node.grad
            if g is None:
                continue
            for parent, vjp in node._vjps:
                if not parent.requires_grad:
                    continue
                contrib = vjp(g)
                parent.grad = contrib if parent.grad is None else parent.grad + contrib
            if node._vjps:
                node.grad = None
                node._vjps = ()

    def zero_grad(self):
        self.grad = None


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


def leaky_relu(x, slope=0.2):
    x = _wrap(x)
    pos = x.data > 0
    out = np.where(pos, x.data, slope * x.data)
    return _make(out, [(x, lambda g: np.where(pos, g, slope * g))])


def log(x, floor=LOG_FLOOR):
    """Natural log with a floor on the argument; clamped entries get zero grad."""
    x = _wrap(x)
    clamped = np.maximum(x.data, floor)
    mask = x.data > floor
    return _make(np.log(clamped), [(x, lambda g: g * mask / clamped)])


# -- reductions ----------------------------------------------------------


def tsum(x, axis=None, keepdims=False):
    x = _wrap(x)
    shape = x.data.shape
    out = x.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, shape).copy()

    return _make(out, [(x, vjp)])


def tmean(x, axis=None, keepdims=False):
    x = _wrap(x)
    n = x.data.size if axis is None else x.data.shape[axis]
    return mul(tsum(x, axis=axis, keepdims=keepdims), 1.0 / n)


def softmax(x, axis=-1):
    x = _wrap(x)
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        return p * (g - (p * g).sum(axis=axis, keepdims=True))

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


def take(x, perm):
    """x (B, n, n_types, ...) with its slots reordered by a flat slot
    permutation perm (n * n_types,): slot s of the result is slot perm[s]
    of x. Backward gathers by the inverse permutation."""
    x = _wrap(x)
    shape = x.data.shape
    flat = shape[:1] + (-1,) + shape[3:]

    def vjp(g):
        inv = np.empty_like(perm)
        inv[perm] = np.arange(perm.size)
        return np.take(g.reshape(flat), inv, axis=1).reshape(shape)

    return _make(np.take(x.data.reshape(flat), perm, axis=1).reshape(shape),
                 [(x, vjp)])


def segment_sum(x, recv, recv_pad, receiver, pad):
    """Per-receiver sums of sender-major slot values: x (B, n, n_types, ...)
    to (B, n, ...).

    recv is a permutation of the flat slot index: receiver slot (j, t),
    node j's incoming edge of type t, holds the edge in sender slot
    recv[j * n_types + t]. receiver (n, n_types) is the receiving node of
    each sender slot. pad and recv_pad (n, n_types) mark the sender and the
    receiver slots with no edge, which recv pairs with each other. Pads add
    nothing and get zero gradient.
    """
    x = _wrap(x)
    xd = x.data
    b, n, nt = xd.shape[:3]
    y = np.take(xd.reshape((b, n * nt) + xd.shape[3:]), recv,
                axis=1).reshape(xd.shape)
    y[:, recv_pad] = 0
    out = np.einsum("bnt...->bn...", y)

    def vjp(g):
        dx = np.take(g, receiver, axis=1)
        dx[:, pad] = 0
        return dx

    return _make(out, [(x, vjp)])


def segment_softmax(x, pad, axis=-1):
    """Softmax over each node's slots: x has its (n, n_types) slot axes at
    (axis - 1, axis), and the softmax runs along the type axis. Entries
    where pad is set are left out and get probability 0; every node needs
    at least one slot that is not a pad.
    """
    x = _wrap(x)
    axis %= x.data.ndim
    pad = pad.reshape(pad.shape + (1,) * (x.data.ndim - 1 - axis))
    z = np.where(pad, -np.inf, x.data)
    e = np.exp(z - z.max(axis=axis, keepdims=True))
    p = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        return p * (g - (p * g).sum(axis=axis, keepdims=True))

    return _make(p, [(x, vjp)])


# -- gradient checking ---------------------------------------------------


def grad_check(f, params, eps=1e-5, sample_frac=0.05, min_coords=50, seed=0):
    """Max relative error between backward() gradients and central finite
    differences on a random coordinate subsample of each parameter.

    f must be a deterministic closure over params returning a scalar Tensor.
    """
    for p in params:
        p.zero_grad()
    loss = f()
    loss.backward()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for p in params:
        grad = np.zeros_like(p.data) if p.grad is None else p.grad
        size = p.data.size
        k = max(min(min_coords, size), int(round(sample_frac * size)))
        coords = rng.choice(size, size=min(k, size), replace=False)
        for c in coords:
            # An index into p.data itself, so any memory layout is perturbed
            # in place.
            c = np.unravel_index(c, p.data.shape)
            orig = p.data[c]
            p.data[c] = orig + eps
            with no_grad():
                hi = float(f().data)
            p.data[c] = orig - eps
            with no_grad():
                lo = float(f().data)
            p.data[c] = orig
            numeric = (hi - lo) / (2.0 * eps)
            analytic = float(grad[c])
            err = abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))
            worst = max(worst, err)
    return worst
