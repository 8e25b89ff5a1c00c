"""The one place where the autodiff engine's gradients are checked against
central finite differences: grad_check for any scalar function of some
parameters, and check_op for the four properties of one op."""

import numpy as np

from gridflow import autodiff as ad
from gridflow.autodiff import Tensor


def _grads_and_differences(f, params, eps, coords):
    """(backward() grad, central difference) at each flat coordinate in
    coords(p) of each parameter p; f is as grad_check's."""
    for p in params:
        p.grad = None
    f().backward()
    for p in params:
        grad = np.zeros_like(p.data) if p.grad is None else p.grad
        for c in coords(p):
            # An index into p.data itself, so any memory layout is perturbed
            # in place.
            c = np.unravel_index(c, p.data.shape)
            orig = p.data[c]
            p.data[c] = orig + eps
            with ad.no_grad():
                hi = float(f().data)
            p.data[c] = orig - eps
            with ad.no_grad():
                lo = float(f().data)
            p.data[c] = orig
            yield float(grad[c]), (hi - lo) / (2.0 * eps)


def grad_check(f, params, eps=1e-5, sample_frac=0.05, min_coords=50, seed=0):
    """Max relative error between backward() gradients and central finite
    differences on a random coordinate subsample of each parameter; a NaN
    error makes the result NaN.

    f must be a deterministic closure over params returning a scalar Tensor.
    """
    rng = np.random.default_rng(seed)

    def sample(p):
        size = p.data.size
        k = max(min(min_coords, size), int(round(sample_frac * size)))
        return rng.choice(size, size=min(k, size), replace=False)

    errors = [abs(a - n) / max(1.0, abs(a), abs(n))
              for a, n in _grads_and_differences(f, params, eps, sample)]
    return float(np.max(errors, initial=0.0))


def check_op(op, inputs, pad=None, tol=1e-6):
    """Assert the four properties of op, which maps Tensors of the shapes
    of the float64 arrays inputs to one Tensor:
    - at float32, a float32 and finite output, and so each VJP's output;
    - no write into an input, nor by a VJP into g (views of g may be
      returned: backward never writes into a grad);
    - with pad, a mask of the (n, n_types) slots on each input's axes 1 and
      2, or a list of one such mask (or None) per input, the same float32
      output and VJP outputs when the pads hold +-1e30;
    - float64 grads of sum(op(inputs) * w), for a fixed random w, within
      tol of central finite differences at every coordinate.
    Each VJP is called once per g, as backward calls it: scale_affine_tanh
    and segment_sum cache their first g.
    """
    rng = np.random.default_rng(0)
    cases = [[x.astype(np.float32) for x in inputs]]
    if pad is not None:
        pads = pad if isinstance(pad, list) else [pad] * len(inputs)
        cases.append([x.copy() for x in cases[0]])
        for x, mask in zip(cases[1], pads):
            if mask is not None:
                x[:, mask] = rng.choice(np.float32([-1e30, 1e30]),
                                        size=x[:, mask].shape)
    results, weights = [], None
    for xs in cases:
        before = [x.copy() for x in xs]
        out = op(*[Tensor(x, requires_grad=True) for x in xs])
        if weights is None:
            weights = rng.standard_normal(out.data.shape)
        g = weights.astype(np.float32)
        grads = [vjp(g) for _, vjp in out._vjps]
        assert all(v.dtype == np.float32 for v in [out.data] + grads), \
            "float32 not kept"
        assert all(np.isfinite(v).all() for v in [out.data] + grads), \
            "non-finite output or grad"
        assert all(map(np.array_equal, xs, before)), "wrote into an input"
        assert np.array_equal(g, weights.astype(np.float32)), "wrote into g"
        results.append([out.data] + grads)
    for result in results[1:]:
        assert all(map(np.array_equal, result, results[0])), \
            "pad junk changed the output or a grad"
    ts = [Tensor(x.copy(), requires_grad=True) for x in inputs]
    errors = [abs(a - n) for a, n in _grads_and_differences(
        lambda: ad.tsum(ad.mul(op(*ts), Tensor(weights))), ts, 1e-6,
        lambda p: range(p.data.size))]
    assert all(t.grad is not None and t.grad.shape == t.data.shape
               for t in ts), "a grad of the wrong shape"
    worst = np.max(errors)
    assert worst < tol, f"grads off finite differences by {worst:.3g}"
