import numpy as np
import pytest

from gridflow.autodiff import Tensor
from gridflow.optim import Adam


def adam_oracle(p, g, m, v, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Straightforward reference implementation of one Adam update."""
    m = b1 * m + (1 - b1) * g
    v = b2 * v + (1 - b2) * g * g
    mhat = m / (1 - b1 ** t)
    vhat = v / (1 - b2 ** t)
    return p - lr * mhat / (np.sqrt(vhat) + eps), m, v


def test_single_step_matches_oracle():
    rng = np.random.default_rng(0)
    p0 = rng.standard_normal(5)
    g0 = rng.standard_normal(5)
    w = Tensor(p0.copy(), requires_grad=True)
    w.grad = g0.copy()
    opt = Adam({"w": w})
    opt.step(0.01)
    expect, _, _ = adam_oracle(p0, g0, np.zeros(5), np.zeros(5), 1, 0.01)
    assert np.allclose(w.data, expect, atol=1e-12)


def test_multi_step_moments_track_oracle():
    rng = np.random.default_rng(1)
    p = rng.standard_normal((3, 2))
    w = Tensor(p.copy(), requires_grad=True)
    opt = Adam({"w": w})
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for t in range(1, 6):
        g = rng.standard_normal((3, 2))
        w.grad = g.copy()
        opt.step(0.02)
        p, m, v = adam_oracle(p, g, m, v, t, 0.02)
        assert np.allclose(w.data, p, atol=1e-12)
        assert np.allclose(opt.m["w"], m)
        assert np.allclose(opt.v["w"], v)


def test_lr_override_per_step():
    w = Tensor(np.zeros(2), requires_grad=True)
    w.grad = np.ones(2)
    opt = Adam({"w": w})
    opt.step(lr=0.001)
    # with constant gradient, the bias-corrected update is exactly -lr
    assert np.allclose(w.data, -0.001, atol=1e-9)


def test_missing_gradient_treated_as_zero():
    w = Tensor(np.ones(3), requires_grad=True)
    opt = Adam({"w": w})
    opt.step(0.1)
    assert np.allclose(w.data, 1.0)


def test_shape_mismatch_raises():
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    w.grad = np.ones(4)
    opt = Adam({"w": w})
    with pytest.raises(ValueError):
        opt.step(0.0005)


def test_zero_grad_clears():
    w = Tensor(np.ones(2), requires_grad=True)
    w.grad = np.ones(2)
    opt = Adam({"w": w})
    opt.zero_grad()
    assert w.grad is None
