"""Adam with optional decoupled weight decay on selected parameters."""
from __future__ import annotations

import numpy as np

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Standard Adam with bias correction.

    Parameters named in decay_names additionally shrink by
    p <- p - lr * weight_decay * p before the Adam update (decoupled decay;
    in this project only node embeddings carry it).
    """

    def __init__(self, params: dict, weight_decay=0.0, decay_names=()):
        self.params = params
        self.weight_decay = weight_decay
        self.decay_names = frozenset(decay_names)
        self.step_count = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def step(self, lr):
        self.step_count += 1
        bc1 = 1.0 - BETA1 ** self.step_count
        bc2 = 1.0 - BETA2 ** self.step_count
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            if g.shape != p.data.shape:
                raise ValueError(
                    f"gradient shape {g.shape} does not match parameter "
                    f"{name!r} shape {p.data.shape}"
                )
            if self.weight_decay and name in self.decay_names:
                p.data -= lr * self.weight_decay * p.data
            m = self.m[name]
            v = self.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
