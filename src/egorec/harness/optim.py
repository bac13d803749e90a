"""Adaptive-moment optimizer with decoupled weight decay."""

from __future__ import annotations

import numpy as np

from ..diffcore import Tensor

EPS = 1e-8


class Adam:
    """Adam with decoupled weight decay over one list of parameters, at one
    fixed learning rate.

    The moments are keyed by parameter. Parameters whose gradient is None
    are skipped entirely (no decay), so frozen or unused tensors stay
    bitwise unchanged.
    """

    def __init__(self, params, lr: float, weight_decay: float,
                 beta1: float = 0.9, beta2: float = 0.999):
        self.params: list[Tensor] = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.beta1 = beta1
        self.beta2 = beta2
        self.step_count = 0
        self.m = {p: np.zeros_like(p.data) for p in self.params}
        self.v = {p: np.zeros_like(p.data) for p in self.params}

    def step(self) -> None:
        self.step_count += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.step_count
        bc2 = 1.0 - b2 ** self.step_count
        for p in self.params:
            g = p.grad
            if g is None:
                continue
            m = self.m[p] = b1 * self.m[p] + (1.0 - b1) * g
            v = self.v[p] = b2 * self.v[p] + (1.0 - b2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + EPS)
            if self.weight_decay:
                update = update + self.weight_decay * p.data
            p.data = (p.data - self.lr * update).astype(p.data.dtype, copy=False)
