"""Adaptive-moment optimizer over groups of parameters."""

from __future__ import annotations

import numpy as np

from ..diffcore import Tensor

EPS = 1e-8


class Adam:
    """Adam with decoupled weight decay and a learning rate per group.

    ``groups`` holds ``(params, lr, weight_decay)`` triples; the moments
    are keyed by parameter. Parameters whose gradient is None are skipped
    entirely (no decay), so frozen or unused tensors stay bitwise unchanged.
    """

    def __init__(self, groups, beta1: float = 0.9, beta2: float = 0.999):
        self.groups: list[tuple[list[Tensor], float, float]] = [
            (list(params), lr, weight_decay) for params, lr, weight_decay in groups]
        self.beta1 = beta1
        self.beta2 = beta2
        self.step_count = 0
        self.m = {p: np.zeros_like(p.data) for params, _, _ in self.groups for p in params}
        self.v = {p: np.zeros_like(p.data) for p in self.m}

    def scale_lr(self, factor: float) -> None:
        self.groups = [(params, lr * factor, wd) for params, lr, wd in self.groups]

    def step(self) -> None:
        self.step_count += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.step_count
        bc2 = 1.0 - b2 ** self.step_count
        for params, lr, weight_decay in self.groups:
            for p in params:
                g = p.grad
                if g is None:
                    continue
                m = self.m[p] = b1 * self.m[p] + (1.0 - b1) * g
                v = self.v[p] = b2 * self.v[p] + (1.0 - b2) * (g * g)
                update = (m / bc1) / (np.sqrt(v / bc2) + EPS)
                if weight_decay:
                    update = update + weight_decay * p.data
                p.data = (p.data - lr * update).astype(p.data.dtype, copy=False)
