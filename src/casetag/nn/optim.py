"""Adam with bias correction, plus global-norm gradient clipping."""

from __future__ import annotations

import numpy as np

from casetag.errors import InputError, NumericError
from casetag.nn.tensor import Tensor


class Adam:
    def __init__(self, params: list[Tensor], lr: float = 0.001,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        """One update over params with populated grads; clears grads afterwards."""
        if all(p.grad is None for p in self.params):
            raise InputError("adam step with no gradients populated; call backward() first")
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for i, p in enumerate(self.params):
            g = p.grad
            if g is None:
                continue
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * (g * g)
            m_hat = self.m[i] / bc1
            v_hat = self.v[i] / bc2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            if not np.all(np.isfinite(p.data)):
                raise NumericError("parameter became non-finite after adam step")
            p.grad = None


def clip_global_norm(params: list[Tensor], max_norm: float) -> float:
    """Scale all grads so their joint L2 norm is at most max_norm; returns the pre-clip norm."""
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float(np.sum(p.grad * p.grad))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad *= scale
    return norm
