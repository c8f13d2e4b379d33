"""Per-parameter Adam: the reference that the tests hold the arena `Adam` to.

`ReferenceAdam` updates each parameter that has a gradient on its own, in
whole-array numpy expressions, and keeps one `m` and one `v` array per
parameter.  The arena `Adam` must give the same data, `m` and `v`, bit for
bit, after every step.
"""

import numpy as np

from casetag.errors import InputError, NumericError


class ReferenceAdam:
    def __init__(self, params, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
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
