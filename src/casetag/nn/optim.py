"""Adam with bias correction, plus global-norm gradient clipping.

Adam keeps every parameter, and its first and second moments, in flat
float64 arenas: each parameter's `data` becomes a view of its segment of
`Adam.arena`.  A step copies the present gradients into a flat gradient
arena and updates each run of consecutive parameters that have a gradient in
blocks of BLOCK elements, with `out=` ufuncs into two block-sized scratch
arrays, so a block's operands stay in cache between passes and no full-size
temporary is made.  Each element sees the same floats in the same order as
the per-parameter update m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*(g*g),
p -= (lr*(m/bc1)) / (sqrt(v/bc2) + eps), so the results are bit-identical to
it.  A parameter whose gradient is None keeps its data and moments.
"""

from __future__ import annotations

import numpy as np

from casetag.errors import InputError, NumericError
from casetag.nn.tensor import DTYPE, Tensor

# elements per update block: the operands of one block (parameter, gradient,
# m, v and two scratch arrays, 8 bytes each) fill about 1.5 MiB
BLOCK = 32768


class Adam:
    """Adam over the given parameters.  Construction moves each parameter's
    values into `arena` and makes its `data` a view there, so write to
    `p.data` in place (as restore_params does); an array bound to `p.data`
    later is not trained.  `m` and `v` hold per-parameter views of the
    moments."""

    def __init__(self, params: list[Tensor], lr: float = 0.001,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        if len({id(p) for p in self.params}) != len(self.params):
            raise InputError("adam given the same parameter more than once")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        # parameter i owns elements _bounds[i]:_bounds[i + 1] of every arena
        self._bounds = [0]
        for p in self.params:
            self._bounds.append(self._bounds[-1] + p.data.size)
        n = self._bounds[-1]
        self.arena = np.empty(n, dtype=DTYPE)
        self._grad = np.empty(n, dtype=DTYPE)
        self._m = np.zeros(n, dtype=DTYPE)
        self._v = np.zeros(n, dtype=DTYPE)
        self._tmp = np.empty(min(n, BLOCK), dtype=DTYPE)
        self._tmp2 = np.empty(min(n, BLOCK), dtype=DTYPE)
        self._grad_views, self.m, self.v = [], [], []
        for p, lo, hi in zip(self.params, self._bounds, self._bounds[1:]):
            shape = p.data.shape
            view = self.arena[lo:hi].reshape(shape)
            view[...] = p.data
            p.data = view
            self._grad_views.append(self._grad[lo:hi].reshape(shape))
            self.m.append(self._m[lo:hi].reshape(shape))
            self.v.append(self._v[lo:hi].reshape(shape))

    def step(self) -> None:
        """One update over params with populated grads; clears grads afterwards."""
        if all(p.grad is None for p in self.params):
            raise InputError("adam step with no gradients populated; call backward() first")
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        start = None  # arena offset where the current run of present gradients began
        for i, p in enumerate(self.params):
            if p.grad is None:
                if start is not None:
                    self._update(start, self._bounds[i], bc1, bc2)
                    start = None
                continue
            self._grad_views[i][...] = p.grad
            p.grad = None
            if start is None:
                start = self._bounds[i]
        if start is not None:
            self._update(start, self._bounds[-1], bc1, bc2)

    def _update(self, lo: int, hi: int, bc1: float, bc2: float) -> None:
        """The update of arena elements lo:hi, one block at a time."""
        b1, b2 = self.beta1, self.beta2
        for a in range(lo, hi, BLOCK):
            b = min(a + BLOCK, hi)
            g, m, v, p = self._grad[a:b], self._m[a:b], self._v[a:b], self.arena[a:b]
            t, t2 = self._tmp[:b - a], self._tmp2[:b - a]
            np.multiply(m, b1, out=m)
            np.multiply(g, 1.0 - b1, out=t)
            np.add(m, t, out=m)
            np.multiply(g, g, out=t)
            np.multiply(t, 1.0 - b2, out=t)
            np.multiply(v, b2, out=v)
            np.add(v, t, out=v)
            np.divide(m, bc1, out=t)
            np.multiply(t, self.lr, out=t)
            np.divide(v, bc2, out=t2)
            np.sqrt(t2, out=t2)
            np.add(t2, self.eps, out=t2)
            np.divide(t, t2, out=t)
            np.subtract(p, t, out=p)
            if not np.isfinite(p).all():
                raise NumericError("parameter became non-finite after adam step")


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
