"""Reverse-mode automatic differentiation over numpy arrays.

A small tape: each operation returns a new Tensor that records its inputs
and a closure routing the output gradient back to them.  backward() on a
scalar walks the tape in reverse topological order.  Everything is float64;
there is no broadcasting beyond what the layers in this package need.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from casetag.errors import InputError, NumericError

DTYPE = np.float64


class _GradMode:
    enabled = True


class no_grad:
    """Context manager that disables tape recording (inference, finite differences)."""

    def __enter__(self):
        self._prev = _GradMode.enabled
        _GradMode.enabled = False
        return self

    def __exit__(self, *exc):
        _GradMode.enabled = self._prev
        return False


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum grad down to `shape` after a broadcast forward op."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        if isinstance(data, np.ndarray) and data.dtype == DTYPE:
            self.data = data
        else:
            self.data = np.asarray(data, dtype=DTYPE)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    # -- plumbing ---------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={'set' if self.grad is not None else 'none'})"

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self) -> None:
        if self.data.size != 1:
            raise InputError(f"backward() needs a scalar loss, got shape {self.data.shape}")
        order = _toposort(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)
                # free the tape as we go; grads on non-leaf nodes are scratch
                node._backward = None
                node._parents = ()

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = as_tensor(other)
        out = _result(self.data + other.data, (self, other))
        if out.requires_grad:
            def bw(g, a=self, b=other):
                if a.requires_grad:
                    a._accumulate(_unbroadcast(g, a.data.shape))
                if b.requires_grad:
                    b._accumulate(_unbroadcast(g, b.data.shape))
            out._backward = bw
        return out

    def __neg__(self):
        out = _result(-self.data, (self,))
        if out.requires_grad:
            def bw(g, a=self):
                a._accumulate(-g)
            out._backward = bw
        return out

    def __sub__(self, other):
        return self + (-as_tensor(other))

    def __mul__(self, other):
        other = as_tensor(other)
        out = _result(self.data * other.data, (self, other))
        if out.requires_grad:
            def bw(g, a=self, b=other):
                if a.requires_grad:
                    a._accumulate(_unbroadcast(g * b.data, a.data.shape))
                if b.requires_grad:
                    b._accumulate(_unbroadcast(g * a.data, b.data.shape))
            out._backward = bw
        return out

    def __matmul__(self, other):
        other = as_tensor(other)
        a, b = self.data, other.data
        out = _result(a @ b, (self, other))
        if out.requires_grad:
            def bw(g, sa=self, sb=other, a=a, b=b):
                if a.ndim == 2 and b.ndim == 2:
                    ga, gb = g @ b.T, a.T @ g
                elif a.ndim == 2 and b.ndim == 1:
                    ga, gb = np.outer(g, b), a.T @ g
                elif a.ndim == 1 and b.ndim == 2:
                    ga, gb = b @ g, np.outer(a, g)
                else:
                    ga, gb = g * b, g * a
                if sa.requires_grad:
                    sa._accumulate(ga)
                if sb.requires_grad:
                    sb._accumulate(gb)
            out._backward = bw
        return out

    # -- shape ops --------------------------------------------------------

    def __getitem__(self, idx):
        out = _result(self.data[idx], (self,))
        if out.requires_grad:
            def bw(g, a=self, idx=idx, basic=_is_basic_index(idx)):
                if a.grad is None:
                    a.grad = np.zeros_like(a.data)
                if basic:
                    a.grad[idx] += g
                else:
                    np.add.at(a.grad, idx, g)  # fancy indices may repeat a row
            out._backward = bw
        return out

    def transpose(self):
        out = _result(self.data.T, (self,))
        if out.requires_grad:
            def bw(g, a=self):
                a._accumulate(g.T)
            out._backward = bw
        return out

    @property
    def T(self):
        return self.transpose()

    # -- reductions -------------------------------------------------------

    def sum(self, axis=None):
        out = _result(self.data.sum(axis=axis), (self,))
        if out.requires_grad:
            def bw(g, a=self, axis=axis):
                if axis is None:
                    a._accumulate(np.full_like(a.data, float(g)))
                else:
                    a._accumulate(np.broadcast_to(np.expand_dims(g, axis), a.data.shape).copy())
            out._backward = bw
        return out

    def mean(self, axis=None):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis) * (1.0 / n)

    def max(self, axis: int):
        idx = np.argmax(self.data, axis=axis)
        out_data = np.take_along_axis(self.data, np.expand_dims(idx, axis), axis).squeeze(axis)
        out = _result(out_data, (self,))
        if out.requires_grad:
            def bw(g, a=self, idx=idx, axis=axis):
                gz = np.zeros_like(a.data)
                np.put_along_axis(gz, np.expand_dims(idx, axis), np.expand_dims(g, axis), axis)
                a._accumulate(gz)
            out._backward = bw
        return out

    # -- pointwise --------------------------------------------------------

    def tanh(self):
        t = np.tanh(self.data)
        out = _result(t, (self,))
        if out.requires_grad:
            def bw(g, a=self, t=t):
                a._accumulate(g * (1.0 - t * t))
            out._backward = bw
        return out

    def sigmoid(self):
        s = sigmoid_np(self.data)
        out = _result(s, (self,))
        if out.requires_grad:
            def bw(g, a=self, s=s):
                a._accumulate(g * s * (1.0 - s))
            out._backward = bw
        return out


def _is_basic_index(idx) -> bool:
    """True for an int, a slice, or a tuple of those: indices that select
    each element at most once."""
    parts = idx if isinstance(idx, tuple) else (idx,)
    return all(isinstance(p, (int, slice)) and not isinstance(p, bool) for p in parts)


def _records(parents: Sequence[Tensor]) -> bool:
    """True when a node over these parents records a backward."""
    return _GradMode.enabled and any(p.requires_grad for p in parents)


def _result(data: np.ndarray, parents: Sequence[Tensor]) -> Tensor:
    out = Tensor(data)
    if _records(parents):
        out.requires_grad = True
        out._parents = tuple(parents)
    return out


def _toposort(root: Tensor) -> list:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    return order


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def zeros(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape, dtype=DTYPE), requires_grad=requires_grad)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)
    out = _result(np.concatenate([t.data for t in tensors], axis=axis), tensors)
    if out.requires_grad:
        sizes = [t.data.shape[axis] for t in tensors]
        def bw(g, ts=tensors, sizes=sizes, axis=axis):
            start = 0
            for t, n in zip(ts, sizes):
                if t.requires_grad:
                    sl = [slice(None)] * g.ndim
                    sl[axis] = slice(start, start + n)
                    t._accumulate(g[tuple(sl)])
                start += n
        out._backward = bw
    return out


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)
    out = _result(np.stack([t.data for t in tensors], axis=axis), tensors)
    if out.requires_grad:
        def bw(g, ts=tensors, axis=axis):
            for i, t in enumerate(ts):
                if t.requires_grad:
                    t._accumulate(np.take(g, i, axis=axis))
        out._backward = bw
    return out


# -- numpy forms ------------------------------------------------------------
# The fused nodes (LSTMCell.run) and the truecaser's distributions call these
# on arrays; Tensor.sigmoid and log_softmax call them too.


def sigmoid_np(x: np.ndarray) -> np.ndarray:
    """Logistic function that never overflows: exp of -|x| only."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def softmax_np(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable softmax along `axis`; rejects non-finite logits."""
    if not np.all(np.isfinite(x)):
        raise NumericError("softmax received non-finite logits")
    if x.size == 0:
        raise InputError("softmax over an empty tensor")
    m = np.max(x, axis=axis, keepdims=True)
    e = np.exp(x - m)
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax_np(x: np.ndarray, axis: int = -1) -> np.ndarray:
    if not np.all(np.isfinite(x)):
        raise NumericError("log_softmax received non-finite logits")
    m = np.max(x, axis=axis, keepdims=True)
    shifted = x - m
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def log_softmax(t: Tensor, axis: int = -1) -> Tensor:
    out_data = log_softmax_np(t.data, axis)
    out = _result(out_data, (t,))
    if out.requires_grad:
        soft = np.exp(out_data)
        def bw(g, a=t, soft=soft, axis=axis):
            a._accumulate(g - soft * g.sum(axis=axis, keepdims=True))
        out._backward = bw
    return out


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer labels under row-wise softmax."""
    labels = np.asarray(labels)
    if logits.ndim == 1:
        ls = log_softmax(logits, axis=-1)
        return -ls[int(labels)]
    if labels.shape[0] != logits.shape[0]:
        raise InputError(
            f"cross_entropy: {logits.shape[0]} rows of logits vs {labels.shape[0]} labels")
    ls = log_softmax(logits, axis=-1)
    picked = ls[(np.arange(len(labels)), labels)]
    return -picked.mean()
