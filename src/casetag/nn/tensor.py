"""Reverse-mode automatic differentiation over numpy arrays.

A small tape: each operation returns a new Tensor that records its inputs
and a closure routing the output gradient back to them.  backward() on a
scalar walks the tape in reverse topological order.  Everything is float64;
there is no broadcasting beyond what the layers in this package need.

How a node records: every op computes its output array, defines its
backward closure and returns _result(data, parents, backward).  _result
alone decides whether the node records: under grad mode, when some parent
requires a gradient, the node keeps the parents and the closure; otherwise
it is a constant and the closure is dropped.  A backward hands each parent
that requires a gradient its share through _accumulate, or adds into the
array that _grad_buffer() returns, zero-filled on first touch, in place.

The general ops (arithmetic, indexing, transpose, sum, concat) serve the
affine layers, lookups and dropout.  Each loss and recurrence is one node
with a hand-written backward (cross_entropy here; LSTMCell.run and CharCNN
in layers, crf_nll in casetag.crf).  The per-op tapes that the tests hold
those nodes against live with the tests, as oracles.
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

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={'set' if self.grad is not None else 'none'})"

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            # g + 0.0 is the sum zeros + g, -0.0 turned +0.0 included, in one pass
            self.grad = np.add(g, 0.0, out=np.empty_like(self.data))
        else:
            self.grad += g

    def _grad_buffer(self) -> np.ndarray:
        """The gradient, zero-filled on first touch, for a backward that adds
        into it in place."""
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        return self.grad

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

        def bw(g):
            for t in (self, other):
                if t.requires_grad:
                    t._accumulate(_unbroadcast(g, t.data.shape))
        return _result(self.data + other.data, (self, other), bw)

    def __neg__(self):
        return _result(-self.data, (self,), lambda g: self._accumulate(-g))

    def __sub__(self, other):
        return self + (-as_tensor(other))

    def __mul__(self, other):
        other = as_tensor(other)

        def bw(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data, other.data.shape))
        return _result(self.data * other.data, (self, other), bw)

    def __matmul__(self, other):
        other = as_tensor(other)
        a, b = self.data, other.data

        def bw(g):
            if a.ndim == 2 and b.ndim == 2:
                ga, gb = g @ b.T, a.T @ g
            elif a.ndim == 2 and b.ndim == 1:
                ga, gb = np.outer(g, b), a.T @ g
            elif a.ndim == 1 and b.ndim == 2:
                ga, gb = b @ g, np.outer(a, g)
            else:
                ga, gb = g * b, g * a
            if self.requires_grad:
                self._accumulate(ga)
            if other.requires_grad:
                other._accumulate(gb)
        return _result(a @ b, (self, other), bw)

    # -- shape ops --------------------------------------------------------

    def __getitem__(self, idx):
        # np.add.at, since fancy indices may repeat a row
        return _result(self.data[idx], (self,),
                       lambda g: np.add.at(self._grad_buffer(), idx, g))

    @property
    def T(self):
        return _result(self.data.T, (self,), lambda g: self._accumulate(g.T))

    # -- reductions -------------------------------------------------------

    def sum(self, axis=None):
        def bw(g):
            if axis is None:
                self._accumulate(np.full_like(self.data, float(g)))
            else:
                self._accumulate(np.broadcast_to(np.expand_dims(g, axis), self.data.shape).copy())
        return _result(self.data.sum(axis=axis), (self,), bw)


def _records(parents: Sequence[Tensor]) -> bool:
    """True when a node over these parents records a backward."""
    return _GradMode.enabled and any(p.requires_grad for p in parents)


def _result(data: np.ndarray, parents: Sequence[Tensor],
            backward: Callable[[np.ndarray], None]) -> Tensor:
    """The node of one op: a Tensor over data that, when it records, keeps
    its parents and backward(g), which routes its gradient g to them."""
    out = Tensor(data)
    if _records(parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
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

    def bw(g):
        start = 0
        for t in tensors:
            n = t.data.shape[axis]
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(start, start + n)
                t._accumulate(g[tuple(sl)])
            start += n
    return _result(np.concatenate([t.data for t in tensors], axis=axis), tensors, bw)


# -- numpy forms ------------------------------------------------------------
# The fused nodes (LSTMCell.run, cross_entropy) and the truecaser's
# distributions call these on arrays.


def sigmoid_np(x: np.ndarray) -> np.ndarray:
    """Logistic function that never overflows: exp of -|x| only.  Picking
    the numerator before the one division gives the floats of 1/(1+e) and
    e/(1+e)."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


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


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood of integer labels under row-wise softmax
    of (n, classes) logits, as one tape node.

    Forward and backward compute the same floats, in the same order, as a
    tape of one node per operation (log-softmax, pick each row's label,
    sum, times 1/n, negate), so training is bit-identical to that tape."""
    labels = np.asarray(labels)
    if logits.data.ndim != 2 or labels.shape != logits.shape[:1]:
        raise InputError(
            f"cross_entropy: logits of shape {logits.shape} vs labels of shape {labels.shape}")
    n = len(labels)
    ls = log_softmax_np(logits.data)
    gold = (np.arange(n), labels)

    def bw(g):
        d = np.zeros_like(ls)
        d[gold] += (-g) * (1.0 / n)
        logits._accumulate(d - np.exp(ls) * d.sum(axis=-1, keepdims=True))
    return _result(np.asarray(-(ls[gold].sum() * (1.0 / n))), (logits,), bw)
