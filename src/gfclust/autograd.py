"""Minimal reverse-mode automatic differentiation on numpy arrays.

A ``Tensor`` wraps a float64 ndarray and records the operations applied to it;
``Tensor.backward()`` replays the tape in reverse topological order and
accumulates gradients into every node that (transitively) requires them.
Only the ops needed by this package are implemented: elementwise arithmetic
with broadcasting, matmul, tanh/exp/log/sqrt, powers, maxima, reductions and
transpose, plus ``sparse_matmul`` for a constant scipy sparse left operand.
Everything is float64 and 0-d/1-d/2-d shaped.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Tensor", "Adam", "as_tensor", "sparse_matmul", "zero_grads"]


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` over the axes that numpy broadcasting expanded."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def as_tensor(value) -> "Tensor":
    return value if isinstance(value, Tensor) else Tensor(value)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = None
        self._parents: tuple = ()
        self._backward = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _from_op(data, parents, backward):
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
        return out

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        other = as_tensor(other)
        out_data = self.data + other.data

        def backward(grad):
            return (_unbroadcast(grad, self.shape), _unbroadcast(grad, other.shape))

        return Tensor._from_op(out_data, (self, other), backward)

    __radd__ = __add__

    def __mul__(self, other):
        other = as_tensor(other)
        out_data = self.data * other.data

        def backward(grad):
            return (
                _unbroadcast(grad * other.data, self.shape),
                _unbroadcast(grad * self.data, other.shape),
            )

        return Tensor._from_op(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __neg__(self):
        def backward(grad):
            return (-grad,)

        return Tensor._from_op(-self.data, (self,), backward)

    def __sub__(self, other):
        other = as_tensor(other)
        out_data = self.data - other.data

        def backward(grad):
            return (_unbroadcast(grad, self.shape), _unbroadcast(-grad, other.shape))

        return Tensor._from_op(out_data, (self, other), backward)

    def __rsub__(self, other):
        return as_tensor(other).__sub__(self)

    def __truediv__(self, other):
        other = as_tensor(other)
        out_data = self.data / other.data

        def backward(grad):
            return (
                _unbroadcast(grad / other.data, self.shape),
                _unbroadcast(-grad * self.data / (other.data * other.data), other.shape),
            )

        return Tensor._from_op(out_data, (self, other), backward)

    def __rtruediv__(self, other):
        return as_tensor(other).__truediv__(self)

    def __pow__(self, exponent: float):
        p = float(exponent)
        out_data = self.data ** p

        def backward(grad):
            base = self.data
            if p < 1.0:
                # subgradient 0 at base == 0 keeps fractional powers finite
                safe = np.where(base > 0.0, base, 1.0)
                local = np.where(base > 0.0, p * safe ** (p - 1.0), 0.0)
            else:
                local = p * base ** (p - 1.0)
            return (grad * local,)

        return Tensor._from_op(out_data, (self,), backward)

    def __matmul__(self, other):
        other = as_tensor(other)
        out_data = self.data @ other.data

        def backward(grad):
            # a constant operand (raw adjacency, a detached kernel) gets no gradient
            return (
                grad @ other.data.T if self.requires_grad else None,
                self.data.T @ grad if other.requires_grad else None,
            )

        return Tensor._from_op(out_data, (self, other), backward)

    # -- elementwise functions ---------------------------------------------------

    @property
    def T(self) -> "Tensor":
        def backward(grad):
            return (grad.T,)

        return Tensor._from_op(self.data.T, (self,), backward)

    def tanh(self):
        out_data = np.tanh(self.data)

        def backward(grad):
            return (grad * (1.0 - out_data * out_data),)

        return Tensor._from_op(out_data, (self,), backward)

    def exp(self):
        out_data = np.exp(self.data)

        def backward(grad):
            return (grad * out_data,)

        return Tensor._from_op(out_data, (self,), backward)

    def log(self):
        def backward(grad):
            return (grad / self.data,)

        return Tensor._from_op(np.log(self.data), (self,), backward)

    def sqrt(self):
        out_data = np.sqrt(self.data)

        def backward(grad):
            return (grad * 0.5 / out_data,)

        return Tensor._from_op(out_data, (self,), backward)

    def relu(self):
        mask = self.data > 0.0

        def backward(grad):
            return (grad * mask,)

        return Tensor._from_op(self.data * mask, (self,), backward)

    def clip(self, lo: float, hi: float):
        mask = (self.data >= lo) & (self.data <= hi)

        def backward(grad):
            return (grad * mask,)

        return Tensor._from_op(np.clip(self.data, lo, hi), (self,), backward)

    def maximum(self, other):
        other = as_tensor(other)
        take_self = self.data >= other.data

        def backward(grad):
            return (
                _unbroadcast(grad * take_self, self.shape),
                _unbroadcast(grad * ~take_self, other.shape),
            )

        return Tensor._from_op(np.maximum(self.data, other.data), (self, other), backward)

    # -- reductions ---------------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad):
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, self.shape),)

        return Tensor._from_op(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False):
        if axis is None:
            count = self.data.size
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # -- backward pass --------------------------------------------------------------

    def backward(self, grad=None):
        """Accumulate gradients of this (scalar) tensor w.r.t. all ancestors.

        Gradients are never written in place, so a node may share its ``grad``
        array with another node. An intermediate node's ``grad`` is released
        once its own backward has run; the root and the leaves keep theirs.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without a seed needs a scalar tensor")
            grad = np.ones_like(self.data)

        order: list[Tensor] = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))

        self.grad = np.asarray(grad, dtype=np.float64)
        for node in reversed(order):
            if node._backward is None or node.grad is None:
                continue
            for parent, pgrad in zip(node._parents, node._backward(node.grad)):
                if not parent.requires_grad:
                    continue
                if parent.grad is None:
                    parent.grad = np.asarray(pgrad)
                else:
                    parent.grad = parent.grad + pgrad
            if node is not self:
                node.grad = None


def sparse_matmul(a, w: Tensor) -> Tensor:
    """``a @ w`` for a constant scipy sparse matrix ``a`` and a dense ``w``.

    ``a`` gets no gradient; ``w`` gets ``a.T @ grad``, so neither pass forms
    ``a`` densely.
    """

    def backward(grad):
        return (np.asarray(a.T @ grad),)

    return Tensor._from_op(np.asarray(a @ w.data), (w,), backward)


def zero_grads(params) -> None:
    for p in params:
        p.grad = None


class Adam:
    """Adam with bias-corrected first/second moment estimates (full batch)."""

    def __init__(self, params, lr: float = 1e-3, betas=(0.9, 0.999), eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self):
        zero_grads(self.params)

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            g = p.grad
            self._m[i] = b1 * self._m[i] + (1.0 - b1) * g
            self._v[i] = b2 * self._v[i] + (1.0 - b2) * (g * g)
            m_hat = self._m[i] / (1.0 - b1 ** self.t)
            v_hat = self._v[i] / (1.0 - b2 ** self.t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
