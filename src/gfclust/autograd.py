"""Minimal reverse-mode automatic differentiation on numpy arrays.

A ``Tensor`` wraps a float64 ndarray and records the operations applied to it;
``Tensor.backward()`` replays the tape in reverse topological order and
accumulates gradients into every node that (transitively) requires them.
Given ``branches``, groups of tensors whose sub-tapes share no node that
requires a gradient, the same walk is split: the shared top of the tape is
walked down to the branch tensors on the calling thread, then each branch
from all of its tensors at once, the branches through a runner the caller
passes (``training`` runs one per view, concurrently). Each part keeps the
node order of the whole walk, so the gradients do not change.
``Tensor`` keeps only the ops the package composes: ``+`` of two Tensors of
one shape (the 0-d loss sums), ``scalar * tensor`` (the loss weights) and
``@`` of two Tensors, which cluster assignment still tapes for ``h c^T`` and
which the benchmark's spans wrap by name. Every other step is a single op
built on ``Tensor._from_op`` with a hand-written backward; the taped ops
only tests use (the general elementwise arithmetic with broadcasting,
reductions and transpose) are built on it in the tests. Everything is
float64 and 0-d/1-d/2-d shaped.

A tape is built only outside ``no_grad()`` (PyTorch's ``torch.no_grad``), a
mode the threads that run a copy of the caller's context share. It lives as
long as its root until a backward walk consumes it, as PyTorch's does without
``retain_graph``. A node holds its parents and its backward closure, and
nothing holds a node's consumers. The walk releases a node's closure and
parents once the node's backward has run, or was skipped because no gradient
reached it, so what an op saved for its backward is freed there rather than
when the root is dropped. Leaves keep their gradients and the root keeps its
data; a second walk through a walked tape raises ``ValueError``. Composite
steps that would keep many large intermediates are single ops built on
``Tensor._from_op`` with a hand-written backward that keeps or recomputes only
what it needs: the encoder layer (``encoders._layer``), the reconstruction
losses (``encoders.mse_t``, the factored adjacency MSE
``encoders._factored_mse`` and the row-blocked BCE ``encoders._blocked_bce``),
the kernel and filter (``filters._joint_filter_t``), the view fusion
(``fusion.fuse_views_t``), the view similarity and the alignment
(``fusion.evaluate_view_t``, ``fusion.soft_assignment_t`` and
``fusion.kl_divergence_t``).
``Adam.step`` updates its moments and the parameters in place.
"""

from __future__ import annotations

import contextvars

import numpy as np

__all__ = ["Tensor", "Adam", "as_tensor", "no_grad", "zero_grads"]

_GRAD_ENABLED = contextvars.ContextVar("gfclust_grad_enabled", default=True)
_ADAM_BLOCK = 16384  # elements per half of Adam's scratch block


class no_grad:
    """Build no tape inside the block; the previous mode returns on exit."""

    def __enter__(self):
        self._token = _GRAD_ENABLED.set(False)

    def __exit__(self, *exc_info):
        _GRAD_ENABLED.reset(self._token)


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
        if _GRAD_ENABLED.get() and any(p.requires_grad for p in parents):
            out.requires_grad, out._parents, out._backward = True, parents, backward
        return out

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        """``self + other`` for a Tensor ``other`` of the same shape."""
        if not isinstance(other, Tensor) or other.shape != self.shape:
            got = other.shape if isinstance(other, Tensor) else type(other).__name__
            raise ValueError(f"+ takes two Tensors of one shape, got {self.shape} and {got}")

        def backward(grad):
            return (grad, grad)

        return Tensor._from_op(self.data + other.data, (self, other), backward)

    def __rmul__(self, scalar):
        """``scalar * self`` for a Python or numpy float ``scalar``."""
        scalar = float(scalar)

        def backward(grad):
            return (grad * scalar,)

        return Tensor._from_op(self.data * scalar, (self,), backward)

    def __matmul__(self, other):
        """``self @ other`` for a Tensor ``other``."""
        if not isinstance(other, Tensor):
            raise TypeError(f"@ takes two Tensors, got {type(other).__name__}")
        out_data = self.data @ other.data

        def backward(grad):
            # a constant operand (cluster centers, an untaped embedding) gets no gradient
            return (
                grad @ other.data.T if self.requires_grad else None,
                self.data.T @ grad if other.requires_grad else None,
            )

        return Tensor._from_op(out_data, (self, other), backward)

    # -- backward pass --------------------------------------------------------------

    def backward(self, grad=None, branches=(), for_each=None):
        """Accumulate gradients of this (scalar) tensor w.r.t. all ancestors.

        Gradients are never written in place, so a node may share its ``grad``
        array with another node. The walk consumes the tape: once a node's
        backward has run, or was skipped because no gradient reached it,
        the node lets go of its backward closure, its parents and, unless it
        is the root, its ``grad``; the leaves keep theirs. The walk also
        drops its own references to the nodes as it passes them, on every
        thread, so each op's saved arrays are freed at its backward.

        ``branches`` splits the walk into independent parts. Each entry is a
        group of tensors of this tape; its branch is everything behind them.
        First the shared top of the tape, the nodes in no branch, is walked
        on the calling thread down to the branch tensors. Then each branch
        is walked from all of its tensors at once, by ``for_each(walk, count)``,
        which calls ``walk(0), ..., walk(count - 1)`` in any order, possibly
        concurrently (in order when ``for_each`` is None). Every part runs its
        nodes in the order of the walk without branches, and a branch receives
        gradient from the top only through its own tensors, so when those are
        not inputs of their own branch every gradient has the same bits as
        without branches.

        Raises:
            ValueError: the tape, or a node on it, was walked already; two
                branches share a node that requires a gradient; or a top
                node takes an input from inside a branch. Nothing has been
                accumulated then.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without a seed needs a scalar tensor")
            grad = np.ones_like(self.data)
        top, parts = _walk_parts(self, branches)
        self.grad = np.asarray(grad, dtype=np.float64)
        _walk(top, self)
        if for_each is None:
            for part in parts:
                _walk(part, self)
        elif parts:
            for_each(lambda b: _walk(parts[b], self), len(parts))


def _walked(grad):
    """The backward of a node whose own backward has run: a tape is walked once."""
    raise ValueError("backward through a tape that was walked already")


def _walk_parts(root: "Tensor", branches) -> tuple:
    """The walk from ``root``, split as ``Tensor.backward`` describes: the top
    part and one part per branch (none without ``branches``)."""
    order = _topo_order([root])
    if any(node._backward is _walked for node in order):
        _walked(None)
    if not branches:
        return order, []
    member = {}
    for b, group in enumerate(branches):
        for node in _topo_order([t for t in group if t.requires_grad]):
            if member.setdefault(id(node), b) != b:
                raise ValueError("two backward branches share a node")
    ends = {id(t) for group in branches for t in group}
    top = [node for node in order if id(node) not in member]
    for node in top:
        if any(id(p) in member and id(p) not in ends for p in node._parents):
            raise ValueError("the top of the tape reaches into a backward branch")
    parts = [[] for _ in branches]
    for node in order:
        if id(node) in member:
            parts[member[id(node)]].append(node)
    return top, parts


def _topo_order(roots: list) -> list:
    """Every node reachable from ``roots`` through parents that require a
    gradient, each after all of its parents."""
    order: list[Tensor] = []
    seen = set()
    stack = [(root, False) for root in reversed(roots)]
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
    return order


def _walk(order: list, root: "Tensor") -> None:
    """Pop ``order`` from its last node and run each node's backward into its
    parents' gradients. Each node gives up its backward closure and its
    parents as it is walked, reached by a gradient or not, and each
    intermediate node's gradient (never ``root``'s) is released once its
    backward has run, so what an op saved for its backward is freed there."""
    while order:
        node = order.pop()
        backward, parents = node._backward, node._parents
        if backward is None:
            continue
        node._backward, node._parents = _walked, ()
        if node.grad is not None:
            _accumulate(parents, backward(node.grad))
        if node is not root:
            node.grad = None


def _accumulate(parents: tuple, grads) -> None:
    """Add each of ``grads`` into its parent's gradient; no gradient it adds
    stays referenced once it returns."""
    for parent, pgrad in zip(parents, grads):
        if not parent.requires_grad:
            continue
        if parent.grad is None:
            parent.grad = np.asarray(pgrad)
        else:
            parent.grad = parent.grad + pgrad


def zero_grads(params) -> None:
    for p in params:
        p.grad = None


class Adam:
    """Adam with bias-corrected first/second moment estimates (full batch).

    ``step`` updates the moments and the parameters in place, walking each
    parameter in flat slices of ``_ADAM_BLOCK`` elements through one fixed
    scratch block of two such halves, so a step allocates nothing and the
    scratch does not grow with the parameters. The update is elementwise, so
    each value is rounded as in the textbook expression
    ``p -= lr * (m / c1) / (sqrt(v / c2) + eps)``, whatever the slicing.
    """

    def __init__(self, params, lr: float = 1e-3, betas=(0.9, 0.999), eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.t = 0
        # C-ordered, so that their flat views below are views
        self._m = [np.zeros(p.data.shape) for p in self.params]
        self._v = [np.zeros(p.data.shape) for p in self.params]
        self._scratch = np.empty((2, _ADAM_BLOCK))

    def zero_grad(self):
        zero_grads(self.params)

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1, c2 = 1.0 - b1 ** self.t, 1.0 - b2 ** self.t
        for p, m_all, v_all in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            data = p.data.reshape(-1)  # a view unless p.data is not C-contiguous
            g_all = p.grad.reshape(-1)
            m_all, v_all = m_all.reshape(-1), v_all.reshape(-1)
            for start in range(0, data.size, _ADAM_BLOCK):
                part = slice(start, start + _ADAM_BLOCK)
                w, g, m, v = data[part], g_all[part], m_all[part], v_all[part]
                num, den = self._scratch[0, :g.size], self._scratch[1, :g.size]
                m *= b1
                m += np.multiply(g, 1.0 - b1, out=num)
                v *= b2
                np.multiply(g, g, out=den)
                den *= 1.0 - b2
                v += den
                np.divide(v, c2, out=den)
                np.sqrt(den, out=den)
                den += self.eps
                np.divide(m, c1, out=num)
                num *= self.lr
                num /= den
                w -= num
            if not np.may_share_memory(data, p.data):
                p.data[...] = data.reshape(p.data.shape)
