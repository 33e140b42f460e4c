"""Finite-difference checks of every autodiff op the pipeline relies on."""

import numpy as np
import pytest
from scipy import sparse

from gfclust.autograd import Adam, Tensor, sparse_matmul

RNG = np.random.default_rng(42)


def fd_gradient(f, x0, h=1e-6):
    """Central-difference gradient of a scalar function of one array."""
    g = np.zeros_like(x0)
    it = np.nditer(x0, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp, xm = x0.copy(), x0.copy()
        xp[idx] += h
        xm[idx] -= h
        g[idx] = (f(xp) - f(xm)) / (2 * h)
        it.iternext()
    return g


def check(f, shape, h=1e-6, tol=1e-7):
    x0 = RNG.normal(size=shape)
    t = Tensor(x0, requires_grad=True)
    out = f(t)
    out.backward()
    fd = fd_gradient(lambda x: float(f(Tensor(x)).data), x0, h=h)
    assert np.allclose(t.grad, fd, rtol=1e-4, atol=tol), (t.grad, fd)


@pytest.mark.parametrize(
    "f",
    [
        lambda t: (t * 3.0 + 1.5).sum(),
        lambda t: (t * t).mean(),
        lambda t: (t - 2.0 * t).sum(),
        lambda t: (1.0 - t).sum(),
        lambda t: (t / 2.0 + 2.0 / (t + 5.0)).sum(),
        lambda t: t.tanh().sum(),
        lambda t: (t * t + 0.1).sqrt().sum(),
        lambda t: (t * t + 0.5).log().sum(),
        lambda t: (t * 0.3).exp().mean(),
        lambda t: t.relu().sum(),
        lambda t: t.maximum(0.2).sum(),
        lambda t: ((t * t).sum(axis=1) + 1.0).sqrt().mean(),
        lambda t: (t.sum(axis=0, keepdims=True) * t).sum(),
        lambda t: t.T.tanh().mean(),
        lambda t: ((t @ t.T).relu() + 0.1).log().sum(),
        lambda t: (t.clip(-0.5, 0.5) * 2.0).sum(),
        lambda t: ((t * t).sum(axis=1, keepdims=True) - t).mean(),
    ],
)
def test_op_gradients_match_central_differences(f):
    check(f, (4, 3))


def test_matmul_chain_gradient():
    a0 = RNG.normal(size=(3, 4))
    b0 = RNG.normal(size=(4, 2))
    a, b = Tensor(a0, requires_grad=True), Tensor(b0, requires_grad=True)
    loss = ((a @ b).tanh() * (a @ b)).sum()
    loss.backward()
    fd_a = fd_gradient(lambda x: float(((Tensor(x) @ b0).tanh() * (Tensor(x) @ b0)).sum().data), a0)
    fd_b = fd_gradient(lambda x: float(((Tensor(a0) @ x).tanh() * (Tensor(a0) @ x)).sum().data), b0)
    assert np.allclose(a.grad, fd_a, rtol=1e-5, atol=1e-7)
    assert np.allclose(b.grad, fd_b, rtol=1e-5, atol=1e-7)


def test_broadcast_gradients_unbroadcast_correctly():
    w0 = RNG.normal(size=(1, 4))
    x = RNG.normal(size=(5, 4))
    w = Tensor(w0, requires_grad=True)
    loss = (Tensor(x) * w).sum()
    loss.backward()
    assert w.grad.shape == (1, 4)
    assert np.allclose(w.grad, x.sum(axis=0, keepdims=True))

    b0 = RNG.normal(size=(4,))
    b = Tensor(b0, requires_grad=True)
    loss = (Tensor(x) + b).mean()
    loss.backward()
    assert b.grad.shape == (4,)
    assert np.allclose(b.grad, np.full(4, 5.0 / 20.0))


def test_power_gradient_guards_zero_base():
    t = Tensor(np.array([0.0, 0.5, 2.0]), requires_grad=True)
    out = (t ** 0.5).sum()
    out.backward()
    assert np.isfinite(t.grad).all()
    assert t.grad[0] == 0.0
    assert np.isclose(t.grad[1], 0.5 / np.sqrt(0.5))


def test_detach_cuts_the_tape():
    t = Tensor(RNG.normal(size=(3, 3)), requires_grad=True)
    loss = (t.detach() * t).sum()
    loss.backward()
    assert np.allclose(t.grad, t.data)  # only the non-detached factor contributes


def test_maximum_routes_gradient_to_larger_branch():
    a = Tensor(np.array([1.0, 5.0]), requires_grad=True)
    b = Tensor(np.array([2.0, 3.0]), requires_grad=True)
    a.maximum(b).sum().backward()
    assert np.allclose(a.grad, [0.0, 1.0])
    assert np.allclose(b.grad, [1.0, 0.0])


def test_grad_accumulates_over_reused_nodes():
    t = Tensor(np.array([2.0]), requires_grad=True)
    y = t * t + t * 3.0
    y.backward()
    assert np.allclose(t.grad, [2 * 2.0 + 3.0])


def test_backward_frees_intermediate_grads_and_keeps_leaf_grads():
    a0 = RNG.normal(size=(4, 3))
    b0 = RNG.normal(size=(3, 2))

    def f(a, b):
        hidden = (a @ b).tanh()
        return hidden, (hidden * hidden).sum()

    a, b = Tensor(a0, requires_grad=True), Tensor(b0, requires_grad=True)
    hidden, loss = f(a, b)
    loss.backward()
    assert hidden.grad is None
    assert loss.grad is not None
    fd_a = fd_gradient(lambda x: float(f(Tensor(x), Tensor(b0))[1].data), a0)
    fd_b = fd_gradient(lambda x: float(f(Tensor(a0), Tensor(x))[1].data), b0)
    assert np.allclose(a.grad, fd_a, rtol=1e-5, atol=1e-7)
    assert np.allclose(b.grad, fd_b, rtol=1e-5, atol=1e-7)


def test_matmul_skips_the_gradient_of_a_constant_operand():
    a = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
    const = Tensor(RNG.normal(size=(4, 2)))
    out = a @ const
    grads = out._backward(np.ones(out.shape))
    assert grads[1] is None
    assert np.allclose(grads[0], np.ones((3, 2)) @ const.data.T)


def test_sparse_matmul_matches_dense_product_and_central_differences():
    # a non-square constant operand, so a transpose mix-up cannot pass
    a0 = RNG.normal(size=(5, 4)) * (RNG.random((5, 4)) < 0.5)
    a = sparse.csr_array(a0)
    x0 = RNG.normal(size=(4, 3))
    assert np.allclose(sparse_matmul(a, Tensor(x0)).data, a0 @ x0, rtol=0, atol=1e-15)
    check(lambda t: (sparse_matmul(a, t).tanh() * sparse_matmul(a, t)).sum(), (4, 3))


def test_backward_requires_scalar():
    t = Tensor(RNG.normal(size=(2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        (t * 2.0).backward()


def test_adam_minimizes_quadratic():
    t = Tensor(np.array([5.0, -3.0]), requires_grad=True)
    opt = Adam([t], lr=0.1)
    for _ in range(400):
        opt.zero_grad()
        loss = (t * t).sum()
        loss.backward()
        opt.step()
    assert np.abs(t.data).max() < 1e-3


def test_adam_is_deterministic():
    def run():
        t = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        opt = Adam([t], lr=0.05)
        for _ in range(25):
            opt.zero_grad()
            ((t - 0.3) * (t - 0.3)).sum().backward()
            opt.step()
        return t.data.copy()

    assert np.array_equal(run(), run())
