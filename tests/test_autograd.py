"""Finite-difference checks of every autodiff op the pipeline relies on, and
of the taped ops the oracles add (``oracle_tanh``, ``oracle_exp``,
``oracle_clip``, ``oracle_pow``)."""

import weakref

import numpy as np
import pytest
from scipy import sparse

from gfclust import autograd
from gfclust.autograd import Adam, Tensor, no_grad
from gfclust.encoders import _factored_mse, mse_t

from helpers import taped_tensors
from oracles import (
    OracleAdam,
    oracle_clip,
    oracle_exp,
    oracle_pow,
    oracle_tanh,
    sparse_matmul,
)

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
        lambda t: oracle_tanh(t).sum(),
        lambda t: (t * t + 0.1).sqrt().sum(),
        lambda t: (t * t + 0.5).log().sum(),
        lambda t: oracle_exp(t * 0.3).mean(),
        lambda t: t.relu().sum(),
        lambda t: t.maximum(0.2).sum(),
        lambda t: ((t * t).sum(axis=1) + 1.0).sqrt().mean(),
        lambda t: (t.sum(axis=0, keepdims=True) * t).sum(),
        lambda t: oracle_tanh(t.T).mean(),
        lambda t: ((t @ t.T).relu() + 0.1).log().sum(),
        lambda t: (oracle_clip(t, -0.5, 0.5) * 2.0).sum(),
        lambda t: ((t * t).sum(axis=1, keepdims=True) - t).mean(),
    ],
)
def test_op_gradients_match_central_differences(f):
    check(f, (4, 3))


def test_matmul_chain_gradient():
    a0 = RNG.normal(size=(3, 4))
    b0 = RNG.normal(size=(4, 2))
    a, b = Tensor(a0, requires_grad=True), Tensor(b0, requires_grad=True)
    loss = (oracle_tanh(a @ b) * (a @ b)).sum()
    loss.backward()
    fd_a = fd_gradient(
        lambda x: float((oracle_tanh(Tensor(x) @ b0) * (Tensor(x) @ b0)).sum().data), a0
    )
    fd_b = fd_gradient(
        lambda x: float((oracle_tanh(Tensor(a0) @ x) * (Tensor(a0) @ x)).sum().data), b0
    )
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
    out = oracle_pow(t, 0.5).sum()
    out.backward()
    assert np.isfinite(t.grad).all()
    assert t.grad[0] == 0.0
    assert np.isclose(t.grad[1], 0.5 / np.sqrt(0.5))


def test_detach_cuts_the_tape():
    t = Tensor(RNG.normal(size=(3, 3)), requires_grad=True)
    with no_grad():
        constant = t * 1.0
    loss = (constant * t).sum()
    loss.backward()
    assert np.allclose(t.grad, t.data)  # only the factor taped outside no_grad contributes


def test_no_grad_restores_the_outer_mode_on_exit_and_when_its_body_raises():
    t = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        with no_grad():
            pass
        assert not (t * 2.0).requires_grad
    assert (t * 2.0)._parents
    with pytest.raises(RuntimeError, match="body"), no_grad():
        raise RuntimeError("body")
    assert (t * 2.0)._parents


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
        hidden = oracle_tanh(a @ b)
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
    check(lambda t: (oracle_tanh(sparse_matmul(a, t)) * sparse_matmul(a, t)).sum(), (4, 3))


def test_loss_ops_match_central_differences():
    rng = np.random.default_rng(5)
    target = rng.normal(size=(5, 4))
    check(lambda t: mse_t(oracle_tanh(t), target) * 2.5, (5, 4))
    # a non-square sparse operand, so a transpose mix-up cannot pass
    a = sparse.csr_array(rng.normal(size=(5, 4)) * (rng.random((5, 4)) < 0.5))
    h, w = Tensor(rng.normal(size=(5, 3))), Tensor(rng.normal(size=(3, 4)))
    b = Tensor(rng.normal(size=4))
    check(lambda t: oracle_tanh(_factored_mse(oracle_tanh(t), w, b, a)), (5, 3))
    check(lambda t: oracle_tanh(_factored_mse(h, oracle_tanh(t), b, a)), (3, 4))
    check(lambda t: oracle_tanh(_factored_mse(h, w, oracle_tanh(t), a)), (4,))


def branched_tape(rng):
    """Two branches of two leaves each, joined on top by a shared product;
    returns (loss, branches, leaves)."""
    leaves = [Tensor(rng.normal(size=(4, 3)), requires_grad=True) for _ in range(4)]
    branches = []
    for x, w in (leaves[:2], leaves[2:]):
        hidden = oracle_tanh(x * w)
        branches.append(((hidden * hidden).sum(), hidden * w))
    (r0, h0), (r1, h1) = branches
    loss = r0 + 2.0 * r1 + (h0 * h1).sum() + (h0 * h0).mean()
    return loss, branches, leaves


@pytest.mark.parametrize("runner", ["inline", "reversed"])
def test_branched_backward_gives_the_bits_of_the_whole_walk(runner):
    for_each = {
        "inline": None,
        "reversed": lambda walk, count: [walk(b) for b in reversed(range(count))],
    }[runner]
    loss, _, leaves = branched_tape(np.random.default_rng(3))
    loss.backward()
    whole = [leaf.grad for leaf in leaves]
    loss, branches, leaves = branched_tape(np.random.default_rng(3))
    loss.backward(branches=branches, for_each=for_each)
    for leaf, expected in zip(leaves, whole):
        assert np.array_equal(leaf.grad, expected)
    assert all(t.grad is None for branch in branches for t in branch)
    assert loss.grad is not None


def test_branches_that_share_a_node_are_refused_before_any_gradient():
    rng = np.random.default_rng(4)
    shared = Tensor(rng.normal(size=3), requires_grad=True)
    a, b = shared * 2.0, oracle_tanh(shared)
    with pytest.raises(ValueError, match="share"):
        (a + b).sum().backward(branches=[[a], [b]])
    assert shared.grad is None


def test_a_top_that_reaches_into_a_branch_is_refused():
    x = Tensor(np.random.default_rng(5).normal(size=3), requires_grad=True)
    inner = oracle_tanh(x)
    end = inner * 3.0
    with pytest.raises(ValueError, match="reaches into"):
        (end + inner).sum().backward(branches=[[end]])
    assert x.grad is None


def test_branch_tensors_without_a_gradient_are_skipped():
    x = Tensor(np.arange(3.0), requires_grad=True)
    constant = Tensor(np.ones(3))
    square = x * x
    loss = square.sum() + constant.sum()
    loss.backward(branches=[[constant], [square]])
    assert np.array_equal(x.grad, 2.0 * np.arange(3.0))


@pytest.mark.parametrize("split", [False, True], ids=["whole", "branches"])
def test_a_walk_leaves_no_tape_behind_its_root(split):
    loss, branches, leaves = branched_tape(np.random.default_rng(6))
    assert taped_tensors((loss, branches))
    loss.backward(branches=branches if split else ())
    assert taped_tensors((loss, branches)) == []
    assert loss.grad is not None and loss.data.shape == ()
    assert all(leaf.grad is not None for leaf in leaves)


def test_an_ops_saved_array_is_freed_at_its_own_backward():
    def scale(t, factor, on_backward=None):
        def backward(grad):
            if on_backward is not None:
                on_backward()
            return (grad * factor,)

        return Tensor._from_op(t.data * factor, (t,), backward)

    x = Tensor(RNG.normal(size=(3, 2)), requires_grad=True)
    factor = RNG.normal(size=(3, 2))
    freed = []
    inner = scale(x, 2.0, lambda: freed.append((saved() is None, output() is None)))
    outer = scale(inner, factor)
    saved, output = weakref.ref(factor), weakref.ref(outer.data)
    loss = outer.sum()
    del factor, inner, outer
    loss.backward()
    # the outer op's saved factor and its output are gone by the time the
    # inner op's backward runs
    assert freed == [(True, True)]


@pytest.mark.parametrize("split", [False, True], ids=["whole", "branches"])
def test_a_second_walk_through_a_tape_is_refused(split):
    loss, branches, leaves = branched_tape(np.random.default_rng(7))
    loss.backward(branches=branches if split else ())
    grads = [leaf.grad for leaf in leaves]
    with pytest.raises(ValueError, match="walked already"):
        loss.backward(branches=branches if split else ())
    with pytest.raises(ValueError, match="walked already"):
        (branches[0][1] * 2.0).sum().backward()
    assert branches[0][1].grad is None
    assert all(leaf.grad is grad for leaf, grad in zip(leaves, grads))


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


def assert_adam_matches_oracle(shapes):
    """Adam and OracleAdam over 40 steps on parameters of ``shapes``, bit for bit."""
    rng = np.random.default_rng(3)
    inits = [rng.normal(size=shape) for shape in shapes]
    ours = [Tensor(x.copy(), requires_grad=True) for x in inits]
    ref = [Tensor(x.copy(), requires_grad=True) for x in inits]
    opt, oracle = Adam(ours, lr=0.01), OracleAdam(ref, lr=0.01)
    for step in range(40):
        grads = []
        for i, (a, b) in enumerate(zip(ours, ref)):
            # a parameter without a gradient is skipped on some steps
            g = None if (step + i) % 7 == 0 else np.sin((step + 1) * a.data) + 0.1
            a.grad, b.grad = g, None if g is None else g.copy()
            grads.append(b.grad)
        opt.step()
        oracle.step()
        for a, g in zip(ours, grads):  # a gradient is read, never written
            assert a.grad is None if g is None else np.array_equal(a.grad, g)
    for a, b, m, v, m_ref, v_ref in zip(ours, ref, opt._m, opt._v, oracle.m, oracle.v):
        assert np.array_equal(a.data, b.data)
        assert np.array_equal(m, m_ref)
        assert np.array_equal(v, v_ref)


def test_adam_step_in_place_equals_the_textbook_update_exactly():
    assert_adam_matches_oracle(((30, 8), (8,), (8, 30), (1,)))


def test_adam_walks_parameters_beyond_its_scratch_block_exactly():
    # larger than the block, and not a multiple of it
    block = autograd._ADAM_BLOCK
    assert_adam_matches_oracle(((block + 5,), (97, 211), (3 * block,)))


def test_adam_scratch_does_not_grow_with_the_parameters():
    small = Adam([Tensor(np.ones(3), requires_grad=True)])
    large = Adam([Tensor(np.ones((400, 300)), requires_grad=True)])
    assert small._scratch.nbytes == large._scratch.nbytes == 2 * 8 * autograd._ADAM_BLOCK


def test_adam_updates_a_non_contiguous_parameter_in_place():
    rng = np.random.default_rng(4)
    init = rng.normal(size=(autograd._ADAM_BLOCK // 50, 70))
    ours = Tensor(np.asfortranarray(init), requires_grad=True)
    ref = Tensor(init.copy(), requires_grad=True)
    data = ours.data
    opt, oracle = Adam([ours], lr=0.01), OracleAdam([ref], lr=0.01)
    for step in range(3):
        ours.grad = np.cos((step + 1) * ours.data)
        ref.grad = ours.grad.copy()
        opt.step()
        oracle.step()
    assert ours.data is data
    assert np.array_equal(ours.data, ref.data)
