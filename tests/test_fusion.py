import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gfclust import EncoderConfig, fusion, one_hot, target_distribution, update_hr
from gfclust.autograd import Tensor
from gfclust.errors import NumericsWarning
from gfclust.fusion import (
    evaluate_view_t,
    fuse_views_t,
    kl_divergence_t,
    kl_terms_t,
    soft_assignment_t,
)
from gfclust.training import TrainConfig, TrainingPipeline

from helpers import fuse, two_ratio_fixture, tiny_two_view
from oracles import oracle_fuse_views_t

RNG = np.random.default_rng(13)


def random_stochastic_rows(n, c, rng):
    q = rng.random((n, c)) + 1e-3
    return q / q.sum(axis=1, keepdims=True)


def evaluate_view(h_v, h_bar) -> float:
    return float(evaluate_view_t(Tensor(h_v), Tensor(h_bar)).data)


def soft_assignment(h, centers):
    return soft_assignment_t(Tensor(h), centers).data


def kl_divergence(p, q) -> float:
    return float(kl_divergence_t(p, Tensor(q)).data)


class TestEvaluateView:
    def test_self_similarity_is_one(self):
        h = RNG.normal(size=(6, 4))
        assert evaluate_view(h, h) == pytest.approx(1.0, abs=1e-12)

    def test_antipodal_is_minus_one(self):
        h = RNG.normal(size=(6, 4))
        assert evaluate_view(h, -h) == pytest.approx(-1.0, abs=1e-12)

    def test_half_identical_half_orthogonal(self):
        h_v = np.array([[1.0, 0.0], [1.0, 0.0]])
        h_bar = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert evaluate_view(h_v, h_bar) == pytest.approx(0.5)

    def test_zero_rows_contribute_zero(self):
        h_v = np.array([[0.0, 0.0], [1.0, 0.0]])
        h_bar = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert evaluate_view(h_v, h_bar) == pytest.approx(0.5)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            evaluate_view(np.zeros((2, 2)), np.zeros((3, 2)))

    def test_zero_rows_take_zero_gradient_and_the_rest_match_central_differences(self):
        rng = np.random.default_rng(4)
        h, h_bar = rng.normal(size=(6, 3)), rng.normal(size=(6, 3))
        h[1] = 0.0
        h_bar[4] = 0.0
        g_e = 0.7
        g_h, g_bar = fusion._similarity_backward(g_e, h, h_bar, (h_bar * h_bar).sum(axis=1))
        ts = [Tensor(h, requires_grad=True), Tensor(h_bar, requires_grad=True)]
        (evaluate_view_t(*ts) * g_e).backward()
        for grad, taped, x in ((g_h, ts[0].grad, h), (g_bar, ts[1].grad, h_bar)):
            assert np.all(grad[[1, 4]] == 0.0) and np.all(taped[[1, 4]] == 0.0)
            for i in (0, 2, 3, 5):
                for j in range(3):
                    values = []
                    for step in (1e-6, -1e-6):
                        moved = x.copy()
                        moved[i, j] += step
                        pair = (moved, h_bar) if x is h else (h, moved)
                        values.append(g_e * evaluate_view(*pair))
                    fd = (values[0] - values[1]) / 2e-6
                    assert grad[i, j] == pytest.approx(fd, rel=1e-6, abs=1e-9)
                    assert taped[i, j] == pytest.approx(fd, rel=1e-6, abs=1e-9)


class TestFuseViews:
    def test_single_view_degenerate(self):
        h = RNG.normal(size=(5, 3))
        weights, h_bar = fuse([h], rho=1.0)
        assert np.allclose(weights, [1.0])
        assert np.allclose(h_bar, h)

    def test_two_identical_views(self):
        h = RNG.normal(size=(5, 3))
        weights, h_bar = fuse([h, h.copy()], rho=1.0)
        assert np.allclose(weights, [0.5, 0.5])
        assert np.allclose(h_bar, h)

    def test_aligned_view_weighs_more(self):
        # larger-norm view dominates the initial mean, so it stays aligned
        h1 = np.tile([2.0, 0.0], (6, 1))
        h2 = np.tile([0.0, 1.0], (6, 1))
        weights, _ = fuse([h1, h2], rho=1.0)
        assert weights[0] > weights[1]
        assert weights.sum() == pytest.approx(1.0, abs=1e-9)

    def test_consensus_is_exact_weighted_sum(self):
        hs = [RNG.normal(size=(7, 3)) for _ in range(3)]
        weights, h_bar = fuse(hs, rho=1.5)
        manual = sum(w * h for w, h in zip(weights, hs))
        assert np.abs(h_bar - manual).max() < 1e-12
        assert weights.sum() == pytest.approx(1.0, abs=1e-9)
        assert (weights >= 0).all()

    def test_permutation_equivariance(self):
        hs = [RNG.normal(size=(6, 2)) for _ in range(3)]
        weights, h_bar = fuse(hs, rho=1.0)
        perm = [2, 0, 1]
        weights_p, h_bar_p = fuse([hs[i] for i in perm], rho=1.0)
        assert np.allclose(weights_p, weights[perm])
        assert np.allclose(h_bar_p, h_bar)

    def test_all_nonpositive_similarity_falls_back_uniform(self):
        h1 = np.array([[1.0, 0.0]])
        h2 = np.array([[-1.0, 0.0]])
        with pytest.warns(NumericsWarning, match="uniform"):
            weights, h_bar = fuse([h1, h2], rho=0.5)
        assert np.allclose(weights, [0.5, 0.5])
        assert np.allclose(h_bar, np.zeros((1, 2)))

    def test_rho_zero_gives_uniform_weights(self):
        hs = [RNG.normal(size=(4, 3)) for _ in range(3)]
        weights, _ = fuse(hs, rho=0.0)
        assert np.allclose(weights, 1.0 / 3.0)


def fused(fuse_t, hs, rho, upstream):
    """Weights, consensus and the gradient of ``sum(upstream * consensus)``
    w.r.t. each view, from ``fuse_t`` (the op or its taped oracle)."""
    ts = [Tensor(h.copy(), requires_grad=True) for h in hs]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NumericsWarning)
        weights, h_bar = fuse_t(ts, rho)
    (h_bar * Tensor(upstream)).sum().backward()
    # the op returns a float array, the oracle differentiable Tensors
    weights = [float(w.data) if isinstance(w, Tensor) else float(w) for w in weights]
    return weights, h_bar.data, [t.grad for t in ts]


class TestFuseViewsOp:
    """The replaying fusion op against the taped rounds it replaces."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=4),
        st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 40.0]),
        st.sampled_from(["plain", "zero-row", "antipodal", "tie"]),
        st.integers(min_value=0, max_value=2**31),
    )
    # one view's weight rounds to 1 while its zero row meets a near-zero
    # consensus row, which amplifies rounding in the weight gradients
    @example(2, 4, 3, 40.0, "zero-row", 15)
    @example(3, 4, 4, 40.0, "zero-row", 25)
    @example(3, 5, 3, 1.5, "tie", 0)
    def test_matches_taped_oracle(self, n_views, n, d, rho, case, seed):
        rng = np.random.default_rng(seed)
        hs = [rng.normal(size=(n, d)) for _ in range(n_views)]
        if case == "zero-row":
            hs[0][rng.integers(n)] = 0.0
        elif case == "antipodal":
            hs[-1] = -hs[0]
        elif case == "tie":
            # two identical views tie for the top similarity
            hs = [hs[0], hs[0].copy(), *hs[2:]]
        upstream = rng.normal(size=(n, d))
        w, h_bar, grads = fused(fuse_views_t, hs, rho, upstream)
        w_ref, h_bar_ref, grads_ref = fused(oracle_fuse_views_t, hs, rho, upstream)
        assert w == w_ref
        assert np.array_equal(h_bar, h_bar_ref)
        # measured against the largest gradient entry of any view: where a
        # gradient is exactly 0 (every cosine is +-1 when d = 1), the tape and
        # the replay leave different rounding noise of order 1e-30
        scale = max(np.abs(g).max() for g in grads_ref)
        for g, g_ref in zip(grads, grads_ref):
            assert np.abs(g - g_ref).max() <= 1e-10 * scale

    def test_gradient_matches_central_differences(self, monkeypatch):
        rng = np.random.default_rng(21)
        hs = [rng.normal(size=(6, 3)) + 0.5 for _ in range(3)]
        upstream = rng.normal(size=(6, 3))
        # a fixed round count keeps the function smooth under the perturbation
        monkeypatch.setattr(fusion, "_FUSE_TOL", 0.0)
        monkeypatch.setattr(fusion, "_FUSE_MAX_ROUNDS", 4)
        for rho in (0.5, 1.5):
            _, _, grads = fused(fuse_views_t, hs, rho, upstream)
            for v in range(3):
                fd = np.zeros_like(hs[v])
                for idx in np.ndindex(hs[v].shape):
                    values = []
                    for step in (1e-6, -1e-6):
                        moved = [h.copy() for h in hs]
                        moved[v][idx] += step
                        _, h_bar, _ = fused(fuse_views_t, moved, rho, upstream)
                        values.append(float((h_bar * upstream).sum()))
                    fd[idx] = (values[0] - values[1]) / 2e-6
                assert np.abs(grads[v] - fd).max() < 1e-6 * max(np.abs(fd).max(), 1.0)

    def test_weights_are_constants_and_the_fallback_is_the_plain_mean(self):
        h = RNG.normal(size=(4, 3))
        upstream = RNG.normal(size=(4, 3))
        ts = [Tensor(h, requires_grad=True), Tensor(-h, requires_grad=True)]
        with pytest.warns(NumericsWarning, match="uniform"):
            weights, h_bar = fuse_views_t(ts, 1.0)
        assert type(weights) is np.ndarray and weights.dtype == np.float64
        assert np.array_equal(weights, [0.5, 0.5])
        (h_bar * Tensor(upstream)).sum().backward()
        for t in ts:
            assert np.array_equal(t.grad, 0.5 * upstream)


class TestUpdateHr:
    def test_ground_truth_on_ratio_fixture(self):
        g = two_ratio_fixture()
        hr = update_hr(g, one_hot(g.labels, g.n_clusters))
        assert hr == pytest.approx([0.82, 0.64], abs=1e-12)

    def test_single_class_pseudo_gives_all_ones(self):
        g = tiny_two_view()
        hr = update_hr(g, one_hot(np.zeros(g.n_nodes, int), g.n_clusters))
        assert hr == [1.0, 1.0]

    def test_alternating_labels_on_4_cycle(self):
        a = np.zeros((4, 4))
        for i, j in [(0, 1), (1, 2), (2, 3), (3, 0)]:
            a[i, j] = a[j, i] = 1.0
        from gfclust import MultiViewGraph

        g = MultiViewGraph(
            features=np.zeros((4, 2)), adjacencies=[a], n_clusters=2, labels=[0, 1, 0, 1]
        )
        assert update_hr(g, one_hot([0, 1, 0, 1], 2)) == [0.0]


class TestSoftAssignment:
    def test_coincident_point_saturates(self):
        centers = np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 100.0]])
        q = soft_assignment(np.array([[0.0, 0.0]]), centers)
        assert q[0, 0] > 0.99

    def test_equidistant_point_is_uniform(self):
        centers = np.array([[1.0, 0.0], [-1.0, 0.0]])
        q = soft_assignment(np.array([[0.0, 5.0]]), centers)
        assert np.allclose(q, [[0.5, 0.5]])

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31))
    def test_rows_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        q = soft_assignment(rng.normal(size=(8, 3)), rng.normal(size=(4, 3)))
        assert np.abs(q.sum(axis=1) - 1.0).max() < 1e-9
        assert (q >= 0).all()


class TestTargetDistribution:
    def test_one_hot_fixed_point(self):
        q = one_hot([0, 1, 1, 2], 3)
        assert np.array_equal(target_distribution(q), q)

    def test_uniform_stays_uniform(self):
        q = np.full((6, 3), 1.0 / 3.0)
        assert np.allclose(target_distribution(q), q)

    def test_matches_two_line_oracle(self):
        q = np.array([[0.9, 0.1], [0.6, 0.4]])
        weight = q**2 / q.sum(axis=0)
        oracle = weight / weight.sum(axis=1, keepdims=True)
        assert np.abs(target_distribution(q) - oracle).max() < 1e-12

    def test_zero_mass_cluster_dropped_with_warning(self):
        q = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        with pytest.warns(NumericsWarning, match="zero total mass"):
            p = target_distribution(q)
        assert np.array_equal(p, q)


def kl_terms(p_views, q_views, p_bar, q_bar) -> float:
    """The alignment loss training uses, on constant soft assignments."""
    return float(kl_terms_t(p_views, [Tensor(q) for q in q_views], p_bar, Tensor(q_bar)).data)


class TestKlLoss:
    def test_identical_distributions_zero(self):
        q = random_stochastic_rows(5, 3, RNG)
        value = kl_terms([q.copy(), q.copy()], [q, q.copy()], q.copy(), q.copy())
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_single_view_term_counting(self):
        q1 = random_stochastic_rows(4, 2, RNG)
        q_bar = random_stochastic_rows(4, 2, RNG)
        p_bar = target_distribution(q_bar)
        # P^1 = consensus target
        value = kl_terms([p_bar.copy()], [q1], p_bar, q_bar)
        expected = 2.0 * kl_divergence(p_bar, q1) + kl_divergence(p_bar, q_bar)
        assert value == pytest.approx(expected, rel=1e-12)

    def test_hand_computed_log_two(self):
        p = np.array([[1.0, 0.0]])
        q = np.array([[0.5, 0.5]])
        assert kl_divergence(p, q) == pytest.approx(np.log(2.0))

    def test_clamps_zero_q_with_warning(self):
        p = np.array([[1.0, 0.0]])
        q = np.array([[0.0, 1.0]])
        with pytest.warns(NumericsWarning, match="clamping"):
            value = kl_divergence(p, q)
        assert value == pytest.approx(-np.log(1e-12))

    def test_nonnegative_and_zero_only_at_equality(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            q = random_stochastic_rows(6, 3, rng)
            p = target_distribution(q)
            assert kl_divergence(p, q) >= 0.0
            bump = q.copy()
            bump[:, 0] += 0.05
            bump /= bump.sum(axis=1, keepdims=True)
            assert kl_divergence(q, bump) > 0.0


def epoch_loss(gamma_rec, gamma_kl):
    """One training epoch's forward pass under the given trade-off weights."""
    cfg = TrainConfig(
        epochs=1,
        gamma_rec=gamma_rec,
        gamma_kl=gamma_kl,
        encoder=EncoderConfig(latent_dim=3, hidden_dim=6, epochs=3),
        seed=2,
    )
    return TrainingPipeline(tiny_two_view(), cfg).epoch_forward()


class TestTotalLoss:
    def test_kl_weight_zero(self):
        fwd = epoch_loss(gamma_rec=1.0, gamma_kl=0.0)
        assert fwd.l_kl == 0.0
        assert fwd.l_rec > 0.0
        assert fwd.loss.data == fwd.l_rec

    def test_both_zero(self):
        fwd = epoch_loss(gamma_rec=0.0, gamma_kl=0.0)
        assert fwd.l_rec > 0.0
        assert fwd.loss.data == 0.0

    def test_weighted_sum(self):
        fwd = epoch_loss(gamma_rec=0.7, gamma_kl=0.1)
        assert fwd.l_rec > 0.0 and fwd.l_kl > 0.0
        assert fwd.loss.data == 0.7 * fwd.l_rec + 0.1 * fwd.l_kl
