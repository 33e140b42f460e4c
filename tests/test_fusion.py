import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gfclust import EncoderConfig, autograd, fusion, one_hot, target_distribution, update_hr
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
from oracles import (
    OracleTensor,
    oracle_evaluate_view_t,
    oracle_fuse_views_t,
    oracle_kl_divergence_t,
    oracle_soft_assignment_t,
)

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
        grads = []
        for evaluate_t in (evaluate_view_t, oracle_evaluate_view_t):
            ts = [Tensor(h, requires_grad=True), Tensor(h_bar, requires_grad=True)]
            (g_e * evaluate_t(*ts)).backward()
            grads.append([t.grad for t in ts])
        (g_h, g_bar), (taped_h, taped_bar) = grads
        for grad, taped, x in ((g_h, taped_h, h), (g_bar, taped_bar, h_bar)):
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
    (OracleTensor(upstream) * h_bar).sum().backward()
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
        (OracleTensor(upstream) * h_bar).sum().backward()
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

    def test_pseudo_labels_that_are_not_one_hot_are_refused(self):
        g = tiny_two_view()
        with pytest.raises(ValueError, match="exactly one 1 per row"):
            update_hr(g, np.full((g.n_nodes, g.n_clusters), 1.0 / g.n_clusters))


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


def alignment_draw(rng, n_clusters=None, far=None):
    """``(h, centers, p)``: up to 40 rows of 1-5 features and 2-5 clusters (or
    ``n_clusters``) at a scale drawn from [1e-2, 30], and a target ``p`` with
    some zero entries but none at the last center. A ``far`` last center is
    moved out to ``far`` times the scale, where its assignments fall under
    the KL floor."""
    n, d = int(rng.integers(1, 41)), int(rng.integers(1, 6))
    c = n_clusters or int(rng.integers(2, 6))
    scale = 10.0 ** rng.uniform(-2.0, np.log10(30.0))
    h, centers = scale * rng.normal(size=(n, d)), scale * rng.normal(size=(c, d))
    if far is not None:
        centers[-1] = far * scale
    p = rng.random((n, c)) * (rng.random((n, c)) < 0.8)
    p[:, -1] += 1e-3  # the far center's targets stay positive
    return h, centers, p / p.sum(axis=1, keepdims=True)


def long_double_alignment(h, centers, p, g):
    """The gradient of ``g KL(p || q(h))`` w.r.t. ``h`` for the Student-t
    assignment ``q`` with its 1e-12 floor, in long double, and its scale
    ``max_i 2 sum_j u_ij (P_ij + s_i q_ij) |h_i - c_j|``, the size of the
    gradient before cancellation (``P = |g| p`` where ``q`` is not floored,
    ``s`` its row sums)."""
    h, c, p = (np.asarray(x, dtype=np.longdouble) for x in (h, centers, p))
    diff = h[:, None, :] - c[None, :, :]
    u = 1.0 / (1.0 + (diff * diff).sum(axis=2))
    q = u / u.sum(axis=1, keepdims=True)
    live = q >= 1e-12
    g_q = np.where(live, -g * p / np.where(live, q, 1.0), 0.0)
    g_d = -u * q * (g_q - (g_q * q).sum(axis=1, keepdims=True))
    grad = 2.0 * (g_d[:, :, None] * diff).sum(axis=1)
    mass = abs(g) * p * live
    size = u * (mass + mass.sum(axis=1, keepdims=True) * q) * np.sqrt((diff * diff).sum(axis=2))
    return grad.astype(np.float64), float(2.0 * size.sum(axis=1).max())


def alignment_grad(soft_t, kl_t, h, centers, p, g):
    """The gradient of ``g * kl_t(p, soft_t(h, centers))`` w.r.t. ``h``."""
    t = Tensor(h, requires_grad=True)
    (g * kl_t(p, soft_t(t, centers))).backward()
    return t.grad


class TestClosedFormOps:
    """The one-op similarity, soft assignment and KL against the taped
    compositions they replace, and their gradients against long double."""

    def test_forwards_equal_the_taped_compositions_exactly_in_one_op_each(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            h, centers, p = alignment_draw(rng)
            h_bar = h + rng.normal(scale=np.abs(h).max(), size=h.shape)
            h_bar[rng.random(h.shape[0]) < 0.1] = 0.0
            h_t, h_bar_t = Tensor(h, requires_grad=True), Tensor(h_bar, requires_grad=True)
            e = evaluate_view_t(h_t, h_bar_t)
            assert np.array_equal(e.data, oracle_evaluate_view_t(Tensor(h), Tensor(h_bar)).data)
            q = soft_assignment_t(h_t, centers)
            assert np.array_equal(q.data, oracle_soft_assignment_t(Tensor(h), centers).data)
            q_t = Tensor(q.data, requires_grad=True)
            kl = kl_divergence_t(p, q_t)
            assert np.array_equal(kl.data, oracle_kl_divergence_t(p, Tensor(q.data)).data)
            # the similarity and the KL are one op on their inputs; the
            # assignment is one op on h and the taped product h c^T
            assert e._parents == (h_t, h_bar_t) and kl._parents == (q_t,)
            cross = q._parents[1]
            assert q._parents[0] is h_t and cross._parents[0] is h_t
            assert np.array_equal(cross.data, h @ centers.T)

    def test_alignment_gradient_matches_long_double(self):
        # plain draws, one cluster, where the gradient is exactly 0, and a far
        # center whose assignments fall under the floor, where the KL warns
        for seed, case in enumerate(("plain", "one-cluster", "floored")):
            rng = np.random.default_rng(seed)
            for _ in range(200):
                h, centers, p = alignment_draw(
                    rng, n_clusters=1 if case == "one-cluster" else None,
                    far=1e9 if case == "floored" else None,
                )
                g = rng.uniform(-2.0, 2.0)
                ref, scale = long_double_alignment(h, centers, p, g)
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always", NumericsWarning)
                    ours = alignment_grad(soft_assignment_t, kl_divergence_t, h, centers, p, g)
                    taped = alignment_grad(
                        oracle_soft_assignment_t, oracle_kl_divergence_t, h, centers, p, g
                    )
                assert len(caught) == (2 if case == "floored" else 0)
                assert np.abs(ours - ref).max() <= 1e-12 * scale
                assert np.abs(taped - ref).max() <= 1e-12 * scale
                if case == "one-cluster":
                    assert np.all(ours == 0.0)

    def test_kl_gradient_is_zero_under_the_floor_and_a_tie_goes_to_q(self):
        p = np.array([[0.2, 0.3, 0.5], [0.6, 0.4, 0.0]])
        q = np.array([[1e-13, 1e-12, 1.0 - 1.1e-12], [0.5, 0.0, 0.5]])
        grads = []
        for kl_t in (kl_divergence_t, oracle_kl_divergence_t):
            t = Tensor(q, requires_grad=True)
            with pytest.warns(NumericsWarning, match="clamping"):
                kl = kl_t(p, t)
            assert kl_t is oracle_kl_divergence_t or kl._parents == (t,)
            (1.5 * kl).backward()
            grads.append(t.grad)
        ours, taped = grads
        assert np.array_equal(ours, taped)
        assert ours[0, 0] == 0.0 and ours[1, 1] == 0.0
        assert ours[0, 1] == -1.5 * 0.3 / 1e-12
        assert ours[1, 0] == -1.5 * 0.6 / 0.5


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


def test_the_top_of_a_joint_step_is_two_nodes_per_embedding_and_one_per_kl_term():
    fwd = epoch_loss(gamma_rec=1.0, gamma_kl=0.1)
    top, _ = autograd._walk_parts(fwd.loss, fwd.branches)
    n_views = len(fwd.h_views)
    embeddings, kl_terms, rec_terms = n_views + 1, 2 * n_views + 1, 2 * n_views
    # the two loss sums, their two weights and the sum of the two
    loss_sums = (rec_terms - 1) + (kl_terms - 1) + 3
    assert len(top) <= 2 * embeddings + kl_terms + loss_sums + 1
