import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfclust import (
    EmbeddingPair,
    FilterConfig,
    apply_filter,
    build_joint_aggregation,
    filter_frequency_response,
    per_view_embedding,
    random_walk_normalize,
)
from gfclust.autograd import Tensor
from gfclust.errors import ConfigError, NumericsWarning
from gfclust.filters import _BLOCK_ROWS, joint_aggregation_t

from helpers import tiny_two_view
from oracles import oracle_joint_aggregation_t

RNG = np.random.default_rng(21)


def random_stochastic(n, rng):
    m = rng.random((n, n)) + 0.05
    return m / m.sum(axis=1, keepdims=True)


class TestJointAggregation:
    def test_identity_pair(self):
        s_rw = build_joint_aggregation(EmbeddingPair(z_x=np.eye(2), z_a=np.eye(2)))
        assert np.allclose(s_rw, np.eye(2))

    def test_all_ones_pair(self):
        pair = EmbeddingPair(z_x=[[1.0], [1.0]], z_a=[[1.0], [1.0]])
        s_rw = build_joint_aggregation(pair)
        assert np.allclose(s_rw, np.full((2, 2), 0.5), atol=1e-7)

    def test_gram_matches_triple_loop_oracle(self):
        z_a = RNG.normal(size=(5, 3))
        z_x = RNG.normal(size=(5, 3))
        s_rw = build_joint_aggregation(EmbeddingPair(z_x=z_x, z_a=z_a))
        z = z_a @ z_x.T
        oracle = np.zeros((5, 5))
        for i in range(5):
            for j in range(5):
                for k in range(5):
                    oracle[i, j] += z[i, k] * z[j, k]
        # clamp at zero, ridge the diagonal, normalize the rows
        oracle = np.maximum(oracle, 0.0) + 1e-8 * np.eye(5)
        oracle /= oracle.sum(axis=1, keepdims=True)
        assert np.abs(s_rw - oracle).max() < 1e-10

    def test_s_rw_is_stochastic_on_many_pairs(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(3, 40))
            pair = EmbeddingPair(z_x=rng.normal(size=(n, 4)), z_a=rng.normal(size=(n, 4)))
            s_rw = build_joint_aggregation(pair)
            assert np.abs(s_rw.sum(axis=1) - 1.0).max() < 1e-9
            assert s_rw.min() >= 0.0

    def test_zero_row_warns_but_stays_stochastic(self):
        z_a = np.array([[0.0, 0.0], [1.0, 0.5]])
        z_x = RNG.normal(size=(2, 2))
        with pytest.warns(NumericsWarning, match="all-zero rows"):
            s_rw = build_joint_aggregation(EmbeddingPair(z_x=z_x, z_a=z_a))
        assert np.abs(s_rw.sum(axis=1) - 1.0).max() < 1e-9


def kernel_and_grads(kernel, z_a, z_x, upstream):
    """``s_rw`` and the gradients of ``<upstream, s_rw>`` w.r.t. ``z_a`` and ``z_x``."""
    a, x = Tensor(z_a, requires_grad=True), Tensor(z_x, requires_grad=True)
    s_rw = kernel(a, x)
    (s_rw * Tensor(upstream)).sum().backward()
    return s_rw.data, a.grad, x.grad


def assert_op_matches_oracle(n, latent, seed, zero_rows=()):
    """Forward and gradients agree to 1e-10 relative.

    A gradient is measured against its own largest entry, or against the scale
    ``max|upstream| / max|input|`` the upstream gradient gives it when that is
    larger: where row normalization cancels the gradient exactly (a row whose
    only positive entry is its diagonal), the taped oracle leaves rounding
    noise of that scale times the machine epsilon.
    """
    rng = np.random.default_rng(seed)
    z_a = rng.normal(size=(n, latent))
    z_a[list(zero_rows)] = 0.0
    z_x = rng.normal(size=(n, latent))
    upstream = rng.normal(size=(n, n))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NumericsWarning)
        got = kernel_and_grads(joint_aggregation_t, z_a, z_x, upstream)
    want = kernel_and_grads(oracle_joint_aggregation_t, z_a, z_x, upstream)
    induced = (1.0, np.abs(upstream).max() / np.abs(z_a).max(),
               np.abs(upstream).max() / np.abs(z_x).max())
    for name, g, w, floor in zip(("s_rw", "d z_a", "d z_x"), got, want, induced):
        assert g.shape == w.shape
        assert np.abs(g - w).max() <= 1e-10 * max(np.abs(w).max(), floor), name


class TestJointAggregationOp:
    """The factored, row-blocked op against the taped composition it replaces."""

    @pytest.mark.parametrize(
        "n",
        [_BLOCK_ROWS // 2, _BLOCK_ROWS + 37, 2 * _BLOCK_ROWS],
        ids=["below-block", "ragged-last-block", "whole-blocks"],
    )
    def test_matches_taped_oracle(self, n):
        assert_op_matches_oracle(n, 5, seed=n)

    def test_zero_rows_warn_once_with_their_count(self):
        zero_rows = (0, 3, _BLOCK_ROWS + 1)
        rng = np.random.default_rng(4)
        z_a = rng.normal(size=(_BLOCK_ROWS + 9, 4))
        z_a[list(zero_rows)] = 0.0
        z_x = rng.normal(size=z_a.shape)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            joint_aggregation_t(Tensor(z_a), Tensor(z_x))
        numerics = [w for w in caught if issubclass(w.category, NumericsWarning)]
        assert len(numerics) == 1
        assert str(numerics[0].message).startswith("3 all-zero rows")
        assert_op_matches_oracle(_BLOCK_ROWS + 9, 4, seed=4, zero_rows=zero_rows)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=1, max_value=3 * _BLOCK_ROWS),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_matches_taped_oracle_on_random_shapes(self, n, latent, seed):
        assert_op_matches_oracle(n, latent, seed)


class TestApplyFilter:
    def test_hr_one_equals_pure_low_pass(self):
        s = random_stochastic(6, RNG)
        x = RNG.normal(size=(6, 3))
        for k in (1, 2, 3):
            hybrid = apply_filter(s, x, FilterConfig(order=k, hr=1.0))
            low = apply_filter(s, x, FilterConfig(order=k, family="low_pass"))
            assert np.allclose(hybrid, low)

    def test_hand_computed_two_node_case(self):
        s = np.array([[0.0, 1.0], [1.0, 0.0]])
        x = np.array([[1.0], [0.0]])
        out = apply_filter(s, x, FilterConfig(order=1, hr=0.5))
        assert np.allclose(out, [[0.5], [0.0]])

    def test_order_two_is_order_one_applied_twice(self):
        s = random_stochastic(7, RNG)
        x = RNG.normal(size=(7, 2))
        for family in ("low_pass", "high_pass"):
            once = FilterConfig(order=1, family=family)
            twice = FilterConfig(order=2, family=family)
            assert np.allclose(
                apply_filter(s, apply_filter(s, x, once), once),
                apply_filter(s, x, twice),
                atol=1e-12,
            )

    def test_linearity_in_hr(self):
        s = random_stochastic(9, RNG)
        x = RNG.normal(size=(9, 4))
        for beta in (0.0, 0.25, 0.5, 0.9, 1.0):
            cfg = FilterConfig(order=2, hr=beta)
            blended = beta * apply_filter(s, x, FilterConfig(order=2, hr=1.0)) + (
                1.0 - beta
            ) * apply_filter(s, x, FilterConfig(order=2, hr=0.0))
            assert np.abs(apply_filter(s, x, cfg) - blended).max() < 1e-10

    def test_constant_vector_preserved_and_annihilated(self):
        ones = np.ones((11, 1))
        for seed in range(5):
            s = random_stochastic(11, np.random.default_rng(seed))
            for k in (1, 2, 4):
                lp = apply_filter(s, ones, FilterConfig(order=k, family="low_pass"))
                hp = apply_filter(s, ones, FilterConfig(order=k, family="high_pass"))
                assert np.abs(lp - 1.0).max() < 1e-8
                assert np.abs(hp).max() < 1e-8

    def test_matches_materialized_filter_oracle(self):
        for seed in range(6):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 31))
            s = random_stochastic(n, rng)
            x = rng.normal(size=(n, 3))
            hr, k = float(rng.random()), int(rng.integers(1, 4))
            full = hr * np.linalg.matrix_power(s, k) + (1.0 - hr) * np.linalg.matrix_power(
                np.eye(n) - s, k
            )
            out = apply_filter(s, x, FilterConfig(order=k, hr=hr))
            assert np.abs(out - full @ x).max() < 1e-9

    def test_fixed_mix_matches_manual_blend(self):
        s = random_stochastic(5, RNG)
        x = RNG.normal(size=(5, 2))
        cfg = FilterConfig(order=2, family="fixed_mix", alpha=0.3)
        manual = 0.3 * apply_filter(s, x, FilterConfig(order=2, family="low_pass")) + 0.7 * apply_filter(
            s, x, FilterConfig(order=2, family="high_pass")
        )
        assert np.allclose(apply_filter(s, x, cfg), manual)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigError):
            FilterConfig(order=0)
        with pytest.raises(ConfigError):
            FilterConfig(hr=1.5)
        with pytest.raises(ConfigError):
            FilterConfig(family="band_pass")
        with pytest.raises(ConfigError):
            FilterConfig(family="fixed_mix", alpha=-0.1)
        with pytest.raises(ConfigError):
            FilterConfig(matrix_source="identity")


class TestPerViewEmbedding:
    def test_hr_zero_is_pure_high_pass(self):
        g = tiny_two_view()
        pair = EmbeddingPair(z_x=RNG.normal(size=(24, 4)), z_a=RNG.normal(size=(24, 4)))
        cfg = FilterConfig(order=2)
        out = per_view_embedding(g, 0, pair, 0.0, cfg)
        s_rw = build_joint_aggregation(pair)
        hp = apply_filter(s_rw, g.features, FilterConfig(order=2, family="high_pass"))
        assert np.allclose(out, hp)

    def test_raw_adjacency_order_one_is_neighbor_mean(self):
        g = tiny_two_view()
        pair = EmbeddingPair(z_x=np.zeros((24, 2)), z_a=np.zeros((24, 2)))
        cfg = FilterConfig(order=1, matrix_source="raw_adjacency")
        out = per_view_embedding(g, 1, pair, 1.0, cfg)
        a_rw = random_walk_normalize(g.adjacencies[1])
        assert np.allclose(out, a_rw @ g.features)

    def test_low_pass_smooths_within_classes(self):
        g = tiny_two_view(seed=5)
        a_rw = random_walk_normalize(g.adjacencies[0])
        smoothed = apply_filter(a_rw, g.features, FilterConfig(order=2, family="low_pass"))

        def within_class_scatter(x):
            total = 0.0
            for cls in range(g.n_clusters):
                rows = x[g.labels == cls]
                total += ((rows - rows.mean(axis=0)) ** 2).sum()
            return total

        assert within_class_scatter(smoothed) < within_class_scatter(g.features)

    def test_bad_hr_rejected(self):
        g = tiny_two_view()
        pair = EmbeddingPair(z_x=np.zeros((24, 2)), z_a=np.zeros((24, 2)))
        with pytest.raises(ConfigError):
            per_view_embedding(g, 0, pair, 1.5, FilterConfig())


class TestFrequencyResponse:
    def test_low_pass_line(self):
        lam, values = filter_frequency_response(FilterConfig(order=1, hr=1.0))
        assert values[lam == 0.0] == 1.0
        assert values[lam == 2.0] == -1.0

    def test_high_pass_is_identity_on_lambda(self):
        lam, values = filter_frequency_response(FilterConfig(order=1, hr=0.0))
        assert np.allclose(values, lam)

    def test_balanced_mix_at_unit_frequency(self):
        lam, values = filter_frequency_response(
            FilterConfig(order=1, hr=0.5), lambdas=np.array([1.0])
        )
        assert values[0] == pytest.approx(0.5)

    def test_families_agree_with_hybrid_extremes(self):
        lam = np.linspace(0, 2, 33)
        _, lp = filter_frequency_response(FilterConfig(order=3, family="low_pass"), lam)
        _, hybrid_lp = filter_frequency_response(FilterConfig(order=3, hr=1.0), lam)
        assert np.allclose(lp, hybrid_lp)
