import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfclust import (
    FilterConfig,
    build_joint_gram,
    random_walk_normalize,
)
from gfclust import filters
from gfclust.autograd import Tensor, no_grad
from gfclust.errors import ConfigError, DivergenceError, NumericsWarning
from gfclust.filters import (
    _BLOCK_ROWS,
    JointKernel,
    KrylovBasis,
    apply_filter_t,
    filter_coefficients,
    joint_aggregation_t,
    krylov_basis,
)

from helpers import tiny_two_view
from oracles import OracleTensor, lift, oracle_apply_filter_t, oracle_joint_aggregation_t

RNG = np.random.default_rng(21)


def random_stochastic(n, rng):
    m = rng.random((n, n)) + 0.05
    return m / m.sum(axis=1, keepdims=True)


def filtered(kernel, x, cfg):
    """The filtered constant signal ``x`` as a numpy array; a constant matrix
    filters through its Krylov basis on ``x``."""
    if not isinstance(kernel, (JointKernel, KrylovBasis)):
        kernel = krylov_basis(kernel, x, cfg.order)
    return apply_filter_t(kernel, Tensor(x), cfg).data


def oracle_s_rw(z_a, z_x):
    """The dense row-stochastic kernel of the taped oracle."""
    return oracle_joint_aggregation_t(Tensor(np.asarray(z_a)), Tensor(np.asarray(z_x))).data


class TestJointAggregation:
    def test_identity_pair(self):
        b = build_joint_gram(np.eye(2), np.eye(2))
        assert np.array_equal(b, (1.0 + 1e-8) * np.eye(2))

    def test_all_ones_pair(self):
        b = build_joint_gram([[1.0], [1.0]], [[1.0], [1.0]])
        assert np.array_equal(b, np.full((2, 2), 2.0) + 1e-8 * np.eye(2))

    def test_unequal_or_non_matrix_embeddings_raise(self):
        with pytest.raises(ValueError, match="equal 2-d shapes"):
            build_joint_gram(np.eye(3), np.eye(3)[:, :2])
        with pytest.raises(ValueError, match="equal 2-d shapes"):
            build_joint_gram(np.ones(3), np.ones(3))

    def test_gram_matches_triple_loop_oracle(self):
        z_a = RNG.normal(size=(5, 3))
        z_x = RNG.normal(size=(5, 3))
        b = build_joint_gram(z_a, z_x)
        z = z_a @ z_x.T
        oracle = np.zeros((5, 5))
        for i in range(5):
            for j in range(5):
                for k in range(5):
                    oracle[i, j] += z[i, k] * z[j, k]
        # clamp at zero, ridge the diagonal
        oracle = np.maximum(oracle, 0.0) + 1e-8 * np.eye(5)
        assert np.abs(b - oracle).max() < 1e-10 * np.abs(oracle).max()

    def test_s_rw_is_stochastic_on_many_pairs(self):
        # the walk of the Gram matrix is the oracle's row-stochastic kernel
        for seed in range(8):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(3, 40))
            z_x, z_a = rng.normal(size=(n, 4)), rng.normal(size=(n, 4))
            b = build_joint_gram(z_a, z_x)
            assert np.abs(b - b.T).max() <= 1e-12 * np.abs(b).max()
            s_rw = b / b.sum(axis=1, keepdims=True)
            assert np.abs(s_rw - oracle_s_rw(z_a, z_x)).max() < 1e-12
            assert np.abs(s_rw.sum(axis=1) - 1.0).max() < 1e-9
            assert s_rw.min() >= 0.0

    def test_gram_over_ragged_tiles_is_exactly_symmetric(self):
        n = 2 * _BLOCK_ROWS + 37
        rng = np.random.default_rng(11)
        z_a, z_x = rng.normal(size=(n, 5)), rng.normal(size=(n, 5))
        b = build_joint_gram(z_a, z_x)
        assert np.array_equal(b, b.T)
        s_rw = b / b.sum(axis=1, keepdims=True)
        assert np.abs(s_rw - oracle_s_rw(z_a, z_x)).max() < 1e-12

    def test_zero_row_warns_but_stays_stochastic(self):
        z_a = np.array([[0.0, 0.0], [1.0, 0.5]])
        z_x = RNG.normal(size=(2, 2))
        with pytest.warns(NumericsWarning, match="all-zero rows"):
            b = build_joint_gram(z_a, z_x)
        # the ridge alone keeps the zero row's sum positive
        assert b[0].tolist() == [1e-8, 0.0]
        assert (b.sum(axis=1) > 0.0).all()


FAMILY_CONFIGS = [
    FilterConfig(order=k, family=family, hr=0.3, alpha=0.8)
    for family in ("adaptive_hybrid", "low_pass", "high_pass", "fixed_mix")
    for k in (1, 2, 3)
]


def fused_filter(cfg, x):
    return lambda z_a, z_x: apply_filter_t(joint_aggregation_t(z_a, z_x), Tensor(x), cfg)


def taped_filter(cfg, x):
    return lambda z_a, z_x: oracle_apply_filter_t(
        oracle_joint_aggregation_t(z_a, z_x), Tensor(x), cfg
    )


def filter_and_grads(filter_fn, z_a, z_x, upstream):
    """The filtered signal and the gradients of ``<upstream, h>`` w.r.t. ``z_a`` and ``z_x``."""
    a, x = Tensor(z_a, requires_grad=True), Tensor(z_x, requires_grad=True)
    h = filter_fn(a, x)
    (OracleTensor(upstream) * h).sum().backward()
    return h.data, a.grad, x.grad


def assert_op_matches_oracle(n, latent, seed, cfgs=FAMILY_CONFIGS, width=3, zero_rows=()):
    """Forward and gradients of the fused op agree with the taped kernel and
    filter to 1e-10 relative, for every config in ``cfgs``.

    Each output is measured against its own largest entry, or against the
    scale the inputs give it when that is larger: ``max|x|`` for the filtered
    signal and ``max|upstream| max|x| / max|input|`` for a gradient. Where
    the filter or the row normalization cancels a result exactly (a high-pass
    of a near-constant signal, a row whose only positive entry is its
    diagonal), the taped oracle leaves rounding noise of that scale times the
    machine epsilon.
    """
    rng = np.random.default_rng(seed)
    z_a = rng.normal(size=(n, latent))
    z_a[list(zero_rows)] = 0.0
    z_x = rng.normal(size=(n, latent))
    x = rng.normal(size=(n, width))
    upstream = rng.normal(size=(n, width))
    scale = np.abs(upstream).max() * np.abs(x).max()
    floors = (np.abs(x).max(), scale / np.abs(z_a).max(), scale / np.abs(z_x).max())
    for cfg in cfgs:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NumericsWarning)
            got = filter_and_grads(fused_filter(cfg, x), z_a, z_x, upstream)
        want = filter_and_grads(taped_filter(cfg, x), z_a, z_x, upstream)
        for name, g, w, floor in zip(("h", "d z_a", "d z_x"), got, want, floors):
            assert g.shape == w.shape
            assert np.abs(g - w).max() <= 1e-10 * max(np.abs(w).max(), floor), (name, cfg)


def assert_zero_rows_warn_once(n, zero_rows):
    """Zeroed ``z_a`` rows give one NumericsWarning with their count, from the
    filter op (forward and backward) and from ``build_joint_gram`` alike, and
    the op still matches the taped oracle."""
    rng = np.random.default_rng(4)
    z_a = rng.normal(size=(n, 4))
    z_a[list(zero_rows)] = 0.0
    z_x = rng.normal(size=z_a.shape)
    a, zx = Tensor(z_a, requires_grad=True), Tensor(z_x, requires_grad=True)

    def filter_forward_and_backward():
        h = apply_filter_t(joint_aggregation_t(a, zx), Tensor(z_x), FilterConfig(order=3))
        lift(h).sum().backward()

    for run in (filter_forward_and_backward, lambda: build_joint_gram(z_a, z_x)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run()
        numerics = [w for w in caught if issubclass(w.category, NumericsWarning)]
        assert len(numerics) == 1
        assert str(numerics[0].message).startswith(f"{len(zero_rows)} all-zero rows")
    assert_op_matches_oracle(n, 4, seed=4, zero_rows=zero_rows)


def formed_tiles(monkeypatch, k, taped):
    """The ``(row start, row stop, col start, col stop)`` of every Gram tile an
    order-``k`` filter forms at n = 2 * block + 37, through its backward when
    ``taped``, and the 6 upper tiles of that n."""
    n = 2 * _BLOCK_ROWS + 37
    rng = np.random.default_rng(k)
    a = Tensor(rng.normal(size=(n, 4)), requires_grad=taped)
    zx = Tensor(rng.normal(size=(n, 4)), requires_grad=taped)
    x = Tensor(rng.normal(size=(n, 3)))
    formed = []
    gram_tile = filters._gram_tile

    def recording_tile(kernel, rows, cols):
        formed.append((rows.start, rows.stop, cols.start, cols.stop))
        return gram_tile(kernel, rows, cols)

    monkeypatch.setattr(filters, "_gram_tile", recording_tile)
    h = apply_filter_t(joint_aggregation_t(a, zx), x, FilterConfig(order=k))
    if taped:
        h.backward(rng.normal(size=h.shape))
        assert a.grad is not None and zx.grad is not None
    edges = [0, _BLOCK_ROWS, 2 * _BLOCK_ROWS, n]
    blocks = list(zip(edges[:-1], edges[1:]))
    upper = [rows + cols for i, rows in enumerate(blocks) for cols in blocks[i:]]
    assert len(upper) == 6
    return formed, upper


class TestJointAggregationOp:
    """The fused kernel-and-filter op against the taped composition it replaces."""

    @pytest.mark.parametrize(
        "n",
        [
            _BLOCK_ROWS // 2,
            _BLOCK_ROWS - 1,
            _BLOCK_ROWS,
            _BLOCK_ROWS + 1,
            _BLOCK_ROWS + 37,
            2 * _BLOCK_ROWS,
        ],
        ids=[
            "below-block",
            "one-short-of-a-block",
            "one-block",
            "one-past-a-block",
            "ragged-last-block",
            "whole-blocks",
        ],
    )
    def test_matches_taped_oracle(self, n):
        assert_op_matches_oracle(n, 5, seed=n)

    def test_zero_rows_warn_once_with_their_count(self):
        assert_zero_rows_warn_once(_BLOCK_ROWS + 9, (0, 3, _BLOCK_ROWS + 1))

    def test_zero_row_in_the_last_partial_tile_warns_once(self):
        assert_zero_rows_warn_once(2 * _BLOCK_ROWS + 37, (2 * _BLOCK_ROWS + 30,))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_forward_forms_each_upper_tile_once_per_pass(self, monkeypatch, k):
        formed, upper = formed_tiles(monkeypatch, k, taped=False)
        assert sorted(formed) == sorted(upper * k)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_forward_and_backward_form_each_upper_tile_2k_times(self, monkeypatch, k):
        # k forward passes, k - 1 backward products and one gradient walk,
        # every one over the same upper tiles and no other shape
        formed, upper = formed_tiles(monkeypatch, k, taped=True)
        assert sorted(formed) == sorted(upper * 2 * k)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=1, max_value=3 * _BLOCK_ROWS),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=4),
        st.sampled_from(FAMILY_CONFIGS),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_matches_taped_oracle_on_random_shapes(self, n, latent, width, cfg, hr, seed):
        assert_op_matches_oracle(n, latent, seed, cfgs=[replace(cfg, hr=hr)], width=width)

    def test_detached_kernel_gives_the_same_signal_and_no_gradient(self):
        rng = np.random.default_rng(8)
        a = Tensor(rng.normal(size=(40, 3)), requires_grad=True)
        zx = Tensor(rng.normal(size=(40, 3)), requires_grad=True)
        x = Tensor(rng.normal(size=(40, 2)))
        kernel = joint_aggregation_t(a, zx)
        cfg = FilterConfig(order=2, hr=0.7)
        with no_grad():
            detached = apply_filter_t(kernel, x, cfg)
        assert not detached.requires_grad
        assert np.array_equal(detached.data, apply_filter_t(kernel, x, cfg).data)

    def test_kernel_keeps_the_shape_of_s(self):
        kernel = joint_aggregation_t(Tensor(np.ones((7, 2))), Tensor(np.ones((5, 2))))
        assert kernel.shape == (7, 7)

    def test_signal_that_requires_grad_is_rejected(self):
        rng = np.random.default_rng(2)
        kernel = joint_aggregation_t(Tensor(rng.normal(size=(6, 2))), Tensor(rng.normal(size=(6, 2))))
        x = Tensor(rng.normal(size=(6, 2)), requires_grad=True)
        for k in (kernel, random_stochastic(6, rng)):
            with pytest.raises(ValueError, match="constant"):
                apply_filter_t(k, x, FilterConfig())

    def test_overflowing_gram_raises_divergence(self):
        z = Tensor(np.full((5, 2), 1e120))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warning escapes
            with pytest.raises(DivergenceError, match="non-finite"):
                apply_filter_t(joint_aggregation_t(z, z), Tensor(np.ones((5, 1))), FilterConfig())
            with pytest.raises(DivergenceError, match="non-finite"):
                build_joint_gram(z.data, z.data)

    def test_forward_and_backward_form_no_n_by_n_array(self):
        # l=16, d=32, order 2 at n=1200: the taped kernel and filter peak at
        # about 4.4 n x n arrays (s_rw, its gradient and the filter's outer products)
        n = 1200
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(n, 16)), requires_grad=True)
        zx = Tensor(rng.normal(size=(n, 16)), requires_grad=True)
        x = Tensor(rng.normal(size=(n, 32)))
        upstream = OracleTensor(rng.normal(size=(n, 32)))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            h = apply_filter_t(joint_aggregation_t(a, zx), x, FilterConfig(order=2))
            (upstream * h).sum().backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - base) / (8.0 * n * n) < 1.0

    def test_backward_scratch_is_a_few_signals(self):
        # l=16, d=32, order 2 at n=1200: in 128 x n row blocks, with one
        # block buffer and one mask, one backward call peaked at 11.0 n x d;
        # the tile walk holds the stacked [B_1 | B_2 | -t] / r and
        # [Y_0 | Y_1 | 1] and small tiles, and peaks at 6.4
        n, d = 1200, 32
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(n, 16)), requires_grad=True)
        zx = Tensor(rng.normal(size=(n, 16)), requires_grad=True)
        h = apply_filter_t(joint_aggregation_t(a, zx), Tensor(rng.normal(size=(n, d))),
                           FilterConfig(order=2))
        upstream = rng.normal(size=(n, d))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            h.backward(upstream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert a.grad.shape == (n, 16) and zx.grad.shape == (n, 16)
        assert (peak - base) / (8.0 * n * d) < 8.0

    def test_detached_forward_scratch_is_a_few_signals(self):
        # l=16, d=32, order 2 at n=2000: a forward in 128 x n row blocks
        # peaked at 9.0 n x d; over 128 x 128 tiles it peaks at 5.0 n x d,
        # mostly the ones-extended signal, the pass outputs and the filter sum
        n, d = 2000, 32
        rng = np.random.default_rng(0)
        kernel = joint_aggregation_t(Tensor(rng.normal(size=(n, 16))), Tensor(rng.normal(size=(n, 16))))
        x = Tensor(rng.normal(size=(n, d)))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with no_grad():
                apply_filter_t(kernel, x, FilterConfig(order=2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - base) / (8.0 * n * d) < 6.0


class TestApplyFilter:
    def test_hr_one_equals_pure_low_pass(self):
        s = random_stochastic(6, RNG)
        x = RNG.normal(size=(6, 3))
        for k in (1, 2, 3):
            hybrid = filtered(s, x, FilterConfig(order=k, hr=1.0))
            low = filtered(s, x, FilterConfig(order=k, family="low_pass"))
            assert np.allclose(hybrid, low)

    def test_hand_computed_two_node_case(self):
        s = np.array([[0.0, 1.0], [1.0, 0.0]])
        x = np.array([[1.0], [0.0]])
        out = filtered(s, x, FilterConfig(order=1, hr=0.5))
        assert np.allclose(out, [[0.5], [0.0]])

    def test_order_two_is_order_one_applied_twice(self):
        s = random_stochastic(7, RNG)
        x = RNG.normal(size=(7, 2))
        for family in ("low_pass", "high_pass"):
            once = FilterConfig(order=1, family=family)
            twice = FilterConfig(order=2, family=family)
            assert np.allclose(
                filtered(s, filtered(s, x, once), once),
                filtered(s, x, twice),
                atol=1e-12,
            )

    def test_linearity_in_hr(self):
        s = random_stochastic(9, RNG)
        x = RNG.normal(size=(9, 4))
        for beta in (0.0, 0.25, 0.5, 0.9, 1.0):
            cfg = FilterConfig(order=2, hr=beta)
            blended = beta * filtered(s, x, FilterConfig(order=2, hr=1.0)) + (
                1.0 - beta
            ) * filtered(s, x, FilterConfig(order=2, hr=0.0))
            assert np.abs(filtered(s, x, cfg) - blended).max() < 1e-10

    def test_constant_vector_preserved_and_annihilated(self):
        ones = np.ones((11, 1))
        for seed in range(5):
            s = random_stochastic(11, np.random.default_rng(seed))
            for k in (1, 2, 4):
                lp = filtered(s, ones, FilterConfig(order=k, family="low_pass"))
                hp = filtered(s, ones, FilterConfig(order=k, family="high_pass"))
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
            out = filtered(s, x, FilterConfig(order=k, hr=hr))
            assert np.abs(out - full @ x).max() < 1e-9

    def test_fixed_mix_matches_manual_blend(self):
        s = random_stochastic(5, RNG)
        x = RNG.normal(size=(5, 2))
        cfg = FilterConfig(order=2, family="fixed_mix", alpha=0.3)
        manual = 0.3 * filtered(s, x, FilterConfig(order=2, family="low_pass")) + 0.7 * filtered(
            s, x, FilterConfig(order=2, family="high_pass")
        )
        assert np.allclose(filtered(s, x, cfg), manual)

    def test_coefficients_are_the_expanded_polynomial(self):
        assert filter_coefficients(FilterConfig(order=3, family="low_pass")).tolist() == [0, 0, 0, 1]
        assert filter_coefficients(FilterConfig(order=3, family="high_pass")).tolist() == [1, -3, 3, -1]
        # 0.3 S^2 + 0.7 (I - S)^2 and 0.8 S + 0.2 (I - S)
        assert np.allclose(filter_coefficients(FilterConfig(order=2, hr=0.3)), [0.7, -1.4, 1.0])
        fixed = FilterConfig(order=1, family="fixed_mix", hr=0.1, alpha=0.8)
        assert np.allclose(filter_coefficients(fixed), [0.2, 0.6])

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


def interleaved_filter(matrix, x, cfg):
    """The filter of a constant matrix with each product taken as its term is
    added, ``h = c_0 x``, then ``y = S y`` and ``h = h + c_p y`` for each ``p``."""
    coeffs = filter_coefficients(cfg)
    y, h = x, coeffs[0] * x
    for c_p in coeffs[1:]:
        y = matrix @ y
        h = h + c_p * y
    return h


class TestKrylovBasis:
    @pytest.mark.parametrize("layout", ["csr", "dense"])
    def test_basis_gives_the_bits_of_the_interleaved_matrix_filter(self, layout):
        g = tiny_two_view(seed=4)
        a_rw = random_walk_normalize(g.adjacencies[0])
        matrix = a_rw if layout == "csr" else a_rw.toarray()
        x = g.features
        for k in (1, 2, 3):
            basis = krylov_basis(matrix, x, k)  # one basis serves every family and hr
            assert basis.order == k and basis.shape == (g.n_nodes, g.n_nodes)
            cfgs = [c for c in FAMILY_CONFIGS if c.order == k] + [FilterConfig(order=k, hr=1.0)]
            for cfg in cfgs:
                assert np.array_equal(filtered(basis, x, cfg), interleaved_filter(matrix, x, cfg))

    def test_a_plain_matrix_is_refused(self):
        s = random_stochastic(5, RNG)
        with pytest.raises(TypeError, match="JointKernel or a KrylovBasis, got ndarray"):
            apply_filter_t(s, Tensor(RNG.normal(size=(5, 2))), FilterConfig())

    def test_powers_are_read_only(self):
        basis = krylov_basis(random_stochastic(5, RNG), RNG.normal(size=(5, 2)), 2)
        assert isinstance(basis, KrylovBasis) and len(basis.powers) == 2
        with pytest.raises(ValueError):
            basis.powers[0][0, 0] = 1.0

    def test_mismatched_basis_is_rejected(self):
        s = random_stochastic(6, RNG)
        x = RNG.normal(size=(6, 2))
        basis = krylov_basis(s, x, 2)
        with pytest.raises(ValueError, match="order 2, the filter 3"):
            apply_filter_t(basis, Tensor(x), FilterConfig(order=3))
        with pytest.raises(ValueError, match="signal shape"):
            apply_filter_t(basis, Tensor(x[:, :1]), FilterConfig(order=2))
        with pytest.raises(ValueError, match="signal shape"):
            apply_filter_t(basis, Tensor(x[:5]), FilterConfig(order=2))
        with pytest.raises(ValueError, match="order >= 1"):
            krylov_basis(s, x, 0)


class TestPerViewEmbedding:
    def test_hr_zero_is_pure_high_pass(self):
        g = tiny_two_view()
        z_x, z_a = RNG.normal(size=(24, 4)), RNG.normal(size=(24, 4))
        kernel = joint_aggregation_t(Tensor(z_a), Tensor(z_x))
        out = filtered(kernel, g.features, FilterConfig(order=2, hr=0.0))
        hp = filtered(oracle_s_rw(z_a, z_x), g.features, FilterConfig(order=2, family="high_pass"))
        assert np.allclose(out, hp)

    def test_raw_adjacency_order_one_is_neighbor_mean(self):
        g = tiny_two_view()
        cfg = FilterConfig(order=1, hr=1.0, matrix_source="raw_adjacency")
        out = filtered(random_walk_normalize(g.adjacencies[1]), g.features, cfg)
        a = g.adjacencies[1].toarray()
        for i in range(g.n_nodes):
            neighbors = np.flatnonzero(a[i])
            expected = g.features[neighbors].mean(axis=0) if neighbors.size else g.features[i]
            assert np.allclose(out[i], expected)

    def test_low_pass_smooths_within_classes(self):
        g = tiny_two_view(seed=5)
        a_rw = random_walk_normalize(g.adjacencies[0])
        smoothed = filtered(a_rw, g.features, FilterConfig(order=2, family="low_pass"))

        def within_class_scatter(x):
            total = 0.0
            for cls in range(g.n_clusters):
                rows = x[g.labels == cls]
                total += ((rows - rows.mean(axis=0)) ** 2).sum()
            return total

        assert within_class_scatter(smoothed) < within_class_scatter(g.features)


def frequency_response(cfg, lambdas=np.linspace(0.0, 2.0, 201)):
    """``(lambda, g(lambda))``: the filter polynomial at the kernel eigenvalue
    ``1 - lambda``, for the hybrid hr (1-lambda)^k + (1-hr) lambda^k."""
    lam = np.asarray(lambdas, dtype=np.float64)
    return lam, np.polynomial.polynomial.polyval(1.0 - lam, filter_coefficients(cfg))


class TestFrequencyResponse:
    """``filter_coefficients`` seen through the response of its polynomial."""

    def test_low_pass_line(self):
        lam, values = frequency_response(FilterConfig(order=1, hr=1.0))
        assert values[lam == 0.0] == 1.0
        assert values[lam == 2.0] == -1.0

    def test_high_pass_is_identity_on_lambda(self):
        lam, values = frequency_response(FilterConfig(order=1, hr=0.0))
        assert np.allclose(values, lam)

    def test_balanced_mix_at_unit_frequency(self):
        lam, values = frequency_response(FilterConfig(order=1, hr=0.5), lambdas=np.array([1.0]))
        assert values[0] == pytest.approx(0.5)

    def test_families_agree_with_hybrid_extremes(self):
        lam = np.linspace(0, 2, 33)
        _, lp = frequency_response(FilterConfig(order=3, family="low_pass"), lam)
        _, hybrid_lp = frequency_response(FilterConfig(order=3, hr=1.0), lam)
        assert np.allclose(lp, hybrid_lp)
