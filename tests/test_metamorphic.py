"""Metamorphic checks: properties any correct filter, fusion or score has.

The fused kernel op and the Krylov basis have no slower twin for every
shape, so these checks state what must hold of any correct implementation
(Chen et al., *Metamorphic Testing: A Review of Challenges and
Opportunities*, ACM Computing Surveys 51(1), 2018):

- a row-stochastic kernel maps the all-ones signal to ``(sum_p c_p) 1``;
- a filter on a fixed kernel is linear in its signal;
- permuting the nodes permutes the filtered signal;
- swapping the views swaps the fusion weights and keeps the consensus;
- permuting the cluster ids keeps every score and the homophily ratios.

Each filter check runs on both matrix sources: the ``JointKernel`` op of an
embedding pair and the ``KrylovBasis`` of a random-walk adjacency. The
shapes reach past one Gram tile, so the mirrored tiles are walked too.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from gfclust import FilterConfig, MultiViewGraph, clustering, one_hot, random_walk_normalize
from gfclust.autograd import Tensor
from gfclust.filters import (
    _BLOCK_ROWS,
    FAMILIES,
    MATRIX_SOURCES,
    apply_filter_t,
    joint_aggregation_t,
    krylov_basis,
)
from gfclust.fusion import fuse_views_t, update_hr

TOL = 1e-12

sizes = st.integers(min_value=1, max_value=2 * _BLOCK_ROWS + 20)
orders = st.integers(min_value=1, max_value=4)
seeds = st.integers(min_value=0, max_value=2**31)
fractions = st.floats(min_value=0.0, max_value=1.0)
filter_configs = st.builds(FilterConfig, order=orders, hr=fractions,
                           family=st.sampled_from(FAMILIES), alpha=fractions)


def adjacency(n, rng):
    """A symmetric weighted adjacency with isolated nodes among its rows."""
    upper = sparse.random_array((n, n), density=min(1.0, 4.0 / n), random_state=rng)
    a = sparse.triu(upper, k=1)
    return (a + a.T).tocsr()


class Source:
    """One matrix source's kernel on ``n`` nodes, filtered on any signal.

    ``joint_aggregation`` fixes an embedding pair and builds its kernel per
    signal; ``raw_adjacency`` fixes a walk matrix and builds its basis on
    each signal, as the pipeline does on its features.
    """

    def __init__(self, source, n, latent, rng, order):
        self.source, self.order = source, order
        if source == "joint_aggregation":
            self.z_a, self.z_x = rng.normal(size=(n, latent)), rng.normal(size=(n, latent))
        else:
            self.walk = random_walk_normalize(adjacency(n, rng))

    def filter(self, x, cfg, perm=None):
        """``h(x)``; with ``perm`` the same kernel on the nodes taken in that order."""
        assert cfg.order == self.order
        if self.source == "joint_aggregation":
            z_a, z_x = (self.z_a, self.z_x) if perm is None else (self.z_a[perm], self.z_x[perm])
            kernel = joint_aggregation_t(Tensor(z_a), Tensor(z_x))
        else:
            walk = self.walk if perm is None else self.walk[perm][:, perm]
            kernel = krylov_basis(walk, x, cfg.order)
        return apply_filter_t(kernel, Tensor(x), cfg).data


def assert_close(actual, expected, scale=1.0):
    """``actual`` equals ``expected`` to ``TOL`` relative to ``scale`` (at least 1)."""
    np.testing.assert_allclose(actual, expected, rtol=0.0, atol=TOL * max(1.0, scale))


def constant_gain(cfg):
    """``sum_p c_p``, the filter's gain on a constant signal: ``(1 - 1)^k`` is 0."""
    return {"adaptive_hybrid": cfg.hr, "low_pass": 1.0, "high_pass": 0.0,
            "fixed_mix": cfg.alpha}[cfg.family]


class TestConstantSignal:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(MATRIX_SOURCES), sizes, st.integers(1, 6), st.integers(1, 4),
           filter_configs, seeds)
    @example("joint_aggregation", 2 * _BLOCK_ROWS + 3, 3, 2, FilterConfig(order=2, hr=0.3), 1)
    @example("raw_adjacency", 2 * _BLOCK_ROWS + 3, 3, 2, FilterConfig(order=2, hr=0.3), 1)
    def test_the_ones_signal_is_scaled_by_the_coefficient_sum(
        self, source, n, latent, width, cfg, seed
    ):
        kernel = Source(source, n, latent, np.random.default_rng(seed), cfg.order)
        h = kernel.filter(np.ones((n, width)), cfg)
        assert_close(h, np.full((n, width), constant_gain(cfg)))


class TestLinearity:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(MATRIX_SOURCES), sizes, st.integers(1, 6), st.integers(1, 4),
           filter_configs, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), seeds)
    @example("joint_aggregation", 2 * _BLOCK_ROWS + 3, 3, 2, FilterConfig(order=2), 1.5, -0.5, 2)
    @example("raw_adjacency", 2 * _BLOCK_ROWS + 3, 3, 2, FilterConfig(order=2), 1.5, -0.5, 2)
    def test_the_filter_of_a_combination_is_the_combination_of_the_filters(
        self, source, n, latent, width, cfg, alpha, beta, seed
    ):
        rng = np.random.default_rng(seed)
        kernel = Source(source, n, latent, rng, cfg.order)
        x, y = rng.normal(size=(n, width)), rng.normal(size=(n, width))
        hx, hy = kernel.filter(x, cfg), kernel.filter(y, cfg)
        scale = np.abs(alpha * hx).max() + np.abs(beta * hy).max()
        assert_close(kernel.filter(alpha * x + beta * y, cfg), alpha * hx + beta * hy, scale)


class TestNodePermutation:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(MATRIX_SOURCES), sizes, st.integers(1, 6), st.integers(1, 4),
           filter_configs, seeds)
    @example("joint_aggregation", 2 * _BLOCK_ROWS + 3, 3, 2, FilterConfig(order=2, hr=0.3), 3)
    @example("raw_adjacency", 2 * _BLOCK_ROWS + 3, 3, 2, FilterConfig(order=2, hr=0.3), 3)
    def test_permuted_nodes_give_the_permuted_signal(self, source, n, latent, width, cfg, seed):
        rng = np.random.default_rng(seed)
        kernel = Source(source, n, latent, rng, cfg.order)
        x, perm = rng.normal(size=(n, width)), rng.permutation(n)
        h = kernel.filter(x, cfg)
        assert_close(kernel.filter(x[perm], cfg, perm=perm), h[perm], np.abs(h).max())


class TestViewOrder:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 4), st.integers(1, 60), st.integers(1, 5),
           st.floats(0.25, 4.0), seeds)
    def test_permuted_views_permute_the_weights_and_keep_the_consensus(
        self, n_views, n, width, rho, seed
    ):
        rng = np.random.default_rng(seed)
        # one shared positive signal keeps every similarity positive
        base = 2.0 + rng.random((n, width))
        views = [base + rng.uniform(0.1, 0.5) * rng.normal(size=(n, width))
                 for _ in range(n_views)]
        order = rng.permutation(n_views) if n_views > 2 else np.array([1, 0])
        weights, h_bar = fuse_views_t([Tensor(h) for h in views], rho)
        swapped_weights, swapped_bar = fuse_views_t([Tensor(views[v]) for v in order], rho)
        assert_close(swapped_weights, weights[order])
        assert_close(swapped_bar.data, h_bar.data, np.abs(h_bar.data).max())


def relabeled_pair(n, c, seed):
    """Predicted and true labels on ``n >= c`` nodes, each using every id in
    ``[0, c)``, as a k-means result with no empty cluster and a ground truth
    do, and a permutation of the ``c`` ids."""
    rng = np.random.default_rng(seed)
    pred, truth = rng.integers(c, size=n), rng.integers(c, size=n)
    pred[:c] = rng.permutation(c)
    truth[:c] = rng.permutation(c)
    return pred, truth, rng.permutation(c)


class TestRelabeling:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 80), st.integers(2, 7), seeds)
    def test_the_scores_do_not_see_the_cluster_ids(self, extra, c, seed):
        pred, truth, perm = relabeled_pair(c + extra, c, seed)
        for relabeled in ((perm[pred], truth), (pred, perm[truth])):
            assert clustering.accuracy(*relabeled) == clustering.accuracy(pred, truth)
            for score in (clustering.nmi, clustering.ari, clustering.macro_f1):
                assert abs(score(*relabeled) - score(pred, truth)) <= TOL

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 80), st.integers(2, 7), st.integers(1, 3), seeds)
    def test_the_homophily_ratios_do_not_see_the_cluster_ids(self, extra, c, n_views, seed):
        n = c + extra
        rng = np.random.default_rng(seed)
        views = []
        for _ in range(n_views):
            upper = np.triu(rng.random((n, n)) < 0.3, k=1)
            upper[0, 1] = True  # keeps every view's ratio defined
            views.append((upper | upper.T).astype(float))
        g = MultiViewGraph(features=rng.normal(size=(n, 2)), adjacencies=views, n_clusters=c)
        pseudo, _, perm = relabeled_pair(n, c, seed)
        assert update_hr(g, one_hot(perm[pseudo], c)) == update_hr(g, one_hot(pseudo, c))

