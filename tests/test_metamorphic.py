"""Metamorphic checks: properties any correct filter, fusion or score has.

The fused kernel op and the Krylov basis have no slower twin for every
shape, so these checks state what must hold of any correct implementation
(Chen et al., *Metamorphic Testing: A Review of Challenges and
Opportunities*, ACM Computing Surveys 51(1), 2018):

- a row-stochastic kernel maps the all-ones signal to ``(sum_p c_p) 1``;
- a filter on a fixed kernel is linear in its signal;
- permuting the nodes permutes the filtered signal, and permuting them
  through one ``TrainingPipeline.epoch_forward`` permutes ``h``, the
  consensus and the targets and keeps the loss and the fusion weights;
- swapping the views swaps the fusion weights and keeps the consensus, also
  through one ``epoch_forward``, whose loss it keeps too;
- permuting the cluster ids keeps every score and the homophily ratios,
  also when the labels leave some ids unused.

Each filter and ``epoch_forward`` check runs on both matrix sources: the
``JointKernel`` op of an embedding pair and the ``KrylovBasis`` of a
random-walk adjacency. The shapes reach past one Gram tile, so the mirrored
tiles are walked too.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from gfclust import (
    EncoderConfig,
    FilterConfig,
    MultiViewGraph,
    SyntheticSpec,
    TrainConfig,
    TrainingPipeline,
    clustering,
    generate_synthetic,
    one_hot,
    random_walk_normalize,
)
from gfclust.autograd import Tensor
from gfclust.encoders import AutoEncoderParams
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


def small_graph(n, n_views, seed):
    """A 3-class SBM on ``n >= 30`` nodes whose every view has edges."""
    spec = SyntheticSpec(n_nodes=n, n_clusters=3, n_views=n_views, n_features=4,
                         p_in=0.3, p_out=0.05, seed=seed)
    return generate_synthetic(spec)


def pipeline(g, source):
    """A pipeline on ``g`` that pretrains its encoders for two epochs."""
    cfg = TrainConfig(epochs=1, filter=FilterConfig(order=2, matrix_source=source),
                      encoder=EncoderConfig(latent_dim=3, hidden_dim=6, epochs=2))
    return TrainingPipeline(g, cfg)


def moved_pipeline(pipe, g, models, hr, centers_per_view):
    """A pipeline on the moved graph ``g`` that forwards with ``models``,
    ``hr``, ``centers_per_view`` and ``pipe``'s consensus centers, in place
    of what its own construction trained and clustered."""
    moved = TrainingPipeline(g, pipe.cfg)
    moved.models, moved.hr = models, hr
    moved.centers_per_view, moved.centers_bar = centers_per_view, pipe.centers_bar
    return moved


def node_permuted(params, perm):
    """The adjacency autoencoder ``params`` on the nodes taken in the order
    ``perm``: its first layer's rows and its last layer's columns and bias."""
    (w_in, b_in), *encoder = params.encoder_layers
    *decoder, (w_out, b_out) = params.decoder_layers
    w_in, w_out, b_out = (Tensor(x, requires_grad=True)
                          for x in (w_in.data[perm], w_out.data[:, perm], b_out.data[perm]))
    return AutoEncoderParams([(w_in, b_in), *encoder], [*decoder, (w_out, b_out)],
                             params.activation)


def assert_same_loss(moved, fwd):
    """Both forwards computed no loss, or equal losses to ``TOL`` relative."""
    if fwd.loss is None:
        assert moved.loss is None
    else:
        loss = float(fwd.loss.data)
        assert abs(float(moved.loss.data) - loss) <= TOL * abs(loss)


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

    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from(MATRIX_SOURCES), st.integers(30, 2 * _BLOCK_ROWS + 20), seeds)
    @example("joint_aggregation", 2 * _BLOCK_ROWS + 3, 3)
    @example("raw_adjacency", 2 * _BLOCK_ROWS + 3, 3)
    def test_an_epoch_forward_permutes_h_the_consensus_and_the_targets(self, source, n, seed):
        g = small_graph(n, 2, seed)
        perm = np.random.default_rng(seed).permutation(n)
        moved_g = MultiViewGraph(features=g.features[perm], n_clusters=g.n_clusters,
                                 adjacencies=[a[perm][:, perm] for a in g.adjacencies])
        pipe = pipeline(g, source)
        models = None if pipe.models is None else [
            (params_x, node_permuted(params_a, perm)) for params_x, params_a in pipe.models
        ]
        moved = moved_pipeline(pipe, moved_g, models, list(pipe.hr), pipe.centers_per_view)
        fwd = pipe.epoch_forward()
        targets = None  # the raw path computes none
        if fwd.targets is not None:
            p_views, p_bar = fwd.targets
            targets = [p[perm] for p in p_views], p_bar[perm]
            own_views, own_bar = moved.epoch_forward().targets
            for own, target in zip([*own_views, own_bar], [*targets[0], targets[1]], strict=True):
                assert_close(own, target)
        frozen = moved.epoch_forward(targets=targets)
        for h_moved, h in zip(frozen.h_views, fwd.h_views, strict=True):
            assert_close(h_moved.data, h.data[perm], np.abs(h.data).max())
        assert_close(frozen.h_bar.data, fwd.h_bar.data[perm], np.abs(fwd.h_bar.data).max())
        assert_close(frozen.weights, fwd.weights)
        assert_same_loss(frozen, fwd)


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

    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from(MATRIX_SOURCES), st.integers(30, 80), st.integers(2, 3), seeds)
    def test_an_epoch_forward_swaps_the_weights_and_keeps_the_consensus_and_loss(
        self, source, n, n_views, seed
    ):
        g = small_graph(n, n_views, seed)
        order = np.roll(np.arange(n_views), 1)
        moved_g = MultiViewGraph(features=g.features, n_clusters=g.n_clusters,
                                 adjacencies=[g.adjacencies[v] for v in order])
        pipe = pipeline(g, source)

        def swapped(per_view):
            return None if per_view is None else [per_view[v] for v in order]

        moved = moved_pipeline(pipe, moved_g, swapped(pipe.models), swapped(pipe.hr),
                               swapped(pipe.centers_per_view))
        fwd = pipe.epoch_forward()
        targets = None  # the raw path computes none
        if fwd.targets is not None:
            p_views, p_bar = fwd.targets
            targets = swapped(p_views), p_bar
        frozen = moved.epoch_forward(targets=targets)
        for v, h in zip(order, frozen.h_views, strict=True):
            assert_close(h.data, fwd.h_views[v].data, np.abs(fwd.h_views[v].data).max())
        assert_close(frozen.weights, fwd.weights[order])
        assert_close(frozen.h_bar.data, fwd.h_bar.data, np.abs(fwd.h_bar.data).max())
        assert_same_loss(frozen, fwd)


def relabeled_pair(n, c, seed, spare=0):
    """Predicted and true labels on ``n >= c`` nodes, each using ``c`` of the
    ids ``[0, c + spare)``, and a permutation of those ``c + spare`` ids. With
    ``spare`` at 0 both use every id in ``[0, c)``, as a k-means result with
    no empty cluster and a ground truth do."""
    rng = np.random.default_rng(seed)

    def labels():
        used = rng.choice(c + spare, size=c, replace=False)
        out = used[rng.integers(c, size=n)]
        out[:c] = rng.permutation(used)
        return out

    return labels(), labels(), rng.permutation(c + spare)


class TestRelabeling:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 80), st.integers(2, 7), st.integers(0, 3), seeds)
    def test_the_scores_do_not_see_the_cluster_ids(self, extra, c, spare, seed):
        pred, truth, perm = relabeled_pair(c + extra, c, seed, spare)
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

