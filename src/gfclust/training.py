"""End-to-end training: pretraining, filtered fusion, hr adaptation, KL alignment.

The per-epoch objective is assembled as one differentiable graph
(reconstruction + KL alignment) whose gradients reach the encoder parameters
through the joint aggregation kernel, the hybrid filter and the fusion weights.
Each view's adjacency term is ``adjacency_loss_t`` on the graph's own CSR
view and the ``z_a`` the epoch already encoded, with no n x n decode.
Each view's kernel and hybrid filter are one autograd op: ``joint_aggregation_t``
returns the factored kernel and ``apply_filter_t`` evaluates the filter
polynomial on it in tiles of the Gram matrix ``z_a (z_x^T z_x) z_a^T``,
O(n^2 (l + d)) per product, so no n x n array is formed in the joint epochs
and the kernel's gradients are kept at every size. Only the KL term needs
them, so with ``gamma_kl`` at 0, or ``detach_s`` set (off by default), the
op runs forward only, under ``no_grad``. The ``raw_adjacency`` ablation
filters with each view's random-walk matrix, a constant, so the pipeline
builds each view's Krylov basis ``S x .. S^k x`` of the features once, on
construction, and keeps the basis, not the walk matrix: its forward passes
run no walk product. Its filter reads no embedding, and its ``h`` depends
only on ``hr``, so nothing an autoencoder learns could reach its result:
the raw path builds no autoencoders, encodes nothing, computes no loss and
takes no backward or optimizer step. Its forward is then a pure function of
each view's filter coefficients, so a raw forward is computed once per
coefficient state and returned again while the coefficients stay the same:
a run filters and fuses once per refresh that moves them, not once per
epoch. ``update_hr`` reads the graph's CSR views. Pseudo-labels, homophily
ratios and cluster centers are constants between refreshes. ``pretrain``
trains each view's two autoencoders with one Adam (``pretrain_view``) on
the ops the joint epochs score them with, and nothing else, which is all
``gfclust spectrum`` needs. ``TrainingPipeline``
owns the whole run: pretraining and the bootstrap clustering on
construction, then ``fit`` runs the joint epochs with its own Adam
optimizer, the refresh cadence, the divergence check and the epoch records,
and ends with the final clustering. A ``DivergenceError`` from either stage
carries the partial report so far (``"final": null``); one from the joint
stage names its epoch and sets ``last_epoch`` to the last epoch recorded.
The kernel raises it itself when the Gram matrix overflows. Both stages, and
their view threads, run under one numerics guard (``_numerics_guard``), so
an overflow shows only as a DivergenceError, never as a numpy warning.
One tape is alive at a time, and its backward consumes it: a pretraining
epoch walks its feature term before it scores its adjacency term, and each
joint epoch runs in ``_step``, whose backward walk frees what each op kept
once that op's backward has run, and which releases the gradients once Adam
has used them. The bootstrap and final forwards, which nothing walks, run
under ``no_grad``, and a refresh re-clusters plain arrays (the consensus and
the per-view embeddings), so an epoch never shares memory with an earlier
tape.
The views are independent up to ``fuse_views_t``, so on the kernel path
they run concurrently (``_for_each_view``): each view's pretraining, each
view's part of a forward pass (its encoders, reconstruction terms, kernel
and filter) and that part's backward, each O(n^2 (l + d)) work per view.
The ``raw_adjacency`` forward filters its views on the calling thread, in
view order: a view's part there is a few n x d adds of its basis, less work
than starting and joining a thread. A step's one ``backward`` call walks the
shared top of the tape (the loss sums, the KL terms and the fusion) on the
calling thread, down to each view's outputs, its two reconstruction terms
and its filtered ``h``; each view's branch behind them (the filter's kernel
backward and both encoders) is then walked on that view's thread, and a
view's gradients land in its own parameters only. With BLAS pinned to one
thread, the other cores are otherwise idle, and numpy and scipy release the
GIL in their sparse and dense products and large ufuncs. Fusion, the KL
terms, the top of the backward pass, Adam and k-means stay on the calling
thread. A view's arithmetic does not depend on the thread that runs it, and
its results are taken, and its loss terms summed, in view order, so a
report is byte-identical whatever the thread count.
"""

from __future__ import annotations

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from itertools import takewhile

import numpy as np

from . import clustering
from .autograd import Adam, Tensor, no_grad
from .clustering import class_means, kmeans
from .encoders import (
    EncoderConfig,
    adjacency_constants,
    adjacency_input,
    adjacency_loss_t,
    decode_t,
    encode_t,
    init_autoencoder,
    mse_t,
)
from .errors import ConfigError, DivergenceError, check_integers, check_reals
from .filters import (
    FilterConfig,
    apply_filter_t,
    filter_coefficients,
    joint_aggregation_t,
    krylov_basis,
)
from .fusion import fuse_views_t, kl_terms_t, soft_assignment_t, target_distribution, update_hr
from .graphs import MultiViewGraph, is_edgeless, one_hot, random_walk_normalize

__all__ = [
    "TrainConfig",
    "FusionState",
    "TrainReport",
    "TrainingPipeline",
    "pretrain_view",
    "pretrain",
    "train",
]

@dataclass
class TrainConfig:
    """Settings of one run. With ``filter.matrix_source == "raw_adjacency"``
    nothing is trained, so ``gamma_rec``, ``gamma_kl``, ``encoder`` and
    ``learning_rate`` have no effect there (the ``no_rec`` and ``no_kl``
    ablations are identities on that path).

    ``detach_s`` runs the kernel and filter forward-only, so no gradient
    reaches the encoders through the KL term: it trains exactly what
    ``gamma_kl=0`` (the ``no_kl`` ablation) trains, with the KL value still
    computed and logged in each epoch's ``l_kl`` and ``l_total``. Its quality
    figures are those of ``no_kl``."""

    epochs: int = 200
    hr_refresh_interval: int = 5
    rho: float = 1.0
    gamma_rec: float = 1.0
    gamma_kl: float = 0.1
    filter: FilterConfig = field(default_factory=FilterConfig)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    seed: int = 0
    detach_s: bool = False
    learning_rate: float | None = None  # None -> encoder.learning_rate
    kmeans_restarts: int = 4

    def __post_init__(self):
        check_integers(self, "epochs", "seed", low=0)
        check_integers(self, "hr_refresh_interval", "kmeans_restarts", low=1)
        check_reals(self, "rho", "gamma_rec", "gamma_kl", low=0.0)
        if self.learning_rate is not None:
            check_reals(self, "learning_rate", low=0.0, open_low=True)
        if not isinstance(self.detach_s, bool):
            raise ConfigError("detach_s must be true or false")


@dataclass
class FusionState:
    """Final snapshot of the fused model: embeddings, weights, labels, hr."""

    per_view_embeddings: list
    weights: np.ndarray
    consensus: np.ndarray
    labels_one_hot: np.ndarray  # final k-means labels, (n, c)
    hr_per_view: list


@dataclass
class TrainReport:
    """Per-epoch losses and trajectories plus final metrics.

    ``state`` carries the final FusionState for downstream use; it is not part
    of the serialized report. ``final`` is None in the partial report a
    ``DivergenceError`` carries. The ``raw_adjacency`` ablation trains
    nothing, so its ``pretrain`` is empty and every epoch's ``l_rec``,
    ``l_kl`` and ``l_total`` is None; its ``hr`` and ``weights`` are kept.
    """

    epochs: list
    final: dict | None
    pretrain: list
    state: FusionState | None = None

    def to_dict(self) -> dict:
        return {"epochs": self.epochs, "final": self.final, "pretrain": self.pretrain}


@dataclass
class _Forward:
    loss: Tensor | None  # None, as are l_rec and l_kl, when no loss was computed
    l_rec: float | None
    l_kl: float | None
    h_views: list
    h_bar: Tensor
    weights: np.ndarray
    targets: tuple | None
    branches: list  # per view: its reconstruction terms and h, its backward branch


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _for_each_view(fn, n_views: int) -> list:
    """``[fn(0), ..., fn(n_views - 1)]``, the views run concurrently.

    The kernel path's pretraining, forward and backward branches run their
    views through it, since each view's part there is O(n^2 (l + d)) work;
    the ``raw_adjacency`` forward does not, since a view's part there, a few
    n x d adds, costs less than the pool's start and join. View 0 runs on
    the calling thread, views 1.. on ``min(n_views, usable CPUs) - 1``
    workers of a pool that lives for this call; with one usable CPU or one
    view every call runs inline, in view order. Each worker task
    runs in a copy of the caller's context, so the caller's ``np.errstate``
    and ``no_grad`` hold there too. The first failure in view order is raised
    once the views already started have finished; views not started by then
    are dropped.
    """
    workers = min(n_views, _usable_cpus()) - 1
    if workers < 1:
        return [fn(view) for view in range(n_views)]
    pool = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="gfclust-view")
    try:
        futures = [
            pool.submit(contextvars.copy_context().run, fn, view) for view in range(1, n_views)
        ]
        results = [fn(0)]
        results.extend(future.result() for future in futures)
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    return results


def _numerics_guard():
    """numpy's overflow warnings off: training reports them as DivergenceError."""
    return np.errstate(over="ignore", invalid="ignore")


def _walked(loss, epoch: int) -> float:
    """Score ``loss()``, raise DivergenceError if it is not finite, and walk
    its backward; returns its value. The walk consumes the tape."""
    value = loss()
    if not np.isfinite(value.data):
        raise DivergenceError(f"autoencoder loss diverged at epoch {epoch}", last_epoch=epoch - 1)
    value.backward()
    return float(value.data)


def pretrain_view(x: np.ndarray, a, config: EncoderConfig, seed: int,
                  constants: tuple | None = None) -> tuple:
    """Init and train one view's two autoencoders from ``seed``; returns
    ``(params_x, params_a, history)``.

    One full-batch Adam runs over both autoencoders' parameters. Adam is
    elementwise and the two parameter sets are disjoint, so its steps are
    those of one Adam per autoencoder. Each epoch scores and walks the
    feature term ``mse_t`` of the dense decode, then the adjacency term
    ``adjacency_loss_t``, one tape at a time, takes one step and releases
    the gradients, so the trained parameters hold no ``grad``; its history
    entry is the sum of the two terms. ``a`` is dense or sparse; it is
    trained on as ``adjacency_input`` gives it, so under either loss no
    n x n array is formed. The adjacency term reads ``a``'s
    ``adjacency_constants`` from ``constants``, or computes them once when it
    is None, so no epoch recomputes them. ``pretrain`` makes one call per view,
    concurrently: a call only reads ``x`` and ``a`` and writes nothing but
    the parameters it creates, so its result is the same on any thread.
    """
    x = np.asarray(x, dtype=np.float64)
    a = adjacency_input(a)
    if constants is None:
        constants = adjacency_constants(a)
    hidden = config.resolved_hidden_dim()
    params_x, params_a = (
        init_autoencoder(data.shape[1], config.latent_dim, hidden,
                         np.random.default_rng(child), config.activation)
        for data, child in zip((x, a), np.random.SeedSequence(seed).spawn(2))
    )
    opt = Adam(params_x.parameters() + params_a.parameters(), lr=config.learning_rate)
    history = []
    with _numerics_guard():
        for epoch in range(config.epochs):
            try:
                l_x = _walked(lambda: mse_t(decode_t(params_x, encode_t(params_x, x)), x), epoch)
                l_a = _walked(
                    lambda: adjacency_loss_t(params_a, encode_t(params_a, a), a, constants), epoch)
                opt.step()
            finally:
                opt.zero_grad()
            history.append(l_x + l_a)
    return params_x, params_a, history


def pretrain(g: MultiViewGraph, cfg: TrainConfig, constants: list | None = None) -> tuple:
    """Pretrain every view's two autoencoders; returns (models, history).

    ``models`` holds one ``(params_x, params_a)`` pair per view and
    ``history`` one ``{"view", "l_rec"}`` record per view. View v trains
    from the v-th child of the first of two children of
    ``SeedSequence(cfg.seed)``; the pipeline's k-means draws from the second.
    The views train concurrently (``_for_each_view``), each through one
    ``pretrain_view`` call, given the view's entry of ``constants`` (its
    ``adjacency_constants``) when that list is given; a view's result depends
    only on its seed, so
    neither the models nor the history depend on the thread count.
    A DivergenceError carries the partial report with the views before the
    first view, in view order, that diverged.
    """
    enc_seq = np.random.SeedSequence(cfg.seed).spawn(2)[0]
    seeds = [int(child.generate_state(1)[0]) for child in enc_seq.spawn(g.n_views)]
    records = [None] * g.n_views

    def one_view(view):
        params_x, params_a, l_rec = pretrain_view(
            g.features, g.adjacencies[view], cfg.encoder, seeds[view],
            None if constants is None else constants[view],
        )
        records[view] = {"view": view, "l_rec": l_rec}
        return params_x, params_a

    try:
        models = _for_each_view(one_view, g.n_views)
    except DivergenceError as exc:
        history = list(takewhile(lambda record: record is not None, records))
        exc.report = TrainReport([], final=None, pretrain=history)
        raise
    return models, records


class TrainingPipeline:
    """Owns the per-view autoencoders, the optimizer and the epoch loop.

    Construction pretrains every view and bootstraps the first pseudo-labels;
    ``fit`` runs the joint epochs. On the ``raw_adjacency`` path construction
    builds each view's Krylov basis instead, and there are no autoencoders
    (``models`` is None) and no optimizer: each joint epoch is a forward pass
    and its record, and a raw forward is computed once per coefficient state
    (``_raw_forward``). The kernel path runs its views concurrently
    (``_for_each_view``) in pretraining, the forward and the backward
    branches; the raw path runs every view on the calling thread, since its
    per-view work, a few n x d adds, is less than a thread's start and join.
    The gradient checks drive ``epoch_forward`` directly with frozen targets.

    Raises:
        ValueError: a view has no edges, so its homophily ratio is undefined;
            raised before any view is pretrained.
    """

    def __init__(self, g: MultiViewGraph, cfg: TrainConfig):
        for view, a in enumerate(g.adjacencies):
            if is_edgeless(a):
                raise ValueError(
                    f"homophily ratio is undefined on view {view}, which has no edges"
                )
        self.g = g
        self.cfg = cfg
        self.detach_s = cfg.detach_s
        _, self._kmeans_seq = np.random.SeedSequence(cfg.seed).spawn(2)

        self.x_const = Tensor(g.features)
        self.raw_bases = None  # per view, the Krylov basis of its walk matrix
        self._raw_last = None, None  # (coefficient state, the raw forward computed at it)
        # per view, the adjacency_constants its every pretraining and joint epoch reads
        self.adjacency_constants = None
        self.models, self.pretrain_history, self.optimizer = None, [], None
        if cfg.filter.matrix_source == "raw_adjacency":
            # each walk matrix lives only until its basis is built
            self.raw_bases = [
                krylov_basis(random_walk_normalize(a), self.x_const.data, cfg.filter.order)
                for a in g.adjacencies
            ]
        else:
            self.adjacency_constants = [adjacency_constants(a) for a in g.adjacencies]
            self.models, self.pretrain_history = pretrain(g, cfg, self.adjacency_constants)
            lr = cfg.learning_rate if cfg.learning_rate is not None else cfg.encoder.learning_rate
            self.optimizer = Adam(self.parameters(), lr=lr)
        self.epoch_records = []
        with self._report_on_divergence(), _numerics_guard():
            self.hr = [cfg.filter.hr] * g.n_views
            self._bootstrap()

    @contextmanager
    def _report_on_divergence(self):
        """Attach the partial report so far to a DivergenceError on its way out."""
        try:
            yield
        except DivergenceError as exc:
            exc.report = TrainReport(self.epoch_records, final=None, pretrain=self.pretrain_history)
            raise

    @contextmanager
    def _name_the_epoch(self):
        """Re-raise a joint-stage DivergenceError naming the epoch it stopped in,
        with ``last_epoch`` the last epoch recorded."""
        try:
            yield
        except DivergenceError as exc:
            done = len(self.epoch_records)
            if done < self.cfg.epochs:
                where = f"epoch {done}"
            else:
                where = "the final clustering" + (f" after epoch {done - 1}" if done else "")
            raise DivergenceError(f"{exc} at {where}", last_epoch=done - 1) from exc

    # -- clustering state -------------------------------------------------

    def _next_seed(self):
        return self._kmeans_seq.spawn(1)[0]

    def _cluster(self, points: np.ndarray, warm: np.ndarray | None):
        """Warm-started k-means plus fresh restarts; lowest inertia wins.

        Lloyd regularly sticks in a merged-cluster optimum from one unlucky
        seeding, so the refresh competes the warm continuation against
        ``kmeans_restarts`` fresh runs. Raises after 5 rounds if every run
        left a cluster empty.
        """
        if not np.isfinite(points).all():
            raise DivergenceError("consensus embedding became non-finite")
        best = None
        attempts = 0
        for round_ in range(5):
            candidates = []
            if warm is not None and round_ == 0:
                candidates.append(kmeans(points, self.g.n_clusters, seed=self._next_seed(),
                                         warm_centers=warm))
            for _ in range(self.cfg.kmeans_restarts):
                candidates.append(kmeans(points, self.g.n_clusters, seed=self._next_seed()))
            attempts += len(candidates)
            for result in candidates:
                if not np.bincount(result.labels, minlength=self.g.n_clusters).all():
                    continue
                if best is None or result.inertia < best.inertia:
                    best = result
            if best is not None:
                return best
        raise DivergenceError(f"clustering kept an empty cluster in all {attempts} runs")

    def _bootstrap(self) -> None:
        """First pseudo-labels from the hybrid at ``cfg.filter.hr``, by an untaped forward."""
        with no_grad():
            self._keep(self.epoch_forward(with_losses=False))
        self._adopt_clustering(self._cluster(self._consensus, warm=None))

    def _keep(self, fwd: _Forward) -> None:
        """Keep the plain arrays a refresh re-clusters, never the forward pass
        and its tape."""
        self._consensus = fwd.h_bar.data
        self._embeddings = [h.data for h in fwd.h_views]

    def _adopt_clustering(self, result) -> None:
        self.pseudo = result.labels
        self.centers_bar = result.centers
        self.hr = update_hr(self.g, one_hot(result.labels, self.g.n_clusters))
        self.centers_per_view = None  # only the KL term reads them, and the raw path has none
        if self.raw_bases is None:
            self.centers_per_view = [
                class_means(h, result.labels, self.g.n_clusters) for h in self._embeddings
            ]

    def refresh(self) -> None:
        """Re-cluster the last consensus embedding and recompute hr per view."""
        self._adopt_clustering(self._cluster(self._consensus, warm=self.centers_bar))

    def parameters(self) -> list:
        out = []
        for params_x, params_a in self.models or ():
            out.extend(params_x.parameters())
            out.extend(params_a.parameters())
        return out

    # -- objective ---------------------------------------------------------

    def epoch_forward(self, with_losses: bool = True, targets: tuple | None = None) -> _Forward:
        """One epoch's forward pass.

        Each view's encoders, reconstruction terms, kernel and filter run
        concurrently (``_for_each_view``); the fusion and the KL terms run on
        the calling thread, and the terms are summed in view order, so the
        loss does not depend on the thread count. With the losses, each
        view's reconstruction terms and ``h`` come back as its backward
        branch (``_Forward.branches``). On the ``raw_adjacency`` path a view's
        part is its basis filtered at its ``hr``, on the calling thread, and
        no loss is computed, whatever ``with_losses`` says; that forward is
        computed once per coefficient state, and the same ``_Forward`` is
        returned while the per-view filter coefficients are unchanged
        (``_raw_forward``).
        ``targets`` freezes the sharpened targets (p per view, consensus p);
        left to None they are recomputed from the current soft assignments,
        which is what a training step uses.
        """
        if self.raw_bases is not None:
            return self._raw_forward()
        cfg = self.cfg
        taped_filter = cfg.gamma_kl > 0.0 and not self.detach_s  # only the KL term reads h

        def one_view(view):
            filter_cfg = replace(cfg.filter, hr=self.hr[view])
            params_x, params_a = self.models[view]
            a = self.g.adjacencies[view]
            z_x = encode_t(params_x, self.x_const)
            z_a = encode_t(params_a, a)
            rec = ()
            if with_losses:
                rec = (
                    mse_t(decode_t(params_x, z_x), self.g.features),
                    adjacency_loss_t(params_a, z_a, a, self.adjacency_constants[view]),
                )
            with nullcontext() if taped_filter else no_grad():
                h = apply_filter_t(joint_aggregation_t(z_a, z_x), self.x_const, filter_cfg)
            return rec, h

        per_view = _for_each_view(one_view, self.g.n_views)
        rec_terms = [term for rec, _ in per_view for term in rec]
        h_views = [h for _, h in per_view]
        weights, h_bar = fuse_views_t(h_views, cfg.rho)

        if not with_losses:
            return _Forward(None, None, None, h_views, h_bar, weights, None, [])

        l_rec = rec_terms[0]
        for term in rec_terms[1:]:
            l_rec = l_rec + term
        loss = cfg.gamma_rec * l_rec

        l_kl_value = 0.0
        if cfg.gamma_kl > 0.0:
            q_views = [
                soft_assignment_t(h, centers)
                for h, centers in zip(h_views, self.centers_per_view)
            ]
            q_bar = soft_assignment_t(h_bar, self.centers_bar)
            if targets is None:
                p_views = [target_distribution(q.data) for q in q_views]
                p_bar = target_distribution(q_bar.data)
                targets = (p_views, p_bar)
            else:
                p_views, p_bar = targets
            l_kl = kl_terms_t(p_views, q_views, p_bar, q_bar)
            l_kl_value = float(l_kl.data)
            loss = loss + cfg.gamma_kl * l_kl

        branches = [(*rec, h) for rec, h in per_view]
        return _Forward(
            loss, float(l_rec.data), l_kl_value, h_views, h_bar, weights, targets, branches
        )

    def _raw_forward(self) -> _Forward:
        """The ``raw_adjacency`` forward: each view's basis filtered at its
        coefficients, then fused; it holds no tape.

        The views are filtered on the calling thread, in view order: a view's
        filter is a few n x d adds of its basis, less work than a thread's
        start and join, so ``_for_each_view`` is not used here. The bases,
        ``x`` and ``rho`` are constants, so the forward is a pure function of
        the per-view ``filter_coefficients``, which are all the filter reads
        of ``hr``. It is computed once per coefficient state: the
        last forward is kept with the coefficients it was filtered with, and
        returned while they are unchanged, bit for bit. Keying on the
        coefficients rather than on ``hr`` lets the families that ignore
        ``hr`` fuse once a run.
        """
        filter_cfgs = [replace(self.cfg.filter, hr=hr) for hr in self.hr]
        state = tuple(filter_coefficients(filter_cfg).tobytes() for filter_cfg in filter_cfgs)
        if state != self._raw_last[0]:
            h_views = [apply_filter_t(basis, self.x_const, filter_cfg)
                       for basis, filter_cfg in zip(self.raw_bases, filter_cfgs)]
            weights, h_bar = fuse_views_t(h_views, self.cfg.rho)
            self._raw_last = state, _Forward(None, None, None, h_views, h_bar, weights, None, [])
        return self._raw_last[1]

    # -- training loop -----------------------------------------------------

    def fit(self) -> tuple:
        """Run ``cfg.epochs`` joint epochs, then cluster the final consensus.

        Pseudo-labels, hr and centers are refreshed every
        ``cfg.hr_refresh_interval`` epochs from the previous epoch's forward
        pass; each epoch appends its record to ``self.epoch_records``.
        Returns the final forward pass, its k-means labels and the hr those
        labels give. On the ``raw_adjacency`` path a forward is computed once
        per coefficient state: an epoch, or the final pass, whose per-view
        filter coefficients equal the previous forward's reuses that forward.
        A DivergenceError raised on the way (refresh, kernel, loss, final
        clustering) names the epoch it stopped in and carries ``last_epoch``,
        the last epoch recorded.
        """
        cfg = self.cfg
        with self._report_on_divergence(), self._name_the_epoch(), _numerics_guard():
            for epoch in range(cfg.epochs):
                if epoch > 0 and epoch % cfg.hr_refresh_interval == 0:
                    self.refresh()
                self._step(epoch)

            with no_grad():
                final = self.epoch_forward(with_losses=False)
            labels = self._cluster(final.h_bar.data, warm=self.centers_bar).labels
        return final, labels, update_hr(self.g, one_hot(labels, self.g.n_clusters))

    def _step(self, epoch: int) -> None:
        """One joint epoch: forward, backward, Adam step and its record.

        The one ``backward`` call walks the top of the tape here and each
        view's branch, from its reconstruction terms and ``h``, on that
        view's thread (``_for_each_view``); the gradients are those of the
        walk without branches, bit for bit. The walk consumes the tape: each
        op's kept arrays are freed once its backward has run, and the
        gradients once Adam has used them, so the next forward starts with
        neither; only the arrays a refresh needs are kept. A failure in a
        branch is raised, the first in view order, before Adam steps, so the
        parameters stay as they were, and no gradient is left behind.
        A forward without a loss (the ``raw_adjacency`` path) is recorded
        with null losses, and nothing is walked or stepped.
        """
        fwd = self.epoch_forward()
        total = None
        if fwd.loss is not None:
            total = float(fwd.loss.data)
            if not np.isfinite(total):
                raise DivergenceError("loss became non-finite")
            try:
                fwd.loss.backward(branches=fwd.branches, for_each=_for_each_view)
                self.optimizer.step()
            finally:
                self.optimizer.zero_grad()
        self.epoch_records.append(
            {
                "epoch": epoch,
                "l_rec": fwd.l_rec,
                "l_kl": fwd.l_kl,
                "l_total": total,
                "hr": [float(h) for h in self.hr],
                "weights": fwd.weights.tolist(),
            }
        )
        self._keep(fwd)


def train(g: MultiViewGraph, cfg: TrainConfig) -> TrainReport:
    """Run the full pipeline and return the report (with the final state attached).

    Stages: per-view autoencoder pretraining (none on the ``raw_adjacency``
    path), bootstrap pseudo-labels from the hybrid at ``cfg.filter.hr``, then
    ``cfg.epochs`` joint epochs with a pseudo-label / hr / center refresh every
    ``cfg.hr_refresh_interval`` epochs, and a final k-means on the consensus
    embedding (metrics only when labels exist).
    Deterministic under ``cfg.seed``.
    """
    pipeline = TrainingPipeline(g, cfg)
    final_fwd, labels, final_hr = pipeline.fit()

    # the scores are looked up in their module when they are called
    scores = {"nmi": clustering.nmi, "ari": clustering.ari, "acc": clustering.accuracy,
              "f1": clustering.macro_f1}
    final = {key: None if g.labels is None else score(labels, g.labels)
             for key, score in scores.items()}
    final["hr"] = [float(h) for h in final_hr]

    state = FusionState(
        per_view_embeddings=[h.data for h in final_fwd.h_views], weights=final_fwd.weights,
        consensus=final_fwd.h_bar.data, labels_one_hot=one_hot(labels, g.n_clusters),
        hr_per_view=list(final["hr"]),
    )
    return TrainReport(pipeline.epoch_records, final, pipeline.pretrain_history, state=state)
