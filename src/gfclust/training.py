"""End-to-end training: pretraining, filtered fusion, hr adaptation, KL alignment.

The per-epoch objective is assembled as one differentiable graph
(reconstruction + KL alignment) whose gradients reach the encoder parameters
through the joint aggregation kernel, the hybrid filter and the fusion weights.
Each view's adjacency is converted once to the form its autoencoder takes
(``adjacency_input``): CSR under the default MSE, whose reconstruction term is
the factored ``adjacency_mse_t`` on the ``z_a`` the epoch already encoded, so
no n x n decode is formed; a dense array under BCE, which decodes densely.
Each view's kernel and hybrid filter are one autograd op: ``joint_aggregation_t``
returns the factored kernel and ``apply_filter_t`` evaluates the filter
polynomial on it in row blocks of the Gram matrix ``z_a (z_x^T z_x) z_a^T``,
O(n^2 (l + d)) per product, so no n x n array is formed in the joint epochs
and the kernel's gradients are kept at every size. ``detach_s`` is an
explicit choice, off by default: set, it cuts the kernel out of the tape and
the op runs forward only. The ``raw_adjacency`` ablation filters with the
CSR walk matrix of each view, a constant. The graph's CSR views are built on
first use here, never at load time, and serve ``update_hr`` too.
Pseudo-labels, homophily ratios and cluster centers are constants between
refreshes. ``TrainingPipeline`` owns the whole run: pretraining and the
bootstrap clustering on construction, then ``fit`` runs the joint epochs with
its own Adam optimizer, the refresh cadence, the divergence check and the
epoch records, and ends with the final clustering. A ``DivergenceError`` from
either stage carries the partial report so far (``"final": null``); one from
the joint stage names its epoch and sets ``last_epoch`` to the last epoch
recorded. The kernel raises it itself when the Gram matrix overflows.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from .autograd import Adam, Tensor
from .clustering import class_means, kmeans
from .encoders import (
    EncoderConfig,
    adjacency_input,
    adjacency_mse_t,
    bce_t,
    decode_t,
    encode_t,
    mse_t,
    pretrain_view,
)
from .errors import ConfigError, DivergenceError
from .filters import FilterConfig, apply_filter_t, joint_aggregation_t
from .fusion import fuse_views_t, kl_terms_t, soft_assignment_t, target_distribution, update_hr
from .graphs import MultiViewGraph, one_hot, random_walk_normalize

__all__ = [
    "TrainConfig",
    "FusionState",
    "TrainReport",
    "TrainingPipeline",
    "train",
]

_BOOTSTRAP_HR = 0.5


@dataclass
class TrainConfig:
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
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.hr_refresh_interval < 1:
            raise ConfigError("hr_refresh_interval must be >= 1")
        if self.kmeans_restarts < 1:
            raise ConfigError("kmeans_restarts must be >= 1")
        for name in ("rho", "gamma_rec", "gamma_kl"):
            value = getattr(self, name)
            if not np.isfinite(value) or value < 0:
                raise ConfigError(f"{name} must be finite and nonnegative")
        if self.learning_rate is not None and self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
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
    ``DivergenceError`` carries.
    """

    epochs: list
    final: dict | None
    pretrain: list
    state: FusionState | None = None

    def to_dict(self) -> dict:
        return {"epochs": self.epochs, "final": self.final, "pretrain": self.pretrain}


@dataclass
class _Forward:
    loss: Tensor | None
    l_rec: float
    l_kl: float
    h_views: list
    h_bar: Tensor
    weights: list
    targets: tuple | None


class TrainingPipeline:
    """Owns the per-view autoencoders, the optimizer and the epoch loop.

    Construction pretrains every view and bootstraps the first pseudo-labels;
    ``fit`` runs the joint epochs. The gradient checks drive ``epoch_forward``
    directly with frozen targets.
    """

    def __init__(self, g: MultiViewGraph, cfg: TrainConfig):
        self.g = g
        self.cfg = cfg
        self.detach_s = cfg.detach_s
        self._ss = np.random.SeedSequence(cfg.seed)
        enc_seq, self._kmeans_seq = self._ss.spawn(2)

        self.x_const = Tensor(g.features)
        loss = cfg.encoder.adjacency_loss
        views = g.adjacencies if loss == "bce" else g.csr_adjacencies
        self.adj_input = [adjacency_input(a, loss) for a in views]
        self.a_rw = None
        if cfg.filter.matrix_source == "raw_adjacency":
            self.a_rw = [random_walk_normalize(a) for a in g.csr_adjacencies]

        self.models = []
        self.pretrain_history = []
        self.epoch_records = []
        with self._report_on_divergence():
            for view, child in enumerate(enc_seq.spawn(g.n_views)):
                enc_cfg = replace(cfg.encoder, seed=int(child.generate_state(1)[0]))
                params_x, params_a, history = pretrain_view(
                    g.features, self.adj_input[view], enc_cfg
                )
                self.models.append((params_x, params_a))
                self.pretrain_history.append({"view": view, "l_rec": history})

            # bootstrap: equal-weight hybrid, then first pseudo-labels from k-means
            self.hr = [_BOOTSTRAP_HR] * g.n_views
            boot = self.epoch_forward(with_losses=False)
            self._adopt_clustering(self._cluster(boot.h_bar.data, warm=None), boot)

        lr = cfg.learning_rate if cfg.learning_rate is not None else cfg.encoder.learning_rate
        self.optimizer = Adam(self.parameters(), lr=lr)

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
                if np.unique(result.labels).size != self.g.n_clusters:
                    continue
                if best is None or result.inertia < best.inertia:
                    best = result
            if best is not None:
                return best
        raise DivergenceError(f"clustering kept an empty cluster in all {attempts} runs")

    def _adopt_clustering(self, result, fwd: _Forward) -> None:
        self.pseudo = result.labels
        self.centers_bar = result.centers
        self.hr = update_hr(self.g, one_hot(result.labels, self.g.n_clusters))
        self.centers_per_view = [
            class_means(h.data, result.labels, self.g.n_clusters) for h in fwd.h_views
        ]
        self._last = fwd

    def refresh(self) -> None:
        """Re-cluster the last consensus embedding and recompute hr per view."""
        self._adopt_clustering(
            self._cluster(self._last.h_bar.data, warm=self.centers_bar), self._last
        )

    def parameters(self) -> list:
        out = []
        for params_x, params_a in self.models:
            out.extend(params_x.parameters())
            out.extend(params_a.parameters())
        return out

    # -- objective ---------------------------------------------------------

    def epoch_forward(self, with_losses: bool = True, targets: tuple | None = None) -> _Forward:
        """One epoch's forward pass.

        ``targets`` freezes the sharpened targets (p per view, consensus p);
        left to None they are recomputed from the current soft assignments,
        which is what a training step uses.
        """
        cfg = self.cfg
        rec_terms = []
        h_views = []
        for view, (params_x, params_a) in enumerate(self.models):
            z_x = encode_t(params_x, self.x_const)
            z_a = encode_t(params_a, self.adj_input[view])
            if with_losses:
                rec_terms.append(mse_t(decode_t(params_x, z_x), self.g.features))
                if cfg.encoder.adjacency_loss == "bce":
                    rec_terms.append(bce_t(decode_t(params_a, z_a), self.adj_input[view]))
                else:
                    rec_terms.append(adjacency_mse_t(params_a, z_a, self.adj_input[view]))
            if self.a_rw is not None:
                kernel = self.a_rw[view]
            else:
                kernel = joint_aggregation_t(z_a, z_x)
                if self.detach_s:
                    kernel = kernel.detach()
            h_views.append(
                apply_filter_t(kernel, self.x_const, replace(cfg.filter, hr=self.hr[view]))
            )
        weights, h_bar = fuse_views_t(h_views, cfg.rho)

        if not with_losses:
            return _Forward(None, 0.0, 0.0, h_views, h_bar, weights, None)

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

        return _Forward(loss, float(l_rec.data), l_kl_value, h_views, h_bar, weights, targets)

    # -- training loop -----------------------------------------------------

    def fit(self) -> tuple:
        """Run ``cfg.epochs`` joint epochs, then cluster the final consensus.

        Pseudo-labels, hr and centers are refreshed every
        ``cfg.hr_refresh_interval`` epochs from the previous epoch's forward
        pass; each epoch appends its record to ``self.epoch_records``.
        Returns the final forward pass, its k-means labels and the hr those
        labels give. A DivergenceError raised on the way (refresh, kernel,
        loss, final clustering) names the epoch it stopped in and carries
        ``last_epoch``, the last epoch recorded.
        """
        cfg = self.cfg
        with self._report_on_divergence(), self._name_the_epoch():
            for epoch in range(cfg.epochs):
                if epoch > 0 and epoch % cfg.hr_refresh_interval == 0:
                    self.refresh()
                fwd = self.epoch_forward()
                total = float(fwd.loss.data)
                if not np.isfinite(total):
                    raise DivergenceError("loss became non-finite")
                self.optimizer.zero_grad()
                fwd.loss.backward()
                self.optimizer.step()
                self.epoch_records.append(
                    {
                        "epoch": epoch,
                        "l_rec": fwd.l_rec,
                        "l_kl": fwd.l_kl,
                        "l_total": total,
                        "hr": [float(h) for h in self.hr],
                        "weights": [float(w.data) for w in fwd.weights],
                    }
                )
                self._last = fwd

            final = self.epoch_forward(with_losses=False)
            labels = self._cluster(final.h_bar.data, warm=self.centers_bar).labels
        return final, labels, update_hr(self.g, one_hot(labels, self.g.n_clusters))


def train(g: MultiViewGraph, cfg: TrainConfig) -> TrainReport:
    """Run the full pipeline and return the report (with the final state attached).

    Stages: per-view autoencoder pretraining, bootstrap pseudo-labels from the
    equal-weight hybrid, then ``cfg.epochs`` joint epochs with a pseudo-label /
    hr / center refresh every ``cfg.hr_refresh_interval`` epochs, and a final
    k-means on the consensus embedding (metrics only when labels exist).
    Deterministic under ``cfg.seed``.
    """
    pipeline = TrainingPipeline(g, cfg)
    final_fwd, labels, final_hr = pipeline.fit()

    metrics = {"nmi": None, "ari": None, "acc": None, "f1": None}
    if g.labels is not None:
        from .clustering import accuracy, ari, macro_f1, nmi

        metrics = {
            "nmi": nmi(labels, g.labels),
            "ari": ari(labels, g.labels),
            "acc": accuracy(labels, g.labels),
            "f1": macro_f1(labels, g.labels),
        }
    final = dict(metrics)
    final["hr"] = [float(h) for h in final_hr]

    state = FusionState(
        per_view_embeddings=[h.data for h in final_fwd.h_views],
        weights=np.array([float(w.data) for w in final_fwd.weights]),
        consensus=final_fwd.h_bar.data,
        labels_one_hot=one_hot(labels, g.n_clusters),
        hr_per_view=[float(h) for h in final_hr],
    )
    return TrainReport(
        epochs=pipeline.epoch_records,
        final=final,
        pretrain=pipeline.pretrain_history,
        state=state,
    )
