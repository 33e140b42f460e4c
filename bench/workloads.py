"""The benchmark's named workloads: a seeded synthetic graph plus a training config.

Every workload shares the data shape (4 clusters, 2 views, 32 features,
``mean_separation=6.0``) and the model (latent 16, hidden 64, filter order 2,
a refresh every 5 epochs, training seed 0); only the graph seed comes from the
command line. Each one is built so that one stage of ``train`` dominates:

- ``homophilous-kernel`` runs the n^3 joint aggregation kernel with its
  backward, so kernel, autograd and memory changes show here;
- ``heterophilous-raw`` filters with the raw random-walk adjacency, so the
  kernel never runs and adjacency-autoencoder pretraining dominates: a kernel
  change must show no change here;
- ``large-detached`` runs the kernel forward-only at the largest n, so a
  change that trades forward work for backward memory shows its cost here.

``acc_floor`` and ``nmi_floor`` sit below the values measured over graph seeds
0-9 at the commit that introduced the benchmark; a run under either floor
counts as failed.
"""

from __future__ import annotations

from dataclasses import dataclass

SHARED_SPEC = {"n_clusters": 4, "n_views": 2, "n_features": 32, "mean_separation": 6.0}
# AC1: homophilous SBM with one orthogonal mean direction per class
AC1 = {"p_in": 0.1, "p_out": 0.005, "noise_scale": 1.0}
# AC2: heterophilous SBM whose paired classes share a mean direction, so they
# are told apart only through the graph; noise 0.5 keeps ACC clear of the
# marginal ~0.77 it reaches at noise 1.0
AC2 = {"p_in": 0.005, "p_out": 0.1, "noise_scale": 0.5, "mean_layout": "paired",
       "pair_separation": 0.15}

TINY_NODES = 64


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    instance: dict
    n_nodes: int
    pretrain_epochs: int
    joint_epochs: int
    matrix_source: str
    detach_s: bool
    acc_floor: float
    nmi_floor: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="homophilous-kernel",
            why="AC1 at n=1200: joint epochs with the n^3 kernel Gram and its backward dominate "
                "train_s, so kernel, autograd and memory changes show here",
            instance=AC1,
            n_nodes=1200,
            pretrain_epochs=4,
            joint_epochs=6,
            matrix_source="joint_aggregation",
            detach_s=False,
            acc_floor=0.95,
            nmi_floor=0.88,
        ),
        Workload(
            name="heterophilous-raw",
            why="AC2 at n=1200 on the raw adjacency: the kernel never runs and adjacency "
                "pretraining dominates, so a kernel change must show no change here",
            instance=AC2,
            n_nodes=1200,
            pretrain_epochs=24,
            joint_epochs=6,
            matrix_source="raw_adjacency",
            detach_s=False,
            acc_floor=0.88,
            nmi_floor=0.72,
        ),
        Workload(
            name="large-detached",
            why="AC1 at n=2000 with detach_s=True: the kernel runs forward-only at the largest n, "
                "so recompute-in-forward costs and peak memory show here",
            instance=AC1,
            n_nodes=2000,
            pretrain_epochs=2,
            joint_epochs=6,
            matrix_source="joint_aggregation",
            detach_s=True,
            acc_floor=0.95,
            nmi_floor=0.88,
        ),
    )
}


def synthetic_spec(w: Workload, seed: int, tiny: bool = False):
    """The workload's ``SyntheticSpec`` for graph seed ``seed``."""
    from gfclust import SyntheticSpec

    n = TINY_NODES if tiny else w.n_nodes
    return SyntheticSpec(n_nodes=n, seed=seed, **SHARED_SPEC, **w.instance)


def train_config(w: Workload, tiny: bool = False):
    """The workload's ``TrainConfig``; ``tiny`` keeps one epoch of each stage."""
    from gfclust import EncoderConfig, FilterConfig, TrainConfig

    return TrainConfig(
        epochs=1 if tiny else w.joint_epochs,
        hr_refresh_interval=5,
        encoder=EncoderConfig(latent_dim=16, hidden_dim=64,
                              epochs=1 if tiny else w.pretrain_epochs),
        filter=FilterConfig(order=2, matrix_source=w.matrix_source),
        seed=0,
        detach_s=w.detach_s,
    )
