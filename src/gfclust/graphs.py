"""Multi-view graph containers, random-walk normalization and homophily.

``random_walk_normalize`` returns the row-stochastic walk matrix ``D^-1 A``
alone; no Laplacian is formed.

Label one-hots are plain ``(n, c)`` float arrays with exactly one 1 per row;
``one_hot`` / ``check_one_hot`` build and validate them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "MultiViewGraph",
    "one_hot",
    "check_one_hot",
    "random_walk_normalize",
    "homophily_ratio",
    "true_homophily_report",
]


@dataclass(frozen=True)
class MultiViewGraph:
    """Shared node features plus one binary adjacency per view.

    Invariants (checked on construction): every adjacency is square, symmetric,
    binary with a zero diagonal and matches the feature row count; labels, when
    present, are integers in ``[0, n_clusters)``.
    """

    features: np.ndarray
    adjacencies: list
    n_clusters: int
    labels: np.ndarray | None = None
    name: str = field(default="", compare=False)

    def __post_init__(self):
        features = np.asarray(self.features, dtype=np.float64)
        object.__setattr__(self, "features", features)
        if features.ndim != 2:
            raise ValueError(f"features must be 2-d, got shape {features.shape}")
        n = features.shape[0]
        if not self.adjacencies:
            raise ValueError("at least one view adjacency is required")
        adjacencies = []
        for v, a in enumerate(self.adjacencies):
            a = np.asarray(a, dtype=np.float64)
            if a.shape != (n, n):
                raise ValueError(
                    f"view {v}: adjacency shape {a.shape} does not match {n} nodes"
                )
            if not np.array_equal(a, a.T):
                raise ValueError(f"view {v}: adjacency is not symmetric")
            if np.trace(np.abs(a)) != 0:
                raise ValueError(f"view {v}: adjacency has self-loops")
            if not np.isin(a, (0.0, 1.0)).all():
                raise ValueError(f"view {v}: adjacency entries must be 0 or 1")
            adjacencies.append(a)
        object.__setattr__(self, "adjacencies", adjacencies)
        if self.n_clusters < 1:
            raise ValueError("n_clusters must be >= 1")
        if self.labels is not None:
            labels = np.asarray(self.labels, dtype=np.int64)
            if labels.shape != (n,):
                raise ValueError(f"labels shape {labels.shape} != ({n},)")
            if labels.min() < 0 or labels.max() >= self.n_clusters:
                raise ValueError("labels out of range [0, n_clusters)")
            object.__setattr__(self, "labels", labels)

    @property
    def n_nodes(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_views(self) -> int:
        return len(self.adjacencies)


def one_hot(labels, n_classes: int) -> np.ndarray:
    """Encode integer labels as an ``(n, n_classes)`` 0/1 matrix."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError("labels must be 1-d")
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ValueError(f"labels out of range [0, {n_classes})")
    out = np.zeros((labels.size, n_classes), dtype=np.float64)
    out[np.arange(labels.size), labels] = 1.0
    return out


def check_one_hot(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 2 or not np.isin(p, (0.0, 1.0)).all() or not (p.sum(axis=1) == 1.0).all():
        raise ValueError("expected a 0/1 matrix with exactly one 1 per row")
    return p


def random_walk_normalize(a: np.ndarray) -> np.ndarray:
    """Degree-normalize an affinity matrix into the row-stochastic ``a_rw = D^-1 A``.

    Rows of isolated nodes become one-hot self rows (a forced self-loop), which
    keeps every row summing to 1.

    Raises:
        ValueError: non-square input or negative entries.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"adjacency must be square, got shape {a.shape}")
    if (a < 0).any():
        raise ValueError("adjacency entries must be nonnegative")
    degrees = a.sum(axis=1)
    isolated = degrees == 0
    # an isolated row is all zeros, so dividing it by 1 and setting its diagonal
    # gives the forced self-loop
    a_rw = a / np.where(isolated, 1.0, degrees)[:, None]
    isolated = np.flatnonzero(isolated)
    a_rw[isolated, isolated] = 1.0
    return a_rw


def homophily_ratio(a: np.ndarray, labels_one_hot: np.ndarray) -> float:
    """Fraction of edges whose endpoints share a label.

    Computed over the nonzero off-diagonal entries only, so a stored without
    self-loops gives the same value as the self-loop-carrying formulation
    minus identity. Costs O(|E|) beyond locating the nonzeros.

    Raises:
        ValueError: the graph has no edges (the ratio is undefined).
    """
    a = np.asarray(a, dtype=np.float64)
    p = check_one_hot(labels_one_hot)
    if a.shape[0] != a.shape[1] or a.shape[0] != p.shape[0]:
        raise ValueError("adjacency and labels disagree on the node count")
    rows, cols = np.nonzero(a)
    off = rows != cols
    rows, cols = rows[off], cols[off]
    weights = a[rows, cols]
    total = weights.sum()
    if total == 0:
        raise ValueError("homophily ratio is undefined on an edgeless graph")
    labels = p.argmax(axis=1)
    return float(weights[labels[rows] == labels[cols]].sum() / total)


def true_homophily_report(g: MultiViewGraph) -> list:
    """Per-view homophily ratio under the ground-truth labels."""
    if g.labels is None:
        raise ValueError("graph has no ground-truth labels")
    encoded = one_hot(g.labels, g.n_clusters)
    return [homophily_ratio(a, encoded) for a in g.adjacencies]
