"""Lloyd k-means with k-means++ seeding, plus the four clustering metrics.

ACC and macro-F1 are computed after an optimal cluster-to-class matching
(Hungarian assignment on the contingency table), NMI uses arithmetic-mean
normalization, and ARI follows the adjusted-for-chance pair-counting formula
(negative values are legitimate).

The Hungarian step is solved in this module (``_assignment``) rather than
by ``scipy.optimize.linear_sum_assignment``: importing ``scipy.optimize``
loads ``scipy.linalg`` and ``scipy.sparse.linalg`` with it, about 27 MB of
resident memory in every process that imports the package, to solve one
k x k matching per score.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ClusterAssignment",
    "kmeans",
    "class_means",
    "accuracy",
    "match_clusters",
    "nmi",
    "ari",
    "macro_f1",
]


@dataclass(frozen=True)
class ClusterAssignment:
    labels: np.ndarray
    centers: np.ndarray
    inertia: float
    inertia_history: tuple = ()


def _sq_dists(points: np.ndarray, sq_norms: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distances of every point to every center; ``sq_norms`` is
    ``(points * points).sum(axis=1)``, computed once per ``kmeans`` call."""
    d2 = (
        sq_norms[:, None]
        - 2.0 * points @ centers.T
        + (centers * centers).sum(axis=1)[None, :]
    )
    return np.maximum(d2, 0.0)


def _kmeanspp_init(
    points: np.ndarray, sq_norms: np.ndarray, c: int, rng: np.random.Generator
) -> np.ndarray:
    """Greedy k-means++: several D^2-sampled candidates per center, keep the one
    that lowers the total potential the most."""
    n = points.shape[0]
    n_trials = 2 + int(np.log(c)) if c > 1 else 1
    centers = np.empty((c, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = _sq_dists(points, sq_norms, centers[:1]).ravel()
    for j in range(1, c):
        total = d2.sum()
        if total > 0:
            candidates = rng.choice(n, size=n_trials, p=d2 / total)
        else:
            candidates = rng.integers(n, size=n_trials)
        best_idx, best_d2, best_potential = None, None, np.inf
        for idx in candidates:
            trial = np.minimum(d2, _sq_dists(points, sq_norms, points[idx : idx + 1]).ravel())
            potential = trial.sum()
            if potential < best_potential:
                best_idx, best_d2, best_potential = int(idx), trial, potential
        centers[j] = points[best_idx]
        d2 = best_d2
    return centers


def kmeans(
    points: np.ndarray,
    c: int,
    seed=0,
    warm_centers: np.ndarray | None = None,
    max_iter: int = 300,
) -> ClusterAssignment:
    """Lloyd iterations until the assignment stops changing.

    Seeding is k-means++ unless ``warm_centers`` is given. An empty cluster is
    re-seeded at the point farthest from its closest center among those that
    are not their cluster's only member, which keeps the recorded inertia
    history non-increasing.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("points must be 2-d")
    if not np.isfinite(points).all():
        raise ValueError("points contain non-finite values")
    n = points.shape[0]
    if not 1 <= c <= n:
        raise ValueError(f"need n >= c >= 1, got n={n}, c={c}")
    sq_norms = (points * points).sum(axis=1)
    if warm_centers is not None:
        centers = np.array(warm_centers, dtype=np.float64)
        if centers.shape != (c, points.shape[1]):
            raise ValueError(f"warm_centers shape {centers.shape} != ({c}, {points.shape[1]})")
    else:
        centers = _kmeanspp_init(points, sq_norms, c, np.random.default_rng(seed))

    labels = np.full(n, -1)
    history = []
    for _ in range(max_iter):
        d2 = _sq_dists(points, sq_norms, centers)
        new_labels = d2.argmin(axis=1)
        closest = d2[np.arange(n), new_labels]
        for j in range(c):
            sizes = np.bincount(new_labels, minlength=c)
            if sizes[j]:
                continue
            # the farthest point whose cluster keeps a member without it
            farthest = int(np.where(sizes[new_labels] > 1, closest, -1.0).argmax())
            centers[j] = points[farthest]
            d2[:, j] = _sq_dists(points, sq_norms, centers[j : j + 1]).ravel()
            new_labels = d2.argmin(axis=1)
            closest = d2[np.arange(n), new_labels]
        history.append(float(closest.sum()))
        if (new_labels == labels).all():
            break
        labels = new_labels
        for j in range(c):
            members = labels == j
            if members.any():  # points that follow a re-seed can leave a cluster empty
                centers[j] = points[members].mean(axis=0)

    inertia = float(((points - centers[labels]) ** 2).sum())
    return ClusterAssignment(
        labels=labels, centers=centers, inertia=inertia, inertia_history=tuple(history)
    )


def class_means(points: np.ndarray, labels: np.ndarray, c: int) -> np.ndarray:
    """Per-class mean rows; empty classes fall back to the global mean."""
    points = np.asarray(points, dtype=np.float64)
    out = np.empty((c, points.shape[1]))
    overall = points.mean(axis=0)
    for j in range(c):
        mask = labels == j
        out[j] = points[mask].mean(axis=0) if mask.any() else overall
    return out


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _contingency(pred: np.ndarray, truth: np.ndarray) -> np.ndarray:
    pred = np.asarray(pred, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise ValueError("pred and truth must be 1-d arrays of equal length")
    k = int(max(pred.max(), truth.max())) + 1
    table = np.zeros((k, k), dtype=np.int64)
    np.add.at(table, (pred, truth), 1)
    return table


def _assignment(cost: np.ndarray) -> np.ndarray:
    """Column matched to each row by a minimum-cost perfect matching of a square ``cost``.

    Kuhn-Munkres in its shortest-augmenting-path form (Jonker & Volgenant
    1987): each row is added by a Dijkstra-like search over reduced costs
    ``cost[i, j] - u[i] - v[j]``, vectorised over the columns, and the dual
    potentials ``u``, ``v`` keep every reduced cost non-negative. O(k^3).
    Column ``k`` is a virtual start column that holds the row being added.
    """
    cost = np.asarray(cost, dtype=np.float64)
    k = cost.shape[0]
    u, v = np.zeros(k), np.zeros(k + 1)
    row_of = np.full(k + 1, -1)  # row matched to each column, -1 when free
    for i in range(k):
        j0, row_of[k] = k, i
        min_reduced = np.full(k, np.inf)
        way = np.zeros(k, dtype=np.int64)  # previous column on the shortest path
        used = np.zeros(k + 1, dtype=bool)
        while row_of[j0] != -1:
            used[j0] = True
            i0 = row_of[j0]
            free = ~used[:k]
            reduced = cost[i0] - u[i0] - v[:k]
            better = free & (reduced < min_reduced)
            min_reduced[better] = reduced[better]
            way[better] = j0
            j0 = int(np.argmin(np.where(free, min_reduced, np.inf)))
            delta = min_reduced[j0]
            u[row_of[used]] += delta
            v[used] -= delta
            min_reduced[free] -= delta
        while j0 != k:  # augment along the path back to the virtual column
            row_of[j0] = row_of[way[j0]]
            j0 = way[j0]
    cols = np.empty(k, dtype=np.int64)
    cols[row_of[:k]] = np.arange(k)
    return cols


def match_clusters(pred: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Relabel predicted clusters by the agreement-maximizing bijection.

    Ties between equally good bijections are broken toward the one with the
    larger macro-F1 (the per-pair F1 is separable, so one assignment solves
    the lexicographic objective); this keeps downstream scores invariant
    under relabeling of the predicted clusters.
    """
    table = _contingency(pred, truth)
    k = table.shape[0]
    sums = table.sum(axis=1, keepdims=True) + table.sum(axis=0, keepdims=True)
    pair_f1 = np.divide(2.0 * table, sums, out=np.zeros(table.shape), where=sums > 0)
    # the F1 sum of any bijection is below k + 1, so agreement ranks first
    mapping = _assignment(-(table.astype(np.float64) * (k + 1) + pair_f1))
    return mapping[np.asarray(pred, dtype=np.int64)]


def accuracy(pred: np.ndarray, truth: np.ndarray) -> float:
    """Best agreement over all cluster-to-class bijections: that of ``match_clusters``."""
    matched = match_clusters(pred, truth)
    return float(np.count_nonzero(matched == np.asarray(truth, dtype=np.int64)) / len(pred))


def nmi(pred: np.ndarray, truth: np.ndarray) -> float:
    """Normalized mutual information with arithmetic-mean normalization.

    Degenerate single-cluster labelings have zero entropy; the score is then
    defined as 0 (with a warning).
    """
    table = _contingency(pred, truth).astype(np.float64)
    n = table.sum()
    p_joint = table / n
    p_pred = p_joint.sum(axis=1)
    p_truth = p_joint.sum(axis=0)
    h_pred = -np.sum(p_pred[p_pred > 0] * np.log(p_pred[p_pred > 0]))
    h_truth = -np.sum(p_truth[p_truth > 0] * np.log(p_truth[p_truth > 0]))
    if h_pred == 0.0 or h_truth == 0.0:
        warnings.warn("degenerate single-cluster labeling; NMI defined as 0", UserWarning)
        return 0.0
    outer = np.outer(p_pred, p_truth)
    nz = p_joint > 0
    mutual = np.sum(p_joint[nz] * np.log(p_joint[nz] / outer[nz]))
    return float(mutual / (0.5 * (h_pred + h_truth)))


def ari(pred: np.ndarray, truth: np.ndarray) -> float:
    """Adjusted Rand index (can be negative for worse-than-chance labelings)."""
    table = _contingency(pred, truth)
    n = table.sum()
    if n < 2:
        return 1.0

    def comb2(x):
        return x * (x - 1) / 2.0

    index = comb2(table).sum()
    sum_rows = comb2(table.sum(axis=1)).sum()
    sum_cols = comb2(table.sum(axis=0)).sum()
    expected = sum_rows * sum_cols / comb2(n)
    max_index = 0.5 * (sum_rows + sum_cols)
    if max_index == expected:
        return 1.0  # both partitions degenerate in the same direction
    return float((index - expected) / (max_index - expected))


def macro_f1(pred: np.ndarray, truth: np.ndarray) -> float:
    """Macro-averaged F1 after Hungarian matching of clusters to classes.

    Averaged over the full label universe of the two inputs; classes absent
    from the truth contribute an F1 of 0 unless also absent from the matched
    predictions.
    """
    matched = match_clusters(pred, truth)
    truth = np.asarray(truth, dtype=np.int64)
    k = int(max(np.asarray(pred, dtype=np.int64).max(), truth.max())) + 1
    scores = []
    for cls in range(k):
        tp = np.sum((matched == cls) & (truth == cls))
        fp = np.sum((matched == cls) & (truth != cls))
        fn = np.sum((matched != cls) & (truth == cls))
        denom = 2 * tp + fp + fn
        scores.append(2 * tp / denom if denom > 0 else 0.0)
    return float(np.mean(scores))
