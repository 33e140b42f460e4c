"""Lloyd k-means with k-means++ seeding, plus the four clustering metrics.

One Lloyd step is a handful of array calls on the n x d points ``P`` and the
c x d centers ``C``: one product ``P C^T``, turned in place into the scores
``|c|^2 - 2 p.c``; one ``argmin`` for the labels; the inertia
``max(score + |p|^2, 0)`` of each point's lowest score; one ``bincount`` for
the label counts; and the new centers, one product of the one-hot labels with
``P`` over the counts. The labels are those of the per-cluster loop this
replaced (full squared distances, one masked mean per cluster), kept as a
test oracle, unless a point is as near to two centers as rounding can tell;
``inertia_history``, and on some BLAS builds the centers and the final
inertia, may differ from that loop's in their last bits.

Every score reads one contingency table (Vinh, Epps & Bailey, JMLR 2010) of
labels checked by ``errors.check_labels``. ACC and macro-F1 read it with its
rows Hungarian-matched to the classes, NMI uses arithmetic-mean normalization,
and ARI the adjusted-for-chance pair counts (negative values are legitimate).

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

from .errors import check_labels

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
    """Squared distances ``max(|p|^2 - 2 p.c + |c|^2, 0)`` of every point to
    every center, added in that order; ``sq_norms`` is
    ``(points * points).sum(axis=1)``, computed once per ``kmeans`` call."""
    d2 = points @ np.ascontiguousarray(centers.T)
    d2 *= -2.0
    d2 += sq_norms[:, None]
    d2 += (centers * centers).sum(axis=1)
    return np.maximum(d2, 0.0, out=d2)


def _kmeanspp_init(
    points: np.ndarray, sq_norms: np.ndarray, c: int, rng: np.random.Generator
) -> np.ndarray:
    """Greedy k-means++: several D^2-sampled candidates per center, keep the one
    that lowers the total potential the most, the first of them on a tie. All
    candidates of a center are scored by one ``_sq_dists`` call."""
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
        trials = np.minimum(d2[:, None], _sq_dists(points, sq_norms, points[candidates]))
        best = int(trials.sum(axis=0).argmin())
        centers[j] = points[candidates[best]]
        d2 = trials[:, best]
    return centers


def _means(points: np.ndarray, labels: np.ndarray, counts: np.ndarray, fallback) -> np.ndarray:
    """The mean row of ``points`` per label: one product of the ``(c, n)``
    one-hot labels with ``points``, over the label ``counts``. A label with no
    point takes its row of ``fallback``, which broadcasts to ``(c, d)``."""
    c = counts.size
    sums = (labels == np.arange(c)[:, None]).astype(np.float64) @ points
    if counts.all():  # nearly every Lloyd step: no masked copies
        sums /= counts[:, None]
        return sums
    out = np.array(np.broadcast_to(fallback, sums.shape))
    kept = counts > 0
    out[kept] = sums[kept] / counts[kept, None]
    return out


def _reseed_empty(points: np.ndarray, sq_norms: np.ndarray, centers: np.ndarray) -> tuple:
    """``(labels, closest)`` after re-seeding every empty cluster, in place in
    ``centers``, at the point farthest from its closest center among those
    that are not their cluster's only member; the distances are ``_sq_dists``."""
    n, c = points.shape[0], centers.shape[0]
    d2 = _sq_dists(points, sq_norms, centers)
    labels = d2.argmin(axis=1)
    closest = d2[np.arange(n), labels]
    for j in range(c):
        sizes = np.bincount(labels, minlength=c)
        if sizes[j]:
            continue
        # the farthest point whose cluster keeps a member without it
        farthest = int(np.where(sizes[labels] > 1, closest, -1.0).argmax())
        centers[j] = points[farthest]
        d2[:, j] = _sq_dists(points, sq_norms, centers[j : j + 1]).ravel()
        labels = d2.argmin(axis=1)
        closest = d2[np.arange(n), labels]
    return labels, closest


def kmeans(
    points: np.ndarray,
    c: int,
    seed=0,
    warm_centers: np.ndarray | None = None,
    max_iter: int = 300,
) -> ClusterAssignment:
    """Lloyd iterations until the assignment stops changing.

    Seeding is k-means++ unless ``warm_centers`` is given. One step computes
    ``scores = |c|^2 - 2 P C^T`` from one product, the labels
    ``argmin(scores, axis=1)``, each point's ``max(score + |p|^2, 0)``,
    whose sum is the step's ``inertia_history`` entry, and the label counts;
    unless the labels did not change, each center then moves to the mean of
    its points (``_means``). The labels match the per-cluster loop on the
    full squared distances; ``inertia_history``, and on some BLAS builds the
    centers and ``inertia``, may differ from it in their last bits. A step
    that leaves a cluster empty is redone on the squared distances by
    ``_reseed_empty``, which re-seeds each empty cluster at the point
    farthest from its closest center among those that are not their
    cluster's only member; that keeps the recorded inertia history
    non-increasing. ``inertia`` is ``sum((points - centers[labels]) ** 2)``.
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

    starts = np.arange(n) * c  # where each point's scores start in the flat scores
    labels = np.full(n, -1)
    history = []
    for _ in range(max_iter):
        scores = points @ np.ascontiguousarray(centers.T)
        scores *= -2.0
        scores += (centers * centers).sum(axis=1)
        new_labels = scores.argmin(axis=1)
        closest = np.maximum(scores.ravel()[starts + new_labels] + sq_norms, 0.0)
        counts = np.bincount(new_labels, minlength=c)
        if not counts.all():
            new_labels, closest = _reseed_empty(points, sq_norms, centers)
            counts = np.bincount(new_labels, minlength=c)
        history.append(float(closest.sum()))
        if (new_labels == labels).all():
            break
        labels = new_labels
        # points that follow a re-seed can leave a cluster empty; it keeps its center
        centers = _means(points, labels, counts, centers)

    inertia = float(((points - centers[labels]) ** 2).sum())
    return ClusterAssignment(
        labels=labels, centers=centers, inertia=inertia, inertia_history=tuple(history)
    )


def class_means(points: np.ndarray, labels: np.ndarray, c: int) -> np.ndarray:
    """Per-class mean rows (``_means``); empty classes fall back to the global
    mean. ``labels`` are checked by ``check_labels`` against ``c``."""
    points = np.asarray(points, dtype=np.float64)
    labels = check_labels(labels, c)
    return _means(points, labels, np.bincount(labels, minlength=c), points.mean(axis=0))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _contingency(pred, truth) -> np.ndarray:
    """The k x k counts of each (predicted, true) label pair, k the largest
    label of either plus one; both are checked by ``check_labels`` first."""
    pred, truth = check_labels(pred, what="pred"), check_labels(truth, what="truth")
    if pred.size != truth.size or not pred.size:
        raise ValueError(f"pred and truth need one nonzero length, got {pred.size}, {truth.size}")
    k = int(max(pred.max(), truth.max())) + 1
    return np.bincount(pred * k + truth, minlength=k * k).reshape(k, k)


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


def _matched(pred, truth) -> tuple:
    """``(mapping, table)``: each predicted cluster's class under the
    agreement-maximizing bijection, and the contingency table with each
    cluster's row moved to its class. Ties between such bijections go to the
    larger macro-F1 (the per-pair F1 is separable, so one assignment solves
    the lexicographic objective), which keeps the scores invariant under
    relabeling of the predicted clusters."""
    table = _contingency(pred, truth)
    k = table.shape[0]
    sums = table.sum(axis=1, keepdims=True) + table.sum(axis=0, keepdims=True)
    pair_f1 = np.divide(2.0 * table, sums, out=np.zeros(table.shape), where=sums > 0)
    # the F1 sum of any bijection is below k + 1, so agreement ranks first
    mapping = _assignment(-(table.astype(np.float64) * (k + 1) + pair_f1))
    matched = np.empty_like(table)
    matched[mapping] = table
    return mapping, matched


def match_clusters(pred: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Relabel predicted clusters by the bijection of ``_matched``."""
    mapping, _ = _matched(pred, truth)
    return mapping[np.asarray(pred, dtype=np.int64)]


def accuracy(pred: np.ndarray, truth: np.ndarray) -> float:
    """Best agreement over all cluster-to-class bijections: the matched table's trace / n."""
    _, matched = _matched(pred, truth)
    return float(np.trace(matched) / matched.sum())


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
    """Macro-averaged F1 over the matched pairs, the rows of the matched table
    ``T``: pair ``c`` scores ``2 T[c, c] / (row_c + col_c)``, and 0 where it
    has no member on either side. The sum is divided by the number of ids
    used by the side that uses more, so the score does not depend on which
    ids the labels use."""
    _, matched = _matched(pred, truth)
    rows, cols = matched.sum(axis=1), matched.sum(axis=0)
    denom = rows + cols
    scores = np.divide(2 * np.diagonal(matched), denom, out=np.zeros(denom.size), where=denom > 0)
    return float(scores.sum() / max(np.count_nonzero(rows), np.count_nonzero(cols)))
