"""Brute-force oracles: metrics as plain loops, kernels and losses as plain taped ops."""

from itertools import permutations

import numpy as np

from gfclust.autograd import Tensor
from gfclust.encoders import decode_t, mse_t


def pairs(n):
    for i in range(n):
        for j in range(i + 1, n):
            yield i, j


def oracle_ari(pred, truth):
    """Adjusted Rand index by exhaustive pair counting."""
    n = len(pred)
    if n < 2:
        return 1.0
    together_both = together_pred = together_truth = total = 0
    for i, j in pairs(n):
        total += 1
        same_p = pred[i] == pred[j]
        same_t = truth[i] == truth[j]
        together_pred += same_p
        together_truth += same_t
        together_both += same_p and same_t
    expected = together_pred * together_truth / total
    max_index = 0.5 * (together_pred + together_truth)
    if max_index == expected:
        return 1.0
    return (together_both - expected) / (max_index - expected)


def oracle_nmi(pred, truth):
    """NMI (arithmetic-mean normalization) from a hand-counted contingency table."""
    n = len(pred)
    counts = {}
    for p, t in zip(pred, truth):
        counts[(p, t)] = counts.get((p, t), 0) + 1
    row = {}
    col = {}
    for (p, t), c in counts.items():
        row[p] = row.get(p, 0) + c
        col[t] = col.get(t, 0) + c

    def entropy(marginal):
        return -sum((c / n) * np.log(c / n) for c in marginal.values() if c > 0)

    h_pred, h_truth = entropy(row), entropy(col)
    if h_pred == 0.0 or h_truth == 0.0:
        return 0.0
    mutual = 0.0
    for (p, t), c in counts.items():
        mutual += (c / n) * np.log((c / n) / ((row[p] / n) * (col[t] / n)))
    return mutual / (0.5 * (h_pred + h_truth))


def _optimal_bijections(pred, truth):
    """All label bijections maximizing agreement, by exhaustive enumeration."""
    k = int(max(max(pred), max(truth))) + 1
    best, best_maps = -1, []
    for perm in permutations(range(k)):
        agree = sum(perm[p] == t for p, t in zip(pred, truth))
        if agree > best:
            best, best_maps = agree, [perm]
        elif agree == best:
            best_maps.append(perm)
    return best, best_maps


def oracle_accuracy(pred, truth):
    best, _ = _optimal_bijections(pred, truth)
    return best / len(pred)


def oracle_f1_candidates(pred, truth):
    """Macro-F1 values under every agreement-maximizing bijection.

    The Hungarian step may break ties between equally good matchings either
    way, so the implementation is correct if it hits any candidate.
    """
    _, maps = _optimal_bijections(pred, truth)
    k = int(max(max(pred), max(truth))) + 1
    out = set()
    for perm in maps:
        mapped = [perm[p] for p in pred]
        scores = []
        for cls in range(k):
            tp = sum(m == cls and t == cls for m, t in zip(mapped, truth))
            fp = sum(m == cls and t != cls for m, t in zip(mapped, truth))
            fn = sum(m != cls and t == cls for m, t in zip(mapped, truth))
            denom = 2 * tp + fp + fn
            scores.append(2 * tp / denom if denom > 0 else 0.0)
        out.add(sum(scores) / len(scores))
    return out


def oracle_joint_aggregation_t(z_a, z_x):
    """Joint aggregation kernel ``s_rw`` composed from plain taped ops.

    The dense ``z = z_a z_x^T``, the O(n^3) Gram ``z z^T``, the clamp, a dense
    ridge and the row normalization: the reference for the factored,
    row-blocked op in ``gfclust.filters``.
    """
    z = z_a @ z_x.T
    s = z @ z.T
    ridged = s.relu() + Tensor(1e-8 * np.eye(s.shape[0]))
    return ridged / ridged.sum(axis=1, keepdims=True)


def _taped_low_pass(s_rw, x, k):
    y = x
    for _ in range(k):
        y = s_rw @ y
    return y


def _taped_high_pass(s_rw, x, k):
    y = x
    for _ in range(k):
        y = y - s_rw @ y
    return y


def oracle_apply_filter_t(s_rw, x, cfg):
    """The hybrid filter as separate taped low- and high-pass chains on a
    materialized kernel Tensor: ``hr S^k x + (1 - hr)(I - S)^k x`` with ``2k``
    products, the reference for the fused op in ``gfclust.filters``."""
    k = cfg.order
    if cfg.family == "low_pass":
        return _taped_low_pass(s_rw, x, k)
    if cfg.family == "high_pass":
        return _taped_high_pass(s_rw, x, k)
    mix = cfg.hr if cfg.family == "adaptive_hybrid" else cfg.alpha
    return mix * _taped_low_pass(s_rw, x, k) + (1.0 - mix) * _taped_high_pass(s_rw, x, k)


def oracle_adjacency_mse_t(params, z, a):
    """Adjacency reconstruction MSE by the dense decode: the n x n ``decode_t``
    output scored by ``mse_t`` against dense ``a``, the reference for the
    factored ``gfclust.encoders.adjacency_mse_t``."""
    return mse_t(decode_t(params, z), a)


def oracle_homophily_ratio(a, labels_one_hot):
    """Homophily ratio from the dense same-label matrix ``p p^T`` and an
    off-diagonal mask, the reference for the edge-list form."""
    p = np.asarray(labels_one_hot, dtype=np.float64)
    off = ~np.eye(a.shape[0], dtype=bool)
    return float((a * (p @ p.T) * off).sum() / (a * off).sum())
