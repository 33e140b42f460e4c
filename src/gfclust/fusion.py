"""View weighting, consensus fusion and the clustering-alignment losses.

Training runs the Tensor functions (``*_t``); the numpy entry points
``evaluate_view``, ``fuse_views``, ``soft_assignment`` and ``kl_divergence``
are thin wrappers over them, so each quantity has one implementation.
"""

from __future__ import annotations

import warnings

import numpy as np

from .autograd import Tensor, as_tensor
from .errors import NumericsWarning
from .graphs import MultiViewGraph, check_one_hot, homophily_ratio

__all__ = [
    "evaluate_view",
    "fuse_views",
    "update_hr",
    "soft_assignment",
    "target_distribution",
    "kl_divergence",
]

_FUSE_TOL = 1e-6
_FUSE_MAX_ROUNDS = 50
_LOG_FLOOR = 1e-12


def evaluate_view_t(h_v: Tensor, h_bar: Tensor) -> Tensor:
    """Mean row-wise cosine similarity (differentiable, zero rows contribute ~0)."""
    dots = (h_v * h_bar).sum(axis=1)
    norm_v = ((h_v * h_v).sum(axis=1) + 1e-30).sqrt()
    norm_b = ((h_bar * h_bar).sum(axis=1) + 1e-30).sqrt()
    return (dots / (norm_v * norm_b)).mean()


def evaluate_view(h_v: np.ndarray, h_bar: np.ndarray) -> float:
    """Mean over nodes of the cosine similarity between matching rows.

    Rows where either side is all-zero contribute 0 to the mean.
    """
    h_v = np.asarray(h_v, dtype=np.float64)
    h_bar = np.asarray(h_bar, dtype=np.float64)
    if h_v.shape != h_bar.shape:
        raise ValueError(f"shape mismatch: {h_v.shape} vs {h_bar.shape}")
    return float(evaluate_view_t(Tensor(h_v), Tensor(h_bar)).data)


def fuse_views_t(embeddings: list, rho: float, tol: float = _FUSE_TOL, max_rounds: int = _FUSE_MAX_ROUNDS):
    """Fixed-point view weighting; returns (scalar weight tensors, consensus tensor).

    Weights start uniform with the consensus at the plain mean, then follow
    w_v = (eva_v / max eva)^rho renormalized to sum 1 until the largest weight
    change drops below ``tol``. Negative similarities are clamped to zero; if
    no view has positive similarity the weights fall back to uniform.
    """
    n_views = len(embeddings)
    if n_views < 1:
        raise ValueError("fuse_views needs at least one view")
    uniform = [Tensor(1.0 / n_views) for _ in range(n_views)]

    def combine(ws):
        out = ws[0] * embeddings[0]
        for w, h in zip(ws[1:], embeddings[1:]):
            out = out + w * h
        return out

    weights = uniform
    h_bar = combine(weights)
    for _ in range(max_rounds):
        evas = [evaluate_view_t(h, h_bar) for h in embeddings]
        top = evas[0]
        for e in evas[1:]:
            top = top.maximum(e)
        if top.data <= 0.0:
            warnings.warn(
                "all view similarities are <= 0; falling back to uniform weights",
                NumericsWarning,
                stacklevel=2,
            )
            weights = uniform
            h_bar = combine(weights)
            break
        raw = [(e.relu() / top) ** rho for e in evas]
        total = raw[0]
        for w in raw[1:]:
            total = total + w
        new_weights = [w / total for w in raw]
        delta = max(abs(float(nw.data) - float(w.data)) for nw, w in zip(new_weights, weights))
        weights = new_weights
        h_bar = combine(weights)
        if delta < tol:
            break
    return weights, h_bar


def fuse_views(embeddings: list, rho: float):
    """Weight and fuse per-view embeddings into the consensus embedding.

    Returns ``(weights, consensus)`` with weights summing to 1.
    """
    tensors = [as_tensor(np.asarray(h, dtype=np.float64)) for h in embeddings]
    weights, h_bar = fuse_views_t(tensors, rho)
    return np.array([float(w.data) for w in weights]), h_bar.data


def update_hr(g: MultiViewGraph, pseudo_one_hot: np.ndarray) -> list:
    """Per-view homophily ratio under the current pseudo-labels, from the CSR views."""
    pseudo = check_one_hot(pseudo_one_hot)
    return [homophily_ratio(a, pseudo) for a in g.csr_adjacencies]


def soft_assignment_t(h: Tensor, centers: np.ndarray) -> Tensor:
    c = Tensor(np.asarray(centers, dtype=np.float64))
    sq_h = (h * h).sum(axis=1, keepdims=True)
    sq_c = Tensor((np.asarray(centers) ** 2).sum(axis=1)[None, :])
    d2 = (sq_h - 2.0 * (h @ c.T) + sq_c).relu()
    q = 1.0 / (1.0 + d2)
    return q / q.sum(axis=1, keepdims=True)


def soft_assignment(h: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Row-stochastic Student-t (1 d.o.f.) soft cluster assignment."""
    centers = np.asarray(centers, dtype=np.float64)
    if not np.isfinite(centers).all():
        raise ValueError("cluster centers contain non-finite entries")
    return soft_assignment_t(Tensor(h), centers).data


def target_distribution(q: np.ndarray) -> np.ndarray:
    """Self-sharpened target: p_ij proportional to q_ij^2 / column mass."""
    q = np.asarray(q, dtype=np.float64)
    mass = q.sum(axis=0)
    dead = mass == 0.0
    if dead.any():
        warnings.warn(
            f"{int(dead.sum())} clusters with zero total mass dropped from sharpening",
            NumericsWarning,
            stacklevel=2,
        )
    weight = (q * q) / np.where(dead, 1.0, mass)
    weight[:, dead] = 0.0
    return weight / weight.sum(axis=1, keepdims=True)


def kl_divergence_t(p: np.ndarray, q: Tensor) -> Tensor:
    """KL(p || q) with p as a constant target; 0 log 0 = 0 and q floored at 1e-12."""
    p = np.asarray(p, dtype=np.float64)
    if ((q.data < _LOG_FLOOR) & (p > 0)).any():
        warnings.warn(
            "soft assignment has near-zero mass where the target is positive; clamping",
            NumericsWarning,
            stacklevel=2,
        )
    p_log_p = float(np.sum(p[p > 0] * np.log(p[p > 0])))
    return p_log_p - (Tensor(p) * q.maximum(_LOG_FLOOR).log()).sum()


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    return float(kl_divergence_t(p, Tensor(np.asarray(q, dtype=np.float64))).data)


def kl_terms_t(p_per_view: list, q_per_view: list, p_bar: np.ndarray, q_bar: Tensor) -> Tensor:
    """Sum of the three alignment terms: consensus target vs each view's
    assignment, each view's own target vs its assignment, and consensus vs
    consensus."""
    total = kl_divergence_t(p_bar, q_bar)
    for p_v, q_v in zip(p_per_view, q_per_view):
        total = total + kl_divergence_t(p_bar, q_v) + kl_divergence_t(p_v, q_v)
    return total
