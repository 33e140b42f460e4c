"""View weighting, consensus fusion and the clustering-alignment losses.

Each quantity has one implementation, the Tensor function (``*_t``) that
training runs; ``target_distribution`` and ``update_hr`` take and give plain
arrays, since no gradient flows through either.

``fuse_views_t`` is one autograd op with a replaying backward (checkpointed
reverse mode): the forward runs the fixed-point rounds in numpy and keeps
only each round's weights and similarities, and the backward recomputes
each round's consensus from its weights while it walks the rounds in
reverse. No round leaves an n x d array on the tape. A round's weights are
``relu(e)^rho`` normalized to sum 1 (the forward's scaling by the largest
similarity cancels), so their Jacobian is taken in closed form, and the
gradient is that of the unrolled iteration.

The similarity and the alignment are closed-form ops too, each forward the
numpy arithmetic of its taped composition in the same order:
``evaluate_view_t`` is one op whose backward is the fusion's
``_similarity_backward``; ``soft_assignment_t`` is the product ``h c^T``
and one op for the Student-t kernel and its row normalization; and
``kl_divergence_t`` is one op. Together the last two give the closed-form
gradient of Xie, Girshick & Farhadi (ICML 2016, eq. 4, nu = 1), split at
the assignment ``q``.
"""

from __future__ import annotations

import warnings

import numpy as np

from .autograd import Tensor
from .errors import NumericsWarning
from .graphs import MultiViewGraph, check_one_hot, homophily_ratio

__all__ = [
    "evaluate_view_t",
    "fuse_views_t",
    "update_hr",
    "soft_assignment_t",
    "target_distribution",
    "kl_divergence_t",
    "kl_terms_t",
]

_FUSE_TOL = 1e-6
_FUSE_MAX_ROUNDS = 50
_LOG_FLOOR = 1e-12


def evaluate_view_t(h_v: Tensor, h_bar: Tensor) -> Tensor:
    """Mean row-wise cosine similarity, as one op.

    A row that is zero on either side contributes 0 and takes a zero
    gradient: the 1e-30 guard only keeps its division finite, and its
    gradient through the guard would scale the other side's row by 1e15.
    The mean is taken as ``sum * (1 / n)``; the backward is
    ``_similarity_backward``.
    """
    hv, hb = h_v.data, h_bar.data
    sq_v, sq_b = (hv * hv).sum(axis=1), (hb * hb).sum(axis=1)
    live = (sq_v > 0.0) & (sq_b > 0.0)
    cos = (hv * hb).sum(axis=1) / (np.sqrt(sq_v + 1e-30) * np.sqrt(sq_b + 1e-30))
    value = (cos * live).sum() * (1.0 / cos.size)

    def backward(grad):
        return _similarity_backward(grad, hv, hb, sq_b)

    return Tensor._from_op(value, (h_v, h_bar), backward)


def _combine(weights, hs: list) -> np.ndarray:
    """``sum_v w_v h_v``, added in view order."""
    out = weights[0] * hs[0]
    for w, h in zip(weights[1:], hs[1:]):
        out += w * h
    return out


def _similarity_grads(weights: np.ndarray, evas: np.ndarray, gw: np.ndarray, rho: float):
    """Gradients of a round's similarities from those of the weights it returned.

    ``w_v = relu(e_v)^rho / sum_u relu(e_u)^rho``, so ``dw_u / de_v =
    rho w_u (delta_uv - w_v) / e_v`` and ``g_e_v = rho w_v (g_v - sum_u w_u
    g_u) / e_v`` where ``e_v > 0``; the relu makes it 0 elsewhere. The
    difference is taken as ``sum_u w_u (g_v - g_u)``, equal since the weights
    sum to 1, which does not cancel when one weight rounds to 1.
    """
    g_evas = np.zeros_like(evas)
    pos = evas > 0.0
    g_evas[pos] = rho * weights[pos] * ((gw[pos, None] - gw) @ weights) / evas[pos]
    return g_evas


def _similarity_backward(g_e, h: np.ndarray, h_bar: np.ndarray, sq_bar: np.ndarray):
    """Gradients of ``g_e * evaluate_view_t(h, h_bar)`` w.r.t. ``h`` and ``h_bar``;
    ``sq_bar`` holds the squared row norms of ``h_bar``.

    Row i of the mean contributes ``cos_i = <h_i, b_i> / (|h_i| |b_i|)``, whose
    gradient is ``b_i / (|h_i| |b_i|) - cos_i h_i / |h_i|^2`` for ``h_i`` and
    the mirror image for ``b_i``; the norms carry the same 1e-30 guard, and a
    row with ``|h_i| |b_i| = 0`` gets a zero gradient on both sides.
    """
    sq = (h * h).sum(axis=1)
    norm, norm_bar = np.sqrt(sq + 1e-30), np.sqrt(sq_bar + 1e-30)
    c = g_e / h.shape[0]
    inv = 1.0 / (norm * norm_bar)
    inv[(sq == 0.0) | (sq_bar == 0.0)] = 0.0
    c_cos = c * (h * h_bar).sum(axis=1) * inv
    g_h = (c * inv)[:, None] * h_bar - (c_cos / (norm * norm))[:, None] * h
    g_bar = (c * inv)[:, None] * h - (c_cos / (norm_bar * norm_bar))[:, None] * h_bar
    return g_h, g_bar


def fuse_views_t(embeddings: list, rho: float):
    """Fixed-point view weighting; returns (weights as a float array, consensus tensor).

    Weights start uniform with the consensus at the plain mean, then follow
    w_v = (eva_v / max eva)^rho renormalized to sum 1 until the largest weight
    change drops below ``_FUSE_TOL``, for at most ``_FUSE_MAX_ROUNDS`` rounds.
    Negative similarities are clamped to zero; if no view has positive
    similarity the weights fall back to uniform. Scaling by the max keeps each
    power at most 1, so a large rho cannot underflow the total to 0.

    The consensus is one op: the forward runs the rounds in numpy and keeps
    each round's input weights, similarities and output weights, and the
    backward replays the rounds in reverse, recomputing each round's consensus
    from the weights it was combined with. The max cancels from the normalized
    weights, so a round's weight Jacobian is that of ``relu(e)^rho / sum``:
    ``g_e_v = rho w_v (g_v - sum_u w_u g_u) / e_v`` where ``e_v > 0``, else 0,
    with ``w`` the weights the round returned. That is the gradient of the
    unrolled iteration. The weights come back as constants; the uniform
    fallback's consensus depends on the views only through its plain mean.
    """
    n_views = len(embeddings)
    if n_views < 1:
        raise ValueError("fuse_views_t needs at least one view")
    hs = [h.data for h in embeddings]
    uniform = np.full(n_views, 1.0 / n_views)
    weights, rounds = uniform, []
    h_bar = _combine(weights, hs)
    for _ in range(_FUSE_MAX_ROUNDS):
        evas = np.array([evaluate_view_t(Tensor(h), Tensor(h_bar)).data for h in hs])
        top = evas.max()
        if top <= 0.0:
            warnings.warn(
                "all view similarities are <= 0; falling back to uniform weights",
                NumericsWarning,
                stacklevel=2,
            )
            weights, rounds = uniform, []
            h_bar = _combine(weights, hs)
            break
        raw = (evas * (evas > 0.0) / top) ** float(rho)
        total = raw[0]
        for w in raw[1:]:
            total = total + w
        new_weights = raw / total
        delta = np.abs(new_weights - weights).max()
        rounds.append((weights, evas, new_weights))
        weights = new_weights
        h_bar = _combine(weights, hs)
        if delta < _FUSE_TOL:
            break

    def backward(grad):
        grads = [w * grad for w in weights]
        g_bar = grad
        for before, evas, after in reversed(rounds):
            gw = np.array([np.sum(g_bar * h) for h in hs])
            g_evas = _similarity_grads(after, evas, gw, rho)
            h_prev = _combine(before, hs)
            sq_bar = (h_prev * h_prev).sum(axis=1)
            g_bar = None
            for v, g_e in enumerate(g_evas):
                if g_e == 0.0:
                    continue
                g_h, g_b = _similarity_backward(g_e, hs[v], h_prev, sq_bar)
                grads[v] += g_h
                g_bar = g_b if g_bar is None else g_bar + g_b
            if g_bar is None:
                break
            for v, w in enumerate(before):
                grads[v] += w * g_bar
        return tuple(grads)

    return weights, Tensor._from_op(h_bar, tuple(embeddings), backward)


def update_hr(g: MultiViewGraph, pseudo_one_hot: np.ndarray) -> list:
    """Per-view homophily ratio under the current pseudo-labels, from the CSR views."""
    pseudo = check_one_hot(pseudo_one_hot)
    return [homophily_ratio(a, pseudo) for a in g.adjacencies]


def soft_assignment_t(h: Tensor, centers: np.ndarray) -> Tensor:
    """Row-stochastic Student-t (1 d.o.f.) soft cluster assignment.

    Two ops: the product ``cross = h c^T`` and one op on ``(h, cross)`` for
    ``d = relu(|h|^2 - 2 cross + |c|^2)``, ``u = 1 / (1 + d)`` and
    ``q = u / rowsum(u)``. With ``t = rowsum(G q)``, the gradient ``G`` of
    ``q`` gives ``G_d = -u q (G - t) [d > 0]``, and the op returns
    ``2 h rowsum(G_d)`` to ``h`` and ``-2 G_d`` to ``cross``.
    """
    centers = np.asarray(centers, dtype=np.float64)
    cross = h @ Tensor(centers.T)
    sq_h = (h.data * h.data).sum(axis=1, keepdims=True)
    d = sq_h - cross.data * 2.0 + (centers**2).sum(axis=1)[None, :]
    positive = d > 0.0
    u = 1.0 / (d * positive + 1.0)
    q = u / u.sum(axis=1, keepdims=True)

    def backward(grad):
        t = (grad * q).sum(axis=1, keepdims=True)
        g_d = (t - grad) * q * u * positive
        return (h.data * (2.0 * g_d.sum(axis=1, keepdims=True)), -2.0 * g_d)

    return Tensor._from_op(q, (h, cross), backward)


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
    """KL(p || q) with p as a constant target; 0 log 0 = 0 and q floored at 1e-12.

    One op; its gradient is ``-g p / max(q, 1e-12)`` where ``q >= 1e-12``
    and 0 where the floor holds ``q`` up.
    """
    p = np.asarray(p, dtype=np.float64)
    if ((q.data < _LOG_FLOOR) & (p > 0)).any():
        warnings.warn(
            "soft assignment has near-zero mass where the target is positive; clamping",
            NumericsWarning,
            stacklevel=2,
        )
    p_log_p = float(np.sum(p[p > 0] * np.log(p[p > 0])))
    unfloored = q.data >= _LOG_FLOOR
    floored = np.maximum(q.data, _LOG_FLOOR)

    def backward(grad):
        return (-grad * p / floored * unfloored,)

    return Tensor._from_op(p_log_p - (p * np.log(floored)).sum(), (q,), backward)


def kl_terms_t(p_per_view: list, q_per_view: list, p_bar: np.ndarray, q_bar: Tensor) -> Tensor:
    """Sum of the three alignment terms: consensus target vs each view's
    assignment, each view's own target vs its assignment, and consensus vs
    consensus."""
    total = kl_divergence_t(p_bar, q_bar)
    for p_v, q_v in zip(p_per_view, q_per_view):
        total = total + kl_divergence_t(p_bar, q_v) + kl_divergence_t(p_v, q_v)
    return total
