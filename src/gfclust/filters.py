"""Joint aggregation kernel and the low/high-pass hybrid graph filters.

The filter kernel is either the row-normalized joint aggregation matrix built
from a view's embedding pair, or the view's own random-walk adjacency (the
`raw_adjacency` ablation). Powers are applied as ``k`` successive products
against the signal; the ``k``-th matrix power is never materialized.

The joint aggregation kernel is one autograd op with a hand-written backward.
Its Gram matrix ``s = z z^T`` of ``z = z_a z_x^T`` is computed as
``z_a (z_x^T z_x) z_a^T``, so neither the n x n ``z`` nor an O(n^3) product is
formed, and forward and backward walk row blocks of ``s``: O(n^2 l) work for
latent width ``l`` and O(block * n) scratch. The backward recomputes each
block's clamp mask rather than keeping ``s``. ``build_joint_aggregation`` and
``apply_filter`` are the numpy entry points to the same ops.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .autograd import Tensor
from .encoders import EmbeddingPair
from .errors import ConfigError, NumericsWarning
from .graphs import MultiViewGraph, random_walk_normalize

__all__ = [
    "FilterConfig",
    "build_joint_aggregation",
    "apply_filter",
    "per_view_embedding",
    "filter_frequency_response",
]

FAMILIES = ("adaptive_hybrid", "low_pass", "high_pass", "fixed_mix")
MATRIX_SOURCES = ("joint_aggregation", "raw_adjacency")

_RIDGE = 1e-8
_BLOCK_ROWS = 128  # rows of s per block in the kernel's forward and backward


@dataclass
class FilterConfig:
    order: int = 2
    hr: float = 0.5
    family: str = "adaptive_hybrid"
    alpha: float = 0.5  # fixed_mix only
    matrix_source: str = "joint_aggregation"

    def __post_init__(self):
        if self.order < 1:
            raise ConfigError("filter order must be >= 1")
        if not 0.0 <= self.hr <= 1.0:
            raise ConfigError("hr must lie in [0, 1]")
        if self.family not in FAMILIES:
            raise ConfigError(f"family must be one of {FAMILIES}")
        if self.family == "fixed_mix" and not 0.0 <= self.alpha <= 1.0:
            raise ConfigError("alpha must lie in [0, 1]")
        if self.matrix_source not in MATRIX_SOURCES:
            raise ConfigError(f"matrix_source must be one of {MATRIX_SOURCES}")


def _row_blocks(n: int):
    for start in range(0, n, _BLOCK_ROWS):
        yield slice(start, min(start + _BLOCK_ROWS, n))


def joint_aggregation_t(z_a: Tensor, z_x: Tensor) -> Tensor:
    """Row-stochastic joint aggregation kernel ``s_rw`` as one autograd op.

    ``s = (z_a z_x^T)(z_a z_x^T)^T`` is clamped at zero, ridged with
    ``1e-8 * I`` and row-normalized. The op works from ``zk = z_a z_x^T z_x``
    in blocks of rows: the forward writes each block of ``s_rw`` straight into
    the output, and the backward recomputes each block's clamp mask instead of
    keeping ``s``. Both are O(n^2 l) work with O(block * n) scratch beside the
    n x n output and its gradient. A row that is all-zero before the ridge
    triggers one NumericsWarning with the count of such rows.
    """
    a, x = z_a.data, z_x.data
    n = a.shape[0]
    zk = a @ (x.T @ x)  # s = zk a^T: each row of s costs O(n l)
    s_rw = np.empty((n, n))
    r = np.empty(n)
    zero_rows = 0
    for rows in _row_blocks(n):
        blk = s_rw[rows]
        np.matmul(zk[rows], a.T, out=blk)
        np.maximum(blk, 0.0, out=blk)
        mass = blk.sum(axis=1)
        zero_rows += int(np.count_nonzero(mass == 0.0))
        i = np.arange(rows.stop - rows.start)
        blk[i, rows.start + i] += _RIDGE
        r[rows] = mass + _RIDGE
        blk /= r[rows, None]
    if zero_rows:
        warnings.warn(
            f"{zero_rows} all-zero rows in the clamped Gram matrix; "
            "the diagonal ridge keeps them row-stochastic",
            NumericsWarning,
            stacklevel=2,
        )

    def backward(grad):
        # ds = mask * (G - rowsum(G * s_rw)) / r; with K = z_x^T z_x symmetric,
        # dz_a = (ds + ds^T) zk, dK = z_a^T ds z_a and dz_x = z_x (dK + dK^T)
        right = np.hstack([zk, a])
        latent = a.shape[1]
        g_a = np.zeros_like(a)
        g_k = np.zeros((latent, latent))
        for rows in _row_blocks(n):
            ds = grad[rows] - np.einsum("ij,ij->i", grad[rows], s_rw[rows])[:, None]
            ds /= r[rows, None]
            ds[zk[rows] @ a.T <= 0.0] = 0.0
            prod = ds @ right
            g_a[rows] += prod[:, :latent]
            g_a += ds.T @ zk[rows]
            g_k += a[rows].T @ prod[:, latent:]
        return g_a, x @ (g_k + g_k.T)

    return Tensor._from_op(s_rw, (z_a, z_x), backward)


def build_joint_aggregation(pair: EmbeddingPair) -> np.ndarray:
    """Row-stochastic joint aggregation kernel ``s_rw`` of one view's embedding pair."""
    return joint_aggregation_t(Tensor(pair.z_a), Tensor(pair.z_x)).data


def _low_pass(s_rw, x, k: int):
    y = x
    for _ in range(k):
        y = s_rw @ y
    return y


def _high_pass(s_rw, x, k: int):
    y = x
    for _ in range(k):
        y = y - s_rw @ y
    return y


def apply_filter_t(s_rw: Tensor, x: Tensor, cfg: FilterConfig) -> Tensor:
    k = cfg.order
    if cfg.family == "low_pass":
        return _low_pass(s_rw, x, k)
    if cfg.family == "high_pass":
        return _high_pass(s_rw, x, k)
    mix = cfg.hr if cfg.family == "adaptive_hybrid" else cfg.alpha
    return mix * _low_pass(s_rw, x, k) + (1.0 - mix) * _high_pass(s_rw, x, k)


def apply_filter(s_rw: np.ndarray, x: np.ndarray, cfg: FilterConfig) -> np.ndarray:
    """Filter a node signal with the configured family and order."""
    s_rw = np.asarray(s_rw, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if s_rw.ndim != 2 or s_rw.shape[0] != s_rw.shape[1]:
        raise ValueError(f"kernel must be square, got {s_rw.shape}")
    if x.shape[0] != s_rw.shape[0]:
        raise ValueError(f"signal rows {x.shape[0]} do not match kernel size {s_rw.shape[0]}")
    return apply_filter_t(Tensor(s_rw), Tensor(x), cfg).data


def per_view_embedding(
    g: MultiViewGraph,
    view: int,
    pair: EmbeddingPair,
    hr_v: float,
    cfg: FilterConfig,
) -> np.ndarray:
    """One view's filtered node embedding on the shared feature matrix."""
    if not 0.0 <= hr_v <= 1.0:
        raise ConfigError("hr_v must lie in [0, 1]")
    if cfg.matrix_source == "raw_adjacency":
        kernel = random_walk_normalize(g.adjacencies[view])
    else:
        kernel = build_joint_aggregation(pair)
    return apply_filter(kernel, g.features, replace(cfg, hr=hr_v))


def filter_frequency_response(cfg: FilterConfig, lambdas: np.ndarray | None = None):
    """Scalar spectral response g(lambda) sampled on a grid over [0, 2].

    For the hybrid family g(lambda) = hr (1-lambda)^k + (1-hr) lambda^k; the
    pure families keep only one term and fixed_mix swaps hr for alpha.
    """
    if lambdas is None:
        lambdas = np.linspace(0.0, 2.0, 201)
    lam = np.asarray(lambdas, dtype=np.float64)
    k = cfg.order
    low = (1.0 - lam) ** k
    high = lam ** k
    if cfg.family == "low_pass":
        values = low
    elif cfg.family == "high_pass":
        values = high
    else:
        mix = cfg.hr if cfg.family == "adaptive_hybrid" else cfg.alpha
        values = mix * low + (1.0 - mix) * high
    return lam, values
