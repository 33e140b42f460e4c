"""Joint aggregation kernel and the low/high-pass hybrid graph filters.

A filter is one polynomial in its kernel ``S``: ``h = sum_p c_p S^p x`` for
``p = 0..k``, with ``c = hr e_k + (1 - hr) ((-1)^p C(k, p))_p``, so the
low-pass ``S^k x`` and the high-pass ``(I - S)^k x`` share their ``k``
products (``filter_coefficients``). The kernel is either the row-normalized
joint aggregation matrix of a view's embedding pair, or the view's own
random-walk adjacency (the ``raw_adjacency`` ablation, a CSR array). The
``k``-th matrix power is never materialized.

The joint aggregation kernel stays factored: ``joint_aggregation_t`` returns
a ``JointKernel`` holding ``z_a``, ``z_x`` and ``zk = z_a (z_x^T z_x)``, and
``apply_filter_t`` runs the kernel and the filter as one autograd op with a
hand-written backward. The clamped Gram matrix ``C = max(zk z_a^T, 0)`` is
recomputed on every pass and ``S = (C + ridge I) / r`` is never formed, nor
is its gradient: the forward makes ``k`` passes, the backward ``k - 1`` (at
least one), each O(n^2 (l + d)) work for latent width ``l`` and signal
width ``d``. ``C`` is symmetric, so a product pass walks the tile pairs
``(I, J)``, ``I <= J``, of its upper triangle (the BLAS ``syrk`` idea): each
``block x block`` tile is formed and clamped once and serves rows ``I``
and, transposed, rows ``J``, with O(block^2) scratch. The backward's last
pass stays in ``block x n`` row blocks: row ``i`` of ``B_1`` and of the
kernel's gradient needs all of row ``i`` of ``C``, where a tile holds only
part of it. ``build_joint_gram`` is the one place an n x n kernel matrix is
formed, tile by mirrored tile: the exactly symmetric ``C + ridge I``, whose
walk is ``S``, for the spectral diagnostics.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .autograd import Tensor
from .errors import ConfigError, DivergenceError, NumericsWarning

__all__ = [
    "FilterConfig",
    "build_joint_gram",
    "filter_coefficients",
    "filter_frequency_response",
]

FAMILIES = ("adaptive_hybrid", "low_pass", "high_pass", "fixed_mix")
MATRIX_SOURCES = ("joint_aggregation", "raw_adjacency")

_RIDGE = 1e-8
_BLOCK_ROWS = 128  # rows of the Gram matrix per block in every kernel pass


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


def filter_coefficients(cfg: FilterConfig) -> np.ndarray:
    """Coefficients ``c_0..c_k`` of the filter polynomial ``sum_p c_p S^p``.

    Low-pass is ``S^k`` (``e_k``), high-pass is ``(I - S)^k``, whose
    binomial row is ``(-1)^p C(k, p)``; the hybrid mixes the two with ``hr``
    and fixed_mix with ``alpha``.
    """
    k = cfg.order
    low = np.zeros(k + 1)
    low[k] = 1.0
    high = np.array([(-1.0) ** p * math.comb(k, p) for p in range(k + 1)])
    if cfg.family == "low_pass":
        return low
    if cfg.family == "high_pass":
        return high
    mix = cfg.hr if cfg.family == "adaptive_hybrid" else cfg.alpha
    return mix * low + (1.0 - mix) * high


@dataclass(frozen=True, eq=False)
class JointKernel:
    """The joint aggregation kernel ``s_rw`` of one embedding pair, kept factored.

    ``s_rw = (C + ridge I) / r`` with ``C = max(zk z_a^T, 0)`` and
    ``r = rowsum(C) + ridge``; ``apply_filter_t`` evaluates it in row blocks.
    """

    z_a: Tensor
    z_x: Tensor
    zk: np.ndarray  # z_a (z_x^T z_x), so that C = max(zk z_a^T, 0)

    @property
    def shape(self) -> tuple:
        n = self.zk.shape[0]
        return (n, n)

    def detach(self) -> "JointKernel":
        return JointKernel(self.z_a.detach(), self.z_x.detach(), self.zk)


def _row_blocks(n: int):
    for start in range(0, n, _BLOCK_ROWS):
        yield slice(start, min(start + _BLOCK_ROWS, n))


def _tile_pairs(n: int):
    """The tile pairs ``(I, J)``, ``I <= J``, of an n x n matrix's upper triangle."""
    blocks = list(_row_blocks(n))
    for i, rows in enumerate(blocks):
        for cols in blocks[i:]:
            yield rows, cols


def _gram_tile(kernel: JointKernel, rows: slice, cols: slice) -> np.ndarray:
    """Tile ``(rows, cols)`` of the clamped Gram matrix ``C = max(zk z_a^T, 0)``."""
    c = kernel.zk[rows] @ kernel.z_a.data[cols].T
    return np.maximum(c, 0.0, out=c)


def _gram_rows(kernel: JointKernel, rows: slice) -> np.ndarray:
    """Rows ``rows`` of ``C``, all ``n`` columns."""
    return _gram_tile(kernel, rows, slice(None))


def _ridged_product(kernel: JointKernel, y: np.ndarray) -> np.ndarray:
    """``(C + ridge I) y`` in one walk over the upper triangle of ``C``.

    Each tile ``c = C[I, J]``, ``I <= J``, is formed once and adds ``c y[J]``
    to rows ``I`` and, off the diagonal, ``c^T y[I]`` to rows ``J``: ``C`` is
    symmetric, so ``C[J, I] = c^T``.
    """
    out = _RIDGE * y
    for rows, cols in _tile_pairs(y.shape[0]):
        c = _gram_tile(kernel, rows, cols)
        out[rows] += c @ y[cols]
        if rows != cols:
            out[cols] += c.T @ y[rows]
    return out


def _check_row_sums(kernel: JointKernel, r: np.ndarray, stacklevel: int) -> None:
    """Raise DivergenceError when ``zk`` or ``r = rowsum(C) + ridge`` is
    non-finite: that is where an overflowing embedding first shows. Rows that
    are all-zero before the ridge (``r`` is the ridge alone) trigger one
    NumericsWarning with their count, at ``stacklevel`` as seen from the caller.
    """
    if not (np.isfinite(kernel.zk).all() and np.isfinite(r).all()):
        raise DivergenceError("joint aggregation kernel became non-finite")
    zero_rows = int(np.count_nonzero(r == _RIDGE))
    if zero_rows:
        warnings.warn(
            f"{zero_rows} all-zero rows in the clamped Gram matrix; "
            "the diagonal ridge keeps them row-stochastic",
            NumericsWarning,
            stacklevel=stacklevel + 1,
        )


def _first_pass(kernel: JointKernel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``((C + ridge I) x, r)`` with ``r = rowsum(C) + ridge``, from one walk.

    A column of ones appended to ``x`` makes ``r`` the last column of the
    same tile products. Raises DivergenceError before anything is normalized
    and warns about all-zero rows (``_check_row_sums``).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        prod = _ridged_product(kernel, np.hstack([x, np.ones((x.shape[0], 1))]))
        r = prod[:, -1].copy()  # the backward keeps r, not the whole product
        _check_row_sums(kernel, r, stacklevel=3)
    return prod[:, :-1], r


def joint_aggregation_t(z_a: Tensor, z_x: Tensor) -> JointKernel:
    """The row-stochastic joint aggregation kernel of ``(z_a, z_x)``, factored.

    ``s = (z_a z_x^T)(z_a z_x^T)^T`` is clamped at zero, ridged with
    ``1e-8 * I`` and row-normalized. Only ``zk = z_a (z_x^T z_x)`` is
    computed here (O(n l^2)); ``apply_filter_t`` filters with the kernel and
    carries the gradients to ``z_a`` and ``z_x``.
    """
    a, x = z_a.data, z_x.data
    with np.errstate(over="ignore", invalid="ignore"):
        zk = a @ (x.T @ x)
    return JointKernel(z_a, z_x, zk)


def build_joint_gram(z_a, z_x) -> np.ndarray:
    """The ridged Gram matrix ``B = C + ridge I`` of one view's encoded
    adjacency ``z_a`` and encoded features ``z_x``, equal 2-d shapes: the
    symmetric matrix whose walk ``D^-1 B``, ``D = diag(B 1)``, is ``s_rw``.
    """
    z_a, z_x = Tensor(z_a), Tensor(z_x)
    if z_a.shape != z_x.shape or z_a.ndim != 2:
        raise ValueError(f"z_a {z_a.shape} and z_x {z_x.shape} must be equal 2-d shapes")
    kernel = joint_aggregation_t(z_a, z_x)
    n = kernel.shape[0]
    b = np.empty((n, n))
    with np.errstate(over="ignore", invalid="ignore"):
        for rows, cols in _tile_pairs(n):
            c = _gram_tile(kernel, rows, cols)
            if rows == cols:  # mirror the diagonal tile's own upper triangle
                c = np.triu(c) + np.triu(c, 1).T
            b[rows, cols] = c
            b[cols, rows] = c.T
        b.flat[:: n + 1] += _RIDGE
        _check_row_sums(kernel, b.sum(axis=1), stacklevel=2)
    return b


def _joint_filter_t(kernel: JointKernel, x: np.ndarray, coeffs: np.ndarray) -> Tensor:
    """``sum_p c_p S^p x`` on the factored kernel, as one autograd op.

    Forward: ``Y_p = (C Y_{p-1} + ridge Y_{p-1}) / r``, each product one walk
    over the upper-triangle tiles of ``C`` (``_ridged_product``), the first
    also yielding ``r`` (``_first_pass``). Backward, with ``x`` constant and
    ``g`` the upstream gradient: ``B_k = c_k g`` and
    ``B_p = c_p g + S^T B_{p+1}``, where
    ``S^T b = (C + ridge I)(b / r)`` because ``C`` is symmetric. The kernel's
    upstream gradient ``G = sum_p B_p Y_{p-1}^T`` and ``rowsum(G * S) =
    sum_p <B_p, Y_p>`` are taken row block by row block, and the last step
    (``B_1``) shares the pass that forms ``ds = mask * (G - rowsum(G * S)) / r``.
    That pass stays in ``block x n`` row blocks (``_gram_rows``): a row of
    ``ds`` needs the whole row of ``C`` and of ``B_1``; the earlier ``B_p``
    are tile walks.
    With ``K = z_x^T z_x``, ``dz_a = (ds + ds^T) zk``, ``dK = z_a^T ds z_a``
    and ``dz_x = z_x (dK + dK^T)``.
    """
    k = len(coeffs) - 1
    y1, r = _first_pass(kernel, x)
    ys = [x, y1 / r[:, None]]
    for _ in range(1, k):
        ys.append(_ridged_product(kernel, ys[-1]) / r[:, None])
    h = coeffs[0] * x
    for c_p, y in zip(coeffs[1:], ys[1:]):
        h = h + c_p * y

    def backward(g):
        a, zk = kernel.z_a.data, kernel.zk
        n, d = x.shape
        latent = a.shape[1]
        # bs = [B_1 | ... | B_k]; B_1 is filled in block by block in the last pass
        bs = np.empty((n, k * d))
        bs[:, (k - 1) * d:] = coeffs[k] * g
        for p in range(k - 1, 1, -1):
            bs[:, (p - 1) * d:p * d] = coeffs[p] * g + _ridged_product(
                kernel, bs[:, p * d:(p + 1) * d] / r[:, None]
            )
        if k > 1:
            u = bs[:, d:2 * d] / r[:, None]  # S^T B_2 = (C + ridge I) u
        y_prev = np.hstack(ys[:k])
        y_next = np.hstack(ys[1:])
        right = np.hstack([zk, a])
        g_a = np.zeros_like(a)
        g_k = np.zeros((latent, latent))
        for rows in _row_blocks(n):
            c = _gram_rows(kernel, rows)
            if k > 1:
                bs[rows, :d] = coeffs[1] * g[rows] + c @ u + _RIDGE * u[rows]
            left = bs[rows]
            t = np.einsum("ij,ij->i", left, y_next[rows])
            ds = left @ y_prev.T
            ds -= t[:, None]
            ds *= c > 0.0
            ds /= r[rows, None]
            prod = ds @ right
            g_a[rows] += prod[:, :latent]
            g_a += ds.T @ zk[rows]
            g_k += a[rows].T @ prod[:, latent:]
        return g_a, kernel.z_x.data @ (g_k + g_k.T)

    return Tensor._from_op(h, (kernel.z_a, kernel.z_x), backward)


def apply_filter_t(kernel, x: Tensor, cfg: FilterConfig) -> Tensor:
    """Filter the constant signal ``x`` with the configured family and order.

    ``kernel`` is a ``JointKernel`` (the fused op, differentiable in its
    embeddings unless detached) or a constant matrix, a numpy array or a
    scipy sparse array.

    Raises:
        ValueError: ``x`` requires a gradient.
    """
    if x.requires_grad:
        raise ValueError("the filtered signal must be a constant")
    coeffs = filter_coefficients(cfg)
    if isinstance(kernel, JointKernel):
        return _joint_filter_t(kernel, x.data, coeffs)
    y = x.data
    h = coeffs[0] * y
    for c_p in coeffs[1:]:
        y = kernel @ y
        h = h + c_p * y
    return Tensor(h)


def filter_frequency_response(cfg: FilterConfig, lambdas: np.ndarray | None = None):
    """Scalar spectral response g(lambda) sampled on a grid over [0, 2].

    The filter polynomial evaluated at the kernel eigenvalue ``1 - lambda``:
    for the hybrid family g(lambda) = hr (1-lambda)^k + (1-hr) lambda^k; the
    pure families keep only one term and fixed_mix swaps hr for alpha.
    """
    if lambdas is None:
        lambdas = np.linspace(0.0, 2.0, 201)
    lam = np.asarray(lambdas, dtype=np.float64)
    return lam, np.polynomial.polynomial.polyval(1.0 - lam, filter_coefficients(cfg))
