"""Eigen-spectrum diagnostics for the walk matrix and the joint aggregation kernel.

Row-stochastic matrices are not symmetric; they are symmetrized as (M + M^T)/2
before eigendecomposition so the spectrum is real. D^-1 A is similar to the
symmetric D^-1/2 A D^-1/2, so this preserves the qualitative frequency picture.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .filters import build_joint_aggregation
from .graphs import MultiViewGraph, check_dense_fits, random_walk_normalize

__all__ = ["SpectrumReport", "spectrum", "largest_gap", "compare_spectra", "save_spectrum"]

MATRIX_TAGS = ("adjacency_rw", "joint_aggregation_rw")
# peak of compare_spectra in n x n arrays: the two dense matrices, the
# symmetrized copy and its temporary, and the eigensolver's own copy (4.1 n x n
# of RSS growth measured at n=3000), rounded up
_SPECTRA_DENSE_ARRAYS = 5


@dataclass(frozen=True)
class SpectrumReport:
    eigenvalues: np.ndarray  # ascending
    matrix_tag: str
    summary: dict


def largest_gap(eigenvalues: np.ndarray) -> float:
    """Largest consecutive gap in the sorted spectrum (the separation statistic)."""
    eig = np.sort(np.asarray(eigenvalues, dtype=np.float64))
    if eig.size < 2:
        return 0.0
    return float(np.diff(eig).max())


def spectrum(m: np.ndarray, symmetrize: bool = True, tag: str = "adjacency_rw") -> SpectrumReport:
    """All eigenvalues of a square matrix via a symmetric eigensolver.

    With ``symmetrize`` the analysis runs on (M + M^T)/2.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains non-finite entries")
    work = 0.5 * (m + m.T) if symmetrize else m
    eig = np.sort(np.linalg.eigvalsh(work))
    summary = {
        "min": float(eig[0]),
        "max": float(eig[-1]),
        "spread": float(eig[-1] - eig[0]),
        "low_band_mass": float(np.mean(np.abs(eig) < 0.5)),
        "largest_gap": largest_gap(eig),
    }
    return SpectrumReport(eigenvalues=eig, matrix_tag=tag, summary=summary)


def save_spectrum(report: SpectrumReport, csv_path) -> None:
    """One eigenvalue per line, with the summary JSON alongside."""
    csv_path = Path(csv_path)
    try:
        csv_path.write_text("\n".join("%.17g" % v for v in report.eigenvalues))
        csv_path.with_suffix(".json").write_text(
            json.dumps({"matrix_tag": report.matrix_tag, **report.summary}, indent=2)
        )
    except OSError as exc:
        raise OSError(f"writing spectrum to {csv_path}: {exc}") from exc


def compare_spectra(g: MultiViewGraph, view: int, z_x, z_a, out_dir=None) -> tuple:
    """Spectra of one view's walk matrix and of the joint aggregation kernel of
    its encoded features ``z_x`` and encoded adjacency ``z_a``.

    Returns ``(adjacency_report, joint_report)``; when ``out_dir`` is given,
    each report is also written as an eigenvalue CSV plus summary JSON. Both
    matrices are dense and their eigensolves take O(n^3) time, so
    ``check_dense_fits`` runs first.
    """
    check_dense_fits(g.n_nodes, _SPECTRA_DENSE_ARRAYS, "compare_spectra")
    a_rw = random_walk_normalize(g.adjacencies[view]).toarray()
    s_rw = build_joint_aggregation(z_a, z_x)
    rep_a = spectrum(a_rw, symmetrize=True, tag="adjacency_rw")
    rep_s = spectrum(s_rw, symmetrize=True, tag="joint_aggregation_rw")
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        save_spectrum(rep_a, out_dir / f"spectrum_view{view}_adjacency_rw.csv")
        save_spectrum(rep_s, out_dir / f"spectrum_view{view}_joint_aggregation_rw.csv")
    return rep_a, rep_s
