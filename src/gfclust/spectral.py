"""Eigen-spectrum diagnostics for the walk matrix and the joint aggregation kernel.

Both are walks ``M = D^-1 B``, ``D = diag(B 1)``, of a symmetric ``B``: the
view's adjacency with a self-loop on each isolated node, and the kernel's ridged
Gram matrix. ``M`` is similar to the symmetric ``D^-1/2 B D^-1/2``, so its
spectrum is real and is computed exactly (Chung, Spectral Graph Theory, 1997).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .filters import build_joint_gram
from .graphs import MultiViewGraph, _loop_isolated, check_dense_fits

__all__ = ["SpectrumReport", "spectrum", "largest_gap", "compare_spectra", "save_spectrum"]

# peak of compare_spectra in n x n arrays: one dense B at a time, scaled in
# place, and the eigensolver's own copy (2.02 n x n of RSS growth measured at
# n=3000), rounded up
_SPECTRA_DENSE_ARRAYS = 3


@dataclass(frozen=True)
class SpectrumReport:
    eigenvalues: np.ndarray  # ascending
    matrix_tag: str
    summary: dict


def largest_gap(eigenvalues: np.ndarray) -> float:
    """Largest consecutive gap in the sorted spectrum (the separation statistic)."""
    return float(np.diff(np.sort(np.asarray(eigenvalues, dtype=np.float64))).max(initial=0.0))


def spectrum(b: np.ndarray, tag: str = "adjacency_rw") -> SpectrumReport:
    """All eigenvalues of the walk ``D^-1 B`` of a symmetric ``B``, ``D = diag(B 1)``.

    They are those of ``D^-1/2 B D^-1/2``, which a float64 ``b`` is scaled
    into in place; the symmetric eigensolver reads its lower triangle. Raises
    ValueError when ``b`` is not square or a row sum is not finite and positive.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ValueError(f"matrix must be square, got {b.shape}")
    d = b.sum(axis=1)
    if not ((d > 0.0) & (d < np.inf)).all():
        raise ValueError("every row sum must be finite and positive")
    scale = 1.0 / np.sqrt(d)
    b *= scale[:, None]
    b *= scale
    eig = np.sort(np.linalg.eigvalsh(b))
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
        summary = {"matrix_tag": report.matrix_tag, **report.summary}
        csv_path.with_suffix(".json").write_text(json.dumps(summary, indent=2))
    except OSError as exc:
        raise OSError(f"writing spectrum to {csv_path}: {exc}") from exc


def compare_spectra(g: MultiViewGraph, view: int, z_x, z_a, out_dir=None) -> tuple:
    """Spectra of one view's walk matrix and of the joint aggregation kernel of
    its encoded features ``z_x`` and encoded adjacency ``z_a``.

    Returns ``(adjacency_report, joint_report)``; when ``out_dir`` is given,
    each report is also written as an eigenvalue CSV plus summary JSON. Each
    takes a dense ``B`` and O(n^3) time, so ``check_dense_fits`` runs first.
    """
    check_dense_fits(g.n_nodes, _SPECTRA_DENSE_ARRAYS, "compare_spectra")
    rep_a = spectrum(_loop_isolated(g.adjacencies[view]).toarray(), tag="adjacency_rw")
    rep_s = spectrum(build_joint_gram(z_a, z_x), tag="joint_aggregation_rw")
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for rep in (rep_a, rep_s):
            save_spectrum(rep, out_dir / f"spectrum_view{view}_{rep.matrix_tag}.csv")
    return rep_a, rep_s
