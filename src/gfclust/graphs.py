"""Multi-view graph containers, random-walk normalization and homophily.

A graph stores each view once, as a canonical float64 CSR array (sorted
indices, no duplicates, no stored zeros, every stored entry 1), whatever form
it was built from, so ``homophily_ratio``, ``random_walk_normalize`` and the
training passes read the O(|E|) edge lists. Both take a dense matrix too and
convert it on entry. ``random_walk_normalize`` returns the row-stochastic
walk matrix ``D^-1 A`` alone, as CSR, and ``homophily_ratio`` is one sparse
product and three sums, O(|E| + n c), unchunked.

``check_dense_fits`` is the pre-flight check of ``compare_spectra``, the one
consumer that still makes dense n x n arrays: it raises ``ConfigError`` before
the spectra allocate more than the process can use.

Label one-hots are plain ``(n, c)`` float arrays with exactly one 1 per row;
``one_hot`` / ``check_one_hot`` build and validate them. ``MultiViewGraph``
and ``one_hot`` check integer labels with ``errors.check_labels``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import sparse

from .errors import ConfigError, check_integers, check_labels

__all__ = [
    "MultiViewGraph",
    "one_hot",
    "check_one_hot",
    "random_walk_normalize",
    "homophily_ratio",
    "is_edgeless",
    "true_homophily_report",
    "check_dense_fits",
]


@dataclass(frozen=True)
class MultiViewGraph:
    """Shared node features plus one binary adjacency per view.

    Each view may be given dense or as any scipy sparse array and is stored as
    canonical CSR (``_canonical_view``). Invariants (checked on construction):
    the features are finite; every adjacency is square, symmetric, binary
    with a zero diagonal and matches the feature row count; labels, when
    present, pass ``check_labels`` with ``n_clusters`` classes and give one
    label a node; ``n_clusters`` is an integer of at least 1 (``ConfigError``).
    """

    features: np.ndarray
    adjacencies: list
    n_clusters: int
    labels: np.ndarray | None = None
    name: str = field(default="", compare=False)

    def __post_init__(self):
        check_integers(self, "n_clusters", low=1)
        features = np.asarray(self.features, dtype=np.float64)
        object.__setattr__(self, "features", features)
        if features.ndim != 2:
            raise ValueError(f"features must be 2-d, got shape {features.shape}")
        non_finite = np.count_nonzero(~np.isfinite(features))
        if non_finite:
            raise ValueError(f"features hold {non_finite} non-finite values")
        n = features.shape[0]
        if not self.adjacencies:
            raise ValueError("at least one view adjacency is required")
        adjacencies = [_canonical_view(a, n, v) for v, a in enumerate(self.adjacencies)]
        object.__setattr__(self, "adjacencies", adjacencies)
        if self.labels is not None:
            labels = check_labels(self.labels, self.n_clusters)
            if labels.size != n:
                raise ValueError(f"{labels.size} labels for {n} nodes")
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


def _canonical_view(a, n: int, v: int) -> sparse.csr_array:
    """View ``v`` as canonical float64 CSR over ``n`` nodes.

    Explicit zeros are dropped and repeated entries of a sparse input collapse
    to one edge; the index dtype is the one ``sparse.csr_array`` gives a dense
    input, so the stored arrays do not depend on the form the view came in. A
    view that is in that form already is stored as given, without a copy.
    """
    if _is_canonical(a, n):
        binary = True
    else:
        a, binary = _to_canonical(a, n, v)
    # both are canonical with every stored entry 1, so a == a^T iff the
    # structures match; the structure alone is transposed, with one-byte data
    t = sparse.csr_array((np.ones(a.nnz, bool), a.indices, a.indptr), shape=(n, n)).T.tocsr()
    if not (np.array_equal(t.indptr, a.indptr) and np.array_equal(t.indices, a.indices)):
        raise ValueError(f"view {v}: adjacency is not symmetric")
    if a.diagonal().any():
        raise ValueError(f"view {v}: adjacency has self-loops")
    if not binary:
        raise ValueError(f"view {v}: adjacency entries must be 0 or 1")
    return a


def _index_dtype(n: int, nnz: int):
    return np.int32 if max(n, nnz) <= np.iinfo(np.int32).max else np.int64


def _is_canonical(a, n: int) -> bool:
    """Whether ``a`` is the CSR array ``_to_canonical`` would make of it."""
    if not isinstance(a, sparse.csr_array) or a.shape != (n, n) or a.dtype != np.float64:
        return False
    index = _index_dtype(n, a.nnz)
    return (
        a.indptr.dtype == index
        and a.indices.dtype == index
        and a.indices.size == a.data.size == a.nnz
        and a.has_canonical_format
        and bool((a.data == 1).all())
    )


def _to_canonical(a, n: int, v: int) -> tuple:
    """``(canonical CSR of a's nonzero pattern, whether every nonzero was 1)``."""
    coo = sparse.coo_array(a, dtype=np.float64)
    if coo.shape != (n, n):
        raise ValueError(f"view {v}: adjacency shape {coo.shape} does not match {n} nodes")
    coo.eliminate_zeros()
    binary = not (coo.data != 1).any()
    csr = coo.tocsr()  # sorts the indices and sums repeated entries
    index = _index_dtype(n, csr.nnz)
    canonical = sparse.csr_array(
        (np.ones(csr.nnz), csr.indices.astype(index), csr.indptr.astype(index)), shape=(n, n)
    )
    return canonical, binary


def one_hot(labels, n_classes: int) -> np.ndarray:
    """Encode integer labels, checked by ``check_labels``, as an ``(n, n_classes)`` 0/1 matrix."""
    labels = check_labels(labels, n_classes)
    out = np.zeros((labels.size, n_classes), dtype=np.float64)
    out[np.arange(labels.size), labels] = 1.0
    return out


def check_one_hot(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 2 or not np.isin(p, (0.0, 1.0)).all() or not (p.sum(axis=1) == 1.0).all():
        raise ValueError("expected a 0/1 matrix with exactly one 1 per row")
    return p


def _loop_isolated(a) -> sparse.csr_array:
    """A CSR copy of ``a`` with a self-loop on each node whose row sums to 0.

    With no such row the copy is ``a.copy()``, with no sum: on a canonical
    ``a`` (every graph view) its bits are those the sum gives, and otherwise
    it keeps ``a``'s storage, duplicates and stored zeros included.
    """
    isolated = a.sum(axis=1) == 0
    if not isolated.any():
        return a.copy()
    return (a + sparse.diags_array(isolated.astype(np.float64))).tocsr()


def random_walk_normalize(a):
    """Degree-normalize an affinity matrix into the row-stochastic ``a_rw = D^-1 A``.

    Rows of isolated nodes become one-hot self rows (``_loop_isolated``). The
    result is CSR; a dense input is converted first.

    Raises:
        ValueError: non-square input or negative entries.
    """
    a = sparse.csr_array(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"adjacency must be square, got shape {a.shape}")
    if (a.data < 0).any():
        raise ValueError("adjacency entries must be nonnegative")
    a_rw = _loop_isolated(a)
    a_rw.data /= np.repeat(a_rw.sum(axis=1), np.diff(a_rw.indptr))
    return a_rw


def is_edgeless(a) -> bool:
    """Whether the sparse ``a`` has no nonzero entry off its diagonal, which
    leaves its homophily ratio undefined."""
    return a.count_nonzero() == np.count_nonzero(a.diagonal())


def homophily_ratio(a, labels_one_hot: np.ndarray) -> float:
    """Fraction of edge weight whose endpoints share a label, self-loops left out.

    With ``P`` the one-hot labels, it is ``(sum(P * (A P)) - trace(A)) /
    (sum(A) - trace(A))``: O(|E| + n c) time and O(n c) memory beside ``A``,
    with no chunking, and exact on a 0/1 view, whose sums are integer counts.
    A dense or non-CSR ``a`` is converted to CSR first.

    Raises:
        ValueError: no off-diagonal entry is nonzero (the ratio is undefined).
    """
    p = check_one_hot(labels_one_hot)
    a = sparse.csr_array(a, dtype=np.float64)
    if a.shape[0] != a.shape[1] or a.shape[0] != p.shape[0]:
        raise ValueError("adjacency and labels disagree on the node count")
    diagonal = a.diagonal()  # read once, for the edgeless check and the trace
    if a.count_nonzero() == np.count_nonzero(diagonal):
        raise ValueError("homophily ratio is undefined on an edgeless graph")
    trace = diagonal.sum()
    return float((((a @ p) * p).sum() - trace) / (a.sum() - trace))


def true_homophily_report(g: MultiViewGraph) -> list:
    """Per-view homophily ratio under the ground-truth labels."""
    if g.labels is None:
        raise ValueError("graph has no ground-truth labels")
    encoded = one_hot(g.labels, g.n_clusters)
    return [homophily_ratio(a, encoded) for a in g.adjacencies]


def check_dense_fits(n: int, count: int, what: str) -> None:
    """Raise ``ConfigError`` when ``count`` dense n x n float64 arrays, the
    estimated peak of ``what``, exceed the memory the process can still use.
    Its one caller is ``compare_spectra``; training forms no n x n array.

    Nothing is checked when that memory is unknown (``_available_bytes``).
    """
    need = count * 8.0 * n * n
    available = _available_bytes()
    if available is not None and need > available:
        raise ConfigError(
            f"{what} needs about {need / 1e9:.1f} GB ({count} dense {n} x {n} arrays), "
            f"more than the {available / 1e9:.1f} GB this process can use"
        )


def _available_bytes() -> int | None:
    """``MemAvailable`` from /proc/meminfo, capped by the process's cgroup v2
    ``memory.max - memory.current``; whichever is readable, None if neither."""
    limits = []
    try:
        with open("/proc/meminfo") as meminfo:
            for line in meminfo:
                if line.startswith("MemAvailable:"):
                    limits.append(int(line.split()[1]) * 1024)
                    break
    except (OSError, ValueError):
        pass
    try:
        with open("/proc/self/cgroup") as cgroup:
            unified = next(line for line in cgroup if line.startswith("0::"))
        root = Path("/sys/fs/cgroup") / unified.strip()[3:].lstrip("/")
        limit = (root / "memory.max").read_text().strip()
        if limit != "max":
            limits.append(int(limit) - int((root / "memory.current").read_text()))
    except (OSError, ValueError, StopIteration):
        pass
    return min(limits) if limits else None
