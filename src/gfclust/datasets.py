"""On-disk dataset format, ingestion, and the synthetic generator.

Format: a JSON manifest pointing at a headerless comma-separated feature CSV,
an optional one-label-per-line file, and one whitespace-separated 0-indexed
undirected edge list per view ("i j" lines). Paths are relative to the
manifest's directory. Loading parses each file with one ``np.loadtxt`` call
and checks the parsed array as a whole. An edge list's sorted unique pairs
become the view as the generator builds its views (``_symmetric_view``), with
no n x n array and no copy; a repeated or reversed line is the same edge, and
self-loop lines are dropped with a DataRepairWarning. Saving writes each
view's edge lines a bounded chunk at a time.

The synthetic generator draws each SBM view in row blocks and keeps only the
upper-triangle hits, so it needs O(block n + |E|) memory, not O(n^2).
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
from scipy import sparse

from .errors import ConfigError, DataRepairWarning, check_integers, check_reals, from_mapping
from .graphs import MultiViewGraph, _index_dtype

__all__ = [
    "DatasetManifest",
    "SyntheticSpec",
    "load_dataset",
    "save_dataset",
    "generate_synthetic",
    "save_embedding",
    "load_embedding",
    "save_report",
]

MEAN_LAYOUTS = ("spread", "paired")
# rows of the n x n uniform draw that generate_synthetic holds at once
_BLOCK_ROWS = 128
# stored entries of a view that save_dataset turns into edge lines at once
_EDGE_CHUNK = 1 << 14
# values of a matrix that save_embedding formats at once (at least one row)
_VALUE_CHUNK = 1 << 14


@dataclass
class DatasetManifest:
    name: str
    n_nodes: int
    n_views: int
    n_features: int
    n_clusters: int
    feature_file: str
    graph_files: list
    label_file: str | None = None

    def __post_init__(self):
        check_integers(self, "n_nodes", "n_views", "n_features", "n_clusters")
        for name in ("name", "feature_file", "label_file"):
            value = getattr(self, name)
            if not (isinstance(value, str) or (name == "label_file" and value is None)):
                raise ConfigError(f"{name} must be a string, got {value!r}")
        if not (isinstance(self.graph_files, list)
                and all(isinstance(f, str) for f in self.graph_files)):
            raise ConfigError(f"graph_files must be a list of strings, got {self.graph_files!r}")


def _read_table(path: Path, what: str, dtype, delimiter, invalid: str) -> np.ndarray:
    """``path`` as a 2-d array from one ``np.loadtxt`` call: blank lines are
    skipped, ``#`` is no comment, and a file with no data gives zero rows. A
    parse error is raised again after ``invalid``, with numpy's row and column."""
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            return np.loadtxt(path, dtype=dtype, delimiter=delimiter, ndmin=2, comments=None)
    except OSError as exc:
        raise OSError(f"reading {what} from {path}: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{invalid}: {exc}") from exc


def _load_matrix(path: Path, what: str) -> np.ndarray:
    invalid = f"{what} file {path} is empty or ragged or not numeric"
    matrix = _read_table(path, what, np.float64, ",", invalid)
    if not matrix.size:
        raise ValueError(invalid)
    return matrix


def _load_edges(path: Path, n_nodes: int, view: int) -> sparse.csr_array:
    """View ``view`` as canonical CSR from one parse of its edge list: two ids in
    ``[0, n_nodes)`` a line; self-loop lines are dropped with one counting
    ``DataRepairWarning``; the other pairs, each put in ``(min, max)`` order,
    sorted and unique, are the upper triangle of ``_symmetric_view``."""
    invalid = f"{path}: expected 'i j' lines of two integer ids"
    pairs = _read_table(path, f"view {view} edges", np.int64, None, invalid)
    if pairs.size and pairs.shape[1] != 2:
        raise ValueError(f"{path}: expected 'i j', got lines of {pairs.shape[1]} fields")
    pairs = pairs.reshape(-1, 2)  # an empty file parses as zero rows of one column
    outside = pairs[(pairs < 0) | (pairs >= n_nodes)]
    if outside.size:
        raise ValueError(f"{path}: node id {outside[0]} out of range [0, {n_nodes})")
    loops = pairs[:, 0] == pairs[:, 1]
    if loops.any():
        message = f"view {view} ({path.name}): dropped {np.count_nonzero(loops)} self-loop lines"
        warnings.warn(message, DataRepairWarning, stacklevel=3)
        pairs = pairs[~loops]
    # each pair's row-major position in the strict upper triangle
    keys = np.minimum(*pairs.T) * n_nodes + np.maximum(*pairs.T)
    del pairs
    keys.sort()
    keys = keys[np.diff(keys, prepend=-1) != 0]
    indptr = np.searchsorted(keys, np.arange(n_nodes + 1) * n_nodes)
    keys %= n_nodes  # now the column of each pair
    return _symmetric_view(n_nodes, indptr, keys)


def load_dataset(manifest_path) -> MultiViewGraph:
    """Load and validate a dataset.

    Each file is parsed once by numpy; a cell that does not parse raises
    ``ValueError`` naming the file. Each edge line adds one undirected edge;
    self-loop lines are dropped with a DataRepairWarning rather than an error,
    and each view is built as the generator builds its views.
    """
    manifest_path = Path(manifest_path)
    try:
        manifest = from_mapping(DatasetManifest, json.loads(manifest_path.read_text()), "manifest")
    except OSError as exc:
        raise OSError(f"reading manifest {manifest_path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"manifest {manifest_path} is not valid JSON: {exc}") from exc
    base = manifest_path.parent
    if len(manifest.graph_files) != manifest.n_views:
        raise ValueError(
            f"manifest lists {len(manifest.graph_files)} graph files for {manifest.n_views} views"
        )

    features = _load_matrix(base / manifest.feature_file, "features")
    if features.shape != (manifest.n_nodes, manifest.n_features):
        raise ValueError(
            f"features shape {features.shape} != "
            f"({manifest.n_nodes}, {manifest.n_features}) from manifest"
        )

    labels = None
    if manifest.label_file is not None:
        raw = _load_matrix(base / manifest.label_file, "labels")
        labels = raw.ravel()
        if labels.size != manifest.n_nodes:
            raise ValueError(f"labels length {labels.size} != {manifest.n_nodes} nodes")
        if not np.array_equal(labels, labels.astype(np.int64)):
            raise ValueError("labels must be integers")
        labels = labels.astype(np.int64)

    adjacencies = []
    for view, graph_file in enumerate(manifest.graph_files):
        adjacencies.append(_load_edges(base / graph_file, manifest.n_nodes, view))

    return MultiViewGraph(
        features=features,
        adjacencies=adjacencies,
        n_clusters=manifest.n_clusters,
        labels=labels,
        name=manifest.name,
    )


def save_dataset(g: MultiViewGraph, out_dir, name: str | None = None) -> Path:
    """Write a graph in the manifest format; returns the manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    name = name or (g.name or "dataset")
    save_embedding(g.features, out_dir / "features.csv")
    label_file = None
    if g.labels is not None:
        label_file = "labels.csv"
        _write_text(out_dir / label_file, "\n".join(str(int(v)) for v in g.labels))
    graph_files = []
    for view, a in enumerate(g.adjacencies):
        graph_files.append(f"graph_{view}.txt")
        _write_edges(out_dir / graph_files[-1], a)
    manifest = DatasetManifest(
        name=name,
        n_nodes=g.n_nodes,
        n_views=g.n_views,
        n_features=g.n_features,
        n_clusters=g.n_clusters,
        feature_file="features.csv",
        graph_files=graph_files,
        label_file=label_file,
    )
    manifest_path = out_dir / "manifest.json"
    _write_text(manifest_path, json.dumps(asdict(manifest), indent=2))
    return manifest_path


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------


@dataclass
class SyntheticSpec:
    """Stochastic-block-model views over class-mean-separated Gaussian features.

    ``p_in``/``p_out`` may be scalars or one value per view. ``mean_layout``
    controls the class-mean geometry: "spread" places every class mean on its
    own orthogonal direction at distance ``mean_separation`` from the origin;
    "paired" gives consecutive class pairs a shared base direction separated
    within the pair by ``pair_separation * mean_separation``, so paired classes
    are nearly indistinguishable by features alone and must be told apart
    through their adjacency structure.
    """

    n_nodes: int
    n_clusters: int
    n_views: int
    p_in: float | tuple = 0.1
    p_out: float | tuple = 0.01
    n_features: int = 16
    mean_separation: float = 3.0
    noise_scale: float = 1.0
    seed: int = 0
    mean_layout: str = "spread"
    pair_separation: float = 0.25

    def __post_init__(self):
        check_integers(self, "n_clusters", "n_views", low=1)
        check_integers(self, "n_nodes", "n_features", low=self.n_clusters)
        check_integers(self, "seed", low=0)
        check_reals(self, "mean_separation")
        check_reals(self, "noise_scale", low=0.0, open_low=True)
        check_reals(self, "pair_separation", low=0.0)
        check_reals(self, "p_in", "p_out", low=0.0, high=1.0, sequences=True)
        for name in ("p_in", "p_out"):
            value = getattr(self, name)
            if isinstance(value, (list, tuple)) and len(value) != self.n_views:
                raise ConfigError(f"{name} needs {self.n_views} per-view values, got {len(value)}")
        if self.mean_layout not in MEAN_LAYOUTS:
            raise ConfigError(f"mean_layout must be one of {MEAN_LAYOUTS}")

    def _per_view(self, value) -> tuple:
        return tuple(value) if isinstance(value, (list, tuple)) else (value,) * self.n_views

    def p_in_per_view(self) -> tuple:
        return self._per_view(self.p_in)

    def p_out_per_view(self) -> tuple:
        return self._per_view(self.p_out)

    def class_sizes(self) -> np.ndarray:
        sizes = np.full(self.n_clusters, self.n_nodes // self.n_clusters)
        sizes[: self.n_nodes % self.n_clusters] += 1
        return sizes

    def expected_hr(self) -> list:
        """Analytic expected homophily ratio per view."""
        sizes = self.class_sizes()
        intra_pairs = float((sizes * (sizes - 1) / 2).sum())
        total_pairs = self.n_nodes * (self.n_nodes - 1) / 2
        inter_pairs = total_pairs - intra_pairs
        out = []
        for p_in, p_out in zip(self.p_in_per_view(), self.p_out_per_view()):
            expected_edges = p_in * intra_pairs + p_out * inter_pairs
            if expected_edges == 0:
                raise ConfigError("expected edge count is zero for a view")
            out.append(p_in * intra_pairs / expected_edges)
        return out


def _class_mean_matrix(spec: SyntheticSpec, rng: np.random.Generator) -> np.ndarray:
    c, d = spec.n_clusters, spec.n_features
    directions, _ = np.linalg.qr(rng.normal(size=(d, spec.n_clusters)))
    mu = spec.mean_separation
    means = np.empty((c, d))
    if spec.mean_layout == "spread":
        for k in range(c):
            means[k] = mu * directions[:, k]
        return means
    n_pairs = c // 2
    for pair in range(n_pairs):
        base = mu * directions[:, pair]
        offset = 0.5 * spec.pair_separation * mu * directions[:, n_pairs + pair]
        means[2 * pair] = base + offset
        means[2 * pair + 1] = base - offset
    if c % 2:
        means[c - 1] = mu * directions[:, spec.n_clusters - 1]
    return means


def generate_synthetic(spec: SyntheticSpec) -> MultiViewGraph:
    """Draw a multi-view SBM with class-dependent Gaussian features.

    Each view's n x n uniform sample is drawn in row blocks from the view's
    own ``Generator`` (``_sbm_view``); a chunked draw consumes the stream
    exactly as one full draw does, so the block size changes memory only, and
    memory is O(block n + |E|). Deterministic under ``spec.seed``; raises if a
    view's expected edge count is zero.
    """
    spec.expected_hr()  # validates the edge counts
    sizes = spec.class_sizes()
    labels = np.repeat(np.arange(spec.n_clusters), sizes)
    seq = np.random.SeedSequence(spec.seed).spawn(spec.n_views + 1)
    feat_rng = np.random.default_rng(seq[0])
    means = _class_mean_matrix(spec, feat_rng)
    features = means[labels] + spec.noise_scale * feat_rng.normal(
        size=(spec.n_nodes, spec.n_features)
    )
    adjacencies = []
    for view, (p_in, p_out) in enumerate(zip(spec.p_in_per_view(), spec.p_out_per_view())):
        rng = np.random.default_rng(seq[view + 1])
        adjacencies.append(_sbm_view(rng, labels, p_in, p_out))
    return MultiViewGraph(
        features=features,
        adjacencies=adjacencies,
        n_clusters=spec.n_clusters,
        labels=labels,
        name=f"synthetic_seed{spec.seed}",
    )


def _sbm_view(
    rng: np.random.Generator, labels: np.ndarray, p_in: float, p_out: float
) -> sparse.csr_array:
    """One symmetric SBM view as canonical CSR: pair ``(i, j)``, ``i < j``, is
    an edge when entry ``(i, j)`` of an n x n ``rng.random`` draw is below its
    probability, ``p_in`` within a class and ``p_out`` across.

    The draw is made ``_BLOCK_ROWS`` rows at a time, and each block compares
    only the columns right of its first row. Its hits come out row-major, so
    they form the strict upper triangle as CSR directly, which
    ``_symmetric_view`` completes to the canonical view.
    """
    n = labels.size
    column = _index_dtype(n, 0)  # holds every column id
    counts, columns = [np.zeros(1, dtype=np.int64)], []
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        draw = rng.random((stop - start, n))[:, start:]
        probs = np.where(labels[start:stop, None] == labels[None, start:], p_in, p_out)
        hits = np.triu(draw < probs, k=1)  # local column > local row: global j > i
        counts.append(np.count_nonzero(hits, axis=1))
        columns.append((np.nonzero(hits)[1] + start).astype(column))
    return _symmetric_view(n, np.cumsum(np.concatenate(counts)), np.concatenate(columns))


def _symmetric_view(n: int, indptr: np.ndarray, indices: np.ndarray) -> sparse.csr_array:
    """The canonical view whose strict upper triangle has the CSR structure
    ``(indptr, indices)`` (sorted, unique columns): that triangle of 1s plus its
    transpose, in the symmetric view's index dtype, which the sum keeps, so
    ``MultiViewGraph`` stores it without a copy."""
    index = _index_dtype(n, 2 * indices.size)
    upper = sparse.csr_array(
        (np.ones(indices.size), indices.astype(index, copy=False), indptr.astype(index)),
        shape=(n, n),
    )
    return upper + upper.T


# ---------------------------------------------------------------------------
# flat-file helpers
# ---------------------------------------------------------------------------


def _write_text(path: Path, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise OSError(f"writing {path}: {exc}") from exc


def _write_edges(path: Path, a: sparse.csr_array) -> None:
    """One "i j" line per edge, ``i < j``, in row-major order, with no trailing
    newline; ``a`` is a canonical CSR view, read ``_EDGE_CHUNK`` stored entries
    at a time so the lines in memory stay bounded."""
    try:
        with open(path, "w") as out:
            sep = ""
            for rows, cols, _ in entry_chunks(a, _EDGE_CHUNK):
                upper = cols > rows
                if upper.any():
                    lines = zip(rows[upper].tolist(), cols[upper].tolist())
                    out.write(sep + "\n".join(f"{i} {j}" for i, j in lines))
                    sep = "\n"
    except OSError as exc:
        raise OSError(f"writing {path}: {exc}") from exc


def entry_chunks(a: sparse.csr_array, size: int):
    """``(rows, cols, data)`` of ``a``'s stored entries, ``size`` at a time,
    in storage order."""
    for start in range(0, a.nnz, size):
        stop = min(start + size, a.nnz)
        rows = np.searchsorted(a.indptr, np.arange(start, stop), side="right") - 1
        yield rows, a.indices[start:stop], a.data[start:stop]


def save_embedding(matrix: np.ndarray, path) -> None:
    """Headerless CSV, one row per node, '.'-decimal, full float precision, no
    trailing newline; formatted ``_VALUE_CHUNK`` values at a time so the text
    in memory stays bounded."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    step = max(1, _VALUE_CHUNK // max(matrix.shape[1], 1))
    try:
        with open(path, "w") as out:
            sep = ""
            for start in range(0, matrix.shape[0], step):
                rows = matrix[start:start + step].tolist()
                out.write(sep + "\n".join(",".join("%.17g" % v for v in row) for row in rows))
                sep = "\n"
    except OSError as exc:
        raise OSError(f"writing {path}: {exc}") from exc


def load_embedding(path) -> np.ndarray:
    return _load_matrix(Path(path), "embedding")


def save_report(report, path) -> None:
    """Serialize a TrainReport (or plain dict) as JSON."""
    payload = report.to_dict() if hasattr(report, "to_dict") else report
    _write_text(Path(path), json.dumps(payload, indent=2))
