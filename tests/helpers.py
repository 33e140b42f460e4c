"""Deterministic fixture builders and array-facing wrappers of the Tensor
functions, shared across test modules."""

import gc
import types

import numpy as np

from gfclust import MultiViewGraph
from gfclust.autograd import Tensor
from gfclust.fusion import fuse_views_t


def ratio_graph(labels, n_intra, n_inter, rng):
    """Adjacency with exactly ``n_intra`` same-label and ``n_inter`` cross-label
    edges, so the homophily ratio is exactly n_intra / (n_intra + n_inter)."""
    labels = np.asarray(labels)
    n = labels.size
    intra, inter = [], []
    for i in range(n):
        for j in range(i + 1, n):
            (intra if labels[i] == labels[j] else inter).append((i, j))
    if n_intra > len(intra) or n_inter > len(inter):
        raise ValueError("not enough candidate pairs for the requested counts")
    a = np.zeros((n, n))
    chosen = [intra[k] for k in rng.choice(len(intra), size=n_intra, replace=False)]
    chosen += [inter[k] for k in rng.choice(len(inter), size=n_inter, replace=False)]
    for i, j in chosen:
        a[i, j] = a[j, i] = 1.0
    return a


def two_ratio_fixture(ratios=(0.82, 0.64), n_edges=50, seed=7):
    """Small two-view dataset whose per-view homophily ratios are exact."""
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(3), 10)
    adjacencies = []
    for k, r in enumerate(ratios):
        n_intra = round(r * n_edges)
        adjacencies.append(
            ratio_graph(labels, n_intra, n_edges - n_intra, np.random.default_rng(seed + k))
        )
    features = rng.normal(size=(labels.size, 6)) + 2.0 * np.eye(3)[labels, :3][:, [0, 1, 2, 0, 1, 2]]
    return MultiViewGraph(features=features, adjacencies=adjacencies, n_clusters=3, labels=labels)


def tiny_two_view(seed=0, n=24, c=3, d=5, p_in=0.5, p_out=0.05):
    """Fast hand-rolled two-view SBM for pipeline-level tests."""
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(c), n // c)
    same = labels[:, None] == labels[None, :]
    adjacencies = []
    for _ in range(2):
        probs = np.where(same, p_in, p_out)
        upper = np.triu(rng.random((n, n)) < probs, k=1)
        adjacencies.append((upper | upper.T).astype(float))
    features = 2.5 * np.eye(c)[labels][:, :c] @ rng.normal(size=(c, d)) + 0.6 * rng.normal(
        size=(n, d)
    )
    return MultiViewGraph(features=features, adjacencies=adjacencies, n_clusters=c, labels=labels)


def fuse(embeddings, rho):
    """``fuse_views_t`` on arrays: ``(weights, consensus)`` as arrays."""
    weights, h_bar = fuse_views_t([Tensor(np.asarray(h, dtype=np.float64)) for h in embeddings],
                                  rho)
    return weights, h_bar.data


def reachable(root, match):
    """Every object reachable from ``root`` for which ``match`` holds."""
    skip = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType, np.ndarray)
    seen, stack, found = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        if match(obj):
            found.append(obj)
        stack.extend(gc.get_referents(obj))
    return found


def taped_tensors(root):
    """Every Tensor reachable from ``root`` that still has a tape behind it."""
    return reachable(root, lambda obj: isinstance(obj, Tensor) and bool(obj._parents))
