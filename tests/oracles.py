"""Brute-force oracles: metrics as plain loops, kernels and losses as plain taped ops.

The package's ``Tensor`` tapes only ``+`` of two Tensors of one shape,
``scalar *`` and ``@`` of two Tensors. The general taped ops the oracles and
the gradient checks compose (elementwise arithmetic with broadcasting and
with plain arrays, ``log``, ``sqrt``, ``relu``, ``maximum``,
transpose, ``sum`` and ``mean``, and ``tanh``, ``exp``, ``clip`` and powers)
are built here on ``Tensor._from_op``, in the subclass ``OracleTensor`` and
the functions beside it; every op of an ``OracleTensor`` gives one back.
``lift`` views any ``Tensor`` or array as one.
"""

import warnings
from itertools import permutations

import numpy as np
from scipy import sparse

from gfclust.autograd import Tensor, as_tensor
from gfclust.datasets import _class_mean_matrix
from gfclust.encoders import decode_t
from gfclust.errors import NumericsWarning
from gfclust.fusion import _FUSE_MAX_ROUNDS, _FUSE_TOL, _LOG_FLOOR
from gfclust.graphs import MultiViewGraph


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` over the axes that numpy broadcasting expanded."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class OracleTensor(Tensor):
    """A ``Tensor`` with the general-purpose taped ops; each op's result is
    an ``OracleTensor`` too, so the oracles compose them freely."""

    __slots__ = ()

    @staticmethod
    def _adopt(node):
        """The node an op of ``Tensor`` just made, as an ``OracleTensor``."""
        out = OracleTensor(node.data)
        out.requires_grad, out._parents, out._backward = (
            node.requires_grad, node._parents, node._backward)
        return out

    @staticmethod
    def _from_op(data, parents, backward):
        return OracleTensor._adopt(Tensor._from_op(data, parents, backward))

    def __add__(self, other):
        other = as_tensor(other)

        def backward(grad):
            return (_unbroadcast(grad, self.shape), _unbroadcast(grad, other.shape))

        return OracleTensor._from_op(self.data + other.data, (self, other), backward)

    __radd__ = __add__

    def __mul__(self, other):
        other = as_tensor(other)
        out_data = self.data * other.data

        def backward(grad):
            return (
                _unbroadcast(grad * other.data, self.shape),
                _unbroadcast(grad * self.data, other.shape),
            )

        return OracleTensor._from_op(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __sub__(self, other):
        other = as_tensor(other)
        out_data = self.data - other.data

        def backward(grad):
            return (_unbroadcast(grad, self.shape), _unbroadcast(-grad, other.shape))

        return OracleTensor._from_op(out_data, (self, other), backward)

    def __rsub__(self, other):
        return lift(other).__sub__(self)

    def __truediv__(self, other):
        other = as_tensor(other)
        out_data = self.data / other.data

        def backward(grad):
            return (
                _unbroadcast(grad / other.data, self.shape),
                _unbroadcast(-grad * self.data / (other.data * other.data), other.shape),
            )

        return OracleTensor._from_op(out_data, (self, other), backward)

    def __rtruediv__(self, other):
        return lift(other).__truediv__(self)

    def __matmul__(self, other):
        return OracleTensor._adopt(Tensor.__matmul__(self, as_tensor(other)))

    def __rmatmul__(self, other):
        return OracleTensor._adopt(Tensor.__matmul__(as_tensor(other), self))

    @property
    def T(self):
        def backward(grad):
            return (grad.T,)

        return OracleTensor._from_op(self.data.T, (self,), backward)

    def log(self):
        def backward(grad):
            return (grad / self.data,)

        return OracleTensor._from_op(np.log(self.data), (self,), backward)

    def sqrt(self):
        out_data = np.sqrt(self.data)

        def backward(grad):
            return (grad * 0.5 / out_data,)

        return OracleTensor._from_op(out_data, (self,), backward)

    def relu(self):
        mask = self.data > 0.0

        def backward(grad):
            return (grad * mask,)

        return OracleTensor._from_op(self.data * mask, (self,), backward)

    def maximum(self, other):
        other = as_tensor(other)
        take_self = self.data >= other.data

        def backward(grad):
            return (
                _unbroadcast(grad * take_self, self.shape),
                _unbroadcast(grad * ~take_self, other.shape),
            )

        return OracleTensor._from_op(np.maximum(self.data, other.data), (self, other), backward)

    def sum(self, axis=None, keepdims=False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad):
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, self.shape),)

        return OracleTensor._from_op(out_data, (self,), backward)

    def mean(self, axis=None, keepdims=False):
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)


def lift(value):
    """``value`` as an ``OracleTensor``: itself when it is one, a constant for
    an array or a scalar, and otherwise an identity op on the ``Tensor``,
    which hands its gradient on unchanged."""
    if isinstance(value, OracleTensor):
        return value
    if not isinstance(value, Tensor):
        return OracleTensor(value)
    return OracleTensor._from_op(value.data, (value,), lambda grad: (grad,))


def oracle_tanh(t):
    out = np.tanh(t.data)

    def backward(grad):
        return (grad * (1.0 - out * out),)

    return OracleTensor._from_op(out, (t,), backward)


def oracle_exp(t):
    out = np.exp(t.data)

    def backward(grad):
        return (grad * out,)

    return OracleTensor._from_op(out, (t,), backward)


def oracle_clip(t, lo, hi):
    mask = (t.data >= lo) & (t.data <= hi)

    def backward(grad):
        return (grad * mask,)

    return OracleTensor._from_op(np.clip(t.data, lo, hi), (t,), backward)


def oracle_pow(t, exponent):
    """``t ** exponent`` with the subgradient 0 at a zero base when
    ``exponent < 1``, which keeps fractional powers finite."""
    p = float(exponent)

    def backward(grad):
        base = t.data
        if p < 1.0:
            safe = np.where(base > 0.0, base, 1.0)
            local = np.where(base > 0.0, p * safe ** (p - 1.0), 0.0)
        else:
            local = p * base ** (p - 1.0)
        return (grad * local,)

    return OracleTensor._from_op(t.data ** p, (t,), backward)


def oracle_evaluate_view_t(h_v, h_bar):
    """Mean row-wise cosine similarity as taped ops, the reference for the
    one-op ``gfclust.fusion.evaluate_view_t``."""
    h_v, h_bar = lift(h_v), lift(h_bar)
    sq_v = (h_v * h_v).sum(axis=1)
    sq_b = (h_bar * h_bar).sum(axis=1)
    live = Tensor((sq_v.data > 0.0) & (sq_b.data > 0.0))
    dots = (h_v * h_bar).sum(axis=1)
    norm_v = (sq_v + 1e-30).sqrt()
    norm_b = (sq_b + 1e-30).sqrt()
    return (dots / (norm_v * norm_b) * live).mean()


def oracle_soft_assignment_t(h, centers):
    """The Student-t soft assignment as taped ops, the reference for the
    two-op ``gfclust.fusion.soft_assignment_t``."""
    h = lift(h)
    c = OracleTensor(np.asarray(centers, dtype=np.float64))
    sq_h = (h * h).sum(axis=1, keepdims=True)
    sq_c = Tensor((np.asarray(centers) ** 2).sum(axis=1)[None, :])
    d2 = (sq_h - 2.0 * (h @ c.T) + sq_c).relu()
    q = 1.0 / (1.0 + d2)
    return q / q.sum(axis=1, keepdims=True)


def oracle_kl_divergence_t(p, q):
    """KL(p || q) as taped ops with the same floor and warning, the reference
    for the one-op ``gfclust.fusion.kl_divergence_t``."""
    p = np.asarray(p, dtype=np.float64)
    if ((q.data < _LOG_FLOOR) & (p > 0)).any():
        warnings.warn(
            "soft assignment has near-zero mass where the target is positive; clamping",
            NumericsWarning,
            stacklevel=2,
        )
    p_log_p = float(np.sum(p[p > 0] * np.log(p[p > 0])))
    return p_log_p - (Tensor(p) * lift(q).maximum(_LOG_FLOOR).log()).sum()


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
    z = lift(z_a) @ lift(z_x).T
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


def sparse_matmul(a, w):
    """``a @ w`` for a constant scipy sparse ``a`` as one taped op; ``w`` gets
    ``a.T @ grad``. The sparse product of the taped references."""

    def backward(grad):
        return (np.asarray(a.T @ grad),)

    return OracleTensor._from_op(np.asarray(a @ w.data), (w,), backward)


def oracle_mse_t(pred, target):
    """Mean squared error as four taped ops, the reference for the one-op
    ``gfclust.encoders.mse_t``."""
    diff = lift(pred) - target
    return (diff * diff).mean()


def oracle_factored_mse(h, w, b, a):
    """The centered expansion of ``gfclust.encoders._factored_mse`` composed
    from taped ops, the reference for that one op."""
    n, m = a.shape
    h, w, b = lift(h), lift(w), lift(b)
    mu = h.mean(axis=0, keepdims=True)
    h_c = h - mu
    shift = mu @ w + b
    col_sums = np.asarray(a.sum(axis=0)).ravel()
    total = ((h_c.T @ h_c) * (w @ w.T)).sum() + float(n) * (shift * shift).sum()
    total = total - 2.0 * (h * sparse_matmul(a, w.T)).sum() - 2.0 * (b * col_sums).sum()
    return (total + float(a.data @ a.data)) * (1.0 / (n * m))


def oracle_adjacency_mse_t(params, z, a):
    """Adjacency reconstruction MSE by the dense decode: the n x n ``decode_t``
    output scored by ``oracle_mse_t`` against dense ``a``, the reference for
    the factored MSE of ``gfclust.encoders.adjacency_loss_t``."""
    return oracle_mse_t(decode_t(params, z), a)


def oracle_bce_t(logits, target):
    """Mean binary cross-entropy of a dense decode against a dense target as
    taped ops: the sigmoid of the logits clipped to +-60, and each log of a
    probability floored at 1e-12. The reference for the row-blocked BCE of
    ``gfclust.encoders.adjacency_loss_t``; ``* -1.0`` negates exactly."""
    q = 1.0 / (1.0 + oracle_exp(oracle_clip(logits, -60.0, 60.0) * -1.0))
    t = OracleTensor(target)
    return (t * q.maximum(1e-12).log() + (1.0 - t) * (1.0 - q).maximum(1e-12).log()).mean() * -1.0


def oracle_homophily_ratio(a, labels_one_hot):
    """Homophily ratio from the dense same-label matrix ``p p^T`` and an
    off-diagonal mask, the reference for the edge-list form."""
    p = np.asarray(labels_one_hot, dtype=np.float64)
    off = ~np.eye(a.shape[0], dtype=bool)
    return float((a * (p @ p.T) * off).sum() / (a * off).sum())


def oracle_random_walk_normalize(a):
    """Dense ``D^-1 A`` with one-hot self rows for isolated nodes, the reference
    for the CSR ``gfclust.graphs.random_walk_normalize``."""
    a = np.asarray(a, dtype=np.float64)
    degrees = a.sum(axis=1)
    isolated = degrees == 0
    # an isolated row is all zeros, so dividing it by 1 and setting its diagonal
    # gives the forced self-loop
    a_rw = a / np.where(isolated, 1.0, degrees)[:, None]
    isolated = np.flatnonzero(isolated)
    a_rw[isolated, isolated] = 1.0
    return a_rw


def oracle_layer(x, w, b, activation):
    """A dense layer as three taped ops, ``act((x @ w) + b)``, the reference
    for the one-op ``gfclust.encoders._layer``; a sparse ``x`` enters through
    ``sparse_matmul``."""
    h = (sparse_matmul(x, w) if sparse.issparse(x) else lift(x) @ w) + b
    if activation == "tanh":
        return oracle_tanh(h)
    if activation == "relu":
        return h.relu()
    return h


def oracle_fuse_views_t(embeddings, rho, tol=_FUSE_TOL, max_rounds=_FUSE_MAX_ROUNDS):
    """Fixed-point view fusion with every round on the tape, the reference for
    the replaying op ``gfclust.fusion.fuse_views_t``: the same rounds, with
    weights that stay differentiable Tensors."""
    n_views = len(embeddings)
    uniform = [OracleTensor(1.0 / n_views) for _ in range(n_views)]

    def combine(ws):
        out = ws[0] * embeddings[0]
        for w, h in zip(ws[1:], embeddings[1:]):
            out = out + w * h
        return out

    weights = uniform
    h_bar = combine(weights)
    for _ in range(max_rounds):
        evas = [oracle_evaluate_view_t(h, h_bar) for h in embeddings]
        top = evas[0]
        for e in evas[1:]:
            top = top.maximum(e)
        if top.data <= 0.0:
            warnings.warn("all view similarities are <= 0; falling back to uniform weights",
                          NumericsWarning, stacklevel=2)
            weights = uniform
            h_bar = combine(weights)
            break
        raw = [oracle_pow(e.relu() / top, rho) for e in evas]
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


class OracleAdam:
    """Adam written out of place as the textbook update, the reference for the
    in-place ``gfclust.autograd.Adam.step``."""

    def __init__(self, params, lr=1e-3, betas=(0.9, 0.999), eps=1e-8):
        self.params = list(params)
        self.lr, (self.beta1, self.beta2), self.eps = lr, betas, eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            g = p.grad
            self.m[i] = b1 * self.m[i] + (1.0 - b1) * g
            self.v[i] = b2 * self.v[i] + (1.0 - b2) * (g * g)
            m_hat = self.m[i] / (1.0 - b1 ** self.t)
            v_hat = self.v[i] / (1.0 - b2 ** self.t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def oracle_generate_synthetic(spec):
    """The multi-view SBM drawn as one dense n x n uniform sample per view, with
    dense probability and hit matrices, the reference for the row-blocked
    ``gfclust.datasets.generate_synthetic``."""
    spec.expected_hr()
    labels = np.repeat(np.arange(spec.n_clusters), spec.class_sizes())
    seq = np.random.SeedSequence(spec.seed).spawn(spec.n_views + 1)
    feat_rng = np.random.default_rng(seq[0])
    means = _class_mean_matrix(spec, feat_rng)
    features = means[labels] + spec.noise_scale * feat_rng.normal(
        size=(spec.n_nodes, spec.n_features)
    )
    same = labels[:, None] == labels[None, :]
    adjacencies = []
    for view, (p_in, p_out) in enumerate(zip(spec.p_in_per_view(), spec.p_out_per_view())):
        rng = np.random.default_rng(seq[view + 1])
        probs = np.where(same, p_in, p_out)
        draw = rng.random((spec.n_nodes, spec.n_nodes)) < probs
        upper = np.triu(draw, k=1)
        adjacencies.append(sparse.csr_array(upper | upper.T, dtype=np.float64))
    return MultiViewGraph(
        features=features,
        adjacencies=adjacencies,
        n_clusters=spec.n_clusters,
        labels=labels,
        name=f"synthetic_seed{spec.seed}",
    )


def oracle_edge_text(a):
    """A view's edge file as one joined string of its upper-triangle "i j"
    lines, the reference for the chunked writer in ``gfclust.save_dataset``."""
    upper = sparse.triu(a, k=1)
    return "\n".join(f"{i} {j}" for i, j in zip(upper.row, upper.col))


def oracle_load_edges(text, n_nodes):
    """``(set of (i, j) edges with i < j, self-loop line count)`` of an edge
    file read one line at a time, the reference for the one-parse
    ``gfclust.datasets._load_edges``; raises ``ValueError`` on any line that
    is not two integer ids in ``[0, n_nodes)``."""
    edges, loops = set(), 0
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 2:
            raise ValueError(f"expected 'i j', got {line!r}")
        i, j = int(parts[0]), int(parts[1])
        if not (0 <= i < n_nodes and 0 <= j < n_nodes):
            raise ValueError(f"node id out of range [0, {n_nodes})")
        if i == j:
            loops += 1
        else:
            edges.add((min(i, j), max(i, j)))
    return edges, loops


def oracle_embedding_text(matrix):
    """A matrix as one joined string of "%.17g" CSV rows, the reference for the
    chunked writer ``gfclust.save_embedding``."""
    return "\n".join(",".join("%.17g" % v for v in row) for row in np.atleast_2d(matrix))
