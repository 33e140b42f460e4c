"""Span tracing from outside the program, and the per-layer metrics built from it.

``Tracer.install`` replaces each traced function with a wrapper that records
a span: its name, start, end, parent span and run id, plus the tracemalloc
peak reached while it was open. Each function is wrapped under the name its
caller looks it up by (``training.py`` does ``from .filters import ...``, so
the kernel is wrapped as ``gfclust.training.joint_aggregation_t``).
``uninstall`` puts every original back. Spans stay in memory until the run
ends. A span's self time is its duration minus its children's durations.

``TrainingPipeline._cluster`` is private and is not wrapped: each k-means run
is attributed to bootstrap, refresh or the final clustering by its parent span.
"""

from __future__ import annotations

import functools
import json
import time
import tracemalloc
from contextlib import contextmanager

# Per-layer metrics: (name, unit, better, which end-to-end metric on which
# workload the metric should move). BENCHMARK.json lists the same names.
LAYER_METRICS = [
    ("datasets.load_dataset.self_s", "s", "lower", "setup_s on all workloads, most on heterophilous-raw and large-detached"),
    ("datasets.edges", "count", "higher", "setup_s: the work behind it (input size, fixed per workload and seed)"),
    ("datasets.us_per_edge", "us", "lower", "setup_s on heterophilous-raw and large-detached"),
    ("graphs.self_s", "s", "lower", "train_s on large-detached (homophily_ratio) and heterophilous-raw (random_walk_normalize)"),
    ("graphs.homophily_ratio.calls", "count", "lower", "train_s on large-detached"),
    ("graphs.homophily_ratio.self_s", "s", "lower", "train_s on large-detached"),
    ("graphs.random_walk_normalize.calls", "count", "lower", "train_s on heterophilous-raw; 0 elsewhere"),
    ("encoders.pretrain_view.calls", "count", "lower", "train_s on heterophilous-raw"),
    ("encoders.pretrain_view.self_s", "s", "lower", "train_s on heterophilous-raw, a small share elsewhere"),
    ("encoders.pretrain_view.peak_nn", "nxn", "lower", "peak_rss_mb on heterophilous-raw"),
    ("encoders.encode_t.self_s", "s", "lower", "train_s on all workloads, most on heterophilous-raw"),
    ("encoders.decode_t.self_s", "s", "lower", "train_s on all workloads, most on heterophilous-raw"),
    ("encoders.mse_t.self_s", "s", "lower", "train_s on all workloads, most on heterophilous-raw"),
    ("filters.self_s", "s", "lower", "train_s on homophilous-kernel and large-detached"),
    ("filters.joint_aggregation_t.calls", "count", "lower", "train_s and peak_rss_mb on homophilous-kernel and large-detached; 0 on heterophilous-raw"),
    ("filters.joint_aggregation_t.gflop", "GFLOP", "lower", "train_s on homophilous-kernel and large-detached; 0 on heterophilous-raw"),
    ("filters.apply_filter_t.calls", "count", "lower", "train_s on all workloads"),
    ("filters.apply_filter_t.self_s", "s", "lower", "train_s on homophilous-kernel and large-detached"),
    ("filters.apply_filter_t.gflop", "GFLOP", "lower", "train_s on all workloads"),
    ("fusion.fuse_views_t.calls", "count", "lower", "train_s on all workloads (small share)"),
    ("fusion.fuse_views_t.self_s", "s", "lower", "train_s on all workloads (small share)"),
    ("fusion.rounds_per_fuse", "1", "lower", "train_s on all workloads; explains a move in acc or nmi"),
    ("fusion.soft_assignment_t.self_s", "s", "lower", "train_s on all workloads (small share)"),
    ("fusion.kl_terms_t.self_s", "s", "lower", "train_s on all workloads (small share)"),
    ("fusion.update_hr.self_s", "s", "lower", "train_s on large-detached"),
    ("clustering.kmeans.calls", "count", "lower", "train_s on all workloads (small share); explains acc and nmi"),
    ("clustering.kmeans.self_s", "s", "lower", "train_s on all workloads (small share)"),
    ("clustering.kmeans.empty", "count", "lower", "acc and nmi on all workloads"),
    ("clustering.kmeans.useful_ratio", "1", "higher", "train_s on all workloads (small share)"),
    ("clustering.metrics.self_s", "s", "lower", "train_s on all workloads (small share)"),
    ("autograd.backward.calls", "count", "lower", "train_s on all workloads"),
    ("autograd.backward.pretrain_s", "s", "lower", "train_s on heterophilous-raw"),
    ("autograd.adam_step.self_s", "s", "lower", "train_s on all workloads"),
    ("autograd.matmul.calls", "count", "lower", "train_s on all workloads"),
    ("autograd.matmul.self_s", "s", "lower", "train_s on all workloads, most on homophilous-kernel and large-detached"),
    ("autograd.matmul.gflop", "GFLOP", "lower", "train_s on all workloads, most on homophilous-kernel and large-detached"),
    ("training.pretrain_s", "s", "lower", "train_s on heterophilous-raw"),
    ("training.bootstrap_s", "s", "lower", "train_s on all workloads"),
    ("training.joint_forward_s", "s", "lower", "train_s on homophilous-kernel and large-detached"),
    ("training.joint_backward_s", "s", "lower", "train_s on homophilous-kernel"),
    ("training.joint_step_s", "s", "lower", "train_s on all workloads (small share)"),
    ("training.refresh_s", "s", "lower", "train_s on all workloads (small share)"),
    ("training.final_s", "s", "lower", "train_s on all workloads"),
    ("training.gap_s", "s", "lower", "train_s: the part of the traced train() no stage covers"),
    ("training.joint_epoch.peak_nn", "nxn", "lower", "peak_rss_mb on homophilous-kernel and large-detached"),
    ("training.detach_s", "1", "lower", "none: the resolved gradient path (1 = kernel detached)"),
    ("trace.overhead_s", "s", "lower", "none: traced train_s minus the median untraced train_s of the same run"),
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "run", "mem0", "peak", "child_s", "note")

    def __init__(self, name, parent, run, mem0):
        self.name = name
        self.parent = parent
        self.run = run
        self.mem0 = mem0
        self.peak = mem0
        self.child_s = 0.0
        self.note = None
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def to_dict(self, index: dict) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": None if self.parent is None else index[id(self.parent)],
            "run": self.run,
            "mem0": self.mem0,
            "peak": self.peak,
            "note": self.note,
        }


class Tracer:
    """Records spans around wrapped calls; memory figures are 0 unless tracemalloc runs."""

    def __init__(self, run: str):
        self.run = run
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patched: list = []

    def _enter(self, name: str) -> Span:
        current, peak = tracemalloc.get_traced_memory()
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            # fold the peak so far into the parent before resetting it for the child
            parent.peak = max(parent.peak, peak)
        tracemalloc.reset_peak()
        span = Span(name, parent, self.run, current)
        self._stack.append(span)
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        span.peak = max(span.peak, tracemalloc.get_traced_memory()[1])
        self._stack.pop()
        if span.parent is not None:
            span.parent.peak = max(span.parent.peak, span.peak)
            span.parent.child_s += span.duration

    @contextmanager
    def span(self, name: str):
        s = self._enter(name)
        try:
            yield s
        finally:
            self._exit(s)

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``note(args, kwargs, result)`` runs after the span closes and stores
        what the metrics need (shapes, flags) on the span.
        """
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            s = tracer._enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit(s)
            if note is not None:
                s.note = note(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def install(self) -> None:
        import gfclust
        from gfclust import clustering, fusion, training
        from gfclust.autograd import Adam, Tensor

        self.wrap(gfclust, "load_dataset", "datasets.load_dataset", _note_edges)
        self.wrap(fusion, "homophily_ratio", "graphs.homophily_ratio")
        self.wrap(training, "random_walk_normalize", "graphs.random_walk_normalize")
        self.wrap(training, "pretrain_view", "encoders.pretrain_view")
        for fn in ("encode_t", "decode_t", "mse_t"):
            self.wrap(training, fn, f"encoders.{fn}")
        self.wrap(training, "joint_aggregation_t", "filters.joint_aggregation_t", _note_kernel_flops)
        self.wrap(training, "apply_filter_t", "filters.apply_filter_t", _note_filter_flops)
        for fn in ("fuse_views_t", "soft_assignment_t", "kl_terms_t", "update_hr"):
            self.wrap(training, fn, f"fusion.{fn}")
        self.wrap(fusion, "evaluate_view_t", "fusion.evaluate_view_t")
        self.wrap(training, "kmeans", "clustering.kmeans", _note_empty)
        # train() imports its metrics from the clustering module at call time
        for fn in ("accuracy", "nmi", "ari", "macro_f1"):
            self.wrap(clustering, fn, "clustering.metrics")
        self.wrap(Tensor, "backward", "autograd.backward")
        self.wrap(Tensor, "__matmul__", "autograd.matmul", _note_matmul_flops)
        self.wrap(Adam, "step", "autograd.adam_step")
        self.wrap(training.TrainingPipeline, "__init__", "training.pipeline_init",
                  lambda args, kwargs, result: {"detach_s": bool(args[0].detach_s)})
        self.wrap(training.TrainingPipeline, "epoch_forward", "training.epoch_forward",
                  _note_with_losses)
        self.wrap(training.TrainingPipeline, "refresh", "training.refresh")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.to_dict(index)) + "\n")


def _note_edges(args, kwargs, g):
    return {"edges": int(sum(a.sum() for a in g.adjacencies) // 2)}


def _note_kernel_flops(args, kwargs, result):
    z_a, z_x = args[0], args[1]
    n, latent = z_a.shape
    m = z_x.shape[0]
    # z = z_a z_x^T is (n, l)(l, m); s = z z^T is (n, m)(m, n)
    return {"flop": 2 * n * m * latent + 2 * n * m * n}


def _note_filter_flops(args, kwargs, result):
    s_rw, x, cfg = args
    products = cfg.order if cfg.family in ("low_pass", "high_pass") else 2 * cfg.order
    n, m = s_rw.shape
    return {"flop": products * 2 * n * m * x.shape[1]}


def _note_matmul_flops(args, kwargs, result):
    a = args[0].data
    return {"flop": 2 * result.data.size * a.shape[-1]}


def _note_empty(args, kwargs, result):
    return {"empty": len(set(result.labels.tolist())) != args[1]}


def _note_with_losses(args, kwargs, result):
    with_losses = kwargs.get("with_losses", args[1] if len(args) > 1 else True)
    return {"with_losses": bool(with_losses)}


def layer_metrics(spans: list, root: Span, n_nodes: int, n_views: int) -> dict:
    """Per-layer metrics of one traced run; ``root`` is the span around ``train``.

    ``peak_nn`` values are the tracemalloc peak above the memory in use when
    the span opened, in units of one n x n float64 array.
    """
    by_name: dict = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name):
        return by_name.get(name, [])

    def calls(name):
        return len(named(name))

    def self_s(*names):
        return sum(s.self_s for name in names for s in named(name))

    def total_s(items):
        return sum(s.duration for s in items)

    def gflop(name):
        return sum(s.note["flop"] for s in named(name)) / 1e9

    nn = 8.0 * n_nodes * n_nodes

    loads = named("datasets.load_dataset")
    edges = loads[0].note["edges"] if loads else 0
    pretrain = named("encoders.pretrain_view")
    kmeans = named("clustering.kmeans")
    fuses = calls("fusion.fuse_views_t")

    under_root = [s for s in spans if s.parent is root]
    joint_fwd = [s for s in under_root if s.name == "training.epoch_forward" and s.note["with_losses"]]
    final_fwd = [s for s in under_root if s.name == "training.epoch_forward" and not s.note["with_losses"]]
    joint_bwd = [s for s in under_root if s.name == "autograd.backward"]
    joint_step = [s for s in under_root if s.name == "autograd.adam_step"]
    init = named("training.pipeline_init")

    stages = {
        "training.pretrain_s": total_s(pretrain),
        "training.bootstrap_s": total_s(init) - total_s(pretrain),
        "training.joint_forward_s": total_s(joint_fwd),
        "training.joint_backward_s": total_s(joint_bwd),
        "training.joint_step_s": total_s(joint_step),
        "training.refresh_s": total_s(named("training.refresh")),
        "training.final_s": root.end - final_fwd[0].start,
    }
    epoch_peaks = [
        (max(f.peak, b.peak, s.peak) - f.mem0) / nn
        for f, b, s in zip(joint_fwd, joint_bwd, joint_step)
    ]
    out = {
        "datasets.load_dataset.self_s": self_s("datasets.load_dataset") / max(len(loads), 1),
        "datasets.edges": edges,
        "datasets.us_per_edge": 1e6 * self_s("datasets.load_dataset") / max(len(loads), 1) / max(edges, 1),
        "graphs.self_s": self_s("graphs.homophily_ratio", "graphs.random_walk_normalize"),
        "graphs.homophily_ratio.calls": calls("graphs.homophily_ratio"),
        "graphs.homophily_ratio.self_s": self_s("graphs.homophily_ratio"),
        "graphs.random_walk_normalize.calls": calls("graphs.random_walk_normalize"),
        "encoders.pretrain_view.calls": len(pretrain),
        "encoders.pretrain_view.self_s": self_s("encoders.pretrain_view"),
        "encoders.pretrain_view.peak_nn": max(((s.peak - s.mem0) / nn for s in pretrain), default=0.0),
        "encoders.encode_t.self_s": self_s("encoders.encode_t"),
        "encoders.decode_t.self_s": self_s("encoders.decode_t"),
        "encoders.mse_t.self_s": self_s("encoders.mse_t"),
        "filters.self_s": self_s("filters.joint_aggregation_t", "filters.apply_filter_t"),
        "filters.joint_aggregation_t.calls": calls("filters.joint_aggregation_t"),
        "filters.joint_aggregation_t.gflop": gflop("filters.joint_aggregation_t"),
        "filters.apply_filter_t.calls": calls("filters.apply_filter_t"),
        "filters.apply_filter_t.self_s": self_s("filters.apply_filter_t"),
        "filters.apply_filter_t.gflop": gflop("filters.apply_filter_t"),
        "fusion.fuse_views_t.calls": fuses,
        "fusion.fuse_views_t.self_s": self_s("fusion.fuse_views_t"),
        "fusion.rounds_per_fuse": calls("fusion.evaluate_view_t") / max(n_views * fuses, 1),
        "fusion.soft_assignment_t.self_s": self_s("fusion.soft_assignment_t"),
        "fusion.kl_terms_t.self_s": self_s("fusion.kl_terms_t"),
        "fusion.update_hr.self_s": self_s("fusion.update_hr"),
        "clustering.kmeans.calls": len(kmeans),
        "clustering.kmeans.self_s": self_s("clustering.kmeans"),
        "clustering.kmeans.empty": sum(s.note["empty"] for s in kmeans),
        # _cluster adopts exactly one result per call, and each call has its own parent span
        "clustering.kmeans.useful_ratio": len({id(s.parent) for s in kmeans}) / max(len(kmeans), 1),
        "clustering.metrics.self_s": self_s("clustering.metrics"),
        "autograd.backward.calls": calls("autograd.backward"),
        "autograd.backward.pretrain_s": total_s(
            s for s in named("autograd.backward") if s.parent is not None
            and s.parent.name == "encoders.pretrain_view"
        ),
        "autograd.adam_step.self_s": self_s("autograd.adam_step"),
        "autograd.matmul.calls": calls("autograd.matmul"),
        "autograd.matmul.self_s": self_s("autograd.matmul"),
        "autograd.matmul.gflop": gflop("autograd.matmul"),
        **stages,
        "training.gap_s": root.duration - sum(stages.values()),
        "training.joint_epoch.peak_nn": max(epoch_peaks, default=0.0),
        "training.detach_s": int(init[0].note["detach_s"]),
    }
    return out
