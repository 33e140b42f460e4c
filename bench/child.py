"""One measured run in a fresh process: load the saved dataset, train once, report.

Started by ``run.py``; prints one JSON object on its last stdout line. With
``--spans PATH`` the run is traced: tracemalloc is on, the layer wrappers of
``spans.py`` are installed for the run and removed afterwards, the spans are
written to PATH and the per-layer metrics are included in the result.
"""

import os

# pin BLAS pools before numpy loads, as tests/conftest.py does
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import gfclust  # noqa: E402
from gfclust import ConfigError, DivergenceError  # noqa: E402

import workloads  # noqa: E402


def fingerprint(report) -> str:
    payload = json.dumps(report.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--loads", type=int, required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()
    w = workloads.WORKLOADS[args.workload]
    cfg = workloads.train_config(w, tiny=args.tiny)

    tracer = None
    if args.spans:
        import spans

        tracemalloc.start()
        tracer = spans.Tracer(run=f"{args.workload}:{os.getpid()}")
        tracer.install()

    out = {"ok": False, "setup_s": []}
    try:
        for _ in range(args.loads):
            start = time.perf_counter()
            g = gfclust.load_dataset(args.manifest)
            out["setup_s"].append(time.perf_counter() - start)
        try:
            if tracer is not None:
                with tracer.span("training.train") as root:
                    report = gfclust.train(g, cfg)
                out["train_s"] = root.duration
            else:
                start = time.perf_counter()
                report = gfclust.train(g, cfg)
                out["train_s"] = time.perf_counter() - start
        except (DivergenceError, ConfigError, MemoryError) as exc:
            out["error"] = f"{type(exc).__name__}: {exc}"
            print(json.dumps(out))
            return 0
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracemalloc.stop()

    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    true_hr = gfclust.true_homophily_report(g)
    out["acc"] = report.final["acc"]
    out["nmi"] = report.final["nmi"]
    out["hr_err"] = max(abs(est - true) for est, true in zip(report.final["hr"], true_hr))
    out["fingerprint"] = fingerprint(report)
    out["ok"] = True
    if tracer is not None:
        tracer.write(args.spans)
        out["layers"] = spans.layer_metrics(tracer.spans, root, g.n_nodes, g.n_views)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
