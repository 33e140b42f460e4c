"""gfclust benchmark: one named workload, measured end to end or traced per layer.

    python3 bench/run.py --workload homophilous-kernel --seed 0 --seconds 35 --trace 0

The workload's graph is generated from ``--seed`` in this process and written
with ``save_dataset``. Each measured run is then a fresh child process
(``child.py``, single-threaded BLAS) that loads the dataset, trains once
through ``gfclust.train`` and reports its peak RSS; one child runs at a time,
for ``--seconds``. Every run is checked: ACC and NMI above the workload's
floors, and the same report fingerprint as every other run of the set.

``--trace 0`` prints the end-to-end metrics (medians over the runs);
``--trace 1`` runs untraced children for a baseline, then one traced child,
and prints the per-layer metrics of ``spans.py`` plus the tracing overhead.
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. A record of every run, with the fingerprints and
the environment, goes to ``.bench_out/``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

import spans  # noqa: E402
import workloads  # noqa: E402

# (name, unit, better, bound): bound is the share of the parent commit's
# median by which a metric may worsen before a change counts as a regression
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("train_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("acc", "1", "higher", 0.06),
    ("nmi", "1", "higher", 0.15),
    ("hr_fit", "1", "higher", 0.06),
    ("success_frac", "1", "higher", 0.1),
]

MIN_RUNS = 3  # untraced runs per --trace 0 invocation, whatever --seconds says
TRACED_COST = 1.5  # a traced run's wall time, in untraced runs, reserved up front
LAST_START_S = 110  # no untraced run starts later than this into the invocation
DEADLINE_S = 170  # every run is killed by then, so the invocation ends within 180 s
LOADS_PER_RUN = 3  # load_dataset calls per child; setup_s is their median


def environment() -> dict:
    import numpy
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def run_child(manifest: Path, w, tiny: bool, timeout: float,
              spans_path: Path | None = None) -> dict:
    cmd = [sys.executable, str(BENCH / "child.py"), "--manifest", str(manifest),
           "--workload", w.name, "--loads", str(LOADS_PER_RUN)]
    if tiny:
        cmd.append("--tiny")
    if spans_path is not None:
        cmd += ["--spans", str(spans_path)]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"timed out after {timeout:.0f} s",
                "wall_s": time.perf_counter() - start}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        result = {"ok": False, "error": tail[0]}
    if proc.returncode != 0:
        result["ok"] = False
        result.setdefault("error", f"exit code {proc.returncode}")
    result["wall_s"] = time.perf_counter() - start
    return result


def check(results: list, w, tiny: bool) -> None:
    """Mark each run ``passed``: it trained, cleared the floors, matched the fingerprint."""
    reference = next((r["fingerprint"] for r in results if r.get("ok")), None)
    for r in results:
        problems = [] if r.get("ok") else [r.get("error", "run failed")]
        if r.get("ok"):
            if not tiny and r["acc"] < w.acc_floor:
                problems.append(f"acc {r['acc']:.4f} < floor {w.acc_floor}")
            if not tiny and r["nmi"] < w.nmi_floor:
                problems.append(f"nmi {r['nmi']:.4f} < floor {w.nmi_floor}")
            if r["fingerprint"] != reference:
                problems.append(f"fingerprint {r['fingerprint']} != {reference}")
        r["passed"] = not problems
        r["problems"] = problems


def end_to_end(results: list) -> dict:
    ran = [r for r in results if r.get("ok")]
    failed = sum(not r["passed"] for r in results)
    values = {
        "setup_s": statistics.median(s for r in results for s in r.get("setup_s", [])),
        "train_s": statistics.median(r["train_s"] for r in ran),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ran),
        "acc": statistics.median(r["acc"] for r in ran),
        "nmi": statistics.median(r["nmi"] for r in ran),
        # 1 - the largest per-view gap between estimated and true homophily;
        # the gap itself is exactly 0 whenever the clustering is perfect
        "hr_fit": statistics.median(1.0 - r["hr_err"] for r in ran),
        "success_frac": (len(results) - failed) / len(results),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _, _ in END_TO_END}


def per_layer(results: list, traced: dict) -> dict:
    values = dict(traced["layers"])
    untraced = [r["train_s"] for r in results if r.get("ok") and "layers" not in r]
    values["trace.overhead_s"] = traced["train_s"] - statistics.median(untraced)
    return {name: {"value": values[name], "unit": unit} for name, unit, _, _ in spans.LAYER_METRICS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (64 nodes, one epoch per stage); no quality floors")
    args = parser.parse_args(argv)
    invoked = time.perf_counter()

    if not (ROOT / "src" / "gfclust" / "__init__.py").is_file():
        print(f"gfclust sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from gfclust import generate_synthetic, save_dataset

    w = workloads.WORKLOADS[args.workload]
    tag = f"{w.name}-seed{args.seed}" + ("-tiny" if args.tiny else "")
    g = generate_synthetic(workloads.synthetic_spec(w, args.seed, tiny=args.tiny))
    manifest = save_dataset(g, ROOT / ".bench_data" / tag)
    del g
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)

    results = []
    reserve = TRACED_COST if args.trace else 0.0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        estimate = statistics.median(r["wall_s"] for r in results) if results else 0.0
        enough = len(results) >= (1 if args.trace else MIN_RUNS)
        if enough and elapsed + estimate * (1.0 + reserve) > args.seconds:
            break
        if results and elapsed + estimate * (1.0 + reserve) > LAST_START_S:
            break
        results.append(run_child(manifest, w, args.tiny, DEADLINE_S - (time.perf_counter() - invoked)))
    traced = None
    if args.trace:
        traced = run_child(manifest, w, args.tiny, DEADLINE_S - (time.perf_counter() - invoked),
                           spans_path=out_dir / f"{tag}-spans.jsonl")
        results.append(traced)
    check(results, w, args.tiny)

    untraced_ok = any(r.get("ok") for r in results if r is not traced)
    if not untraced_ok or (traced is not None and not traced.get("ok")):
        for r in results:
            print(f"run failed: {r.get('error')}", file=sys.stderr)
        return 1
    metrics = per_layer(results, traced) if args.trace else end_to_end(results)
    failed = sum(not r["passed"] for r in results)
    env = environment()
    record = {"workload": w.name, "seed": args.seed, "trace": args.trace, "tiny": args.tiny,
              "environment": env, "runs": results, "metrics": metrics}
    (out_dir / f"{tag}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    fingerprints = sorted({r["fingerprint"] for r in results if r.get("ok")})
    print(f"workload {w.name} seed {args.seed}: {len(results)} runs, {failed} failed, "
          f"report fingerprint {','.join(fingerprints)}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    for r in results:
        if r["problems"]:
            print(f"  failed run: {'; '.join(r['problems'])}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(results), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
