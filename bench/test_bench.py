"""Smoke test of the benchmark itself at smoke-test sizes (64 nodes, one epoch).

Runs every workload end to end through ``run.py`` in both modes, checks that
every metric appears with its unit, that the traced wrappers leave no trace
behind, and that BENCHMARK.json matches the tables the benchmark prints from.
"""

import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload):
    for trace, table in ((0, run.END_TO_END), (1, spans.LAYER_METRICS)):
        result = bench(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 1 and result["failed"] == 0 and result["correct"]
        assert {name: m["unit"] for name, m in result["metrics"].items()} == {
            row[0]: row[1] for row in table
        }
        if trace:
            calls = result["metrics"]["filters.joint_aggregation_t.calls"]["value"]
            if workload == "heterophilous-raw":
                assert calls == 0
                assert result["metrics"]["graphs.random_walk_normalize.calls"]["value"] > 0
            else:
                assert calls > 0


def test_traced_run_restores_every_wrapped_function_and_keeps_results():
    import gfclust

    w = workloads.WORKLOADS["homophilous-kernel"]
    g = gfclust.generate_synthetic(workloads.synthetic_spec(w, 0, tiny=True))
    cfg = workloads.train_config(w, tiny=True)
    plain = gfclust.train(g, cfg).to_dict()

    tracer = spans.Tracer(run="test")
    tracemalloc.start()
    try:
        tracer.install()
        patched = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in tracer._patched]
        originals = [original for _, _, original in tracer._patched]
        with tracer.span("training.train") as root:
            traced = gfclust.train(g, cfg).to_dict()
    finally:
        tracer.uninstall()
        tracemalloc.stop()

    assert len(patched) > 20
    for (owner, attr, wrapper), original in zip(patched, originals):
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} still wrapped"
        assert wrapper is not original
    assert traced == plain
    layers = spans.layer_metrics(tracer.spans, root, g.n_nodes, g.n_views)
    assert set(layers) == {row[0] for row in spans.LAYER_METRICS} - {"trace.overhead_s"}
    assert layers["training.gap_s"] < 0.2 * root.duration


def test_benchmark_json_matches_the_benchmark_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert spec["paths"] == ["bench"]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(row) for row in run.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        row[:3] for row in spans.LAYER_METRICS
    ]
    assert [(x["name"], x["why"]) for x in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
