"""Tests of the benchmark itself: span arithmetic, the tracer, and a tiny
run of every workload that must emit exactly the metrics BENCHMARK.json
names, with their units."""

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

from spans import ATTRS, NAME, PARENT, Tracer, self_times

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def span(name, start, end, parent=None, op=0):
    return [name, start, end, parent, op, None]


def test_self_time_of_nested_spans():
    spans = [
        span("bench.op", 0.0, 10.0),
        span("estimator.predict_best_config", 1.0, 9.0, 0),
        span("estimator.complete_row", 2.0, 6.0, 1),
        span("estimator.init_regression", 2.0, 2.5, 2),
        span("estimator.em_fit", 2.5, 5.5, 2),
        span("estimator.complete_row", 6.0, 8.5, 1),
        span("estimator.init_regression", 6.0, 6.2, 5),
        span("estimator.em_fit", 6.2, 8.4, 5),
    ]
    expected = [2.0, 1.5, 0.5, 0.5, 3.0, 0.1, 0.2, 2.2]
    assert self_times(spans) == pytest.approx(expected)


def test_self_time_counts_overlap_once_and_clips_children():
    spans = [
        span("parent", 0.0, 10.0),
        span("a", 1.0, 4.0, 0),
        span("b", 3.0, 5.0, 0),     # overlaps a: covered 1..5
        span("c", 9.0, 12.0, 0),    # runs past the parent: covered 9..10
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 4.0 - 1.0)


def test_tracer_wraps_records_and_restores():
    def inner(x):
        return x + 1

    def outer(x):
        return ns.inner(x) * 2

    def broken():
        raise KeyError("boom")

    ns = types.SimpleNamespace(inner=inner, outer=outer, broken=broken)
    tracer = Tracer()
    tracer.wrap(ns, "outer", "mod.outer")
    tracer.wrap(ns, "inner", "mod.inner", lambda args, kwargs, result: {"x": args[0]})
    tracer.wrap(ns, "broken", "mod.broken")

    assert ns.outer(1) == 4 and tracer.spans == []  # disabled: nothing recorded
    tracer.enabled, tracer.op = True, 7
    assert ns.outer(2) == 6
    with pytest.raises(KeyError):
        ns.broken()
    names = [s[NAME] for s in tracer.spans]
    assert names == ["mod.outer", "mod.inner", "mod.broken"]
    assert [s[PARENT] for s in tracer.spans] == [None, 0, None]
    assert tracer.spans[1][ATTRS] == {"x": 2}
    assert tracer.spans[2][ATTRS] == {"error": "KeyError"}
    assert all(s[4] == 7 for s in tracer.spans)

    tracer.restore()
    assert (ns.inner, ns.outer, ns.broken) == (inner, outer, broken)


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "5", "--seconds", "0",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "work", "__pycache__"))
    proc = _run(tmp_path, "--workload", "predict-ci", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
