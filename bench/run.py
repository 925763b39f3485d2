"""heterotune benchmark: one workload per run, checked outputs, one JSON line.

    python3 bench/run.py --workload predict-ci --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the last line of stdout holds the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it holds the per-layer metrics from a
traced run.  The library is imported from ``src/`` of the checkout this
file sits in.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

# Latency percentiles need this many predictions in a run, so that ten lie
# beyond p90.
MIN_PREDICTIONS = 100


def import_library() -> float:
    """Import heterotune from this checkout's src/; returns the import time."""
    package = os.path.join(SRC, "heterotune")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise SystemExit(f"error: no heterotune package at {package}")
    sys.path.insert(0, SRC)
    t0 = perf_counter()
    import heterotune
    took = perf_counter() - t0
    if os.path.dirname(os.path.abspath(heterotune.__file__)) != package:
        raise SystemExit(f"error: imported heterotune from {heterotune.__file__}, not {package}")
    return took


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.isfile(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(args) -> dict:
    import numpy as np

    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = {k: os.environ.get(k, "unset") for k in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": threads,
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
    }


def measure(workload, seconds: float, tracer, host, traced: bool):
    """Closed loop until ``seconds`` have passed; a host-speed sample
    precedes each operation.

    Untraced: the loop also finishes the quality panel and MIN_PREDICTIONS.
    Traced: each request runs twice, untraced and traced in alternating
    order, so that the difference is the tracing overhead.
    """
    from spans import END, START
    from workloads import CheckFailed

    panel = len(workload.panel)
    min_predictions = 1 if workload.tiny else MIN_PREDICTIONS
    # Samples inside a traced operation would count as library time.
    workload.host = None if traced else host
    execs = []   # dicts: request index, traced, times, predictions or error
    done = 0
    start = perf_counter()
    for i, request in enumerate(workload.requests()):
        if perf_counter() - start >= seconds and i >= 1 and (
                traced or (i >= panel and done >= min_predictions)):
            break
        modes = ((False, True) if i % 2 == 0 else (True, False)) if traced else (False,)
        for on in modes:
            rec = {"request": i, "key": repr(request), "traced": on}
            rec["reference"] = host.sample()
            tracer.op = i
            tracer.enabled = on
            if on:
                span = tracer.open("bench.op")
            t0 = perf_counter()
            try:
                raw = workload.run(request)
            except Exception as exc:  # an operation that raised counts as failed
                raw, rec["error"] = None, f"{type(exc).__name__}: {exc}"
            rec["op_s"] = perf_counter() - t0
            if on:
                tracer.close(span)
                rec["op_s"] = tracer.spans[span][END] - tracer.spans[span][START]
            tracer.enabled = False
            # Samples taken inside the operation (the evaluate probe) are
            # not operation time; they are its host-speed reference.
            inside = host.samples[rec["reference"] + 1:]
            rec["busy_s"] = rec["op_s"] - sum(inside)
            rec["inside"] = len(inside)
            if raw is not None:
                try:
                    rec["predictions"] = workload.check(request, raw, rec["op_s"])
                    done += len(rec["predictions"])
                except CheckFailed as exc:
                    rec["error"] = f"check failed: {exc}"
            execs.append(rec)
    workload.host = None
    return execs, perf_counter() - start


def end_to_end(workload, execs, host, setup_s: float) -> tuple[dict, dict]:
    """Gated metrics, with timings scaled to the host-speed reference, and
    the same timings raw."""
    import numpy as np
    from hostspeed import scaled

    ok = [e for e in execs if "predictions" in e]
    preds = [p for e in ok for p in e["predictions"]]
    raw_ms = np.array([p.latency_s for p in preds]) * 1e3

    def reference(e, p=None):
        """Host reference for a prediction, or for the rest of an operation."""
        if p is not None and p.reference is not None:
            return host.around(p.reference)
        first, n = e["reference"] + 1, e["inside"]
        return statistics.median(host.samples[first:first + n]) if n else host.around(e["reference"])

    lat_ms = np.array([scaled(p.latency_s, reference(e, p))
                       for e in ok for p in e["predictions"]]) * 1e3
    # Operation time: each prediction scaled by its own reference, the rest
    # (evaluate's oracle and bookkeeping) by the operation's.
    busy = sum(
        sum(scaled(p.latency_s, reference(e, p)) for p in e["predictions"])
        + scaled(max(e["busy_s"] - sum(p.latency_s for p in e["predictions"]), 0.0),
                 reference(e))
        for e in ok)
    panel = [p for e in ok if e["request"] < len(workload.panel)
             for p in e["predictions"] if p.holistic]
    gaps = np.array([p.gap_pct for p in panel])
    gated = {
        "setup_s": (setup_s, "s"),
        "latency_p50_ms": (float(np.percentile(lat_ms, 50)), "ms"),
        "latency_p90_ms": (float(np.percentile(lat_ms, 90)), "ms"),
        "throughput_pred_s": (len(preds) / busy, "predictions/s"),
        "gap_mean_pct": (float(gaps.mean()), "%"),
        "gap_p90_pct": (float(np.percentile(gaps, 90)), "%"),
        "within10_pct": (float((gaps <= 10.0).mean() * 100.0), "%"),
        "nonconverged_pct": (float(np.mean([not p.converged for p in panel]) * 100.0), "%"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    raw = {
        "raw_latency_p50_ms": (float(np.percentile(raw_ms, 50)), "ms"),
        "raw_latency_p90_ms": (float(np.percentile(raw_ms, 90)), "ms"),
        "raw_throughput_pred_s": (len(preds) / sum(e["busy_s"] for e in ok), "predictions/s"),
        "host_reference_ms": (statistics.median(host.samples) * 1e3, "ms"),
    }
    return gated, raw


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="ci-size inputs and one request, for the benchmark's tests")
    args = parser.parse_args(argv)

    import_s = import_library()
    import layers
    from hostspeed import HostSpeed
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    env = environment(args)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    work_dir = os.path.join(BENCH_DIR, "work", f"{tag}-{os.getpid()}")
    results_dir = os.path.join(BENCH_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)

    tracer = Tracer()
    workload = WORKLOADS[args.workload](work_dir, args.seed, args.tiny)
    try:
        if args.trace:
            layers.install(tracer)
        host = HostSpeed()
        setup_times, setup_refs = [], []
        for rep in range(workload.setup_repeats):
            setup_refs.append(host.samples[host.sample()])
            tracer.op, tracer.enabled = f"setup{rep}", bool(args.trace)
            t0 = perf_counter()
            workload.setup()
            setup_times.append(perf_counter() - t0)
            tracer.enabled = False
        execs, loop_s = measure(workload, args.seconds, tracer, host, bool(args.trace))
    finally:
        workload.close()
        tracer.restore()
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = sum("error" in e for e in execs)
    extra = {}
    if args.trace:
        metrics = layers.metrics(tracer.spans, execs, host, workload.setup_repeats)
        tracer.write(os.path.join(results_dir, f"{tag}-spans.jsonl"))
    else:
        from hostspeed import scaled

        # The import is scaled by the first reference sample, taken right after it.
        setup_s = scaled(import_s, setup_refs[0]) + statistics.median(
            scaled(t, ref) for t, ref in zip(setup_times, setup_refs))
        metrics, extra = end_to_end(workload, execs, host, setup_s)
        extra["raw_setup_s"] = (import_s + statistics.median(setup_times), "s")

    for e in execs:
        if "error" in e:
            print(f"request {e['request']} failed: {e['error']}")
    print(f"workload {args.workload}: {len(execs)} operations in {loop_s:.1f} s, "
          f"{failed} failed; set-up runs {[round(t, 3) for t in setup_times]} s")
    print(f"failed_pct = {100.0 * failed / max(len(execs), 1):.4g} % of attempted")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name} = {value:.6g} {unit}")
    for key, value in env.items():
        print(f"env {key} = {value}")
    result = {
        "correct": failed == 0,
        "attempted": len(execs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(results_dir, f"{tag}.json"), "w") as fh:
        json.dump({"environment": env, "setup_runs_s": setup_times, "loop_s": loop_s,
                   "errors": [e["error"] for e in execs if "error" in e],
                   "unscaled": {k: v for k, (v, _) in extra.items()},
                   "host_samples_s": host.samples,
                   "operations": [
                       {**{k: v for k, v in e.items() if k != "predictions"},
                        "predictions": [vars(p) for p in e.get("predictions", [])]}
                       for e in execs],
                   **result}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
