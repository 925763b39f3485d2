"""Where the traced run wraps the library, and the per-layer metrics it
reports.

Layers are the modules of ``src/heterotune``.  A function is wrapped at
every module attribute its callers look it up through, so
``estimator.predict_best_config`` is wrapped in ``cli``, ``estimator`` and
``evaluation`` alike.  Loop metrics are per traced operation; the set-up
metrics (``SETUP_METRICS``) are per set-up.
"""

from __future__ import annotations

import configparser
import functools
import os
import statistics
import types
from time import perf_counter

import numpy as np

from heterotune import backends, cli, dataset, estimator, evaluation, synthetic
from hostspeed import scaled
from spans import ATTRS, END, NAME, OP, START, Tracer, self_times


def _em_fit(args, kwargs, result):
    state, _ = result
    params = args[4] if len(args) > 4 else kwargs.get("params")
    max_iters = (params or estimator.EstimatorParams()).max_iters
    return {"iters": state.n_iters, "converged": state.converged,
            "floored": state.sigma2_floored, "k": state.loadings.shape[1],
            "capped": state.n_iters >= max_iters}


@functools.lru_cache(maxsize=None)
def _training_bytes(manifest: str) -> int:
    # Cached so that only the first load pays for it: the wrapper runs
    # inside the caller's span.  Every set-up writes the same files.
    parser = configparser.ConfigParser()
    parser.read(manifest)
    base = os.path.dirname(os.path.abspath(manifest))
    files = [os.path.join(base, v) for v in parser["training"].values()]
    return os.path.getsize(manifest) + sum(os.path.getsize(f) for f in files if os.path.isfile(f))


def _load_training(args, kwargs, result):
    return {"bytes": _training_bytes(args[0] if args else kwargs["manifest_path"])}


def _predict_energy(args, kwargs, result):
    return {"clamped": len(result.clamped)}


# (module object, attribute, span name, describe)
WRAPS = [
    (cli, "main", "cli.main", None),
    (cli, "load_samples", "cli.load_samples", None),
    (cli, "load_training", "dataset.load_training", _load_training),
    (dataset, "load_training", "dataset.load_training", _load_training),
    (cli, "save_training", "dataset.save_training", None),
    (cli, "predict_best_config", "estimator.predict_best_config", None),
    (backends.SimulatedBackend, "run", "backends.run", None),
    (backends, "generate_system", "synthetic.generate_system", None),
    (dataset, "unify_system", "platforms.unify_system", None),
    (synthetic, "unify_system", "platforms.unify_system", None),
    (estimator, "predict_best_config", "estimator.predict_best_config", None),
    (estimator, "mask_application", "dataset.mask_application", None),
    (estimator, "feature_matrix", "estimator.feature_matrix", None),
    (estimator, "complete_row", "estimator.complete_row", None),
    (estimator, "init_regression", "estimator.init_regression", None),
    (estimator, "em_fit", "estimator.em_fit", _em_fit),
    (estimator, "predict_energy", "estimator.predict_energy", _predict_energy),
    (estimator, "total_energy_row", "energy.total_energy_row", None),
    (evaluation, "evaluate", "evaluation.evaluate", None),
    (evaluation, "brute_force_best", "evaluation.brute_force_best", None),
    (evaluation, "measured_energy_row", "evaluation.measured_energy_row", None),
    (evaluation, "total_energy_row", "energy.total_energy_row", None),
    (evaluation, "predict_best_config", "estimator.predict_best_config", None),
    (evaluation, "single_platform_baseline", "evaluation.single_platform_baseline", None),
]

SETUP_METRICS = (
    "synthetic.generate_system.ms",
    "platforms.unify_system.ms",
    "dataset.save_training.ms",
    "backends.run.calls",
    "backends.run.us",
)

# metric -> (span name, what, unit).  ``what``: ms/us = inclusive time,
# self_ms = self time, calls = span count, all totals per operation (or per
# set-up for SETUP_METRICS).
TOTALS = {
    "estimator.em_fit.ms": ("estimator.em_fit", "ms", "ms"),
    "estimator.em_fit.calls": ("estimator.em_fit", "calls", "count"),
    "dataset.load_training.ms": ("dataset.load_training", "ms", "ms"),
    "cli.main.self_ms": ("cli.main", "self_ms", "ms"),
    "cli.load_samples.ms": ("cli.load_samples", "ms", "ms"),
    "evaluation.single_platform_baseline.ms":
        ("evaluation.single_platform_baseline", "ms", "ms"),
    "estimator.feature_matrix.calls": ("estimator.feature_matrix", "calls", "count"),
    "estimator.feature_matrix.ms": ("estimator.feature_matrix", "ms", "ms"),
    "dataset.mask_application.ms": ("dataset.mask_application", "ms", "ms"),
    "estimator.init_regression.calls": ("estimator.init_regression", "calls", "count"),
    "estimator.init_regression.ms": ("estimator.init_regression", "ms", "ms"),
    "estimator.predict_energy.ms": ("estimator.predict_energy", "ms", "ms"),
    "energy.total_energy_row.us": ("energy.total_energy_row", "us", "us"),
    "evaluation.brute_force_best.us": ("evaluation.brute_force_best", "us", "us"),
    "estimator.predict_best_config.self_ms": ("estimator.predict_best_config", "self_ms", "ms"),
    "evaluation.evaluate.self_ms": ("evaluation.evaluate", "self_ms", "ms"),
    "synthetic.generate_system.ms": ("synthetic.generate_system", "ms", "ms"),
    "platforms.unify_system.ms": ("platforms.unify_system", "ms", "ms"),
    "dataset.save_training.ms": ("dataset.save_training", "ms", "ms"),
    "backends.run.calls": ("backends.run", "calls", "count"),
    "backends.run.us": ("backends.run", "us", "us"),
}

_SCALE = {"ms": 1e3, "us": 1e6, "self_ms": 1e3}


def install(tracer) -> None:
    for owner, attr, name, describe in WRAPS:
        tracer.wrap(owner, attr, name, describe)


def _pct(flags) -> float:
    return float(np.mean(flags) * 100.0) if len(flags) else 0.0


def metrics(spans: list[list], execs: list[dict], host, n_setups: int) -> dict:
    """Per-layer metrics of a traced run, as {name: (value, unit)}."""
    selfs = self_times(spans)
    traced_ops = {e["request"] for e in execs if e["traced"]}
    setups = {f"setup{r}" for r in range(n_setups)}
    n_ops = max(len(traced_ops), 1)
    loop = [i for i, s in enumerate(spans) if s[OP] in traced_ops]
    setup = [i for i, s in enumerate(spans) if s[OP] in setups]

    out = {}
    for metric, (name, what, unit) in TOTALS.items():
        idx, per = (setup, n_setups) if metric in SETUP_METRICS else (loop, n_ops)
        chosen = [i for i in idx if spans[i][NAME] == name]
        if what == "calls":
            total = len(chosen)
        elif what == "self_ms":
            total = sum(selfs[i] for i in chosen) * _SCALE[what]
        else:
            total = sum(spans[i][END] - spans[i][START] for i in chosen) * _SCALE[what]
        out[metric] = (total / per, unit)

    def attrs(name):
        return [spans[i][ATTRS] or {} for i in loop if spans[i][NAME] == name]

    fits = attrs("estimator.em_fit")
    iters = np.array([a["iters"] for a in fits])
    em_s = sum(spans[i][END] - spans[i][START] for i in loop
               if spans[i][NAME] == "estimator.em_fit")
    out["estimator.em_fit.us_per_iter"] = (em_s * 1e6 / iters.sum() if iters.sum() else 0.0, "us")
    out["estimator.em_fit.iters_p50"] = (float(np.percentile(iters, 50)) if fits else 0.0, "count")
    out["estimator.em_fit.iters_p90"] = (float(np.percentile(iters, 90)) if fits else 0.0, "count")
    out["estimator.em_fit.cap_pct"] = (_pct([a["capped"] for a in fits]), "%")
    out["estimator.em_fit.unconverged_pct"] = (_pct([not a["converged"] for a in fits]), "%")
    out["estimator.em_fit.sigma2_floored_pct"] = (_pct([a["floored"] for a in fits]), "%")
    out["estimator.em_fit.k_mean"] = (float(np.mean([a["k"] for a in fits])) if fits else 0.0,
                                      "count")
    inits = attrs("estimator.init_regression")
    out["estimator.init_regression.rank_deficient_pct"] = (
        _pct([a.get("error") == "RankDeficiencyError" for a in inits]), "%")
    out["dataset.load_training.bytes"] = (
        sum(a["bytes"] for a in attrs("dataset.load_training")) / n_ops, "bytes")
    out["estimator.predict_energy.clamped_cells"] = (
        sum(a["clamped"] for a in attrs("estimator.predict_energy")) / n_ops, "count")

    # The benchmark's own operation span is not a layer: its self time is
    # operation time that no layer span covers.
    ops = [i for i in loop if spans[i][NAME] == "bench.op"]
    op_total = sum(spans[i][END] - spans[i][START] for i in ops)
    out["bench.op.ms"] = (op_total * 1e3 / n_ops, "ms")
    out["bench.op.self_pct"] = (
        sum(selfs[i] for i in ops) / op_total * 100.0 if op_total else 0.0, "%")

    # Each request ran once traced and once untraced, back to back; both
    # times are scaled to the host-speed reference (see hostspeed.py).
    by_req: dict[int, dict[bool, float]] = {}
    for e in execs:
        by_req.setdefault(e["request"], {})[e["traced"]] = scaled(
            e["op_s"], host.around(e["reference"]))
    pairs = [(v[True], v[False]) for v in by_req.values() if len(v) == 2]
    traced_s = sum(t for t, _ in pairs)
    plain_s = sum(u for _, u in pairs)
    out["tracing.overhead_ms"] = ((traced_s - plain_s) * 1e3 / max(len(pairs), 1), "ms")
    out["tracing.overhead_pct"] = (
        (traced_s - plain_s) / plain_s * 100.0 if plain_s else 0.0, "%")
    # The paired difference carries the host's noise; spans per operation
    # times the cost of one wrapped call bounds the overhead itself.
    out["tracing.spans_per_op"] = ((len(loop) - len(ops)) / n_ops, "count")
    out["tracing.span_cost_us"] = (span_cost_s() * 1e6, "us")
    out["bench.host_reference_ms"] = (statistics.median(host.samples) * 1e3, "ms")
    return out


def span_cost_s(calls: int = 20000) -> float:
    """Extra time of one call through a recording wrapper."""
    def noop():
        return None

    ns = types.SimpleNamespace(noop=noop)
    tracer = Tracer()
    tracer.wrap(ns, "noop", "noop")
    tracer.enabled = True
    t0 = perf_counter()
    for _ in range(calls):
        ns.noop()
    wrapped = perf_counter() - t0
    t0 = perf_counter()
    for _ in range(calls):
        noop()
    return max(wrapped - (perf_counter() - t0), 0.0) / calls
