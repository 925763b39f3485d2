"""The benchmark's workloads: what one operation is, how its inputs are made,
and how its output is checked.

Every workload runs as one caller in a closed loop.  Its requests are a
fixed quality panel, issued first in an order drawn from the seed, then
requests drawn from the seed.  The gap and convergence metrics are scored
on the panel only, so they are the same for every seed: random draws move
the mean gap by 25-40 % from seed to seed at these sizes, which would hide
a pick that got worse.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import os
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from heterotune import cli, dataset, estimator, evaluation

# Every workload benchmarks the same simulated training set.
TRAINING_SEED = 0
N_SAMPLES = 15
WARNING = "warning: EM did not converge"


@dataclass
class Prediction:
    """One configuration pick, as seen by the benchmark."""

    latency_s: float
    holistic: bool
    gap_pct: float | None = None
    converged: bool = True
    reference: int | None = None   # index of the host-speed sample before it


class CheckFailed(Exception):
    """An operation's output broke one of the benchmark's checks."""


def check(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


class Workload:
    name = ""
    profile = "full"
    setup_repeats = 3

    def __init__(self, work_dir: str, seed: int, tiny: bool = False):
        self.work_dir = work_dir
        self.seed = seed
        self.tiny = tiny
        if tiny:
            self.profile = "ci"
            self.setup_repeats = 1
        self.training_dir = os.path.join(work_dir, "training")
        self.manifest = os.path.join(self.training_dir, "manifest.conf")
        self.panel: list = []
        self.tail: list = []
        self.host = None   # a HostSpeed while untraced operations run

    def setup(self) -> None:
        """One set-up: benchmark the training set, load it, build the
        oracle and the requests, and run one warm-up operation."""
        quiet(["benchmark", "--profile", self.profile, "--seed", str(TRAINING_SEED),
               "--out", self.training_dir])
        self.matrix = dataset.load_training(self.manifest)
        self.oracle = {}
        for app in self.matrix.apps:
            energies = evaluation.measured_energy_row(self.matrix, app.app_id)
            self.oracle[app.app_id] = (energies, float(energies.min()))
        rng = np.random.default_rng(self.seed)
        self.panel, self.tail = self.make_requests(rng)
        self.panel = [self.panel[i] for i in rng.permutation(len(self.panel))]
        self.prepare()
        self.warm_up()

    def make_requests(self, rng) -> tuple[list, list]:
        raise NotImplementedError

    def prepare(self) -> None:
        """Per-set-up work beyond the training set (e.g. sample files)."""

    def warm_up(self) -> None:
        self.check(self.panel[0], self.run(self.panel[0]), 0.0)

    def requests(self):
        """Panel first, then the seed-drawn tail, then both again, forever."""
        return itertools.chain(self.panel, itertools.cycle(self.tail + self.panel))

    def run(self, request):
        """The timed operation; returns its raw output."""
        raise NotImplementedError

    def check(self, request, raw, op_s: float) -> list[Prediction]:
        """Check a raw output; raises CheckFailed."""
        raise NotImplementedError

    def gap(self, app_id: int, chosen: int) -> float:
        energies, best = self.oracle[app_id]
        return (float(energies[chosen]) - best) / best * 100.0

    def close(self) -> None:
        """Undo anything ``setup`` installed."""


def quiet(argv: list[str]) -> tuple[int, str, str]:
    """``cli.main(argv)`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if argv[0] != "predict" and rc != cli.EXIT_OK:
        raise RuntimeError(f"heterotune {argv[0]} exited {rc}: {err.getvalue()}")
    return rc, out.getvalue(), err.getvalue()


def _requests(apps, panel_per_app: int, tail_per_app: int, rng) -> tuple[list, list]:
    """(app_id, sample seed) requests: a fixed panel and a seed-drawn tail."""
    panel = [(app.app_id, 1000 * k + app.app_id)
             for k in range(1, panel_per_app + 1) for app in apps]
    draws = iter(rng.integers(10**6, 2**31, size=tail_per_app * len(apps)))
    tail = [(app.app_id, int(next(draws))) for _ in range(tail_per_app) for app in apps]
    return panel, tail


def _check_pick(energy: np.ndarray, chosen: int, n_configs: int) -> None:
    check(0 <= chosen < n_configs, f"chosen index {chosen} out of range")
    check(energy.shape == (n_configs,), "energy row has the wrong length")
    check(np.isfinite(energy).all() and (energy > 0).all(),
          "an energy is not finite and positive")
    check(int(np.argmin(energy)) == chosen, "chosen is not the argmin of the energies")


class CliPredictFull(Workload):
    """``heterotune predict`` in process on files made by ``heterotune
    benchmark`` and ``heterotune sample``."""

    name = "cli-predict-full"

    def make_requests(self, rng):
        if self.tiny:
            panel, tail = _requests(self.matrix.apps, 1, 1, rng)
            return panel[:1], tail[:1]
        # Each sample file costs one `heterotune sample` run in every set-up.
        return _requests(self.matrix.apps, 3, 1, rng)

    def prepare(self):
        self.sample_dir = os.path.join(self.work_dir, "samples")
        self.out_dir = os.path.join(self.work_dir, "predict")
        os.makedirs(self.sample_dir, exist_ok=True)
        self.plans = {}
        for app, seed in set(self.panel) | set(self.tail):
            path = self.sample_path(app, seed)
            quiet(["sample", "--profile", self.profile, "--backend-data", self.manifest,
                   "--cpu-cmd", f"app:{app}", "--gpu-cmd", f"app:{app}",
                   "--samples", str(N_SAMPLES), "--seed", str(seed), "--out", path])
            self.plans[seed] = dataset.select_samples(
                self.matrix.n_configs, N_SAMPLES, seed).sample_configs

    def sample_path(self, app: int, seed: int) -> str:
        return os.path.join(self.sample_dir, f"app{app}-seed{seed}.csv")

    def run(self, request):
        app, seed = request
        return quiet(["predict", "--training", self.manifest,
                      "--sample", self.sample_path(app, seed), "--out", self.out_dir])

    def check(self, request, raw, op_s):
        app, seed = request
        rc, out, err = raw
        check(rc == cli.EXIT_OK, f"predict exited {rc}: {err.strip()}")
        m = self.matrix
        with open(os.path.join(self.out_dir, "estimates.csv")) as fh:
            lines = fh.read().splitlines()
        check(lines[0] == "config_id,power,time,energy,provenance,chosen",
              "estimates.csv header changed")
        rows = [ln.split(",") for ln in lines[1:]]
        check([r[0] for r in rows] == [c.config_id for c in m.configs],
              "estimates.csv rows do not follow the training configurations")
        flags = [r[5] for r in rows]
        check(flags.count("1") == 1 and flags.count("0") == len(rows) - 1,
              "estimates.csv must mark exactly one chosen row")
        chosen = flags.index("1")
        check(out.startswith(f"chosen: {m.configs[chosen].config_id}\n"),
              "printed choice differs from estimates.csv")
        _check_pick(np.array([float(r[3]) for r in rows]), chosen, m.n_configs)
        sampled = set(self.plans[seed])
        observed = {j for j, r in enumerate(rows) if r[4] == "observed-sample"}
        check(observed == sampled, "observed-sample marks differ from the sampled configs")
        check(all(r[4] == "predicted" for j, r in enumerate(rows) if j not in sampled),
              "unknown provenance value")
        row = m.app_index(app)
        for j in sampled:
            check(float(rows[j][1]) == m.power[row, j] and float(rows[j][2]) == m.time[row, j],
                  f"sampled cell {j} did not pass through unchanged")
        return [Prediction(op_s, True, self.gap(app, chosen), WARNING not in err)]


class PredictCi(Workload):
    """Library ``predict_best_config`` on the small ``ci`` profile."""

    name = "predict-ci"
    profile = "ci"

    def make_requests(self, rng):
        if self.tiny:
            panel, tail = _requests(self.matrix.apps, 1, 1, rng)
            return panel[:1], tail[:1]
        return _requests(self.matrix.apps, 12, 12, rng)

    def run(self, request):
        app, seed = request
        plan = dataset.select_samples(self.matrix.n_configs, N_SAMPLES, seed, app)
        return plan, estimator.predict_best_config(self.matrix, app, plan)

    def check(self, request, raw, op_s):
        app, _ = request
        plan, res = raw
        m = self.matrix
        _check_pick(res.energy, res.chosen, m.n_configs)
        idx = np.array(plan.sample_configs)
        row = m.app_index(app)
        check(np.array_equal(res.power[idx], m.power[row, idx])
              and np.array_equal(res.time[idx], m.time[row, idx]),
              "sampled cells did not pass through unchanged")
        observed = {j for j, p in enumerate(res.provenance) if p == "observed-sample"}
        check(observed == set(plan.sample_configs), "provenance marks differ from the plan")
        return [Prediction(op_s, True, self.gap(app, res.chosen), bool(res.converged))]


class EvaluateFull(Workload):
    """``evaluate`` with every approach, one trial per operation.

    Latency here is per prediction inside ``evaluate``: a probe at
    ``evaluation.predict_best_config`` times each call, reads its
    ``converged`` flag and takes the host-speed sample before it.
    Brute-force records are not predictions.
    """

    name = "evaluate-full"
    trials = 1
    _probe = None   # the function the probe replaced

    def make_requests(self, rng):
        if self.tiny:
            return [0], [1]
        return [0, 1, 2, 3], [int(s) for s in rng.integers(4, 2**31, size=4)]

    def prepare(self):
        if self._probe is not None:
            return
        inner = evaluation.predict_best_config
        calls = self.probe_calls = []

        def probe(matrix, *args, **kwargs):
            ref = self.host.sample() if self.host else None
            t0 = perf_counter()
            result = inner(matrix, *args, **kwargs)
            took = perf_counter() - t0
            calls.append((took, matrix is self.matrix, bool(result.converged), ref))
            return result

        self._probe = inner
        evaluation.predict_best_config = probe

    def warm_up(self):
        # One holistic prediction: a whole evaluate trial is too long for set-up.
        app = self.matrix.apps[0].app_id
        plan = dataset.select_samples(self.matrix.n_configs, N_SAMPLES, 0, app)
        estimator.predict_best_config(self.matrix, app, plan)

    def close(self):
        if self._probe is not None:
            evaluation.predict_best_config = self._probe
            self._probe = None

    def run(self, request):
        self.probe_calls.clear()
        report = evaluation.evaluate(self.matrix, evaluation.APPROACHES,
                                     trials=self.trials, seed=request)
        return report, list(self.probe_calls)

    def check(self, request, raw, op_s):
        report, calls = raw
        m = self.matrix
        n_apps, n_appr = m.n_apps, len(evaluation.APPROACHES)
        check(len(report.records) == self.trials * n_apps * n_appr,
              "evaluate emitted the wrong number of records")
        keys = {(r.trial, r.app_id, r.approach) for r in report.records}
        check(len(keys) == len(report.records), "duplicate evaluate record")
        predicting = [r for r in report.records if r.approach != evaluation.BRUTE_FORCE]
        check(len(calls) == len(predicting), "probe saw a different number of predictions")
        for r in report.records:
            energies, best = self.oracle[r.app_id]
            check(0 <= r.chosen < m.n_configs, f"chosen index {r.chosen} out of range")
            check(math.isfinite(r.energy_mj) and r.energy_mj > 0,
                  "record energy is not finite and positive")
            check(r.energy_mj == float(energies[r.chosen]), "record energy differs from the oracle's")
            check(r.gap_pct >= 0.0, "negative gap")
            if r.approach == evaluation.BRUTE_FORCE:
                check(r.gap_pct == 0.0 and r.chosen == int(np.argmin(energies)),
                      "brute force is not the optimum")
        holistic_calls = [c for c in calls if c[1]]
        holistic = [r for r in report.records if r.approach == evaluation.HOLISTIC]
        check(len(holistic_calls) == len(holistic), "probe missed a holistic prediction")
        preds = [Prediction(lat, False, reference=ref)
                 for lat, is_h, _, ref in calls if not is_h]
        preds += [Prediction(lat, True, r.gap_pct, conv, ref)
                  for (lat, _, conv, ref), r in zip(holistic_calls, holistic)]
        return preds


WORKLOADS = {w.name: w for w in (CliPredictFull, EvaluateFull, PredictCi)}
