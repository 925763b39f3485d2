"""Scoring harness: brute-force oracle, single-platform baselines, and the
leave-one-application-out comparison of approaches.

Every approach is scored on the same whole-system energy (idle platforms'
static draw included), so a baseline that only ever sees one platform's
columns still pays for the rest of the machine.  Gaps are reported as
percent above the brute-force optimum, which is zero by construction.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import SamplePlan, TrainingMatrix, require_measured, select_samples
from .energy import total_energy_row
from .errors import DataFormatError
from .estimator import (
    MAX_LATENT_DIM,
    Prepared,
    PredictionResult,
    _block,
    _Block,
    em_fit,
    feature_matrix,
    init_regression,
    predict_best_config,
    select_latent_dim,
)
from .platforms import PlatformKind

HOLISTIC = "holistic"
CPU_ONLY = "cpu-only"
GPU_ONLY = "gpu-only"
BRUTE_FORCE = "brute-force"

APPROACHES = (HOLISTIC, CPU_ONLY, GPU_ONLY, BRUTE_FORCE)

DEFAULT_HOLISTIC_SAMPLES = 15
CPU_SAMPLES = 15   # sampling runs of the CPU-only baseline
GPU_SAMPLES = 3    # sampling runs of the GPU-only baseline

# Applications whose rank choices ``evaluate`` prepares as one stack.  On
# the full profile each one stacked adds about 0.7 MB to evaluate's peak
# memory, mostly the held-out fits' temporaries; stacks of six were about
# 4 % faster than stacks of three, for 2 MB more.
_STACK = 3


def measured_energy_row(matrix: TrainingMatrix, app_id: int) -> np.ndarray:
    """Whole-system energy of one fully measured application row."""
    row = matrix.app_index(app_id)
    if np.isnan(matrix.power[row]).any():
        raise ValueError(f"app {app_id} row has unobserved cells")
    return total_energy_row(matrix.power[row], matrix.time[row], matrix.system)


def brute_force_best(matrix: TrainingMatrix, app_id: int) -> tuple[int, float]:
    """Exhaustive scan over all configurations; ties go to the lowest index."""
    energies = measured_energy_row(matrix, app_id)
    chosen = int(np.argmin(energies))
    return chosen, float(energies[chosen])


def single_platform_baseline(
    matrix: TrainingMatrix,
    app_id: int,
    platform: str,
    n_samples: int,
    seed: int,
) -> tuple[int, PredictionResult]:
    """Run the estimator restricted to one platform's configurations.

    A GPU's configurations vary only in workgroup size, so its regression
    uses the single-predictor basis (see ``feature_matrix``).  Returns the
    chosen configuration as an index into the full matrix.
    """
    cols = matrix.platform_config_indices(platform)
    if not cols:
        raise ValueError(f"no configurations for platform {platform!r} in the system")
    sub = matrix.select_configs(cols)
    plan = select_samples(sub.n_configs, n_samples, seed, target_app=app_id)
    result = predict_best_config(sub, app_id, plan)
    return cols[result.chosen], result


@dataclass(frozen=True)
class TrialRecord:
    app_id: int
    trial: int
    approach: str
    chosen: int
    config_id: str
    energy_mj: float
    gap_pct: float
    n_samples: int


@dataclass(frozen=True)
class EvaluationReport:
    """Per-(app, trial, approach) selections; the summary derives from them."""

    records: tuple[TrialRecord, ...]
    trials: int
    seed: int

    # the share of the single-platform pair's sampling runs (15 + 3) that a
    # 15-run holistic pick saves: run-count arithmetic, not a measurement
    saving_fraction = GPU_SAMPLES / (CPU_SAMPLES + GPU_SAMPLES)

    def gaps(self, approach: str) -> np.ndarray:
        return np.array([r.gap_pct for r in self.records if r.approach == approach])

    def summary_text(self) -> str:
        """One row per approach, in record order, with each approach's gap
        statistics; the saving line when both baselines were run."""
        samples = {r.approach: r.n_samples for r in self.records}
        lines = [
            f"trials={self.trials} seed={self.seed}",
            f"{'approach':<14}{'samples':>8}{'mean gap %':>12}{'median %':>10}{'p90 %':>8}",
        ]
        for name, n in samples.items():
            gaps = self.gaps(name)
            lines.append(
                f"{name:<14}{n:>8}"
                f"{gaps.mean():>12.2f}{np.median(gaps):>10.2f}{np.percentile(gaps, 90):>8.2f}"
            )
        if CPU_ONLY in samples and GPU_ONLY in samples:
            gpu_n, pair = samples[GPU_ONLY], samples[CPU_ONLY] + samples[GPU_ONLY]
            lines.append(f"sampling-run saving vs single-platform pair: "
                         f"{round(gpu_n / pair * 100):.0f}% ({gpu_n}/{pair})")
        return "\n".join(lines)

    def write(self, out_dir: str) -> None:
        """Emit report.csv plus per-app gap/energy tables."""
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "report.csv"), "w") as fh:
            fh.write("app_id,trial,approach,chosen,config_id,energy_mj,gap_pct,n_samples\n")
            for r in self.records:
                fh.write(
                    f"{r.app_id},{r.trial},{r.approach},{r.chosen},{r.config_id},"
                    f"{r.energy_mj!r},{r.gap_pct!r},{r.n_samples}\n"
                )
        apps = sorted({r.app_id for r in self.records})
        approaches = [a for a in APPROACHES if any(r.approach == a for r in self.records)]
        for fname, attr in (("gap_by_app.csv", "gap_pct"), ("energy_by_app.csv", "energy_mj")):
            with open(os.path.join(out_dir, fname), "w") as fh:
                fh.write("app_id," + ",".join(approaches) + "\n")
                for app in apps:
                    cells = []
                    for a in approaches:
                        vals = [getattr(r, attr) for r in self.records
                                if r.app_id == app and r.approach == a]
                        cells.append(repr(float(np.mean(vals))))
                    fh.write(f"{app}," + ",".join(cells) + "\n")


def _sub_seed(seed: int, trial: int, a_idx: int, approach: str) -> int:
    """The sampling seed of one (trial, application, approach) prediction."""
    return int(np.random.SeedSequence(
        [seed, trial, a_idx, APPROACHES.index(approach)]).generate_state(1)[0])


def _training_blocks(logs: np.ndarray, stacks: Sequence[slice]) -> _Block:
    """The ``_Block`` of every application's training view, ``logs``
    (2, n_apps, n_configs) less its row, with fields (n_apps, 2, ...),
    prepared one stack of applications at a time."""
    n_apps = logs.shape[1]
    fields = None
    for stack in stacks:
        part = _block(np.stack([np.delete(logs, a, axis=1) for a in range(n_apps)[stack]]))
        if fields is None:
            fields = [np.empty((n_apps,) + f.shape[1:]) for f in part]
        for field, value in zip(fields, part):
            field[stack] = value
        del part   # the next stack's _block runs without it
    return _Block(*fields)


def _pool_picks(
    pool: TrainingMatrix,
    logs: np.ndarray,
    features: np.ndarray,
    plans: Sequence[Sequence[SamplePlan]],
) -> np.ndarray:
    """Chosen column of ``pool`` for each plan of ``plans`` (trials, apps),
    whose column i samples application i of ``pool``.

    The applications' training views, ``logs`` (2, n_apps, n_configs) less
    each one's row, are prepared as ``_block``s once for every trial,
    ``_STACK`` applications at a time.  In each trial one
    ``select_latent_dim`` call per stack picks its ranks, one
    ``init_regression`` call fills every application's two regression rows
    from its own design (one batched SVD of the pool's designs), and one
    ``em_fit`` call takes every fit's start in one stacked
    ``_initial_parameters`` call and runs the fits as stacks of equal rank;
    each prediction then takes its finished fits (``Prepared``) through
    ``predict_best_config``, which only scores them."""
    n_apps = pool.n_apps
    stacks = [slice(start, start + _STACK) for start in range(0, n_apps, _STACK)]
    block = _training_blocks(logs, stacks)
    picks = np.empty((len(plans), n_apps), dtype=int)
    for trial, trial_plans in enumerate(plans):
        cells = np.array([plan.sample_configs for plan in trial_plans])[:, None, :]
        ranks = np.concatenate([
            select_latent_dim(_Block(*(f[stack] for f in block)), cells[stack],
                              MAX_LATENT_DIM) for stack in stacks])
        values = np.take_along_axis(logs.swapaxes(0, 1), cells, axis=-1)    # (apps, 2, p)
        initial = init_regression(cells[:, 0], values, features)
        states, completed = em_fit(block, cells, values, initial, ranks)
        converged = np.reshape([state.converged for state in states], (n_apps, 2)).all(axis=1)
        picks[trial] = [predict_best_config(pool, plan.target_app, plan,
                                            Prepared(completed[i], bool(converged[i]))).chosen
                        for i, plan in enumerate(trial_plans)]
    return picks


def evaluate(
    matrix: TrainingMatrix,
    approaches: Sequence[str] = APPROACHES,
    trials: int = 1,
    seed: int = 0,
    holistic_samples: int = DEFAULT_HOLISTIC_SAMPLES,
) -> EvaluationReport:
    """Leave-one-application-out comparison of approaches over many seeded
    trials; deterministic given (matrix, seed, trials).

    Each predicting approach draws on a pool of configurations: the whole
    matrix (holistic) or one platform's columns (the single-platform
    baselines, each prediction as ``single_platform_baseline`` makes it).
    A pool's sub-matrix, log rows and features are taken once per call,
    and so are the ``_block``s of its training views (the pool less each
    application's row), ``_STACK`` applications at a time.  Each trial then
    picks the ranks stack by stack, one ``select_latent_dim`` call each,
    from each application's own samples; fills every application's two
    regression rows in one ``init_regression`` call; runs every EM fit of
    the pool in one ``em_fit`` call, its starts taken together and its
    fits as stacks of equal rank in the columns EM can reach; and passes
    each prediction's finished fits through ``predict_best_config``, which
    scores them without building the prediction's training view.  The
    holistic predictions run on ``matrix`` itself, in application order
    when ``trials`` is 1.  Records keep (trial, application, approach)
    order, approaches in the order given, and each equals the record of
    one prediction at a time with the same sub-seed.

    Before any prediction, refuses a matrix that cannot train the
    approaches with a DataFormatError: an unmeasured cell (named by
    ``dataset.require_measured``), or fewer applications than two when an
    approach predicts, one for brute force alone.  Raises ValueError when
    an approach cannot draw its samples: ``gpu-only`` on a system without
    a GPU, or a count outside the range from the basis size of the
    configurations it draws from (the fewest samples a fit takes) to their
    number.
    """
    require_measured(matrix)
    unknown = set(approaches) - set(APPROACHES)
    if unknown:
        raise ValueError(f"unknown approaches: {sorted(unknown)}")
    if len(set(approaches)) < len(approaches):
        raise ValueError(f"an approach is listed twice in {list(approaches)}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    needed = 2 if any(a != BRUTE_FORCE for a in approaches) else 1
    if matrix.n_apps < needed:
        raise DataFormatError(f"evaluate needs at least {needed} "
                              f"application{'s' if needed > 1 else ''}, got {matrix.n_apps}")
    cpu = next(s.name for s in matrix.system if s.kind is PlatformKind.CPU)
    gpu = next((s.name for s in matrix.system if s.kind is PlatformKind.GPU), None)
    if GPU_ONLY in approaches and gpu is None:
        raise ValueError(f"{GPU_ONLY} needs a GPU platform in the system")
    # Each approach once: the platform its samples are drawn on (None: all
    # of them) and how many samples it takes.
    draws = {
        HOLISTIC: (None, holistic_samples),
        CPU_ONLY: (cpu, CPU_SAMPLES),
        GPU_ONLY: (gpu, GPU_SAMPLES),
        BRUTE_FORCE: (None, 0),
    }
    # each predicting approach's pool of configurations (the whole matrix,
    # or one platform's columns), its columns in the matrix and its features
    pools = {}
    for approach in [a for a in approaches if a != BRUTE_FORCE]:
        platform, n = draws[approach]
        cols = (range(matrix.n_configs) if platform is None
                else matrix.platform_config_indices(platform))
        pool = matrix if platform is None else matrix.select_configs(cols)
        features = feature_matrix(pool)
        minimum = features.shape[1]
        if not minimum <= n <= pool.n_configs:
            raise ValueError(f"{approach}: {n} samples must lie between the estimator minimum "
                             f"{minimum} and the {pool.n_configs} configurations it draws from")
        pools[approach] = pool, np.array(cols), features

    # picks[approach][trial, a_idx]: a column of the matrix
    picks = {}
    for approach, (pool, cols, features) in pools.items():
        n = draws[approach][1]
        plans = [[select_samples(pool.n_configs, n, _sub_seed(seed, trial, a_idx, approach),
                                 app.app_id) for a_idx, app in enumerate(pool.apps)]
                 for trial in range(trials)]
        logs = np.log([pool.power, pool.time])
        picks[approach] = cols[_pool_picks(pool, logs, features, plans)]

    energy_rows = [measured_energy_row(matrix, app.app_id) for app in matrix.apps]
    records: list[TrialRecord] = []
    for trial in range(trials):
        for a_idx, app in enumerate(matrix.apps):
            energies = energy_rows[a_idx]
            opt_idx = int(np.argmin(energies))   # the brute-force pick
            opt_energy = float(energies[opt_idx])
            for approach in approaches:
                n = draws[approach][1]
                chosen = opt_idx if approach == BRUTE_FORCE else int(picks[approach][trial, a_idx])
                e = float(energies[chosen])
                records.append(
                    TrialRecord(
                        app_id=app.app_id,
                        trial=trial,
                        approach=approach,
                        chosen=chosen,
                        config_id=matrix.configs[chosen].config_id,
                        energy_mj=e,
                        gap_pct=(e - opt_energy) / opt_energy * 100.0,
                        n_samples=n,
                    )
                )
    return EvaluationReport(records=tuple(records), trials=trials, seed=seed)
