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

from .dataset import TrainingMatrix, select_samples
from .energy import total_energy_row
from .estimator import PredictionResult, feature_matrix, predict_best_config
from .platforms import PlatformKind

HOLISTIC = "holistic"
CPU_ONLY = "cpu-only"
GPU_ONLY = "gpu-only"
BRUTE_FORCE = "brute-force"

APPROACHES = (HOLISTIC, CPU_ONLY, GPU_ONLY, BRUTE_FORCE)

DEFAULT_HOLISTIC_SAMPLES = 15
CPU_SAMPLES = 15   # sampling runs of the CPU-only baseline
GPU_SAMPLES = 3    # sampling runs of the GPU-only baseline


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


def evaluate(
    matrix: TrainingMatrix,
    approaches: Sequence[str] = APPROACHES,
    trials: int = 1,
    seed: int = 0,
    holistic_samples: int = DEFAULT_HOLISTIC_SAMPLES,
) -> EvaluationReport:
    """Leave-one-application-out comparison of approaches over many seeded
    trials; deterministic given (matrix, seed, trials).

    Before any prediction, raises ValueError when the matrix has an
    unmeasured cell or, for an approach that predicts, one application, or
    when an approach cannot draw its samples: ``gpu-only`` on a system without a GPU, or a count outside the
    range from the basis size of the configurations it draws from (the
    fewest samples a fit takes) to their number.
    """
    if not matrix.fully_observed:
        raise ValueError("evaluation needs a fully observed matrix")
    unknown = set(approaches) - set(APPROACHES)
    if unknown:
        raise ValueError(f"unknown approaches: {sorted(unknown)}")
    if len(set(approaches)) < len(approaches):
        raise ValueError(f"an approach is listed twice in {list(approaches)}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if matrix.n_apps < 2 and any(a != BRUTE_FORCE for a in approaches):
        raise ValueError(f"evaluation needs at least 2 applications, got {matrix.n_apps}")
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
    for approach in [a for a in approaches if a != BRUTE_FORCE]:
        platform, n = draws[approach]
        pool = (matrix if platform is None
                else matrix.select_configs(matrix.platform_config_indices(platform)))
        minimum = feature_matrix(pool).shape[1]
        if not minimum <= n <= pool.n_configs:
            raise ValueError(f"{approach}: {n} samples must lie between the estimator minimum "
                             f"{minimum} and the {pool.n_configs} configurations it draws from")

    energy_rows = [measured_energy_row(matrix, app.app_id) for app in matrix.apps]
    records: list[TrialRecord] = []
    for trial in range(trials):
        for a_idx, app in enumerate(matrix.apps):
            energies = energy_rows[a_idx]
            opt_idx = int(np.argmin(energies))   # the brute-force pick
            opt_energy = float(energies[opt_idx])
            for approach in approaches:
                sub_seed = int(np.random.SeedSequence(
                    [seed, trial, a_idx, APPROACHES.index(approach)]
                ).generate_state(1)[0])
                platform, n = draws[approach]
                if approach == BRUTE_FORCE:
                    chosen = opt_idx
                elif platform is None:
                    plan = select_samples(matrix.n_configs, n, sub_seed, app.app_id)
                    chosen = predict_best_config(matrix, app.app_id, plan).chosen
                else:
                    chosen, _ = single_platform_baseline(matrix, app.app_id, platform, n, sub_seed)
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
