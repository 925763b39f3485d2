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
from .estimator import EstimatorParams, PredictionResult, feature_matrix, predict_best_config
from .platforms import PlatformKind

HOLISTIC = "holistic"
CPU_ONLY = "cpu-only"
GPU_ONLY = "gpu-only"
BRUTE_FORCE = "brute-force"

APPROACHES = (HOLISTIC, CPU_ONLY, GPU_ONLY, BRUTE_FORCE)
_APPROACH_CODE = {name: i for i, name in enumerate(APPROACHES)}

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
    params: EstimatorParams | None = None,
) -> tuple[int, PredictionResult]:
    """Run the estimator restricted to one platform's configurations.

    A GPU's configurations vary only in workgroup size, so its regression
    uses the single-predictor basis (see ``feature_matrix``).  Returns the
    chosen configuration as an index into the full matrix.
    """
    if platform not in {spec.name for spec in matrix.system}:
        raise ValueError(f"platform {platform!r} not in system")
    cols = matrix.platform_config_indices(platform)
    if not cols:
        raise ValueError(f"no configurations for platform {platform!r}")
    sub = matrix.select_configs(cols)
    plan = select_samples(sub.n_configs, n_samples, seed, target_app=app_id)
    result = predict_best_config(sub, app_id, plan, params)
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
    """Per-(app, trial, approach) selections plus aggregate gap statistics."""

    records: tuple[TrialRecord, ...]
    aggregates: dict[str, dict[str, float]]
    sample_counts: dict[str, int]
    saving_fraction: float
    trials: int
    seed: int

    def gaps(self, approach: str) -> np.ndarray:
        return np.array([r.gap_pct for r in self.records if r.approach == approach])

    def summary_text(self) -> str:
        lines = [
            f"trials={self.trials} seed={self.seed}",
            f"{'approach':<14}{'samples':>8}{'mean gap %':>12}{'median %':>10}{'p90 %':>8}",
        ]
        for name, agg in self.aggregates.items():
            lines.append(
                f"{name:<14}{self.sample_counts.get(name, 0):>8}"
                f"{agg['mean']:>12.2f}{agg['median']:>10.2f}{agg['p90']:>8.2f}"
            )
        cpu_n = self.sample_counts.get(CPU_ONLY, 0)
        gpu_n = self.sample_counts.get(GPU_ONLY, 0)
        if cpu_n and gpu_n:
            lines.append(
                f"sampling-run saving vs single-platform pair: "
                f"{round(self.saving_fraction * 100):.0f}% "
                f"({gpu_n}/{cpu_n + gpu_n})"
            )
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
    params: EstimatorParams | None = None,
) -> EvaluationReport:
    """Leave-one-application-out comparison of approaches over many seeded
    trials; deterministic given (matrix, seed, trials).

    Before any prediction, raises ValueError when an approach cannot draw its
    samples: ``gpu-only`` on a system without a GPU, or a count outside the
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
    cpu_name = next(s.name for s in matrix.system if s.kind is PlatformKind.CPU)
    gpu_names = [s.name for s in matrix.system if s.kind is PlatformKind.GPU]
    sample_counts = {
        HOLISTIC: holistic_samples,
        CPU_ONLY: CPU_SAMPLES,
        GPU_ONLY: GPU_SAMPLES,
        BRUTE_FORCE: 0,
    }
    if GPU_ONLY in approaches and not gpu_names:
        raise ValueError(f"{GPU_ONLY} needs a GPU platform in the system")
    platform = {CPU_ONLY: cpu_name, GPU_ONLY: gpu_names[0] if gpu_names else None}
    for approach in [a for a in approaches if a != BRUTE_FORCE]:
        n = sample_counts[approach]
        pool = matrix
        if approach in platform:
            pool = matrix.select_configs(matrix.platform_config_indices(platform[approach]))
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
                sub_seed = np.random.SeedSequence(
                    [seed, trial, a_idx, _APPROACH_CODE[approach]]
                ).generate_state(1)[0]
                n = sample_counts[approach]
                if approach == BRUTE_FORCE:
                    chosen = opt_idx
                elif approach == HOLISTIC:
                    plan = select_samples(matrix.n_configs, n, int(sub_seed), app.app_id)
                    chosen = predict_best_config(matrix, app.app_id, plan, params).chosen
                else:
                    chosen, _ = single_platform_baseline(
                        matrix, app.app_id, platform[approach], n, int(sub_seed), params
                    )
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

    aggregates = {}
    for approach in approaches:
        gaps = np.array([r.gap_pct for r in records if r.approach == approach])
        aggregates[approach] = {
            "mean": float(gaps.mean()),
            "median": float(np.median(gaps)),
            "p90": float(np.percentile(gaps, 90)),
        }
    saving = GPU_SAMPLES / (CPU_SAMPLES + GPU_SAMPLES)
    return EvaluationReport(
        records=tuple(records),
        aggregates=aggregates,
        sample_counts={k: v for k, v in sample_counts.items() if k in approaches},
        saving_fraction=saving,
        trials=trials,
        seed=seed,
    )
