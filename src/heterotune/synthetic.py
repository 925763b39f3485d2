"""Synthetic heterogeneous-system response matrices with known structure.

Desk-scale stand-in for a full measurement campaign: every application's
time and power rows are exact linear combinations of a small set of
configuration response curves (so the emitted grids have exactly the
requested rank), with per-application coefficients drawn to span
CPU-favoring and GPU-favoring regimes.  Time decreases in parallelism with
diminishing returns and power grows with clock and active cores, which
produces the platform crossovers the estimator has to detect without
claiming fidelity to any real machine.

Measurement noise follows the multi-run protocol: each cell is emitted as
the mean of ``RUNS_PER_POINT`` relative-noise draws; the noiseless truth is
retained for scoring.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .dataset import (
    DEFAULT_APPLICATIONS,
    ApplicationMeta,
    PerfLimit,
    TrainingMatrix,
    build_training_matrix,
)
from .platforms import (
    DEFAULT_SYSTEM,
    PlatformKind,
    PlatformSpec,
    unify_system,
)

RUNS_PER_POINT = 5
CORE_SCALING = (0.55, 0.95)        # exponent range of time in equivalent cores
FREQ_SENSITIVITY = (0.5, 1.3)      # exponent range of time in relative frequency
MEM_SCALING = (0.5, 1.0)           # exponent range of time in equivalent memory
TIME_SCALE = (0.1, 10.0)           # per-app time multiplier range (log-uniform)
POWER_SCALE = (4000.0, 30000.0)    # per-app power multiplier range (log-uniform)
CONFIG_JITTER = 0.08               # log-sd of the per-configuration fixed effects


@dataclass(frozen=True)
class SyntheticSpec:
    """Shape parameters of the generator; all randomness flows from ``seed``."""

    n_apps: int = 18
    platforms: tuple[PlatformSpec, ...] = DEFAULT_SYSTEM
    rank: int = 4
    noise_sd: float = 0.0
    affinity_mix: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_apps < 2:
            raise ValueError("n_apps must be >= 2")
        if self.noise_sd < 0:
            raise ValueError("noise_sd must be non-negative")
        if not 0.0 <= self.affinity_mix <= 1.0:
            raise ValueError("affinity_mix must be in [0, 1]")


@dataclass(frozen=True)
class SyntheticSystem:
    """Emitted training matrix plus the noiseless ground truth behind it."""

    matrix: TrainingMatrix
    truth_power: np.ndarray
    truth_time: np.ndarray
    spec: SyntheticSpec


def _app_catalog(n: int) -> tuple[ApplicationMeta, ...]:
    apps = list(DEFAULT_APPLICATIONS[:n])
    dwarfs = sorted({a.dwarf for a in DEFAULT_APPLICATIONS})
    for i in range(len(apps) + 1, n + 1):
        apps.append(
            ApplicationMeta(i, "synthetic", f"case{i}", dwarfs[i % len(dwarfs)], PerfLimit.MIXED)
        )
    return tuple(apps)


def _mean_one(curve: np.ndarray) -> np.ndarray:
    return curve / curve.mean()


def _time_curves(spec: SyntheticSpec, c, f_rel, m, gpu, rng) -> list[np.ndarray]:
    curves: list[np.ndarray] = []
    m_ref = m.max()
    while len(curves) < spec.rank:
        k = len(curves)
        if k == 0 or k >= 4:
            gamma = rng.uniform(*CORE_SCALING)
            beta = rng.uniform(*FREQ_SENSITIVITY)
            curves.append(_mean_one(1.0 / (c**gamma * f_rel**beta)))
        elif k == 1:
            curves.append(np.ones_like(c))
        elif k == 2:
            delta = rng.uniform(*MEM_SCALING)
            curves.append(_mean_one((m_ref / m) ** delta))
        else:  # k == 3: per-platform offset
            curves.append(gpu.astype(float))
    return curves


def _power_curves(spec: SyntheticSpec, c_norm, f_norm, gpu, rng) -> list[np.ndarray]:
    curves = [c_norm * f_norm, np.ones_like(c_norm), f_norm, gpu.astype(float), c_norm]
    while len(curves) < spec.rank:
        a = rng.uniform(0.5, 2.0)
        b = rng.uniform(0.5, 2.0)
        curves.append(c_norm**a * f_norm**b)
    return curves[: spec.rank]


def _time_weights(gpu_leaning: bool, rank: int, rng) -> np.ndarray:
    # The per-platform offset is tied to the app's serial/memory character
    # (memory-bound work suffers on the narrow-bandwidth GPU) with only a
    # small independent residual, so cross-platform behavior stays
    # inferable from the app's visible characteristics.
    if gpu_leaning:
        comp = rng.uniform(0.7, 1.0)
        serial = rng.uniform(0.02, 0.10)
        mem = rng.uniform(0.02, 0.15)
        gpu_off = 0.15 * mem + rng.uniform(0.0, 0.04)
    else:
        comp = rng.uniform(0.25, 0.6)
        serial = rng.uniform(0.05, 0.2)
        mem = rng.uniform(0.5, 1.2)
        gpu_off = 0.5 * mem + 0.3 * serial + rng.uniform(0.0, 0.1)
    pool = [comp, serial, mem, gpu_off]
    while len(pool) < rank:
        pool.append(rng.uniform(0.02, 0.2))
    return np.array(pool[:rank])


def _power_weights(rank: int, rng) -> np.ndarray:
    act = rng.uniform(0.5, 1.0)
    idle = rng.uniform(0.1, 0.3)
    freq = rng.uniform(0.2, 0.8)
    gpu_pw = 0.2 * act + rng.uniform(0.0, 0.05)
    pool = [act, idle, freq, gpu_pw, rng.uniform(0.0, 0.3)]
    while len(pool) < rank:
        pool.append(rng.uniform(0.0, 0.3))
    return np.array(pool[:rank])


def generate_system(spec: SyntheticSpec) -> SyntheticSystem:
    """Build a fully observed matrix with exactly rank-``rank`` structure."""
    configs, unified = unify_system(spec.platforms)
    n_cfg = len(configs)
    if not 1 <= spec.rank <= min(spec.n_apps, n_cfg):
        raise ValueError(
            f"infeasible rank {spec.rank} for {spec.n_apps}x{n_cfg} matrix"
        )
    rng = np.random.default_rng(spec.seed)

    c, m = unified[:, 0], unified[:, 2]
    f = np.array([cfg.freq for cfg in configs])
    gpu = np.array([cfg.kind is PlatformKind.GPU for cfg in configs])
    f_rel = f / f.max()
    c_norm = c.copy()
    f_norm = f.copy()
    for spec_p in spec.platforms:
        idx = [i for i, cfg in enumerate(configs) if cfg.platform == spec_p.name]
        c_norm[idx] = c[idx] / c[idx].max()
        f_norm[idx] = f[idx] / f[idx].max()

    t_curves = np.array(_time_curves(spec, c, f_rel, m, gpu, rng))      # (rank, n_cfg)
    p_curves = np.array(_power_curves(spec, c_norm, f_norm, gpu, rng))

    # Per-configuration fixed effects (operating-point idiosyncrasies such as
    # voltage steps or socket boundaries).  A diagonal column scaling keeps
    # the matrices exactly rank-`rank` while breaking near-ties between
    # neighboring configurations.
    t_curves = t_curves * np.exp(CONFIG_JITTER * rng.standard_normal(n_cfg))
    p_curves = p_curves * np.exp(CONFIG_JITTER * rng.standard_normal(n_cfg))

    truth_time = np.empty((spec.n_apps, n_cfg))
    truth_power = np.empty((spec.n_apps, n_cfg))
    lo_t, hi_t = np.log(TIME_SCALE[0]), np.log(TIME_SCALE[1])
    lo_p, hi_p = np.log(POWER_SCALE[0]), np.log(POWER_SCALE[1])
    for a in range(spec.n_apps):
        gpu_leaning = rng.random() < spec.affinity_mix
        t0 = np.exp(rng.uniform(lo_t, hi_t))
        p0 = np.exp(rng.uniform(lo_p, hi_p))
        truth_time[a] = t0 * (_time_weights(gpu_leaning, spec.rank, rng) @ t_curves)
        truth_power[a] = p0 * (_power_weights(spec.rank, rng) @ p_curves)

    if spec.noise_sd == 0.0:
        power, time = truth_power.copy(), truth_time.copy()
    else:
        shape = (RUNS_PER_POINT,) + truth_time.shape
        t_draws = truth_time * (1.0 + spec.noise_sd * rng.standard_normal(shape))
        p_draws = truth_power * (1.0 + spec.noise_sd * rng.standard_normal(shape))
        t_draws = np.maximum(t_draws, truth_time * 1e-3)
        p_draws = np.maximum(p_draws, truth_power * 1e-3)
        time = t_draws.mean(axis=0)
        power = p_draws.mean(axis=0)

    matrix = build_training_matrix(
        apps=_app_catalog(spec.n_apps),
        system=spec.platforms,
        power=power,
        time=time,
    )
    return SyntheticSystem(matrix=matrix, truth_power=truth_power,
                           truth_time=truth_time, spec=spec)


# Small system for fast CI runs: 36 CPU + 4 GPU = 40 configurations.
CI_CPU = PlatformSpec(
    name="ci-cpu",
    kind=PlatformKind.CPU,
    total_cores=6,
    peak_gflops=28.8,
    peak_bandwidth=34.0,
    mem_controllers=2,
    frequencies=(1.2, 1.5, 1.8),
    static_power=5.0,
)

CI_GPU = PlatformSpec(
    name="ci-gpu",
    kind=PlatformKind.GPU,
    total_cores=64,
    peak_gflops=143.36,
    peak_bandwidth=14.4,
    mem_controllers=2,
    frequencies=(1.73,),
    static_power=2.5,
    workgroup_sizes=(8, 32, 64, 128),
)

CI_SYSTEM: tuple[PlatformSpec, ...] = (CI_CPU, CI_GPU)

PROFILES: dict[str, SyntheticSpec] = {
    "full": SyntheticSpec(n_apps=18, platforms=DEFAULT_SYSTEM, rank=4, noise_sd=0.05),
    "ci": SyntheticSpec(n_apps=6, platforms=CI_SYSTEM, rank=3, noise_sd=0.05),
}
