"""Training matrices: loading, validation and masking.

The on-disk layout is a small manifest naming one delimited-text grid per
quantity (mean power, mean time) plus the platform file.
Grids share row keys (app_id) and column keys (config ids) and use the
explicit sentinel ``NA`` for unmeasured cells, so a truncated file never
parses as a sparser matrix.  Formats are documented in docs/data-formats.md.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import DataFormatError
from .platforms import (
    NativeConfig,
    PlatformSpec,
    enumerate_configs,
    load_system,
    save_system,
    unify_system,
)
from .readers import read_lines, read_sections

MISSING = "NA"


class PerfLimit(Enum):
    COMPUTATION = "computation"
    MEMORY_BANDWIDTH = "memory-bandwidth"
    MEMORY_LATENCY = "memory-latency"
    MIXED = "mixed"


DWARF_CATEGORIES = frozenset(
    {
        "graph-traversal",
        "structured-grid",
        "unstructured-grid",
        "dense-linear-algebra",
        "sparse-matrix",
        "dynamic-programming",
        "n-body",
        "spectral",
    }
)


@dataclass(frozen=True)
class ApplicationMeta:
    app_id: int
    benchmark: str
    input_name: str
    dwarf: str
    perf_limit: PerfLimit

    def __post_init__(self) -> None:
        if self.app_id < 1:
            raise ValueError("app_id must be a positive integer")
        if self.dwarf not in DWARF_CATEGORIES:
            raise ValueError(f"unknown dwarf category {self.dwarf!r}")


def _apps(benchmark: str, dwarf: str, limit: PerfLimit, first_id: int, inputs: Sequence[str]):
    return [
        ApplicationMeta(first_id + i, benchmark, name, dwarf, limit)
        for i, name in enumerate(inputs)
    ]


# Bundled catalog of 18 benchmark/input pairs spanning four dwarf
# categories and all three performance-limit classes.
DEFAULT_APPLICATIONS: tuple[ApplicationMeta, ...] = tuple(
    _apps("bfs", "graph-traversal", PerfLimit.MEMORY_LATENCY, 1,
          ["graph1M", "graph2M", "graph4M", "graph512k", "graph8M"])
    + _apps("cfd", "unstructured-grid", PerfLimit.MEMORY_LATENCY, 6,
            ["fvcorr.domn.097K", "fvcorr.domn.193K", "missile.domn.0.2M"])
    + _apps("kmeans", "dense-linear-algebra", PerfLimit.COMPUTATION, 9,
            ["1000000_34", "100000_34", "10000_34", "1000_34", "3000000_34"])
    + _apps("particlefilter", "structured-grid", PerfLimit.MEMORY_BANDWIDTH, 14,
            ["128_10_100000_dp", "128_10_10000_dp", "128_10_1000_dp",
             "128_2500_10000_dp", "128_500_10000_dp"])
)


@dataclass(frozen=True)
class SamplePlan:
    """Which configurations of one target application get measured online."""

    target_app: int
    sample_configs: tuple[int, ...]
    seed: int

    def __post_init__(self) -> None:
        if len(set(self.sample_configs)) != len(self.sample_configs):
            raise ValueError("sample_configs must be distinct")


@dataclass(frozen=True)
class SampleSet:
    """Measured values at a plan's configurations for one application."""

    app_id: int
    config_indices: tuple[int, ...]
    power: np.ndarray
    time: np.ndarray

    def __post_init__(self) -> None:
        if not (len(self.config_indices) == len(self.power) == len(self.time)):
            raise ValueError("sample arrays must align with config_indices")
        if (np.asarray(self.power) <= 0).any() or (np.asarray(self.time) <= 0).any():
            raise ValueError("sample power and time must be positive")


@dataclass(frozen=True)
class TrainingMatrix:
    """Applications x configurations grid of mean power (mW) and mean time (s).

    ``power`` and ``time`` hold NaN exactly at unmeasured cells and are
    positive at measured ones, since the estimator completes their
    logarithms.  Power is the active platform's dynamic draw; whole-system
    static energy is added only by ``energy.total_energy_row``.  ``unified``
    holds each configuration's (equivalent cores, frequency index,
    equivalent memory) row from ``platforms.unify_system``.
    """

    apps: tuple[ApplicationMeta, ...]
    configs: tuple[NativeConfig, ...]
    unified: np.ndarray
    power: np.ndarray
    time: np.ndarray
    system: tuple[PlatformSpec, ...]

    def __post_init__(self) -> None:
        n_apps, n_cfg = len(self.apps), len(self.configs)
        shape = (n_apps, n_cfg)
        for name in ("power", "time"):
            if getattr(self, name).shape != shape:
                raise ValueError(f"{name} grid shape {getattr(self, name).shape} != {shape}")
        if self.unified.shape != (n_cfg, 3):
            raise ValueError(f"unified coordinates shape {self.unified.shape} != {(n_cfg, 3)}")
        ids = [a.app_id for a in self.apps]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate app_id in matrix")
        checks = (
            (np.isinf(self.power) | np.isinf(self.time), "infinite value"),
            (np.isnan(self.power) != np.isnan(self.time), "cell unmeasured in only one grid"),
            (self.power <= 0, "non-positive power"),
            (self.time <= 0, "non-positive time"),
        )
        for bad, what in checks:
            if bad.any():
                i, j = np.argwhere(bad)[0]
                raise ValueError(
                    f"{what} at app {self.apps[i].app_id}, config {self.configs[j].config_id}"
                )

    @property
    def mask(self) -> np.ndarray:
        """True where a cell was measured."""
        return ~np.isnan(self.power)

    @property
    def n_apps(self) -> int:
        return len(self.apps)

    @property
    def n_configs(self) -> int:
        return len(self.configs)

    @property
    def fully_observed(self) -> bool:
        return bool(self.mask.all())

    def app_index(self, app_id: int) -> int:
        for i, a in enumerate(self.apps):
            if a.app_id == app_id:
                return i
        raise KeyError(f"app_id {app_id} not in matrix")

    def select_configs(self, indices: Sequence[int]) -> TrainingMatrix:
        """Column-subset view (new matrix) keeping config order of ``indices``."""
        idx = list(indices)
        return replace(
            self,
            configs=tuple(self.configs[i] for i in idx),
            unified=self.unified[idx],
            power=self.power[:, idx],
            time=self.time[:, idx],
        )

    def platform_config_indices(self, platform: str) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.configs) if c.platform == platform)


def build_training_matrix(
    apps: Sequence[ApplicationMeta],
    system: Sequence[PlatformSpec],
    power: np.ndarray,
    time: np.ndarray,
) -> TrainingMatrix:
    """Assemble a matrix over the system's full enumerated config list;
    unmeasured cells are NaN in both grids."""
    configs, unified = unify_system(system)
    return TrainingMatrix(
        apps=tuple(apps),
        configs=configs,
        unified=unified,
        power=np.array(power, dtype=float),
        time=np.array(time, dtype=float),
        system=tuple(system),
    )


def select_samples(n_configs: int, n: int, seed: int, target_app: int = 0) -> SamplePlan:
    """Draw ``n`` distinct configuration indices uniformly, reproducibly."""
    if n > n_configs:
        raise ValueError(f"cannot sample {n} of {n_configs} configs")
    rng = np.random.default_rng(seed)
    picks = rng.choice(n_configs, size=n, replace=False)
    return SamplePlan(target_app=target_app, sample_configs=tuple(sorted(int(i) for i in picks)), seed=seed)


def mask_application(
    matrix: TrainingMatrix, app_id: int, plan: SamplePlan
) -> tuple[TrainingMatrix, SampleSet]:
    """Leave-one-application-out split.

    Returns the training view with the target application's row removed
    entirely, and a SampleSet holding only the plan's sampled cells of that
    row.  Nothing else of the target row leaks into either output.
    """
    row = matrix.app_index(app_id)
    keep = [i for i in range(matrix.n_apps) if i != row]
    view = replace(
        matrix,
        apps=tuple(matrix.apps[i] for i in keep),
        power=matrix.power[keep],
        time=matrix.time[keep],
    )
    idx = np.array(plan.sample_configs, dtype=int)
    if np.isnan(matrix.power[row, idx]).any():
        raise ValueError("plan samples an unobserved cell of the target row")
    samples = SampleSet(
        app_id=app_id,
        config_indices=tuple(plan.sample_configs),
        power=matrix.power[row, idx],
        time=matrix.time[row, idx],
    )
    return view, samples


# ---------------------------------------------------------------------------
# persistence


def _write_grid(path: str, apps: Sequence[ApplicationMeta], configs: Sequence[NativeConfig],
                grid: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write("app_id," + ",".join(c.config_id for c in configs) + "\n")
        for app, row in zip(apps, grid.tolist()):
            cells = (MISSING if math.isnan(v) else repr(v) for v in row)
            fh.write(str(app.app_id) + "," + ",".join(cells) + "\n")


def _grid_error(path: str, rows: Sequence[tuple[int, str]],
                columns: Sequence[str]) -> DataFormatError:
    """The error naming the first bad line of a grid body, given as (file
    line number, line) pairs in file order: a wrong cell count, a bad app
    id, or a cell that is neither ``NA`` nor a finite number."""
    for r, line in rows:
        cells = line.split(",")
        if len(cells) != len(columns) + 1:
            return DataFormatError(f"{path}:{r}: expected {len(columns) + 1} cells, got {len(cells)}")
        try:
            int(cells[0])
        except ValueError:
            return DataFormatError(f"{path}:{r}: bad app_id {cells[0]!r}")
        for column, cell in zip(columns, cells[1:]):
            if cell == MISSING:
                continue
            try:
                value = float(cell)
            except ValueError:
                return DataFormatError(f"{path}:{r}: column {column!r}: bad value {cell!r}")
            if not math.isfinite(value):
                return DataFormatError(f"{path}:{r}: column {column!r}: non-finite value")
    raise AssertionError("grid has no bad line")


def _read_grid(path: str, expect_configs: Sequence[NativeConfig]) -> tuple[list[int], np.ndarray]:
    """App ids and values of one grid file; NaN at ``NA`` cells.

    The body is split and converted in one pass; only a grid that fails it
    is walked row by row, by ``_grid_error``, to name the first bad line.
    """
    lines = read_lines(path, "grid")
    if not lines:
        raise DataFormatError(f"{path}: empty grid file")
    header = lines[0][1].split(",")
    if header[0] != "app_id":
        raise DataFormatError(f"{path}: header must start with 'app_id'")
    expected = [c.config_id for c in expect_configs]
    if header[1:] != expected:
        raise DataFormatError(
            f"{path}: config columns do not match the platform file "
            f"(got {len(header) - 1} columns, expected {len(expected)})"
        )
    body, width = [line for _, line in lines[1:]], len(expected) + 1
    try:
        if any(line.count(",") != width - 1 for line in body):
            raise ValueError("wrong cell count")
        joined = ",".join(body)
        tokens = joined.split(",") if body else []
        app_ids = [int(cell) for cell in tokens[::width]]
        # a grid with no NA anywhere needs no token count
        n_missing = tokens.count(MISSING) if MISSING in joined else 0
        if n_missing:
            tokens = [math.nan if cell == MISSING else cell for cell in tokens]
        cells = np.fromiter(map(float, tokens), float, len(tokens)).reshape(len(body), width)
        values = cells[:, 1:]
        if np.isfinite(values).sum() + n_missing != values.size:
            raise ValueError("non-finite value")
    except ValueError:
        raise _grid_error(path, lines[1:], expected) from None
    return app_ids, values


def save_training(matrix: TrainingMatrix, directory: str, seed: int | None = None) -> str:
    """Write a matrix as manifest + grids + platform and application files;
    returns the manifest path.  A ``seed``, that of a generated system, is
    recorded in the manifest."""
    os.makedirs(directory, exist_ok=True)
    platform_file = os.path.join(directory, "system.conf")
    save_system(matrix.system, platform_file)
    _write_grid(os.path.join(directory, "power.csv"), matrix.apps, matrix.configs, matrix.power)
    _write_grid(os.path.join(directory, "time.csv"), matrix.apps, matrix.configs, matrix.time)
    lines = [
        "[training]",
        "power = power.csv",
        "time = time.csv",
        "platforms = system.conf",
        "apps = apps.csv",
    ]
    if seed is not None:
        lines.append(f"seed = {seed}")
    save_applications(matrix.apps, os.path.join(directory, "apps.csv"))
    manifest = os.path.join(directory, "manifest.conf")
    with open(manifest, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return manifest


def load_training(manifest_path: str) -> TrainingMatrix:
    """Load and validate a matrix from its manifest."""
    sections = read_sections(manifest_path, "manifest")
    if "training" not in sections:
        raise DataFormatError(f"{manifest_path}: missing [training] section")
    sec = sections["training"]
    for key in ("power", "time", "platforms"):
        if key not in sec:
            raise DataFormatError(f"{manifest_path}: missing key {key!r}")
    base = os.path.dirname(os.path.abspath(manifest_path))
    rel = lambda p: os.path.join(base, p)

    system = load_system(rel(sec["platforms"]))
    configs = enumerate_configs(system)
    app_ids, power = _read_grid(rel(sec["power"]), configs)
    t_ids, time = _read_grid(rel(sec["time"]), configs)
    if app_ids != t_ids:
        raise DataFormatError(f"{manifest_path}: power/time grids disagree on app ids")
    # Older versions could fold the static draw into the power grid;
    # total_energy_row would charge it a second time, so such grids are refused.
    if sec.get("static_augmented", "false").strip().lower() != "false":
        raise DataFormatError(f"{manifest_path}: a static-augmented power grid is not supported")

    if "apps" in sec:
        apps = load_applications(rel(sec["apps"]))
        by_id = {a.app_id: a for a in apps}
        missing = [i for i in app_ids if i not in by_id]
        if missing:
            raise DataFormatError(f"{manifest_path}: apps file lacks ids {missing}")
        apps = tuple(by_id[i] for i in app_ids)
    else:
        apps = tuple(
            ApplicationMeta(i, "unknown", "unknown", "sparse-matrix", PerfLimit.MIXED)
            for i in app_ids
        )

    try:
        return build_training_matrix(apps, system, power, time)
    except ValueError as exc:
        raise DataFormatError(f"{manifest_path}: {exc}") from exc


def save_applications(apps: Sequence[ApplicationMeta], path: str) -> None:
    with open(path, "w") as fh:
        fh.write("app_id,benchmark,input,dwarf,perf_limit\n")
        for a in apps:
            fh.write(f"{a.app_id},{a.benchmark},{a.input_name},{a.dwarf},{a.perf_limit.value}\n")


def load_applications(path: str) -> tuple[ApplicationMeta, ...]:
    lines = read_lines(path, "apps file")
    if not lines or lines[0][1] != "app_id,benchmark,input,dwarf,perf_limit":
        raise DataFormatError(f"{path}: bad or missing header")
    apps, line_of = [], {}
    for r, line in lines[1:]:
        cells = line.split(",")
        if len(cells) != 5:
            raise DataFormatError(f"{path}:{r}: expected 5 cells")
        try:
            app = ApplicationMeta(int(cells[0]), cells[1], cells[2], cells[3], PerfLimit(cells[4]))
        except ValueError as exc:
            raise DataFormatError(f"{path}:{r}: {exc}") from exc
        if app.app_id in line_of:
            raise DataFormatError(f"{path}:{r}: app_id {app.app_id} repeats line "
                                  f"{line_of[app.app_id]}")
        line_of[app.app_id] = r
        apps.append(app)
    return tuple(apps)
