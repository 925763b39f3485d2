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

# Each training file's manifest key and file name, in manifest order; ``apps``
# is the one optional key.
TRAINING_FILES = {"power": "power.csv", "time": "time.csv", "platforms": "system.conf",
                  "apps": "apps.csv"}


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


@dataclass(frozen=True)
class SampleSet:
    """Measured values at distinct configurations of one application."""

    app_id: int
    config_indices: tuple[int, ...]
    power: np.ndarray
    time: np.ndarray

    def __post_init__(self) -> None:
        if not (len(self.config_indices) == len(self.power) == len(self.time)):
            raise ValueError("sample arrays must align with config_indices")
        if len(set(self.config_indices)) != len(self.config_indices):
            raise ValueError("config_indices must be distinct")
        for name in ("power", "time"):
            values = np.asarray(getattr(self, name))
            if not np.isfinite(values).all():
                raise ValueError(f"sample {name} must be finite, got "
                                 f"{float(values[~np.isfinite(values)][0])!r}")
            if (values <= 0).any():
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
    return SamplePlan(target_app=target_app, sample_configs=tuple(sorted(int(i) for i in picks)))


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
    return view, target_samples(matrix, row, plan)


def require_measured(matrix: TrainingMatrix, skip_row: int | None = None) -> None:
    """Refuse a training set the estimator cannot read: raise DataFormatError
    naming the first unmeasured cell, in row order, outside the row
    ``skip_row`` (None: every row)."""
    unmeasured = np.isnan(matrix.power)
    if skip_row is not None:
        unmeasured[skip_row] = False
    if unmeasured.any():
        i, j = np.argwhere(unmeasured)[0]
        raise DataFormatError(f"unmeasured cell at app {matrix.apps[i].app_id}, "
                              f"config {matrix.configs[j].config_id}")


def target_samples(matrix: TrainingMatrix, row: int, plan: SamplePlan) -> SampleSet:
    """The plan's sampled cells of ``matrix``'s row ``row``, the SampleSet
    ``mask_application`` gives that row's application."""
    idx = np.array(plan.sample_configs, dtype=int)
    if np.isnan(matrix.power[row, idx]).any():
        raise ValueError("plan samples an unobserved cell of the target row")
    return SampleSet(
        app_id=matrix.apps[row].app_id,
        config_indices=tuple(plan.sample_configs),
        power=matrix.power[row, idx],
        time=matrix.time[row, idx],
    )


# ---------------------------------------------------------------------------
# persistence


def _write_grid(path: str, apps: Sequence[ApplicationMeta], configs: Sequence[NativeConfig],
                grid: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write("app_id," + ",".join(c.config_id for c in configs) + "\n")
        for app, row in zip(apps, grid.tolist()):
            cells = (MISSING if math.isnan(v) else repr(v) for v in row)
            fh.write(str(app.app_id) + "," + ",".join(cells) + "\n")


# A body holding one of these is read row by row, before any C attempt: "N"
# begins every NA (and NaN) token, and a search for one character costs about
# a hundredth of one for "NA"; numpy's C reader strips the separators
# \x1c-\x1f around a number as whitespace where float() refuses it.
_PER_ROW_ONLY = "N\x1c\x1d\x1e\x1f"


def _read_clean_body(body: list[tuple[int, str]], n_columns: int) -> np.ndarray | None:
    """The values of a grid body that holds only finite numbers, converted
    in one pass by numpy's C text reader; None when the body needs the
    per-row path.  With the characters of ``_PER_ROW_ONLY`` routed away,
    any token the C reader accepts ``float`` accepts too, and reads as the
    same double, so the two paths agree on every value."""
    if not body or any(c in line for _, line in body for c in _PER_ROW_ONLY):
        return None
    value_parts = [line.partition(",")[2] for _, line in body]
    if not all(value_parts):   # loadtxt skips an empty line, and warns when all are
        return None
    try:
        values = np.loadtxt(value_parts, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if values.shape != (len(body), n_columns) or not np.isfinite(values).all():
        return None
    return values


def _add_app_id(path: str, r: int, token: str, line_of: dict[int, int]) -> None:
    """Record line ``r``'s app id, or name a bad or repeated one."""
    try:
        app_id = int(token)
    except ValueError:
        raise DataFormatError(f"{path}:{r}: bad app_id {token!r}") from None
    if app_id in line_of:
        raise DataFormatError(f"{path}:{r}: app_id {app_id} repeats line {line_of[app_id]}")
    line_of[app_id] = r


def _read_grid(path: str, expect_configs: Sequence[NativeConfig]) -> tuple[list[int], np.ndarray]:
    """App ids and values of one grid file; NaN at ``NA`` cells.

    The first bad line in file order is named: a wrong cell count, a bad or
    repeated app id, or a cell that is neither ``NA`` nor a finite number.
    A body of finite numbers only is converted in one pass by numpy's C
    text reader, and its app ids are then read line by line.  Every other
    body (one holding ``NA``, or one the C reader refuses) is read row by
    row: each row is converted straight into the value array by ``float``
    on each cell, and only a row that fails is converted again with its
    ``NA`` cells as NaN.  A row is accepted when its finite and ``NA``
    cells fill it; otherwise it is walked cell by cell to name its first
    bad cell.
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
    body = lines[1:]
    line_of: dict[int, int] = {}
    values = _read_clean_body(body, len(expected))
    if values is not None:
        for r, line in body:
            _add_app_id(path, r, line.partition(",")[0], line_of)
        return list(line_of), values
    values = np.empty((len(body), len(expected)))
    for row, (r, line) in zip(values, body):
        cells = line.split(",")
        if len(cells) != len(expected) + 1:
            raise DataFormatError(f"{path}:{r}: expected {len(expected) + 1} cells, "
                                  f"got {len(cells)}")
        _add_app_id(path, r, cells[0], line_of)
        n_missing = 0
        try:
            row[:] = cells[1:]
        except ValueError:
            n_missing = cells.count(MISSING)
            try:
                row[:] = [math.nan if cell == MISSING else cell for cell in cells[1:]]
            except ValueError:
                n_missing = -1   # a cell float() rejects: never accepted below
        if np.count_nonzero(np.isfinite(row)) + n_missing != len(expected):
            for column, cell in zip(expected, cells[1:]):
                if cell == MISSING:
                    continue
                try:
                    value = float(cell)
                except ValueError:
                    raise DataFormatError(f"{path}:{r}: column {column!r}: "
                                          f"bad value {cell!r}") from None
                if not math.isfinite(value):
                    raise DataFormatError(f"{path}:{r}: column {column!r}: non-finite value")
    return list(line_of), values


def save_training(matrix: TrainingMatrix, directory: str, seed: int | None = None) -> str:
    """Write a matrix as manifest + grids + platform and application files;
    returns the manifest path.  A ``seed``, that of a generated system, is
    recorded in the manifest."""
    os.makedirs(directory, exist_ok=True)
    path = {key: os.path.join(directory, name) for key, name in TRAINING_FILES.items()}
    save_system(matrix.system, path["platforms"])
    _write_grid(path["power"], matrix.apps, matrix.configs, matrix.power)
    _write_grid(path["time"], matrix.apps, matrix.configs, matrix.time)
    save_applications(matrix.apps, path["apps"])
    lines = ["[training]"] + [f"{key} = {name}" for key, name in TRAINING_FILES.items()]
    if seed is not None:
        lines.append(f"seed = {seed}")
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
    for key in TRAINING_FILES:
        if key != "apps" and key not in sec:
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
