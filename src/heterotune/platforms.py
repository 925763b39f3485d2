"""Platform descriptors and the unified configuration coordinate system.

A heterogeneous system is a sequence of platforms (CPUs, GPUs) whose native
tuning knobs differ: a CPU configuration is (active cores, frequency, memory
controllers), a GPU configuration is a workgroup size at a fixed clock.  To
train one model over all of them, every native configuration is mapped into
CPU-equivalent coordinates:

  * parallelism is compared through per-core peak GFlops ratios,
  * memory is compared through per-controller peak bandwidth ratios,
  * frequencies from all platforms are merged into one ascending index table.

All types are immutable; all operations are pure.
"""

from __future__ import annotations

import configparser
import itertools
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Iterable, Sequence

from .errors import DataFormatError


class PlatformKind(Enum):
    CPU = "cpu"
    GPU = "gpu"


@dataclass(frozen=True)
class NativeConfig:
    """One operating point of one platform.

    ``cores`` holds the active core count for a CPU and the workgroup size
    for a GPU; ``mem`` is the number of memory controllers in use (a GPU
    always uses all of its controllers).
    """

    platform: str
    kind: PlatformKind
    cores: int
    freq: float
    mem: int

    @property
    def workgroup_size(self) -> int:
        return self.cores

    @property
    def config_id(self) -> str:
        knob = "w" if self.kind is PlatformKind.GPU else "c"
        return f"{self.platform}:{knob}{self.cores}:f{self.freq!r}:m{self.mem}"


@dataclass(frozen=True)
class UnifiedConfig:
    """A native configuration expressed in CPU-equivalent coordinates."""

    equiv_cores: float
    freq_index: int
    equiv_mem: float
    origin: NativeConfig


@dataclass(frozen=True)
class PlatformSpec:
    """Hardware descriptor for one platform of a heterogeneous system.

    ``frequencies`` must be strictly increasing (GHz).  ``static_power`` is
    the idle draw in watts.  GPUs additionally declare the workgroup sizes
    that applications may be launched with.
    """

    name: str
    kind: PlatformKind
    total_cores: int
    peak_gflops: float
    peak_bandwidth: float
    mem_controllers: int
    frequencies: tuple[float, ...]
    static_power: float
    workgroup_sizes: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.total_cores < 1:
            raise ValueError(f"{self.name}: total_cores must be >= 1")
        if self.mem_controllers < 1:
            raise ValueError(f"{self.name}: mem_controllers must be >= 1")
        if self.peak_gflops <= 0 or self.peak_bandwidth <= 0:
            raise ValueError(f"{self.name}: peak rates must be positive")
        if self.static_power < 0:
            raise ValueError(f"{self.name}: static_power must be >= 0")
        if not self.frequencies:
            raise ValueError(f"{self.name}: at least one frequency required")
        if any(b <= a for a, b in zip(self.frequencies, self.frequencies[1:])):
            raise ValueError(f"{self.name}: frequencies must be strictly increasing")
        if self.kind is PlatformKind.GPU:
            if not self.workgroup_sizes:
                raise ValueError(f"{self.name}: GPU needs workgroup_sizes")
            if any(w < 1 for w in self.workgroup_sizes):
                raise ValueError(f"{self.name}: workgroup sizes must be >= 1")

    @cached_property
    def native_settings(self) -> tuple[NativeConfig, ...]:
        """Every tunable operating point of this platform, in deterministic
        (parallelism, frequency, memory) lexicographic order."""
        if self.kind is PlatformKind.CPU:
            return tuple(
                NativeConfig(self.name, self.kind, c, f, m)
                for c, f, m in itertools.product(
                    range(1, self.total_cores + 1),
                    self.frequencies,
                    range(1, self.mem_controllers + 1),
                )
            )
        return tuple(
            NativeConfig(self.name, self.kind, w, f, self.mem_controllers)
            for w, f in itertools.product(self.workgroup_sizes, self.frequencies)
        )

    def validate_config(self, cfg: NativeConfig) -> None:
        if cfg.platform != self.name:
            raise ValueError(f"config {cfg.config_id} does not belong to {self.name}")
        if self.kind is PlatformKind.CPU:
            if not 1 <= cfg.cores <= self.total_cores:
                raise ValueError(f"{cfg.config_id}: cores out of [1, {self.total_cores}]")
            if not 1 <= cfg.mem <= self.mem_controllers:
                raise ValueError(f"{cfg.config_id}: mem out of [1, {self.mem_controllers}]")
        else:
            if cfg.workgroup_size not in self.workgroup_sizes:
                raise ValueError(f"{cfg.config_id}: undeclared workgroup size")
        if cfg.freq not in self.frequencies:
            raise ValueError(f"{cfg.config_id}: undeclared frequency {cfg.freq}")


@dataclass(frozen=True)
class FrequencyEntry:
    freq: float
    platform: str
    index: int


@dataclass(frozen=True)
class FrequencyIndex:
    """Merged ascending frequency table over all platforms of a system."""

    entries: tuple[FrequencyEntry, ...]

    @cached_property
    def _lookup(self) -> dict[tuple[str, float], int]:
        return {(e.platform, e.freq): e.index for e in self.entries}

    def index_of(self, platform: str, freq: float) -> int:
        try:
            return self._lookup[(platform, freq)]
        except KeyError:
            raise KeyError(f"frequency {freq} of {platform} not in index") from None


def per_core_flops(spec: PlatformSpec) -> float:
    """Average peak GFlops of one processing element."""
    return spec.peak_gflops / spec.total_cores


def equiv_cores(src: PlatformSpec, ref: PlatformSpec, n_src_cores: float) -> float:
    """Express ``n_src_cores`` of ``src`` in ``ref``-core equivalents, by the
    ratio of per-core peak compute rates."""
    return per_core_flops(src) / per_core_flops(ref) * n_src_cores


def equiv_mem(src: PlatformSpec, ref: PlatformSpec, n_src_mem: float) -> float:
    """Express ``n_src_mem`` memory controllers of ``src`` in ``ref``
    equivalents, by the ratio of per-controller peak bandwidth."""
    src_bw = src.peak_bandwidth / src.mem_controllers
    ref_bw = ref.peak_bandwidth / ref.mem_controllers
    return src_bw / ref_bw * n_src_mem


def build_frequency_index(platforms: Sequence[PlatformSpec]) -> FrequencyIndex:
    """Merge all platform frequencies into one ascending, contiguously
    indexed table.  Ties are broken by platform declaration order."""
    if not platforms:
        raise ValueError("no platforms given")
    pairs = [
        (f, order, spec.name)
        for order, spec in enumerate(platforms)
        for f in spec.frequencies
    ]
    pairs.sort(key=lambda t: (t[0], t[1]))
    entries = tuple(
        FrequencyEntry(freq=f, platform=name, index=i)
        for i, (f, _, name) in enumerate(pairs)
    )
    return FrequencyIndex(entries)


def reference_platform(system: Sequence[PlatformSpec]) -> PlatformSpec:
    """The CPU that defines the unified coordinate system (first CPU declared)."""
    for spec in system:
        if spec.kind is PlatformKind.CPU:
            return spec
    raise ValueError("system has no CPU platform to serve as reference")


# A single GPU core is worth well under one CPU core on any system this
# model targets; 0.5 keeps the parallelism coordinate away from zero.
MIN_EQUIV_CORES = 0.5


def unify(
    cfg: NativeConfig,
    src: PlatformSpec,
    ref: PlatformSpec,
    fidx: FrequencyIndex,
) -> UnifiedConfig:
    """Map a native configuration into unified coordinates.

    Reference-platform configurations keep their integer core and controller
    counts exactly.  GPU workgroup sizes scale linearly through the per-core
    compute ratio (clamped below at ``MIN_EQUIV_CORES``); a GPU always
    engages all of its memory controllers, scaled through the bandwidth
    ratio.
    """
    src.validate_config(cfg)
    cores = equiv_cores(src, ref, cfg.cores)
    mem = equiv_mem(src, ref, cfg.mem)
    if src.kind is PlatformKind.GPU:
        cores = max(cores, MIN_EQUIV_CORES)
    return UnifiedConfig(
        equiv_cores=cores,
        freq_index=fidx.index_of(cfg.platform, cfg.freq),
        equiv_mem=mem,
        origin=cfg,
    )


def enumerate_configs(system: Sequence[PlatformSpec]) -> tuple[NativeConfig, ...]:
    """All native configurations of the system, platform-major, each
    platform in its lexicographic setting order."""
    return tuple(
        cfg for spec in system for cfg in spec.native_settings
    )


def unify_system(
    system: Sequence[PlatformSpec],
) -> tuple[tuple[NativeConfig, ...], tuple[UnifiedConfig, ...], FrequencyIndex]:
    """Enumerate and unify every configuration of a system in one pass."""
    fidx = build_frequency_index(system)
    ref = reference_platform(system)
    by_name = {spec.name: spec for spec in system}
    configs = enumerate_configs(system)
    unified = tuple(
        unify(cfg, by_name[cfg.platform], ref, fidx)
        for cfg in configs
    )
    return configs, unified, fidx


# Default heterogeneous system: a 24-core Xeon E5-2650L v3 next to a Quadro
# K620.  Static powers are illustrative idle draws, not measured values.
DEFAULT_CPU = PlatformSpec(
    name="xeon-e5-2650lv3",
    kind=PlatformKind.CPU,
    total_cores=24,
    peak_gflops=115.2,
    peak_bandwidth=68.0,
    mem_controllers=2,
    frequencies=(1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.81),
    static_power=20.0,
)

DEFAULT_GPU = PlatformSpec(
    name="quadro-k620",
    kind=PlatformKind.GPU,
    total_cores=384,
    peak_gflops=860.0,
    peak_bandwidth=28.8,
    mem_controllers=2,
    frequencies=(1.73,),
    static_power=10.0,
    workgroup_sizes=(1, 2, 4, 8, 16, 32, 64, 128, 256),
)

DEFAULT_SYSTEM: tuple[PlatformSpec, ...] = (DEFAULT_CPU, DEFAULT_GPU)


_REQUIRED_FIELDS = (
    "kind",
    "total_cores",
    "peak_gflops",
    "peak_bandwidth",
    "mem_controllers",
    "frequencies",
    "static_power",
)


def load_system(path: str) -> tuple[PlatformSpec, ...]:
    """Read platform descriptors from a ``[platform <name>]`` key/value file.

    Field names are documented in docs/data-formats.md and must match
    exactly.  Raises DataFormatError with the offending section/field.
    """
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keep keys case-sensitive
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise DataFormatError(f"cannot read platform file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise DataFormatError(f"{path}: {exc}") from exc

    specs: list[PlatformSpec] = []
    for section in parser.sections():
        if not section.startswith("platform "):
            raise DataFormatError(f"{path}: unexpected section [{section}]")
        name = section[len("platform "):].strip()
        opts = parser[section]
        for fieldname in _REQUIRED_FIELDS:
            if fieldname not in opts:
                raise DataFormatError(f"{path}: [{section}] missing field {fieldname!r}")
        try:
            kind = PlatformKind(opts["kind"].strip().lower())
            freqs = tuple(float(x) for x in opts["frequencies"].split(","))
            workgroups: tuple[int, ...] = ()
            if "workgroup_sizes" in opts:
                workgroups = tuple(int(x) for x in opts["workgroup_sizes"].split(","))
            spec = PlatformSpec(
                name=name,
                kind=kind,
                total_cores=int(opts["total_cores"]),
                peak_gflops=float(opts["peak_gflops"]),
                peak_bandwidth=float(opts["peak_bandwidth"]),
                mem_controllers=int(opts["mem_controllers"]),
                frequencies=freqs,
                static_power=float(opts["static_power"]),
                workgroup_sizes=workgroups,
            )
        except (ValueError, KeyError) as exc:
            raise DataFormatError(f"{path}: [{section}]: {exc}") from exc
        specs.append(spec)
    if not specs:
        raise DataFormatError(f"{path}: no [platform ...] sections found")
    return tuple(specs)


def save_system(system: Iterable[PlatformSpec], path: str) -> None:
    """Write platform descriptors in the format ``load_system`` reads."""
    lines: list[str] = []
    for spec in system:
        lines.append(f"[platform {spec.name}]")
        lines.append(f"kind = {spec.kind.value}")
        lines.append(f"total_cores = {spec.total_cores}")
        lines.append(f"peak_gflops = {spec.peak_gflops!r}")
        lines.append(f"peak_bandwidth = {spec.peak_bandwidth!r}")
        lines.append(f"mem_controllers = {spec.mem_controllers}")
        lines.append("frequencies = " + ", ".join(repr(f) for f in spec.frequencies))
        lines.append(f"static_power = {spec.static_power!r}")
        if spec.workgroup_sizes:
            lines.append(
                "workgroup_sizes = " + ", ".join(str(w) for w in spec.workgroup_sizes)
            )
        lines.append("")
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
