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

import itertools
from dataclasses import MISSING, dataclass, field, fields
from enum import Enum
from functools import cached_property
from typing import Iterable, Sequence, get_args, get_origin, get_type_hints

import numpy as np

from .errors import DataFormatError
from .readers import read_sections


class PlatformKind(Enum):
    CPU = "cpu"
    GPU = "gpu"


@dataclass(frozen=True, init=False)
class NativeConfig:
    """One operating point of one platform.

    ``cores`` holds the active core count for a CPU and the workgroup size
    for a GPU; ``mem`` is the number of memory controllers in use (a GPU
    always uses all of its controllers).  ``config_id`` names the
    configuration in grid headers, sample files and estimates; it is
    formatted once, as the configuration is built, and derives from the
    other fields, so it takes no part in equality or hashing.
    """

    platform: str
    kind: PlatformKind
    cores: int
    freq: float
    mem: int
    config_id: str = field(init=False, repr=False, compare=False)

    def __init__(self, platform: str, kind: PlatformKind, cores: int, freq: float,
                 mem: int) -> None:
        # one dict update sets every field of the frozen instance
        knob = "w" if kind is PlatformKind.GPU else "c"
        self.__dict__.update(platform=platform, kind=kind, cores=cores, freq=freq, mem=mem,
                             config_id=f"{platform}:{knob}{cores}:f{freq!r}:m{mem}")

    @property
    def workgroup_size(self) -> int:
        return self.cores


@dataclass(frozen=True)
class PlatformSpec:
    """Hardware descriptor for one platform of a heterogeneous system.

    ``frequencies`` must be strictly increasing (GHz).  ``static_power`` is
    the idle draw in watts.  GPUs, and only GPUs, declare the workgroup
    sizes that applications may be launched with.
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
        elif self.workgroup_sizes:
            raise ValueError(f"{self.name}: only a GPU takes workgroup_sizes")

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


def per_core_flops(spec: PlatformSpec) -> float:
    """Average peak GFlops of one processing element."""
    return spec.peak_gflops / spec.total_cores


def equiv_cores(src: PlatformSpec, ref: PlatformSpec, n_src_cores: float) -> float:
    """Express ``n_src_cores`` of ``src`` in ``ref``-core equivalents, by the
    ratio of per-core peak compute rates; elementwise over an array."""
    return per_core_flops(src) / per_core_flops(ref) * n_src_cores


def equiv_mem(src: PlatformSpec, ref: PlatformSpec, n_src_mem: float) -> float:
    """Express ``n_src_mem`` memory controllers of ``src`` in ``ref``
    equivalents, by the ratio of per-controller peak bandwidth; elementwise
    over an array."""
    src_bw = src.peak_bandwidth / src.mem_controllers
    ref_bw = ref.peak_bandwidth / ref.mem_controllers
    return src_bw / ref_bw * n_src_mem


# A single GPU core is worth well under one CPU core on any system this
# model targets; 0.5 keeps the parallelism coordinate away from zero.
MIN_EQUIV_CORES = 0.5


def enumerate_configs(system: Sequence[PlatformSpec]) -> tuple[NativeConfig, ...]:
    """All native configurations of the system, platform-major, each
    platform in its lexicographic setting order."""
    return tuple(
        cfg for spec in system for cfg in spec.native_settings
    )


def unify_system(system: Sequence[PlatformSpec]) -> tuple[tuple[NativeConfig, ...], np.ndarray]:
    """Enumerate every configuration of a system and map it into unified
    coordinates.

    Returns the configurations in ``enumerate_configs`` order and an
    ``(n_configs, 3)`` array of (equivalent cores, frequency index,
    equivalent memory) relative to the first CPU declared, whose
    configurations keep their integer core and controller counts exactly.
    GPU workgroup sizes scale through the per-core compute ratio, clamped
    below at ``MIN_EQUIV_CORES``; a GPU always engages all of its memory
    controllers, scaled through the bandwidth ratio.  The frequencies of all
    platforms share one ascending, contiguous index, with ties broken by
    declaration order.
    """
    ref = next((spec for spec in system if spec.kind is PlatformKind.CPU), None)
    if ref is None:
        raise ValueError("system has no CPU platform to serve as reference")
    merged = sorted((f, order) for order, spec in enumerate(system) for f in spec.frequencies)
    freq_index = {key: i for i, key in enumerate(merged)}
    blocks = []
    for order, spec in enumerate(system):
        settings = spec.native_settings
        cores = equiv_cores(spec, ref, np.array([c.cores for c in settings], dtype=float))
        if spec.kind is PlatformKind.GPU:
            cores = np.maximum(cores, MIN_EQUIV_CORES)
        freq = [freq_index[c.freq, order] for c in settings]
        mem = equiv_mem(spec, ref, np.array([c.mem for c in settings], dtype=float))
        blocks.append(np.column_stack((cores, freq, mem)))
    return enumerate_configs(system), np.concatenate(blocks)


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


def _reader(declared):
    """The parser of a platform-file value for a field of type ``declared``:
    a tuple is a comma list of its item type, and the kind is read without
    regard to case."""
    if declared is PlatformKind:
        return lambda text: PlatformKind(text.strip().lower())
    if get_origin(declared) is tuple:
        item = get_args(declared)[0]
        return lambda text: tuple(item(x) for x in text.split(","))
    return declared


def _text(value) -> str:
    """A field value as the platform file writes it."""
    if isinstance(value, PlatformKind):
        return value.value
    if isinstance(value, tuple):
        return ", ".join(repr(v) for v in value)
    return repr(value)


# The keys of a [platform <name>] section: every PlatformSpec field after the
# name, read by its declared type.  A field without a default is required.
_KEYS = fields(PlatformSpec)[1:]
_READERS = {f.name: _reader(get_type_hints(PlatformSpec)[f.name]) for f in _KEYS}


def load_system(path: str) -> tuple[PlatformSpec, ...]:
    """Read platform descriptors from a ``[platform <name>]`` key/value file.

    Field names are documented in docs/data-formats.md and must match
    exactly; a missing or unknown field is rejected, and so is a system with
    no CPU, which ``unify_system`` needs as its reference.  Raises
    DataFormatError with the offending section/field.
    """
    specs: list[PlatformSpec] = []
    for section, opts in read_sections(path, "platform file").items():
        if not section.startswith("platform "):
            raise DataFormatError(f"{path}: unexpected section [{section}]")
        name = section[len("platform "):].strip()
        for key in _KEYS:
            if key.default is MISSING and key.name not in opts:
                raise DataFormatError(f"{path}: [{section}] missing field {key.name!r}")
        for fieldname in opts:
            if fieldname not in _READERS:
                raise DataFormatError(f"{path}: [{section}] unknown field {fieldname!r}")
        try:
            spec = PlatformSpec(name, **{k: _READERS[k](v) for k, v in opts.items()})
        except ValueError as exc:
            raise DataFormatError(f"{path}: [{section}]: {exc}") from exc
        specs.append(spec)
    if not specs:
        raise DataFormatError(f"{path}: no [platform ...] sections found")
    if not any(spec.kind is PlatformKind.CPU for spec in specs):
        raise DataFormatError(f"{path}: no CPU platform to serve as the unified reference")
    return tuple(specs)


def save_system(system: Iterable[PlatformSpec], path: str) -> None:
    """Write platform descriptors in the format ``load_system`` reads."""
    lines: list[str] = []
    for spec in system:
        lines.append(f"[platform {spec.name}]")
        for key in _KEYS:
            value = getattr(spec, key.name)
            if value != key.default:   # a field left at its default is not written
                lines.append(f"{key.name} = {_text(value)}")
        lines.append("")
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
