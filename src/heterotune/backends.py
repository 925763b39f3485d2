"""Measurement backends.

A backend turns (executable descriptor, native configuration) into one
RunMeasurement.  Only the simulated backend ships with the package; a real
energy meter (hardware counters plus frequency/affinity actuation) would
implement ``run(descriptor, config) -> RunMeasurement`` as
``SimulatedBackend`` does and be built in ``cli._make_backend``.

GPU parallelism is communicated to executables through the
``HETEROTUNE_WORKGROUP_SIZE`` environment variable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .dataset import TrainingMatrix
from .energy import RunMeasurement
from .errors import BackendError
from .platforms import NativeConfig, PlatformKind
from .synthetic import SyntheticSpec, generate_system

WORKGROUP_ENV_VAR = "HETEROTUNE_WORKGROUP_SIZE"


@dataclass(frozen=True)
class ExecutableDescriptor:
    """What to run: one command line per platform plus its environment."""

    commands: dict[str, str]          # platform name -> command line
    env: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.commands:
            raise ValueError("descriptor needs at least one platform command")

    def command_for(self, platform: str) -> str:
        try:
            return self.commands[platform]
        except KeyError:
            raise BackendError(f"no command declared for platform {platform!r}") from None


def build_environment(
    descriptor: ExecutableDescriptor, config: NativeConfig
) -> dict[str, str]:
    """Environment for one run; GPU configurations inject the workgroup size."""
    env = dict(descriptor.env)
    if config.kind is PlatformKind.GPU:
        env[WORKGROUP_ENV_VAR] = str(config.workgroup_size)
    return env


class SimulatedBackend:
    """Answers measurements from a synthetic (or previously benchmarked)
    matrix instead of touching hardware.

    Commands are app selectors of the form ``app:<id>``; the returned
    measurement is the matrix cell for that application and configuration.
    """

    def __init__(self, matrix: TrainingMatrix):
        self.matrix = matrix
        self._col = {cfg.config_id: j for j, cfg in enumerate(matrix.configs)}

    @classmethod
    def generate(cls, spec: SyntheticSpec) -> "SimulatedBackend":
        return cls(generate_system(spec).matrix)

    @staticmethod
    def app_of(descriptor: ExecutableDescriptor, platform: str) -> int:
        cmd = descriptor.command_for(platform).strip()
        if not cmd.startswith("app:"):
            raise BackendError(
                f"simulated backend expects 'app:<id>' commands, got {cmd!r}"
            )
        try:
            return int(cmd.split(":", 1)[1])
        except ValueError:
            raise BackendError(f"bad app selector {cmd!r}") from None

    def run(self, descriptor: ExecutableDescriptor, config: NativeConfig) -> RunMeasurement:
        app_id = self.app_of(descriptor, config.platform)
        try:
            row = self.matrix.app_index(app_id)
        except KeyError as exc:
            raise BackendError(str(exc)) from exc
        col = self._col.get(config.config_id)
        if col is None:
            raise BackendError(f"configuration {config.config_id} not in backing matrix")
        time = float(self.matrix.time[row, col])
        power = float(self.matrix.power[row, col])
        if math.isnan(time):
            raise BackendError(f"cell ({app_id}, {config.config_id}) is unmeasured")
        return RunMeasurement(app_id=app_id, config=config, mean_power=power, mean_time=time)
