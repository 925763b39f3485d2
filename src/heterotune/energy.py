"""Whole-system energy accounting.

Internal units are millijoules, seconds and milliwatts; platform static
power is declared in watts and converted once at this boundary.  The total
energy of a run charges every platform's static draw for the full wall-clock
duration -- idle platforms are not free, which is what makes the cheapest
configuration of a heterogeneous system differ from the cheapest
configuration of each platform in isolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .platforms import NativeConfig, PlatformSpec

W_TO_MW = 1000.0


@dataclass(frozen=True)
class RunMeasurement:
    """Mean measurement of one (application, configuration) point: the
    active platform's dynamic power (mW) and the run duration (s), the two
    quantities the training grids hold."""

    app_id: int
    config: NativeConfig
    mean_power: float
    mean_time: float

    def __post_init__(self) -> None:
        for name in ("mean_power", "mean_time"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {float(getattr(self, name))!r}")
        if self.mean_time <= 0:
            raise ValueError("mean_time must be positive")
        if self.mean_power <= 0:
            raise ValueError(f"non-positive power: mean_power {self.mean_power!r}")


def static_power_mw(system: Sequence[PlatformSpec]) -> float:
    """Combined static draw of every platform in the system, in mW."""
    return sum(spec.static_power for spec in system) * W_TO_MW


def total_energy_row(
    power_row: np.ndarray,
    time_row: np.ndarray,
    system: Sequence[PlatformSpec],
) -> np.ndarray:
    """Whole-system energy (mJ) per configuration.

    ``power_row`` is the active platform's dynamic power (mW) and
    ``time_row`` the run duration (s) per configuration; the duration is
    charged every platform's static draw on top.  This is the only place
    static energy enters a score.
    """
    power_row = np.asarray(power_row, dtype=float)
    time_row = np.asarray(time_row, dtype=float)
    return time_row * (power_row + static_power_mw(system))
