"""Whole-system energy accounting.

Internal units are millijoules, seconds and milliwatts; platform static
power is declared in watts and converted once at this boundary.  The total
energy of a run charges every platform's static draw for the full wall-clock
duration -- idle platforms are not free, which is what makes the cheapest
configuration of a heterogeneous system differ from the cheapest
configuration of each platform in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .platforms import NativeConfig, PlatformSpec

W_TO_MW = 1000.0


@dataclass(frozen=True)
class RunMeasurement:
    """Mean measurement of one (application, configuration) point."""

    app_id: int
    config: NativeConfig
    mean_time: float
    mean_energy: float

    def __post_init__(self) -> None:
        if self.mean_time <= 0:
            raise ValueError("mean_time must be positive")
        if self.mean_energy <= 0:
            raise ValueError(f"non-positive power: mean_energy {self.mean_energy!r}")

    @property
    def mean_power(self) -> float:
        return power_from(self.mean_energy, self.mean_time)


def power_from(energy_mj: float, time_s: float) -> float:
    """Mean power (mW) of a run measured as ``energy_mj`` over ``time_s``."""
    if time_s <= 0:
        raise ValueError(f"time must be positive, got {time_s}")
    return energy_mj / time_s


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
