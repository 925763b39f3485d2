#!/usr/bin/env python3
"""Why whole-system energy differs from per-platform energy.

While one platform executes, the other still idles and draws its static
power.  That can flip which platform is cheapest: here the GPU wins on
dynamic energy but loses once the idle CPU's draw is charged for the
GPU's longer run.
"""

import numpy as np

from heterotune import total_energy_row
from heterotune.energy import static_power_mw
from heterotune.platforms import PlatformKind, PlatformSpec

cpu = PlatformSpec(
    name="cpu", kind=PlatformKind.CPU, total_cores=4, peak_gflops=19.2,
    peak_bandwidth=34.0, mem_controllers=1, frequencies=(1.5,),
    static_power=0.03,   # 30 mW, scaled-down story numbers
)
gpu = PlatformSpec(
    name="gpu", kind=PlatformKind.GPU, total_cores=8, peak_gflops=19.2,
    peak_bandwidth=17.0, mem_controllers=1, frequencies=(1.2,),
    static_power=0.02, workgroup_sizes=(8,),
)
system = (cpu, gpu)

# One run on each platform: the CPU is faster but hungrier, the GPU
# thriftier but slower.
active = ["cpu", "gpu"]
dynamic_mj = np.array([100.0, 80.0])
duration_s = np.array([1.0, 1.6])
totals = total_energy_row(dynamic_mj / duration_s, duration_s, system)

print(f"{'run on':<8}{'dynamic mJ':>12}{'duration s':>12}{'total mJ':>10}")
for name, dyn, t, total in zip(active, dynamic_mj, duration_s, totals):
    print(f"{name:<8}{dyn:>12.1f}{t:>12.1f}{total:>10.1f}")
    for spec in system:
        role = "active" if spec.name == name else "idle"
        part_dyn = dyn if spec.name == name else 0.0
        print(f"         {spec.name} ({role}): static {static_power_mw([spec]) * t:.1f} mJ"
              f" + dynamic {part_dyn:.1f} mJ")

dyn_winner = active[int(np.argmin(dynamic_mj))]
total_winner = active[int(np.argmin(totals))]
print(f"\ndynamic-energy winner: {dyn_winner}")
print(f"whole-system winner:   {total_winner}")
assert dyn_winner != total_winner
print("-> optimizing each platform in isolation picks the wrong one here.")
