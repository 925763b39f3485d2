#!/usr/bin/env python3
"""Walk through the unified configuration coordinate system.

A CPU knob is (cores, frequency, memory controllers); a GPU knob is a
workgroup size.  To train one model over both platforms, every native
setting is mapped into CPU-equivalent coordinates via peak-rate ratios;
``unify_system`` returns them as one (cores, frequency index, memory) row
per configuration.
"""

from heterotune import (
    DEFAULT_CPU,
    DEFAULT_GPU,
    DEFAULT_SYSTEM,
    equiv_cores,
    equiv_mem,
    per_core_flops,
    unify_system,
)

print("== platforms ==")
for spec in DEFAULT_SYSTEM:
    print(f"{spec.name}: {spec.total_cores} cores, {spec.peak_gflops} GFlops, "
          f"{spec.peak_bandwidth} GB/s over {spec.mem_controllers} controllers")

print("\n== per-core compute rates ==")
print(f"CPU core: {per_core_flops(DEFAULT_CPU):.2f} GFlops")
print(f"GPU core: {per_core_flops(DEFAULT_GPU):.2f} GFlops")
print(f"=> one GPU core is worth {equiv_cores(DEFAULT_GPU, DEFAULT_CPU, 1):.3f} CPU cores")
print(f"=> one GPU memory controller is worth "
      f"{equiv_mem(DEFAULT_GPU, DEFAULT_CPU, 1):.3f} CPU controllers")

configs, unified = unify_system(DEFAULT_SYSTEM)

print("\n== merged frequency index ==")
# every (platform, frequency) pair has one index; read it off any of its configurations
platform_freq = {int(freq_index): cfg for cfg, (_, freq_index, _) in zip(configs, unified)}
for index in sorted(platform_freq):
    cfg = platform_freq[index]
    print(f"index {index}: {cfg.freq} GHz ({cfg.platform})")

print("\n== configuration census ==")
by_platform = {}
for cfg in configs:
    by_platform[cfg.platform] = by_platform.get(cfg.platform, 0) + 1
for name, count in by_platform.items():
    print(f"{name}: {count} configurations")
print(f"total: {len(configs)}")

print("\n== a few unified coordinates ==")
for i in (0, 200, 384, 392):
    cores, freq_index, mem = unified[i]
    print(f"{configs[i].config_id:<34} -> cores={cores:7.3f} "
          f"freq_index={int(freq_index)} mem={mem:.3f}")
