#!/usr/bin/env python3
"""Compare the holistic predictor against single-platform baselines.

Every approach is scored on whole-system energy against the brute-force
oracle.  The single-platform pair needs 15 CPU + 3 GPU sample runs per
application; the holistic predictor needs only the 15 CPU-or-GPU samples,
saving 3/18 = 17% of sampling runs.
"""

from heterotune import evaluate, generate_system
from heterotune.synthetic import PROFILES, RUNS_PER_POINT

system = generate_system(PROFILES["ci"])
print(f"synthetic system: {system.matrix.n_apps} applications x "
      f"{system.matrix.n_configs} configurations, "
      f"noise {system.spec.noise_sd * 100:.0f}% over {RUNS_PER_POINT} runs\n")

report = evaluate(system.matrix, trials=5, seed=1)
print(report.summary_text())

print("\nper-application mean gap (%) vs brute force:")
apps = sorted({r.app_id for r in report.records})
approaches = [a for a in ("holistic", "cpu-only", "gpu-only") ]
print(f"{'app':<5}" + "".join(f"{a:>10}" for a in approaches))
for app in apps:
    cells = []
    for a in approaches:
        gaps = [r.gap_pct for r in report.records if r.app_id == app and r.approach == a]
        cells.append(sum(gaps) / len(gaps))
    print(f"{app:<5}" + "".join(f"{c:>10.2f}" for c in cells))
