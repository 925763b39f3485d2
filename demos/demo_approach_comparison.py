#!/usr/bin/env python3
"""Compare the holistic predictor against single-platform baselines.

Every approach is scored on whole-system energy against the brute-force
oracle.  The single-platform pair takes 15 CPU + 3 GPU sample runs per
application and the holistic predictor 15 runs on any platform, so the
holistic predictor takes 3/18 = 17% fewer runs.  That saving is run-count
arithmetic (``EvaluationReport.saving_fraction``), not a result of this
demo: whether 15 holistic runs pick as well as the pair is what the gap
columns below show.
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
approaches = ("holistic", "cpu-only", "gpu-only")
print(f"{'app':<5}" + "".join(f"{a:>10}" for a in approaches))
for app in apps:
    cells = []
    for a in approaches:
        gaps = [r.gap_pct for r in report.records if r.app_id == app and r.approach == a]
        cells.append(sum(gaps) / len(gaps))
    print(f"{app:<5}" + "".join(f"{c:>10.2f}" for c in cells))
