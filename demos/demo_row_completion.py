#!/usr/bin/env python3
"""Complete one application's missing measurements from 15 sample runs.

Generates a synthetic heterogeneous system, hides one application's row,
measures 15 random configurations of it, and reconstructs the rest with
the regression-initialized EM estimator.  The retained ground truth and
the brute-force oracle grade the result.
"""

import numpy as np

from heterotune import (
    brute_force_best,
    generate_system,
    predict_best_config,
    select_samples,
)
from heterotune.evaluation import measured_energy_row
from heterotune.synthetic import SyntheticSpec

system = generate_system(SyntheticSpec(n_apps=18, rank=4, noise_sd=0.05, seed=11))
matrix = system.matrix
app = matrix.apps[6]
row = matrix.app_index(app.app_id)
print(f"target application: {app.app_id} ({app.benchmark}/{app.input_name}, {app.dwarf})")
print(f"matrix: {matrix.n_apps} applications x {matrix.n_configs} configurations")

plan_seed = 4
plan = select_samples(matrix.n_configs, 15, seed=plan_seed, target_app=app.app_id)
print(f"sampling {len(plan.sample_configs)} configurations (seed {plan_seed})")

result = predict_best_config(matrix, app.app_id, plan)

pred_time = result.time
rel = np.abs(pred_time - system.truth_time[row]) / system.truth_time[row]
print(f"time prediction error vs retained truth: "
      f"median {np.median(rel) * 100:.2f}%, p90 {np.percentile(rel, 90) * 100:.2f}%")

chosen = matrix.configs[result.chosen]
opt_idx, opt_energy = brute_force_best(matrix, app.app_id)
opt = matrix.configs[opt_idx]
energies = measured_energy_row(matrix, app.app_id)
gap = (energies[result.chosen] - opt_energy) / opt_energy * 100

print(f"\npredicted best: {chosen.config_id} "
      f"(estimated {result.energy[result.chosen]:.0f} mJ)")
print(f"brute force:    {opt.config_id} (measured {opt_energy:.0f} mJ)")
print(f"energy gap of the predicted choice: {gap:.2f}%")
print(f"sample cost: {len(plan.sample_configs)} runs instead of {matrix.n_configs}")
