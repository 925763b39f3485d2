import numpy as np
import pytest

from heterotune import evaluation
from heterotune.dataset import DEFAULT_APPLICATIONS, build_training_matrix, select_samples
from heterotune.energy import static_power_mw
from heterotune.evaluation import (
    BRUTE_FORCE,
    CPU_ONLY,
    GPU_ONLY,
    HOLISTIC,
    brute_force_best,
    evaluate,
    measured_energy_row,
    single_platform_baseline,
)
from heterotune.estimator import EstimatorParams
from heterotune.synthetic import CI_SYSTEM, SyntheticSpec, generate_system

from conftest import tiny_system


def small_matrix(power, time, statics=(0.0, 0.0)):
    system = tiny_system(*statics)
    apps = DEFAULT_APPLICATIONS[: power.shape[0]]
    return build_training_matrix(apps, system, power, time)


class TestBruteForce:
    def test_unique_minimum(self):
        m = small_matrix(np.array([[10.0, 5.0, 20.0]]), np.ones((1, 3)))
        chosen, energy = brute_force_best(m, 1)
        assert chosen == 1 and energy == pytest.approx(5.0)

    def test_constant_row_tie_breaks_to_lowest_index(self):
        m = small_matrix(np.full((1, 3), 7.0), np.ones((1, 3)))
        chosen, _ = brute_force_best(m, 1)
        assert chosen == 0

    def test_double_scan_oracle(self, ci_system):
        m = ci_system.matrix
        statics = static_power_mw(m.system)
        for app in m.apps:
            chosen, energy = brute_force_best(m, app.app_id)
            row = m.app_index(app.app_id)
            best_j, best_e = None, np.inf
            for j in range(m.n_configs):
                e = m.time[row, j] * (m.power[row, j] + statics)
                if e < best_e:
                    best_j, best_e = j, e
            assert chosen == best_j
            assert energy == pytest.approx(best_e, rel=1e-12)

    def test_missing_cells_rejected(self):
        power = np.array([[10.0, np.nan, 20.0]])
        time = np.array([[1.0, np.nan, 1.0]])
        m = small_matrix(power, time)
        with pytest.raises(ValueError, match="unobserved"):
            brute_force_best(m, 1)

    def test_argmin_invariant_under_uniform_scaling(self, ci_system):
        m = ci_system.matrix
        app = m.apps[0].app_id
        base, _ = brute_force_best(m, app)
        energies = measured_energy_row(m, app)
        for c in (1e-6, 3.0, 1e5):
            assert int(np.argmin(energies * c)) == base


class TestSinglePlatformBaseline:
    def test_gpu_baseline_never_selects_cpu(self, ci_system):
        m = ci_system.matrix
        gpu_cols = set(m.platform_config_indices("ci-gpu"))
        for seed in range(5):
            chosen, _ = single_platform_baseline(m, m.apps[0].app_id, "ci-gpu", 3, seed)
            assert chosen in gpu_cols

    def test_cpu_baseline_fully_sampled_equals_restricted_brute_force(self, ci_system):
        m = ci_system.matrix
        app = m.apps[1].app_id
        cpu_cols = m.platform_config_indices("ci-cpu")
        chosen, _ = single_platform_baseline(m, app, "ci-cpu", len(cpu_cols), seed=0)
        energies = measured_energy_row(m, app)
        expected = cpu_cols[int(np.argmin(energies[list(cpu_cols)]))]
        assert chosen == expected

    def test_cpu_only_misses_gpu_optimum(self):
        # constructed scenario: every app is strongly GPU-leaning, so the
        # CPU-restricted baseline must pay a larger gap than the holistic run
        sys_g = generate_system(
            SyntheticSpec(n_apps=8, rank=4, noise_sd=0.02, affinity_mix=1.0, seed=33)
        )
        m = sys_g.matrix
        statics = static_power_mw(m.system)
        gpu_cols = set(m.platform_config_indices("quadro-k620"))
        for i, app in enumerate(m.apps):
            truth_e = sys_g.truth_time[i] * (sys_g.truth_power[i] + statics)
            gpu_best = min(e for j, e in enumerate(truth_e) if j in gpu_cols)
            cpu_best = min(e for j, e in enumerate(truth_e) if j not in gpu_cols)
            if gpu_best * 1.5 < cpu_best:
                app_id = app.app_id
                break
        else:
            pytest.fail("construction produced no strongly GPU-dominant app")
        opt_idx, opt_e = brute_force_best(m, app_id)
        energies = measured_energy_row(m, app_id)
        cpu_chosen, _ = single_platform_baseline(m, app_id, "xeon-e5-2650lv3", 15, seed=1)
        plan = select_samples(m.n_configs, 15, seed=1, target_app=app_id)
        from heterotune.estimator import predict_best_config

        holistic_chosen = predict_best_config(m, app_id, plan).chosen
        cpu_gap = energies[cpu_chosen] - opt_e
        holistic_gap = energies[holistic_chosen] - opt_e
        assert cpu_gap > holistic_gap

    def test_unknown_platform_rejected(self, ci_system):
        with pytest.raises(ValueError):
            single_platform_baseline(ci_system.matrix, 1, "no-such", 3, 0)


@pytest.fixture(scope="module")
def report(ci_system):
    return evaluate(ci_system.matrix, trials=2, seed=3)


class TestEvaluate:
    def test_sample_saving_arithmetic(self, report):
        assert report.saving_fraction == pytest.approx(3 / 18)
        assert "17%" in report.summary_text()
        assert "(3/18)" in report.summary_text()

    def test_brute_force_gaps_all_zero(self, report):
        assert (report.gaps(BRUTE_FORCE) == 0).all()

    def test_gaps_non_negative_for_every_approach(self, report):
        for approach in (HOLISTIC, CPU_ONLY, GPU_ONLY, BRUTE_FORCE):
            assert (report.gaps(approach) >= 0).all()

    def test_determinism(self, ci_system, report):
        again = evaluate(ci_system.matrix, trials=2, seed=3)
        assert again.records == report.records

    def test_gpu_baseline_records_restricted_configs(self, report, ci_system):
        gpu_cols = set(ci_system.matrix.platform_config_indices("ci-gpu"))
        for r in report.records:
            if r.approach == GPU_ONLY:
                assert r.chosen in gpu_cols

    def test_report_files(self, report, tmp_path):
        report.write(str(tmp_path))
        text = (tmp_path / "report.csv").read_text().splitlines()
        assert text[0] == "app_id,trial,approach,chosen,config_id,energy_mj,gap_pct,n_samples"
        assert len(text) == 1 + len(report.records)
        gaps = (tmp_path / "gap_by_app.csv").read_text().splitlines()
        assert gaps[0] == "app_id,holistic,cpu-only,gpu-only,brute-force"

    def test_partial_matrix_rejected(self):
        power = np.array([[10.0, np.nan, 20.0]])
        time = np.array([[1.0, np.nan, 1.0]])
        m = small_matrix(power, time)
        with pytest.raises(ValueError, match="fully observed"):
            evaluate(m)

    def test_unknown_approach_rejected(self, ci_system):
        with pytest.raises(ValueError, match="unknown approaches"):
            evaluate(ci_system.matrix, approaches=("magic",))

    @pytest.mark.parametrize("kwargs,message", [
        (dict(approaches=("holistic", "holistic")), "listed twice"),
        (dict(trials=0), "trials must be >= 1"),
        (dict(trials=-1), "trials must be >= 1"),
        (dict(holistic_samples=9), "holistic: 9 samples must lie between the estimator minimum 10"),
        (dict(holistic_samples=41), "holistic: 41 samples .* the 40 configurations"),
        # the budget is checked before the cpu-only baseline's first prediction
        (dict(approaches=(CPU_ONLY, HOLISTIC), holistic_samples=5), "holistic: 5 samples"),
    ])
    def test_out_of_range_argument_rejected(self, ci_system, monkeypatch, kwargs, message):
        def no_prediction(*args, **kwargs):
            raise AssertionError("a prediction ran before the arguments were checked")

        monkeypatch.setattr(evaluation, "predict_best_config", no_prediction)
        monkeypatch.setattr(evaluation, "single_platform_baseline", no_prediction)
        with pytest.raises(ValueError, match=message):
            evaluate(ci_system.matrix, **kwargs)

    def test_gpu_only_without_a_gpu_rejected(self):
        cpu_only = generate_system(SyntheticSpec(n_apps=4, platforms=CI_SYSTEM[:1], rank=2))
        with pytest.raises(ValueError, match="gpu-only needs a GPU platform"):
            evaluate(cpu_only.matrix, approaches=(HOLISTIC, GPU_ONLY))
        # the other approaches still run there
        report = evaluate(cpu_only.matrix, approaches=(CPU_ONLY, BRUTE_FORCE))
        assert {r.approach for r in report.records} == {CPU_ONLY, BRUTE_FORCE}

    def test_baseline_larger_than_its_platform_rejected(self):
        # 2 CPU configurations cannot take the CPU-only baseline's 15 samples
        power = np.array([[10.0, 5.0, 20.0], [8.0, 9.0, 7.0]])
        m = small_matrix(power, np.ones((2, 3)))
        with pytest.raises(ValueError, match="cpu-only: 15 samples .* the 2 configurations"):
            evaluate(m, approaches=(CPU_ONLY,))
        assert len(evaluate(m, approaches=(BRUTE_FORCE,)).records) == 2

    def test_oracle_pick_is_the_first_minimum(self):
        # tied energies: brute force and every gap use the lowest index
        m = small_matrix(np.array([[5.0, 10.0, 5.0]]), np.ones((1, 3)))
        (record,) = evaluate(m, approaches=(BRUTE_FORCE,)).records
        assert (record.chosen, record.gap_pct) == (0, 0.0)
        assert brute_force_best(m, 1)[0] == record.chosen
