import dataclasses

import numpy as np
import pytest

from heterotune import evaluation
from heterotune.dataset import DEFAULT_APPLICATIONS, build_training_matrix, select_samples
from heterotune.energy import static_power_mw
from heterotune.evaluation import (
    APPROACHES,
    BRUTE_FORCE,
    CPU_ONLY,
    CPU_SAMPLES,
    DEFAULT_HOLISTIC_SAMPLES,
    GPU_ONLY,
    GPU_SAMPLES,
    HOLISTIC,
    TrialRecord,
    brute_force_best,
    evaluate,
    measured_energy_row,
    single_platform_baseline,
)
from heterotune.estimator import EstimatorParams, predict_best_config
from heterotune.platforms import PlatformKind
from heterotune.synthetic import CI_SYSTEM, PROFILES, SyntheticSpec, generate_system

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
        holistic_chosen = predict_best_config(m, app_id, plan).chosen
        cpu_gap = energies[cpu_chosen] - opt_e
        holistic_gap = energies[holistic_chosen] - opt_e
        assert cpu_gap > holistic_gap

    @pytest.mark.parametrize("profile, gpu", [("ci", "ci-gpu"), ("full", "quadro-k620")])
    def test_gpu_baseline_converges(self, profile, gpu):
        # 3 samples of a GPU's workgroup sizes: few columns, few cells, and
        # the fits most prone to a slow EM direction
        m = generate_system(PROFILES[profile]).matrix
        for app in m.apps:
            for seed in range(4):
                _, result = single_platform_baseline(m, app.app_id, gpu, 3, seed)
                assert result.converged, (app.app_id, seed)

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

    def test_report_keeps_only_its_records(self, report):
        # the summary and the saving line are computed from the records
        assert [f.name for f in dataclasses.fields(report)] == ["records", "trials", "seed"]
        assert report.saving_fraction == GPU_SAMPLES / (CPU_SAMPLES + GPU_SAMPLES)

    @pytest.mark.parametrize("approaches", [
        (HOLISTIC, CPU_ONLY, GPU_ONLY, BRUTE_FORCE),
        (GPU_ONLY, HOLISTIC),
        (CPU_ONLY, BRUTE_FORCE),
        (BRUTE_FORCE,),
    ], ids=["all", "gpu-only,holistic", "cpu-only,brute-force", "brute-force"])
    def test_summary_derived_from_records(self, ci_system, approaches):
        report = evaluate(ci_system.matrix, approaches=approaches, seed=3)
        lines = report.summary_text().splitlines()
        assert lines[0] == "trials=1 seed=3"
        rows = lines[2:2 + len(approaches)]
        assert [row.split()[0] for row in rows] == list(approaches)
        for row, name in zip(rows, approaches):
            gaps = report.gaps(name)
            (n,) = {r.n_samples for r in report.records if r.approach == name}
            stats = (gaps.mean(), np.median(gaps), np.percentile(gaps, 90))
            assert row.split()[1:] == [str(n), *(f"{v:.2f}" for v in stats)]
        saving = lines[2 + len(approaches):]
        if CPU_ONLY in approaches and GPU_ONLY in approaches:
            assert saving == ["sampling-run saving vs single-platform pair: 17% (3/18)"]
        else:
            assert saving == []

    def test_partial_matrix_rejected(self):
        power = np.array([[10.0, np.nan, 20.0]])
        time = np.array([[1.0, np.nan, 1.0]])
        m = small_matrix(power, time)
        with pytest.raises(ValueError, match=f"^unmeasured cell at app {m.apps[0].app_id}, "
                                             f"config {m.configs[1].config_id}$"):
            evaluate(m)

    def test_one_application_rejected_unless_only_brute_force(self):
        # a held-out application is predicted from the others
        m = small_matrix(np.array([[10.0, 5.0, 20.0]]), np.ones((1, 3)))
        with pytest.raises(ValueError, match="at least 2 applications, got 1"):
            evaluate(m, approaches=(HOLISTIC, BRUTE_FORCE))
        assert len(evaluate(m, approaches=(BRUTE_FORCE,)).records) == 1

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


def _one_prediction_at_a_time(matrix, approaches, trials, seed):
    """``evaluate``'s records spelled out in public calls, one prediction at
    a time: (trial, application, approach) draws its samples with the
    sub-seed of SeedSequence([seed, trial, application index, approach
    index])."""
    platform = {kind: next((s.name for s in matrix.system if s.kind is kind), None)
                for kind in PlatformKind}
    records = []
    for trial in range(trials):
        for a_idx, app in enumerate(matrix.apps):
            energies = measured_energy_row(matrix, app.app_id)
            best = float(energies.min())
            for approach in approaches:
                sub_seed = int(np.random.SeedSequence(
                    [seed, trial, a_idx, APPROACHES.index(approach)]).generate_state(1)[0])
                if approach == BRUTE_FORCE:
                    n, chosen = 0, brute_force_best(matrix, app.app_id)[0]
                elif approach == HOLISTIC:
                    n = DEFAULT_HOLISTIC_SAMPLES
                    plan = select_samples(matrix.n_configs, n, sub_seed, app.app_id)
                    chosen = predict_best_config(matrix, app.app_id, plan).chosen
                else:
                    kind, n = ((PlatformKind.CPU, CPU_SAMPLES) if approach == CPU_ONLY
                               else (PlatformKind.GPU, GPU_SAMPLES))
                    chosen, _ = single_platform_baseline(matrix, app.app_id, platform[kind], n,
                                                         sub_seed)
                e = float(energies[chosen])
                records.append(TrialRecord(app.app_id, trial, approach, chosen,
                                           matrix.configs[chosen].config_id, e,
                                           (e - best) / best * 100.0, n))
    return tuple(records)


class TestStackedEvaluate:
    """``evaluate`` prepares the rank choices of its applications in stacks
    and runs each trial's EM fits as stacks of equal rank; its records must
    be those of one public prediction at a time."""

    @pytest.mark.parametrize("trials", [1, 2])
    @pytest.mark.parametrize("spec, approaches", [
        (PROFILES["ci"], APPROACHES),
        # the 18 x 393 full-size system, approaches in a non-default order
        (PROFILES["full"], (GPU_ONLY, BRUTE_FORCE, HOLISTIC, CPU_ONLY)),
        # application counts that leave a partial stack
        (SyntheticSpec(n_apps=7, platforms=CI_SYSTEM, rank=3, noise_sd=0.05, seed=5),
         (CPU_ONLY, HOLISTIC, GPU_ONLY)),
        (SyntheticSpec(n_apps=2, platforms=CI_SYSTEM, rank=2, noise_sd=0.05, seed=9), APPROACHES),
    ], ids=["ci", "full", "7-apps", "2-apps"])
    def test_records_equal_one_prediction_at_a_time(self, spec, approaches, trials):
        m = generate_system(spec).matrix
        report = evaluate(m, approaches=approaches, trials=trials, seed=4)
        assert report.records == _one_prediction_at_a_time(m, approaches, trials, seed=4)

    @pytest.mark.parametrize("max_iters", [EstimatorParams.max_iters, 3])
    @pytest.mark.parametrize("spec", [
        PROFILES["ci"], PROFILES["full"],
        SyntheticSpec(n_apps=2, platforms=CI_SYSTEM, rank=2, noise_sd=0.05, seed=9),
    ], ids=["ci", "full", "2-apps"])
    def test_each_prediction_carries_its_own_convergence(self, spec, max_iters, monkeypatch):
        # the benchmark reads ``converged`` from each result that
        # evaluation.predict_best_config returns inside evaluate; it must be
        # that of the same prediction made alone.  A cap of three iterations
        # leaves some predictions of every set converged and others not.
        monkeypatch.setattr(EstimatorParams, "max_iters", max_iters)
        flags = []
        real = evaluation.predict_best_config

        def recording(matrix, app_id, plan, *args):
            result = real(matrix, app_id, plan, *args)
            flags.append((result.converged, real(matrix, app_id, plan).converged))
            return result

        monkeypatch.setattr(evaluation, "predict_best_config", recording)
        evaluate(generate_system(spec).matrix, trials=2, seed=3)
        assert flags and all(got is own for got, own in flags)
        if max_iters == 3:
            assert {got for got, _ in flags} == {True, False}

    @pytest.mark.parametrize("trials", [1, 2])
    def test_each_prediction_goes_once_through_predict_best_config(self, ci_system, monkeypatch,
                                                                   trials):
        # a caller that wraps evaluation.predict_best_config (the benchmark
        # times each call) sees every prediction once, the holistic ones on
        # the matrix itself, and for one trial in application order
        calls = []
        real = evaluation.predict_best_config

        def recording(matrix, app_id, plan, *args):
            calls.append((matrix, app_id))
            return real(matrix, app_id, plan, *args)

        monkeypatch.setattr(evaluation, "predict_best_config", recording)
        m = ci_system.matrix
        report = evaluate(m, trials=trials, seed=1)
        predicting = [r for r in report.records if r.approach != BRUTE_FORCE]
        assert len(calls) == len(predicting)
        holistic = [app for matrix, app in calls if matrix is m]
        assert sorted(holistic) == sorted(r.app_id for r in report.records
                                          if r.approach == HOLISTIC)
        if trials == 1:
            assert holistic == [app.app_id for app in m.apps]
