import re

import numpy as np
import pytest
from scipy import stats

from heterotune.dataset import (
    DEFAULT_APPLICATIONS,
    ApplicationMeta,
    PerfLimit,
    build_training_matrix,
    load_applications,
    load_training,
    mask_application,
    save_applications,
    save_training,
    select_samples,
)
from heterotune.errors import DataFormatError
from heterotune.synthetic import SyntheticSpec, generate_system

from conftest import tiny_system


def tiny_matrix(cpu_static=0.0, gpu_static=0.0, n_apps=2, seed=0):
    system = tiny_system(cpu_static, gpu_static)  # 2 CPU + 1 GPU configs
    rng = np.random.default_rng(seed)
    apps = DEFAULT_APPLICATIONS[:n_apps]
    power = rng.uniform(50, 150, size=(n_apps, 3))
    time = rng.uniform(0.5, 2.0, size=(n_apps, 3))
    return build_training_matrix(apps, system, power, time)


class TestCatalog:
    def test_eighteen_apps_with_unique_ids(self):
        assert len(DEFAULT_APPLICATIONS) == 18
        assert len({a.app_id for a in DEFAULT_APPLICATIONS}) == 18

    def test_dwarf_membership_enforced(self):
        with pytest.raises(ValueError):
            ApplicationMeta(1, "x", "y", "made-up-dwarf", PerfLimit.MIXED)


class TestPersistence:
    def test_well_formed_fixture_loads(self, tmp_path):
        m = tiny_matrix()
        manifest = save_training(m, str(tmp_path / "t"))
        loaded = load_training(manifest)
        assert loaded.n_apps == 2 and loaded.n_configs == 3
        assert int(loaded.mask.sum()) == 6

    def test_round_trip_identity(self, tmp_path):
        m = tiny_matrix(cpu_static=0.5, gpu_static=0.25)
        manifest = save_training(m, str(tmp_path / "t"))
        loaded = load_training(manifest)
        np.testing.assert_array_equal(loaded.power, m.power)
        np.testing.assert_array_equal(loaded.time, m.time)
        np.testing.assert_array_equal(loaded.mask, m.mask)
        assert loaded.apps == m.apps
        assert loaded.configs == m.configs
        assert loaded.system == m.system

    def test_round_trip_with_missing_cells_and_stds(self, tmp_path):
        # manifests written before stddev grids were dropped still list
        # them; the keys are ignored like any other unknown key
        system = tiny_system()
        power = np.array([[100.0, np.nan, 80.0], [90.0, 95.0, np.nan]])
        time = np.array([[1.0, np.nan, 1.5], [0.5, 0.25, np.nan]])
        m = build_training_matrix(DEFAULT_APPLICATIONS[:2], system, power, time)
        manifest = save_training(m, str(tmp_path / "t"))
        with open(manifest, "a") as fh:
            fh.write("power_std = power_std.csv\ntime_std = time_std.csv\n")
        loaded = load_training(manifest)
        np.testing.assert_array_equal(loaded.mask, m.mask)
        np.testing.assert_array_equal(loaded.power[loaded.mask], m.power[m.mask])
        np.testing.assert_array_equal(loaded.time[loaded.mask], m.time[m.mask])

    def test_negative_power_cell_error_names_cell(self, tmp_path):
        # the matrix makes these checks, so every way of building one names
        # the offending cell; a non-positive time is the second case
        cases = (
            ("power.csv", "-5.0", "negative power at app 1, config tiny-cpu:c1:f1.5:m1"),
            ("time.csv", "0.0", "non-positive time at app 1, config tiny-cpu:c1:f1.5:m1"),
        )
        for k, (grid, value, message) in enumerate(cases):
            manifest = save_training(tiny_matrix(), str(tmp_path / str(k)))
            grid_file = tmp_path / str(k) / grid
            lines = grid_file.read_text().splitlines()
            header, first = lines[0], lines[1].split(",")
            first[2] = value
            grid_file.write_text("\n".join([header, ",".join(first)] + lines[2:]) + "\n")
            with pytest.raises(DataFormatError, match=message):
                load_training(manifest)

    def test_static_augmented_manifest_rejected(self, tmp_path):
        # a power grid that already carries the static draw would have it
        # charged twice; every manifest written with the key says false
        manifest = save_training(tiny_matrix(), str(tmp_path / "t"))
        with open(manifest) as fh:
            text = fh.read()
        for value, loads in (("false", True), ("true", False)):
            with open(manifest, "w") as fh:
                fh.write(text + f"static_augmented = {value}\n")
            if loads:
                assert load_training(manifest).n_apps == 2
            else:
                with pytest.raises(DataFormatError, match="static-augmented"):
                    load_training(manifest)

    def test_nan_cell_rejected(self, tmp_path):
        m = tiny_matrix()
        manifest = save_training(m, str(tmp_path / "t"))
        power_file = tmp_path / "t" / "power.csv"
        text = power_file.read_text()
        first_value = text.splitlines()[1].split(",")[1]
        power_file.write_text(text.replace(first_value, "nan", 1))
        with pytest.raises(DataFormatError, match="non-finite"):
            load_training(manifest)

    @staticmethod
    def _edit_cell(directory, grid, row, column, token):
        path = directory / grid
        lines = path.read_text().splitlines()
        cells = lines[row].split(",")
        cells[column + 1] = token
        lines[row] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("token, what", [
        ("inf", "non-finite value"),
        ("-inf", "non-finite value"),
        ("1.2.3", "bad value '1.2.3'"),
    ])
    def test_bad_grid_token_rejected(self, tmp_path, token, what):
        m = tiny_matrix()
        manifest = save_training(m, str(tmp_path / "t"))
        self._edit_cell(tmp_path / "t", "power.csv", 2, 1, token)
        message = f"power.csv:3: column {m.configs[1].config_id!r}: {what}"
        with pytest.raises(DataFormatError, match=re.escape(message)):
            load_training(manifest)

    def test_short_grid_row_rejected(self, tmp_path):
        manifest = save_training(tiny_matrix(), str(tmp_path / "t"))
        time_file = tmp_path / "t" / "time.csv"
        lines = time_file.read_text().splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0]
        time_file.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match="time.csv:2: expected 4 cells, got 3"):
            load_training(manifest)

    def test_na_cell_loads_as_nan(self, tmp_path):
        m = tiny_matrix()
        manifest = save_training(m, str(tmp_path / "t"))
        for grid in ("power.csv", "time.csv"):
            self._edit_cell(tmp_path / "t", grid, 1, 2, "NA")
        loaded = load_training(manifest)
        unmeasured = np.zeros((2, 3), dtype=bool)
        unmeasured[0, 2] = True
        np.testing.assert_array_equal(np.isnan(loaded.power), unmeasured)
        np.testing.assert_array_equal(np.isnan(loaded.time), unmeasured)
        np.testing.assert_array_equal(loaded.power[~unmeasured], m.power[~unmeasured])
        np.testing.assert_array_equal(loaded.time[~unmeasured], m.time[~unmeasured])

    def test_column_mismatch_rejected(self, tmp_path):
        m = tiny_matrix()
        manifest = save_training(m, str(tmp_path / "t"))
        power_file = tmp_path / "t" / "power.csv"
        lines = power_file.read_text().splitlines()
        lines[0] = lines[0].replace("tiny-cpu:c1:f1.0:m1", "tiny-cpu:c9:f9.0:m9")
        power_file.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match="config columns"):
            load_training(manifest)

    def test_apps_file_round_trip(self, tmp_path):
        path = str(tmp_path / "apps.csv")
        save_applications(DEFAULT_APPLICATIONS, path)
        assert load_applications(path) == DEFAULT_APPLICATIONS


class TestSelectSamples:
    def test_full_set(self):
        plan = select_samples(10, 10, seed=1)
        assert plan.sample_configs == tuple(range(10))

    def test_seed_determinism(self):
        a = select_samples(100, 15, seed=7)
        b = select_samples(100, 15, seed=7)
        assert a == b

    def test_distinct_and_in_range(self):
        plan = select_samples(50, 20, seed=3)
        assert len(set(plan.sample_configs)) == 20
        assert all(0 <= i < 50 for i in plan.sample_configs)

    def test_too_large_rejected(self):
        with pytest.raises(ValueError):
            select_samples(5, 6, seed=0)

    def test_uniformity_chi_square(self):
        # 10^4 draws of 5 from 40; each index is included with p = 1/8
        n_configs, n, draws = 40, 5, 10_000
        counts = np.zeros(n_configs)
        for seed in range(draws):
            for i in select_samples(n_configs, n, seed=seed).sample_configs:
                counts[i] += 1
        expected = draws * n / n_configs
        chi2 = ((counts - expected) ** 2 / expected).sum()
        threshold = stats.chi2.ppf(0.99, df=n_configs - 1)
        assert chi2 < threshold


class TestMaskApplication:
    def test_leave_one_out_row_counts(self):
        sys18 = generate_system(SyntheticSpec(n_apps=18, rank=3, seed=1))
        plan = select_samples(sys18.matrix.n_configs, 15, seed=2, target_app=5)
        view, samples = mask_application(sys18.matrix, 5, plan)
        assert view.n_apps == 17
        assert all(a.app_id != 5 for a in view.apps)
        assert len(samples.config_indices) == 15

    def test_empty_plan_empty_partial_row(self):
        m = tiny_matrix()
        plan = select_samples(3, 0, seed=0, target_app=1)
        view, samples = mask_application(m, 1, plan)
        assert samples.config_indices == ()
        assert samples.power.size == 0

    def test_union_reconstructs_original(self):
        # a full-coverage plan makes the partial row the whole row, so the
        # training view plus the partial row must rebuild the input exactly
        m = tiny_matrix(n_apps=4, seed=5)
        plan = select_samples(3, 3, seed=1, target_app=2)
        view, samples = mask_application(m, 2, plan)
        row_idx = m.app_index(2)
        full_row = np.full(3, np.nan)
        full_row[list(samples.config_indices)] = samples.power
        rebuilt = np.insert(view.power, row_idx, full_row, axis=0)
        np.testing.assert_array_equal(rebuilt, m.power)

    def test_no_leak_of_unsampled_cells(self):
        m = tiny_matrix(n_apps=3, seed=9)
        plan = select_samples(3, 1, seed=4, target_app=1)
        view, samples = mask_application(m, 1, plan)
        assert samples.power.size == 1
        assert 1 not in [a.app_id for a in view.apps]

    def test_unknown_app_rejected(self):
        m = tiny_matrix()
        with pytest.raises(KeyError):
            mask_application(m, 99, select_samples(3, 1, 0, 99))
