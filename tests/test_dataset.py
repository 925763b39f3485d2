import math
import os
import re
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from heterotune.dataset import (
    DEFAULT_APPLICATIONS,
    ApplicationMeta,
    PerfLimit,
    SamplePlan,
    SampleSet,
    build_training_matrix,
    load_applications,
    load_training,
    mask_application,
    save_applications,
    save_training,
    select_samples,
)
from heterotune.errors import DataFormatError
from heterotune.platforms import PlatformKind, PlatformSpec, enumerate_configs, save_system
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
        # the offending cell; a non-positive time is the last case
        cases = (
            ("power.csv", "-5.0", "non-positive power at app 1, config tiny-cpu:c1:f1.5:m1"),
            ("power.csv", "0.0", "non-positive power at app 1, config tiny-cpu:c1:f1.5:m1"),
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
        # numpy's C reader strips \x1c-\x1f around a number; float() does not
        ("1.5\x1c", "bad value '1.5\\x1c'"),
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

    def test_short_row_then_long_row_rejected_at_the_short_one(self, tmp_path):
        # together the two rows hold the right number of cells, and integer
        # values would parse as app ids if the cells were read out of line
        manifest = save_training(tiny_matrix(), str(tmp_path / "t"))
        power_file = tmp_path / "t" / "power.csv"
        header = power_file.read_text().splitlines()[0]
        power_file.write_text(f"{header}\n1,100,100\n2,100,100,100,100\n")
        with pytest.raises(DataFormatError, match="power.csv:2: expected 4 cells, got 3"):
            load_training(manifest)

    @pytest.mark.parametrize("edit, got", [
        (lambda cells: cells[:-1], 3),
        (lambda cells: cells + ["1.0"], 5),
        (lambda cells: cells[:1] + [""], 2),
    ], ids=["short", "long", "id-only"])
    def test_rows_all_of_one_wrong_width_rejected_at_the_first(self, tmp_path, edit, got):
        # numpy's C reader reads such a body as a grid of another width, or,
        # when the rows hold only app ids, as no data at all
        manifest = save_training(tiny_matrix(), str(tmp_path / "t"))
        power_file = tmp_path / "t" / "power.csv"
        header, *rows = power_file.read_text().splitlines()
        rows = [",".join(edit(row.split(","))) for row in rows]
        power_file.write_text("\n".join([header] + rows) + "\n")
        with pytest.raises(DataFormatError, match=f"power.csv:2: expected 4 cells, got {got}"):
            load_training(manifest)

    def test_c_reader_reads_grids_without_na_only(self, tmp_path, monkeypatch):
        calls = []
        loadtxt = np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda *a, **kw: calls.append(a) or loadtxt(*a, **kw))
        m = tiny_matrix()
        manifest = save_training(m, str(tmp_path / "t"))
        load_training(manifest)
        assert len(calls) == 2
        for grid in ("power.csv", "time.csv"):
            self._edit_cell(tmp_path / "t", grid, 2, 0, "NA")
        loaded = load_training(manifest)
        assert len(calls) == 2
        np.testing.assert_array_equal(loaded.power[0], m.power[0])

    def test_header_only_grids_load_without_warning(self, tmp_path):
        # loadtxt warns on input with no data; an empty body never reaches it
        manifest = save_training(tiny_matrix(), str(tmp_path / "t"))
        for grid in ("power.csv", "time.csv"):
            path = tmp_path / "t" / grid
            path.write_text(path.read_text().splitlines()[0] + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded = load_training(manifest)
        assert loaded.n_apps == 0 and loaded.power.shape == (0, 3)

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

    def test_crlf_and_padded_grid_loads_like_its_lf_twin(self, tmp_path):
        # lines are stripped like those of every other line-oriented file
        m = tiny_matrix()
        manifest = save_training(m, str(tmp_path / "t"))
        for grid in ("power.csv", "time.csv"):
            path = tmp_path / "t" / grid
            lines = path.read_text().splitlines()
            path.write_bytes("".join(f" {ln}\t \r\n" for ln in lines).encode())
        loaded = load_training(manifest)
        np.testing.assert_array_equal(loaded.power, m.power)
        np.testing.assert_array_equal(loaded.time, m.time)
        assert loaded.apps == m.apps

    def test_apps_file_round_trip(self, tmp_path):
        path = str(tmp_path / "apps.csv")
        save_applications(DEFAULT_APPLICATIONS, path)
        assert load_applications(path) == DEFAULT_APPLICATIONS

    def test_repeated_app_id_rejected(self, tmp_path):
        # one id names one application; load_training used to keep the last
        path = tmp_path / "apps.csv"
        save_applications([DEFAULT_APPLICATIONS[0], DEFAULT_APPLICATIONS[0],
                           DEFAULT_APPLICATIONS[1]], str(path))
        with pytest.raises(DataFormatError, match=re.escape(f"{path}:3: app_id 1 repeats line 2")):
            load_applications(str(path))

    def test_catalog_errors_name_file_lines_past_blank_ones(self, tmp_path):
        # blank lines are allowed, and skipped, but errors count them
        path = tmp_path / "apps.csv"
        save_applications(DEFAULT_APPLICATIONS[:2], str(path))
        header, first, second = path.read_text().splitlines()
        path.write_text(f"{header}\n\n{first}\n\n  \n{first}\n{second}\n")
        with pytest.raises(DataFormatError, match=re.escape(f"{path}:6: app_id 1 repeats line 3")):
            load_applications(str(path))
        path.write_text(f"{header}\n\n{first}\n{second.rsplit(',', 1)[0]}\n")
        with pytest.raises(DataFormatError, match=re.escape(f"{path}:4: expected 5 cells")):
            load_applications(str(path))

    def test_grid_errors_name_file_lines_past_blank_ones(self, tmp_path):
        m = tiny_matrix()
        manifest = save_training(m, str(tmp_path / "t"))
        power_file = tmp_path / "t" / "power.csv"
        header, first, second = power_file.read_text().splitlines()
        cells = second.split(",")
        cells[2] = "abc"
        power_file.write_text(f"\n{header}\n\n{first}\n \n\n{','.join(cells)}\n\n")
        message = f"power.csv:7: column {m.configs[1].config_id!r}: bad value 'abc'"
        with pytest.raises(DataFormatError, match=re.escape(message)):
            load_training(manifest)

    def test_repeated_grid_app_id_names_both_lines(self, tmp_path):
        m = tiny_matrix(n_apps=3)
        manifest = save_training(m, str(tmp_path / "t"))
        time_file = tmp_path / "t" / "time.csv"
        header, first, second, third = time_file.read_text().splitlines()
        repeat = ",".join(["1"] + third.split(",")[1:])
        time_file.write_text(f"{header}\n{first}\n\n{second}\n{repeat}\n")
        message = f"{time_file}:5: app_id 1 repeats line 2"
        with pytest.raises(DataFormatError, match=re.escape(message)):
            load_training(manifest)


    def test_non_finite_row_is_named_before_a_later_short_row(self, tmp_path):
        # each row is checked before the next is read, finiteness included
        m = tiny_matrix()
        manifest = save_training(m, str(tmp_path / "t"))
        self._edit_cell(tmp_path / "t", "power.csv", 1, 0, "inf")
        power_file = tmp_path / "t" / "power.csv"
        lines = power_file.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0]
        power_file.write_text("\n".join(lines) + "\n")
        message = f"power.csv:2: column {m.configs[0].config_id!r}: non-finite value"
        with pytest.raises(DataFormatError, match=re.escape(message)):
            load_training(manifest)

    def test_nan_token_beside_na_is_not_read_as_na(self, tmp_path):
        m = tiny_matrix()
        manifest = save_training(m, str(tmp_path / "t"))
        for grid in ("power.csv", "time.csv"):
            self._edit_cell(tmp_path / "t", grid, 1, 2, "NA")
        self._edit_cell(tmp_path / "t", "power.csv", 1, 0, "nan")
        message = f"power.csv:2: column {m.configs[0].config_id!r}: non-finite value"
        with pytest.raises(DataFormatError, match=re.escape(message)):
            load_training(manifest)

def reference_grid(path, columns):
    """A plain per-row, per-cell reading of a grid body: app ids and values,
    or the DataFormatError naming the first bad line."""
    with open(path) as fh:
        lines = [(r, ln.strip()) for r, ln in enumerate(fh, start=1) if ln.strip()]
    ids, rows = [], []
    for r, line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(columns) + 1:
            raise DataFormatError(f"{path}:{r}: expected {len(columns) + 1} cells, got {len(cells)}")
        try:
            app_id = int(cells[0])
        except ValueError:
            raise DataFormatError(f"{path}:{r}: bad app_id {cells[0]!r}") from None
        if app_id in ids:
            first = lines[1 + ids.index(app_id)][0]
            raise DataFormatError(f"{path}:{r}: app_id {app_id} repeats line {first}")
        ids.append(app_id)
        row = []
        for column, cell in zip(columns, cells[1:]):
            if cell == "NA":
                row.append(math.nan)
                continue
            try:
                value = float(cell)
            except ValueError:
                raise DataFormatError(f"{path}:{r}: column {column!r}: bad value {cell!r}") from None
            if not math.isfinite(value):
                raise DataFormatError(f"{path}:{r}: column {column!r}: non-finite value")
            row.append(value)
        rows.append(row)
    return ids, np.array(rows, dtype=float).reshape(len(rows), len(columns))


# tokens a corruption writes over a cell, some of which float() accepts,
# and whole-row edits; numpy's C reader refuses "1.5#2", "#" and '"1.5"'
# only because it is given no comment or quote character, and would read
# "1.5\x1c" as 1.5
BAD_TOKENS = ("abc", "", "nan", "inf", "-inf", "1e400", "NaN", "-NA", "1.2.3",
              "1_0", " 1.5", "\u0661\u0662", "NA ", "1,5", "1.5#2", "#", '"1.5"',
              "1.5\x1c")
ROW_EDITS = ("short", "long", "bad-id", "fractional-id", "pad", "repeat-id")


@st.composite
def corrupted_grids(draw):
    """A CPU-only system and its power and time grids as rows of cells, NA
    at the same cells of both, then zero, one or two corruptions; and the
    body rows each grid has a blank line before (the row count for one
    after the last).  Only some rows hold NA cells."""
    cores, n_freq, ctl = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 2))
    spec = PlatformSpec("gen-cpu", PlatformKind.CPU, cores, 10.0, 20.0, ctl,
                        (1.0, 1.5, 2.0)[:n_freq], 1.0)
    n_cfg = cores * n_freq * ctl
    ids = draw(st.lists(st.integers(1, 500), max_size=5, unique=True))
    # every positive finite double, subnormals included
    positive = st.floats(5e-324, 1.7e308, allow_nan=False, allow_infinity=False)
    grids = {"power.csv": [], "time.csv": []}
    for app_id in ids:
        missing = draw(st.lists(st.booleans(), min_size=n_cfg, max_size=n_cfg)
                       if draw(st.booleans()) else st.just([False] * n_cfg))
        for rows in grids.values():
            values = draw(st.lists(positive, min_size=n_cfg, max_size=n_cfg))
            rows.append([str(app_id)] + ["NA" if m else repr(v) for m, v in zip(missing, values)])
    n_corruptions = draw(st.integers(0, 2)) if ids else 0
    for _ in range(n_corruptions):
        row = draw(st.integers(0, len(ids) - 1))
        cells = grids[draw(st.sampled_from(sorted(grids)))][row]
        edit = draw(st.sampled_from(BAD_TOKENS + ROW_EDITS))
        at = draw(st.integers(1, max(len(cells) - 1, 1))) % len(cells)
        if edit == "short":
            cells.pop()
        elif edit == "long":
            cells.append("1.0")
        elif edit == "bad-id":
            cells[0] = "x7"
        elif edit == "fractional-id":
            cells[0] = "1.5"
        elif edit == "pad":
            cells[at] = f" {cells[at]}  "
        elif edit == "repeat-id":
            cells[0] = str(ids[row - 1])   # the previous row's, or its own if alone
        else:
            cells[at] = edit
    blank_before = draw(st.lists(st.integers(0, len(ids)), max_size=3))
    return (spec,), grids, blank_before


# two repeat-id edits that swap the power grid's ids: each grid is valid alone
SWAPPED_IDS = (
    (PlatformSpec("gen-cpu", PlatformKind.CPU, 1, 10.0, 20.0, 1, (1.0,), 1.0),),
    {"power.csv": [["2", "1.0"], ["1", "1.0"]], "time.csv": [["1", "1.0"], ["2", "1.0"]]},
    [],
)


class TestGridParseProperty:
    @settings(max_examples=150, deadline=None)
    @given(corrupted_grids())
    @example(SWAPPED_IDS)
    def test_load_matches_per_row_reference(self, case):
        system, grids, blank_before = case
        columns = [c.config_id for c in enumerate_configs(system)]
        with tempfile.TemporaryDirectory() as d:
            save_system(system, os.path.join(d, "system.conf"))
            for name, rows in grids.items():
                with open(os.path.join(d, name), "w") as fh:
                    fh.write("app_id," + ",".join(columns) + "\n")
                    for r, cells in enumerate(rows + [None]):
                        fh.write("\n" * blank_before.count(r))
                        if cells is not None:
                            fh.write(",".join(cells) + "\n")
            manifest = os.path.join(d, "manifest.conf")
            with open(manifest, "w") as fh:
                fh.write("[training]\npower = power.csv\ntime = time.csv\n"
                         "platforms = system.conf\n")
            try:
                ids, power = reference_grid(os.path.join(d, "power.csv"), columns)
                time_ids, time = reference_grid(os.path.join(d, "time.csv"), columns)
                if time_ids != ids:
                    raise DataFormatError(f"{manifest}: power/time grids disagree on app ids")
            except DataFormatError as exc:
                with pytest.raises(DataFormatError) as got:
                    load_training(manifest)
                assert str(got.value) == str(exc)
                return
            one_grid = np.isnan(power) != np.isnan(time)
            if one_grid.any():   # a token float() reads, written over an NA of one grid
                i, j = np.argwhere(one_grid)[0]
                message = f"cell unmeasured in only one grid at app {ids[i]}, config {columns[j]}"
                with pytest.raises(DataFormatError, match=re.escape(message)):
                    load_training(manifest)
                return
            loaded = load_training(manifest)
            assert [a.app_id for a in loaded.apps] == ids
            np.testing.assert_array_equal(loaded.power, power)
            np.testing.assert_array_equal(loaded.time, time)


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
        # the 0.99 quantile of chi-square with n_configs - 1 = 39 degrees of
        # freedom, scipy.stats.chi2.ppf(0.99, df=39)
        threshold = 62.4281210161849
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

    def test_repeated_config_rejected(self):
        # a sample set holds one measurement per configuration, however
        # it is built; a repeated plan is caught when masking builds one
        m = tiny_matrix()
        with pytest.raises(ValueError, match="config_indices must be distinct"):
            SampleSet(99, (0, 2, 0), np.ones(3), np.ones(3))
        with pytest.raises(ValueError, match="config_indices must be distinct"):
            mask_application(m, 1, SamplePlan(1, (2, 2)))

    def test_unknown_app_rejected(self):
        m = tiny_matrix()
        with pytest.raises(KeyError):
            mask_application(m, 99, select_samples(3, 1, 0, 99))

    @pytest.mark.parametrize("field", ["power", "time"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_rejected_by_name(self, field, value):
        # NaN <= 0 is False, so a positivity check alone lets NaN through
        # to the regression and EM
        arrays = {"power": np.ones(3), "time": np.ones(3)}
        arrays[field][1] = value
        with pytest.raises(ValueError, match=f"^sample {field} must be finite, got {value!r}$"):
            SampleSet(99, (0, 1, 2), **arrays)
