import configparser
import dataclasses
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import heterotune
from heterotune import cli
from heterotune.backends import (
    WORKGROUP_ENV_VAR,
    ExecutableDescriptor,
    SimulatedBackend,
    build_environment,
)
from heterotune.cli import (
    COMMANDS,
    EXIT_BACKEND,
    EXIT_ESTIMATOR,
    EXIT_OK,
    EXIT_PARSE,
    _require_training,
    build_parser,
    main,
)
from heterotune.dataset import load_training, save_training
from heterotune.errors import BackendError
from heterotune.evaluation import brute_force_best, measured_energy_row
from heterotune.platforms import NativeConfig, PlatformKind, save_system
from heterotune.synthetic import CI_SYSTEM, PROFILES, SyntheticSpec, generate_system


# argument lists whose parse ends in help or an error, for the CLI text test
CLI_TEXT_CASES = {
    "no arguments": [],
    "unknown command": ["bogus", "--training", "t.conf"],
    "unknown flag": ["predict", "--training", "t.conf", "--sample", "s.csv", "--bogus"],
    "missing required flag": ["predict", "--sample", "s.csv"],
    "extra positional": ["evaluate", "--training", "t.conf", "extra"],
    "bare manifest": ["predict", "--manifest"],
    **{f"{name} --help": [name, "--help"] for name in COMMANDS},
}


@pytest.fixture(scope="module")
def training_dir(tmp_path_factory):
    """Benchmarked CI-profile training set shared across CLI tests."""
    out = tmp_path_factory.mktemp("training")
    rc = main(["benchmark", "--profile", "ci", "--seed", "3", "--out", str(out)])
    assert rc == EXIT_OK
    return out


def with_unmeasured_cells(training_dir, out, cells):
    """A copy of a training set with the (app_id, column) cells set to NA in
    both grids, as a failed backend run leaves them; returns its manifest."""
    shutil.copytree(training_dir, out)
    for grid in ("power.csv", "time.csv"):
        path = out / grid
        lines = [ln.split(",") for ln in path.read_text().splitlines()]
        for app_id, j in cells:
            row = next(r for r in lines[1:] if r[0] == str(app_id))
            row[j + 1] = "NA"
        path.write_text("\n".join(",".join(r) for r in lines) + "\n")
    return str(out / "manifest.conf")


def with_apps(training_dir, out, app_ids):
    """A copy of a training set keeping only the grid rows of ``app_ids``;
    returns its manifest."""
    shutil.copytree(training_dir, out)
    for grid in ("power.csv", "time.csv"):
        path = out / grid
        lines = path.read_text().splitlines()
        kept = [ln for ln in lines[1:] if int(ln.split(",")[0]) in app_ids]
        path.write_text("\n".join(lines[:1] + kept) + "\n")
    return str(out / "manifest.conf")


def count_runs(monkeypatch):
    """Count SimulatedBackend runs from here on; returns the counter."""
    calls = {"n": 0}
    orig = SimulatedBackend.run

    def counting(self, descriptor, config):
        calls["n"] += 1
        return orig(self, descriptor, config)

    monkeypatch.setattr(SimulatedBackend, "run", counting)
    return calls


def manifest_keys(path):
    parser = configparser.ConfigParser()
    parser.read(path)
    return set(parser["training"])


def benchmark_small_system(tmp_path):
    """Benchmark 2 apps on a 2-CPU + 3-GPU-configuration system; returns
    main's exit code and the output directory."""
    from conftest import tiny_system
    from heterotune.dataset import DEFAULT_APPLICATIONS, save_applications
    from heterotune.platforms import PlatformSpec

    cpu, _ = tiny_system()
    gpu = PlatformSpec(
        name="tiny-gpu", kind=PlatformKind.GPU, total_cores=2, peak_gflops=4.8,
        peak_bandwidth=17.0, mem_controllers=1, frequencies=(1.2,),
        static_power=0.01, workgroup_sizes=(1, 2, 4),
    )
    sys_file = tmp_path / "system.conf"
    save_system((cpu, gpu), str(sys_file))
    apps_file = tmp_path / "apps.csv"
    save_applications(DEFAULT_APPLICATIONS[:2], str(apps_file))
    out = tmp_path / "out"
    rc = main([
        "benchmark", "--system", str(sys_file), "--apps", str(apps_file),
        "--seed", "1", "--out", str(out), "--profile", "ci",
    ])
    return rc, out


class TestBenchmark:
    def test_small_custom_system(self, tmp_path):
        # 2 apps x (2 CPU + 3 GPU) = 10 cells
        rc, out = benchmark_small_system(tmp_path)
        assert rc == EXIT_OK
        m = load_training(str(out / "manifest.conf"))
        assert (m.n_apps, m.n_configs) == (2, 5)
        assert int(m.mask.sum()) == 10

    def test_rerun_same_seed_identical_files(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["benchmark", "--profile", "ci", "--seed", "7", "--out", str(out)]) == EXIT_OK
            outs.append(out)
        for fname in ("power.csv", "time.csv", "system.conf", "manifest.conf"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_grids_equal_the_generated_system(self, training_dir):
        # each cell is written as the backend measured it, bit for bit
        m = load_training(str(training_dir / "manifest.conf"))
        truth = generate_system(dataclasses.replace(PROFILES["ci"], seed=3)).matrix
        np.testing.assert_array_equal(m.power, truth.power)
        np.testing.assert_array_equal(m.time, truth.time)

    def test_seed_recorded_only_for_a_generated_system(self, training_dir, tmp_path):
        assert "seed" in manifest_keys(training_dir / "manifest.conf")
        out = tmp_path / "copy"
        assert main(["benchmark", "--backend-data", str(training_dir / "manifest.conf"),
                     "--out", str(out)]) == EXIT_OK
        assert "seed" not in manifest_keys(out / "manifest.conf")

    def test_backend_failures_leave_missing_cells(self, tmp_path, monkeypatch):
        flaky_cfg = {"count": 0}
        orig_run = SimulatedBackend.run

        def flaky_run(self, descriptor, config):
            if config.cores == 1 and config.kind is PlatformKind.CPU:
                raise BackendError("meter glitch")
            return orig_run(self, descriptor, config)

        monkeypatch.setattr(SimulatedBackend, "run", flaky_run)
        out = tmp_path / "flaky"
        rc = main(["benchmark", "--profile", "ci", "--seed", "2", "--out", str(out)])
        assert rc == EXIT_OK
        m = load_training(str(out / "manifest.conf"))
        one_core = [j for j, c in enumerate(m.configs)
                    if c.kind is PlatformKind.CPU and c.cores == 1]
        assert (~m.mask[:, one_core]).all()
        other = [j for j in range(m.n_configs) if j not in one_core]
        assert m.mask[:, other].all()

    def test_one_application_catalog_rejected(self, tmp_path, monkeypatch, capsys):
        # a generated system needs two applications; one would end in a
        # SyntheticSpec traceback
        from heterotune.dataset import DEFAULT_APPLICATIONS, save_applications

        apps_file = tmp_path / "one.csv"
        save_applications(DEFAULT_APPLICATIONS[:1], str(apps_file))
        calls = count_runs(monkeypatch)
        out = tmp_path / "out"
        assert main(["benchmark", "--profile", "ci", "--apps", str(apps_file),
                     "--out", str(out)]) == EXIT_PARSE
        assert f"--apps {apps_file}: " in capsys.readouterr().err
        assert calls["n"] == 0
        assert not out.exists()

    def test_repeated_catalog_id_rejected_before_any_run(self, tmp_path, monkeypatch, capsys):
        # ids 1, 1, 2 used to measure every cell and then fail building the matrix
        from heterotune.dataset import DEFAULT_APPLICATIONS, save_applications

        apps_file = tmp_path / "apps.csv"
        first, second = DEFAULT_APPLICATIONS[:2]
        save_applications([first, first, second], str(apps_file))
        calls = count_runs(monkeypatch)
        out = tmp_path / "out"
        assert main(["benchmark", "--profile", "ci", "--apps", str(apps_file),
                     "--out", str(out)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert f"{apps_file}:3: app_id 1 repeats line 2" in err
        assert "Traceback" not in err
        assert calls["n"] == 0
        assert not out.exists()

    def test_gpu_configs_run_with_workgroup_env(self, tmp_path, monkeypatch):
        # as for sample and run, each GPU run carries its workgroup size
        seen = []
        orig = SimulatedBackend.run

        def recording(self, descriptor, config):
            seen.append((config, dict(descriptor.env)))
            return orig(self, descriptor, config)

        monkeypatch.setattr(SimulatedBackend, "run", recording)
        assert main(["benchmark", "--profile", "ci", "--out", str(tmp_path / "b")]) == EXIT_OK
        profile = PROFILES["ci"]
        assert len(seen) == profile.n_apps * sum(len(p.native_settings) for p in profile.platforms)
        gpu = [(cfg, env) for cfg, env in seen if cfg.kind is PlatformKind.GPU]
        assert gpu and all(env == {WORKGROUP_ENV_VAR: str(cfg.workgroup_size)}
                           for cfg, env in gpu)
        assert not any(WORKGROUP_ENV_VAR in env for cfg, env in seen
                       if cfg.kind is PlatformKind.CPU)

    @pytest.mark.parametrize("backing, ids, unknown", [
        (False, (5, 9), "[5, 9]"),
        (True, (5, 9), "[9]"),
    ], ids=["generated", "backing-matrix"])
    def test_catalog_ids_the_backend_lacks_rejected(self, training_dir, tmp_path, monkeypatch,
                                                    capsys, backing, ids, unknown):
        # the generated ci system has apps 1..n, the backing matrix apps 1..6:
        # a catalog id outside them would leave an all-NA row
        from heterotune.dataset import ApplicationMeta, PerfLimit, save_applications

        apps_file = tmp_path / "apps.csv"
        save_applications([ApplicationMeta(i, "b", "in", "spectral", PerfLimit.MIXED)
                           for i in ids], str(apps_file))
        source = (["--backend-data", str(training_dir / "manifest.conf")] if backing
                  else ["--profile", "ci"])
        calls = count_runs(monkeypatch)
        out = tmp_path / "out"
        assert main(["benchmark", *source, "--apps", str(apps_file),
                     "--out", str(out)]) == EXIT_PARSE
        assert f"no application with id {unknown}" in capsys.readouterr().err
        assert calls["n"] == 0
        assert not out.exists()
        save_applications([ApplicationMeta(i, "b", "in", "spectral", PerfLimit.MIXED)
                           for i in (5, 6)], str(apps_file))
        if backing:   # the backing matrix's own ids are measured
            assert main(["benchmark", *source, "--apps", str(apps_file),
                         "--out", str(out)]) == EXIT_OK
            assert load_training(str(out / "manifest.conf")).fully_observed


class TestSample:
    def test_default_sample_count_is_fifteen(self, training_dir, tmp_path):
        out = tmp_path / "s.csv"
        rc = main([
            "sample", "--profile", "ci", "--backend-data", str(training_dir / "manifest.conf"),
            "--cpu-cmd", "app:2", "--gpu-cmd", "app:2", "--seed", "5", "--out", str(out),
        ])
        assert rc == EXIT_OK
        rows = [ln for ln in out.read_text().splitlines() if ln and not ln.startswith("#")]
        assert len(rows) - 1 == 15  # header + 15 samples

    def test_insufficient_n_rejected_before_any_run(self, training_dir, tmp_path, monkeypatch):
        calls = count_runs(monkeypatch)
        out = tmp_path / "s.csv"
        rc = main([
            "sample", "--profile", "ci", "--backend-data", str(training_dir / "manifest.conf"),
            "--cpu-cmd", "app:2", "--gpu-cmd", "app:2", "--samples", "5", "--out", str(out),
        ])
        assert rc == EXIT_PARSE
        assert calls["n"] == 0
        assert not out.exists()

    def test_backend_data_defines_the_system(self, training_dir, tmp_path):
        # no --profile: the configurations come from the backing matrix
        out = tmp_path / "s.csv"
        rc = main([
            "sample", "--backend-data", str(training_dir / "manifest.conf"),
            "--cpu-cmd", "app:1", "--gpu-cmd", "app:1", "--out", str(out),
        ])
        assert rc == EXIT_OK
        assert all(ln.startswith("ci-") for ln in out.read_text().splitlines()[3:])

    def test_flags_contradicting_backend_data_rejected(self, training_dir, tmp_path):
        full_system = tmp_path / "full.conf"
        save_system(PROFILES["full"].platforms, str(full_system))
        out = tmp_path / "s.csv"
        argv = ["sample", "--backend-data", str(training_dir / "manifest.conf"),
                "--cpu-cmd", "app:1", "--gpu-cmd", "app:1", "--out", str(out)]
        for extra in (["--profile", "full"], ["--system", str(full_system)], ["--noise", "0.1"]):
            assert main(argv + extra) == EXIT_PARSE
        assert not out.exists()

    def test_missing_out_rejected_before_any_run(self, training_dir, monkeypatch):
        calls = count_runs(monkeypatch)
        assert main(["benchmark", "--profile", "ci"]) == EXIT_PARSE
        assert main(["sample", "--backend-data", str(training_dir / "manifest.conf"),
                     "--cpu-cmd", "app:1", "--gpu-cmd", "app:1"]) == EXIT_PARSE
        assert calls["n"] == 0

    def test_mixed_applications_rejected(self, training_dir, tmp_path, capsys):
        # CPU configurations run app 1 and GPU ones app 2: no file may claim either
        out = tmp_path / "s.csv"
        rc = main([
            "sample", "--backend-data", str(training_dir / "manifest.conf"),
            "--cpu-cmd", "app:1", "--gpu-cmd", "app:2", "--out", str(out),
        ])
        assert rc == EXIT_PARSE
        assert "applications [1, 2]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed", [0, 1, 2, 4, 5])
    def test_missing_platform_command_rejected_before_any_run(self, training_dir, tmp_path,
                                                              monkeypatch, capsys, seed):
        # each of these seeds draws GPU configurations into the plan
        calls = count_runs(monkeypatch)
        out = tmp_path / "s.csv"
        rc = main(["sample", "--backend-data", str(training_dir / "manifest.conf"),
                   "--cpu-cmd", "app:1", "--seed", str(seed), "--out", str(out)])
        assert rc == EXIT_PARSE
        assert "needs --gpu-cmd" in capsys.readouterr().err
        assert calls["n"] == 0
        assert not out.exists()

    def test_plan_on_one_platform_needs_only_its_command(self, training_dir, tmp_path):
        # seed 3 draws no GPU configuration
        out = tmp_path / "s.csv"
        assert main(["sample", "--backend-data", str(training_dir / "manifest.conf"),
                     "--cpu-cmd", "app:1", "--seed", "3", "--out", str(out)]) == EXIT_OK
        assert all(ln.startswith("ci-cpu:") for ln in out.read_text().splitlines()[3:])

    def test_same_seed_same_plan(self, training_dir, tmp_path):
        files = []
        for name in ("x.csv", "y.csv"):
            out = tmp_path / name
            rc = main([
                "sample", "--profile", "ci", "--backend-data", str(training_dir / "manifest.conf"),
                "--cpu-cmd", "app:3", "--gpu-cmd", "app:3", "--seed", "11", "--out", str(out),
            ])
            assert rc == EXIT_OK
            files.append(out.read_bytes())
        assert files[0] == files[1]


class TestPredict:
    def test_fully_sampled_matches_brute_force(self, training_dir, tmp_path, capsys):
        matrix = load_training(str(training_dir / "manifest.conf"))
        out = tmp_path / "full.csv"
        rc = main([
            "sample", "--profile", "ci", "--backend-data", str(training_dir / "manifest.conf"),
            "--cpu-cmd", "app:4", "--gpu-cmd", "app:4", "--samples", str(matrix.n_configs),
            "--seed", "1", "--out", str(out),
        ])
        assert rc == EXIT_OK
        rc = main(["predict", "--training", str(training_dir / "manifest.conf"),
                   "--sample", str(out), "--out", str(tmp_path / "pred")])
        assert rc == EXIT_OK
        printed = capsys.readouterr().out
        chosen, _ = brute_force_best(matrix, 4)
        assert f"chosen: {matrix.configs[chosen].config_id}" in printed
        assert (tmp_path / "pred" / "estimates.csv").exists()

    def test_unknown_app_uses_unmasked_training(self, training_dir, tmp_path, capsys):
        # an app id absent from the matrix is a genuinely new application:
        # prediction proceeds against all training rows
        matrix = load_training(str(training_dir / "manifest.conf"))
        out = tmp_path / "new.csv"
        lines = ["# app_id = 99", "# seed = 0", "config_id,power,time"]
        for j in range(0, 30, 2):
            cfg = matrix.configs[j]
            lines.append(
                f"{cfg.config_id},{float(matrix.power[0, j] * 1.07)!r},"
                f"{float(matrix.time[0, j] * 0.93)!r}"
            )
        out.write_text("\n".join(lines) + "\n")
        rc = main(["predict", "--training", str(training_dir / "manifest.conf"),
                   "--sample", str(out)])
        assert rc == EXIT_OK
        assert "chosen:" in capsys.readouterr().out

    def test_malformed_sample_file_exits_parse(self, training_dir, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,sample,file\n1,2,3,4\n")
        rc = main(["predict", "--training", str(training_dir / "manifest.conf"),
                   "--sample", str(bad)])
        assert rc == EXIT_PARSE

    @pytest.mark.parametrize("edit", ["none", "drop", "rename", "repeat", "extra"])
    def test_sample_header_gives_each_key_once(self, training_dir, tmp_path, capsys, edit):
        # without its app_id a file would load as some default application;
        # a known one would then train on the target's own measured row
        manifest = str(training_dir / "manifest.conf")
        sample = tmp_path / "s.csv"
        assert main(["sample", "--backend-data", manifest, "--cpu-cmd", "app:2",
                     "--gpu-cmd", "app:2", "--seed", "4", "--out", str(sample)]) == EXIT_OK
        lines = sample.read_text().splitlines()
        assert lines[:2] == ["# app_id = 2", "# seed = 4"]
        lines = {
            "none": lines,
            "drop": lines[1:],
            "rename": ["# appid = 2"] + lines[1:],
            "repeat": lines[:1] + lines,
            "extra": lines[:2] + ["# foo = 1"] + lines[2:],
        }[edit]
        sample.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        rc = main(["predict", "--training", manifest, "--sample", str(sample)])
        if edit == "none":
            assert rc == EXIT_OK
        else:
            assert rc == EXIT_PARSE
            assert f"error: {sample}: " in capsys.readouterr().err

    def test_known_app_uses_the_files_measurements(self, training_dir, tmp_path):
        # sampled cells come from the sample file, not from the matrix row
        manifest = str(training_dir / "manifest.conf")
        sample = tmp_path / "s.csv"
        assert main(["sample", "--backend-data", manifest, "--cpu-cmd", "app:2",
                     "--gpu-cmd", "app:2", "--seed", "4", "--out", str(sample)]) == EXIT_OK
        lines = sample.read_text().splitlines()
        measured = {}
        for k, line in enumerate(lines[3:], start=3):
            config_id, power, time = line.split(",")
            measured[config_id] = (float(power), float(time) * 1.5)
            lines[k] = f"{config_id},{power},{float(time) * 1.5!r}"
        sample.write_text("\n".join(lines) + "\n")
        out = tmp_path / "pred"
        assert main(["predict", "--training", manifest, "--sample", str(sample),
                     "--out", str(out)]) == EXIT_OK
        rows = [ln.split(",") for ln in (out / "estimates.csv").read_text().splitlines()[1:]]
        sampled = {r[0]: (float(r[1]), float(r[2])) for r in rows if r[4] == "observed-sample"}
        assert sampled == measured

    @pytest.mark.parametrize("app_id, row, what", [
        (2, "{cfg0},100.0,1.0", "listed twice"),
        (99, "{cfg1},100.0,0.0", "non-positive time"),
        (2, "{cfg1},-1.0,1.0", "non-positive power"),
        (2, "{cfg1},0.0,1.0", "non-positive power"),
        (2, "{cfg1},inf,1.0", "non-finite"),
        (99, "{cfg1},100.0,nan", "non-finite"),
    ], ids=["duplicate", "zero-time-new-app", "negative-power", "zero-power", "inf-power",
            "nan-time-new-app"])
    def test_bad_sample_values_exit_parse(self, training_dir, tmp_path, capsys,
                                          app_id, row, what):
        matrix = load_training(str(training_dir / "manifest.conf"))
        cfg = [c.config_id for c in matrix.configs]
        lines = ["# app_id = %d" % app_id, "# seed = 0", "config_id,power,time"]
        lines += [f"{cfg[j]},{float(matrix.power[1, j])!r},{float(matrix.time[1, j])!r}"
                  for j in range(0, 30, 2)]
        lines.append(row.format(cfg0=cfg[0], cfg1=cfg[1]))
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        rc = main(["predict", "--training", str(training_dir / "manifest.conf"),
                   "--sample", str(bad)])
        assert rc == EXIT_PARSE
        err = capsys.readouterr().err
        assert f"{bad}: row 16: " in err and what in err

    def test_unmeasured_training_cell_exits_parse(self, training_dir, tmp_path, capsys):
        # the first unmeasured cell the estimator would read is named; the
        # known app's own row is masked out, so a gap there does not count
        sample = tmp_path / "s.csv"
        assert main(["sample", "--backend-data", str(training_dir / "manifest.conf"),
                     "--cpu-cmd", "app:2", "--gpu-cmd", "app:2", "--seed", "4",
                     "--out", str(sample)]) == EXIT_OK
        matrix = load_training(str(training_dir / "manifest.conf"))
        sampled = {ln.split(",")[0] for ln in sample.read_text().splitlines()[3:]}
        j = next(j for j, c in enumerate(matrix.configs) if c.config_id not in sampled)
        manifest = with_unmeasured_cells(training_dir, tmp_path / "gap", [(3, j), (2, j)])
        rc = main(["predict", "--training", manifest, "--sample", str(sample)])
        assert rc == EXIT_PARSE
        err = capsys.readouterr().err
        assert f"{manifest}: unmeasured cell at app 3, config {matrix.configs[j].config_id}" in err
        own_row = with_unmeasured_cells(training_dir, tmp_path / "own", [(2, j)])
        assert main(["predict", "--training", own_row, "--sample", str(sample)]) == EXIT_OK

    def test_no_training_row_besides_the_target_exits_parse(self, training_dir, tmp_path,
                                                             capsys):
        # header-only grids, or a set whose only row is the sample's own
        # application, leave the estimator nothing to train on
        sample = tmp_path / "s.csv"
        assert main(["sample", "--backend-data", str(training_dir / "manifest.conf"),
                     "--cpu-cmd", "app:2", "--gpu-cmd", "app:2", "--seed", "4",
                     "--out", str(sample)]) == EXIT_OK
        for name, app_ids in (("none", ()), ("own", (2,))):
            manifest = with_apps(training_dir, tmp_path / name, app_ids)
            capsys.readouterr()
            rc = main(["predict", "--training", manifest, "--sample", str(sample)])
            assert rc == EXIT_PARSE
            err = capsys.readouterr().err
            assert err == f"error: {manifest}: no training row besides the target application 2\n"
        # one other row is enough
        other = with_apps(training_dir, tmp_path / "other", (3,))
        _require_training(load_training(other), other, skip_app=2)

    def test_too_few_samples_exits_estimator(self, training_dir, tmp_path):
        matrix = load_training(str(training_dir / "manifest.conf"))
        few = tmp_path / "few.csv"
        lines = ["# app_id = 2", "# seed = 0", "config_id,power,time"]
        for j in range(9):  # below the 10-sample estimator minimum
            cfg = matrix.configs[j]
            lines.append(
                f"{cfg.config_id},{float(matrix.power[1, j])!r},{float(matrix.time[1, j])!r}"
            )
        few.write_text("\n".join(lines) + "\n")
        rc = main(["predict", "--training", str(training_dir / "manifest.conf"),
                   "--sample", str(few)])
        assert rc == EXIT_ESTIMATOR


class TestRun:
    def test_returns_matrix_cell(self, training_dir, capsys):
        matrix = load_training(str(training_dir / "manifest.conf"))
        cfg = matrix.configs[0]
        rc = main([
            "run", "--profile", "ci", "--backend-data", str(training_dir / "manifest.conf"),
            "--config", cfg.config_id, "--cpu-cmd", "app:1", "--gpu-cmd", "app:1",
        ])
        assert rc == EXIT_OK
        printed = capsys.readouterr().out
        assert f"config: {cfg.config_id}" in printed
        # whole-system energy, static draw included, as predict estimates it
        expected = measured_energy_row(matrix, 1)[0]
        assert f"measured energy: {expected:.3f} mJ\n" in printed

    def test_measured_whole_system_energy_as_prediction_has_zero_delta(self, training_dir,
                                                                        capsys):
        manifest = str(training_dir / "manifest.conf")
        matrix = load_training(manifest)
        j = next(j for j, c in enumerate(matrix.configs) if c.kind is PlatformKind.GPU)
        energy = measured_energy_row(matrix, 2)[j]
        rc = main(["run", "--backend-data", manifest, "--config", matrix.configs[j].config_id,
                   "--cpu-cmd", "app:2", "--gpu-cmd", "app:2",
                   "--predicted-energy", repr(float(energy))])
        assert rc == EXIT_OK
        assert "(delta +0.000 mJ, +0.00%)" in capsys.readouterr().out

    def test_unknown_config_rejected(self, training_dir):
        rc = main([
            "run", "--profile", "ci", "--backend-data", str(training_dir / "manifest.conf"),
            "--config", "no-such:c1:f1.0:m1", "--cpu-cmd", "app:1", "--gpu-cmd", "app:1",
        ])
        assert rc == EXIT_PARSE

    def test_gpu_config_sets_workgroup_env(self, training_dir, monkeypatch):
        seen = {}
        orig = SimulatedBackend.run

        def recording(self, descriptor, config):
            seen["env"] = dict(descriptor.env)
            return orig(self, descriptor, config)

        monkeypatch.setattr(SimulatedBackend, "run", recording)
        matrix = load_training(str(training_dir / "manifest.conf"))
        gpu_cfg = next(c for c in matrix.configs if c.kind is PlatformKind.GPU)
        rc = main([
            "run", "--profile", "ci", "--backend-data", str(training_dir / "manifest.conf"),
            "--config", gpu_cfg.config_id, "--cpu-cmd", "app:1", "--gpu-cmd", "app:1",
        ])
        assert rc == EXIT_OK
        assert seen["env"][WORKGROUP_ENV_VAR] == str(gpu_cfg.workgroup_size)

    def test_seed_rejected_with_backend_data(self, training_dir, tmp_path, monkeypatch):
        # with a backing matrix nothing is generated, so a seed cannot act
        calls = count_runs(monkeypatch)
        manifest = str(training_dir / "manifest.conf")
        cfg = load_training(manifest).configs[0].config_id
        run = ["run", "--backend-data", manifest, "--config", cfg,
               "--cpu-cmd", "app:1", "--gpu-cmd", "app:1"]
        bench = ["benchmark", "--backend-data", manifest, "--out", str(tmp_path / "b")]
        for argv in (run, bench):
            assert main(argv + ["--seed", "5"]) == EXIT_PARSE
            assert calls["n"] == 0
            assert main(argv) == EXIT_OK
            calls["n"] = 0

    @pytest.mark.parametrize("config, given, missing", [
        ("ci-gpu:w8:f1.73:m2", "--cpu-cmd", "--gpu-cmd"),
        ("ci-cpu:c1:f1.2:m1", "--gpu-cmd", "--cpu-cmd"),
    ], ids=["gpu-config", "cpu-config"])
    def test_missing_platform_command_rejected_before_the_run(self, training_dir, monkeypatch,
                                                              capsys, config, given, missing):
        calls = count_runs(monkeypatch)
        rc = main(["run", "--backend-data", str(training_dir / "manifest.conf"),
                   "--config", config, given, "app:1"])
        assert rc == EXIT_PARSE
        assert f"configuration {config} needs {missing}" in capsys.readouterr().err
        assert calls["n"] == 0

    def test_cpu_config_does_not_set_workgroup_env(self):
        desc = ExecutableDescriptor(commands={"c": "app:1"})
        cfg = NativeConfig("c", PlatformKind.CPU, 2, 1.0, 1)
        assert WORKGROUP_ENV_VAR not in build_environment(desc, cfg)


class TestEvaluateCommand:
    def test_writes_report(self, training_dir, tmp_path, capsys):
        out = tmp_path / "eval"
        rc = main([
            "evaluate", "--training", str(training_dir / "manifest.conf"),
            "--trials", "1", "--seed", "4", "--out", str(out),
        ])
        assert rc == EXIT_OK
        printed = capsys.readouterr().out
        assert "17%" in printed
        assert (out / "report.csv").exists()
        assert (out / "gap_by_app.csv").exists()

    @pytest.mark.parametrize("source", ["argv", "manifest"])
    def test_samples_without_holistic_rejected(self, training_dir, tmp_path, capsys, source):
        # --samples sets only the holistic budget; the baselines' counts are fixed
        argv = ["evaluate", "--training", str(training_dir / "manifest.conf"),
                "--approaches", "cpu-only"]
        if source == "argv":
            argv += ["--samples", "3"]
        else:
            run_conf = tmp_path / "run.conf"
            run_conf.write_text("samples = 3\n")
            argv += ["--manifest", str(run_conf)]
        assert main(argv) == EXIT_PARSE
        err = capsys.readouterr().err
        assert "--samples sets the holistic budget" in err
        assert main(argv[:-2] + ["--approaches", "cpu-only,holistic", *argv[-2:]]) == EXIT_PARSE
        assert "holistic: 3 samples must lie between" in capsys.readouterr().err

    def test_holistic_budget_defaults_to_fifteen(self, training_dir, tmp_path):
        out = tmp_path / "eval"
        assert main(["evaluate", "--training", str(training_dir / "manifest.conf"),
                     "--approaches", "holistic,cpu-only", "--out", str(out)]) == EXIT_OK
        rows = [row.split(",") for row in (out / "report.csv").read_text().splitlines()[1:]]
        assert {row[-1] for row in rows if row[2] == "holistic"} == {"15"}

    def test_two_applications(self, training_dir, tmp_path, capsys):
        # each held-out fit has one training row; pytest turns any numpy
        # warning of the estimator into an error
        manifest = with_apps(training_dir, tmp_path / "two", (1, 2))
        assert main(["evaluate", "--training", manifest, "--seed", "0"]) == EXIT_OK
        assert "holistic" in capsys.readouterr().out

    def test_unmeasured_training_cell_exits_parse(self, training_dir, tmp_path, capsys):
        matrix = load_training(str(training_dir / "manifest.conf"))
        manifest = with_unmeasured_cells(training_dir, tmp_path / "gap", [(5, 7), (4, 9)])
        assert main(["evaluate", "--training", manifest]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert f"{manifest}: unmeasured cell at app 4, config {matrix.configs[9].config_id}" in err

    def test_baseline_the_system_cannot_sample_exits_parse(self, tmp_path, capsys):
        # the CPU-only baseline draws 15 samples; this CPU has 2 configurations
        rc, out = benchmark_small_system(tmp_path)
        assert rc == EXIT_OK
        capsys.readouterr()
        argv = ["evaluate", "--training", str(out / "manifest.conf"), "--approaches"]
        assert main(argv + ["cpu-only"]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert "cpu-only: 15 samples must lie between the estimator minimum 10 and " \
               "the 2 configurations" in err
        assert "Traceback" not in err
        assert main(argv + ["gpu-only,brute-force"]) == EXIT_OK

    def test_fewer_than_two_applications_exits_parse(self, training_dir, tmp_path, capsys):
        # each application is predicted from the others
        for name, app_ids in (("none", ()), ("one", (2,))):
            manifest = with_apps(training_dir, tmp_path / name, app_ids)
            capsys.readouterr()
            assert main(["evaluate", "--training", manifest]) == EXIT_PARSE
            err = capsys.readouterr().err
            assert err == (f"error: {manifest}: evaluate needs at least 2 applications, "
                           f"got {len(app_ids)}\n")
        two = with_apps(training_dir, tmp_path / "two", (2, 3))
        _require_training(load_training(two), two)

    def test_malformed_training_exits_parse(self, tmp_path):
        bad = tmp_path / "manifest.conf"
        bad.write_text("[training]\npower = nowhere.csv\ntime = nowhere.csv\nplatforms = nope.conf\n")
        rc = main(["evaluate", "--training", str(bad)])
        assert rc == EXIT_PARSE


class TestManifestAndParams:
    def test_run_manifest_supplies_flags(self, training_dir, tmp_path):
        run_manifest = tmp_path / "run.conf"
        run_manifest.write_text("samples = 20\nseed = 13\n")
        out = tmp_path / "m.csv"
        rc = main([
            "sample", "--profile", "ci", "--backend-data", str(training_dir / "manifest.conf"),
            "--cpu-cmd", "app:2", "--gpu-cmd", "app:2", "--out", str(out),
            "--manifest", str(run_manifest),
        ])
        assert rc == EXIT_OK
        rows = [ln for ln in out.read_text().splitlines() if ln and not ln.startswith("#")]
        assert len(rows) - 1 == 20
        assert "# seed = 13" in out.read_text()

    def test_explicit_flag_beats_manifest(self, training_dir, tmp_path):
        run_manifest = tmp_path / "run.conf"
        run_manifest.write_text("samples = 20\n")
        out = tmp_path / "m2.csv"
        rc = main([
            "sample", "--profile", "ci", "--backend-data", str(training_dir / "manifest.conf"),
            "--cpu-cmd", "app:2", "--gpu-cmd", "app:2", "--out", str(out),
            "--manifest", str(run_manifest), "--samples", "16", "--seed", "1",
        ])
        assert rc == EXIT_OK
        rows = [ln for ln in out.read_text().splitlines() if ln and not ln.startswith("#")]
        assert len(rows) - 1 == 16

    def test_flag_the_command_does_not_read_rejected(self, training_dir, tmp_path):
        rc = main(["predict", "--training", str(training_dir / "manifest.conf"),
                   "--sample", str(tmp_path / "s.csv"), "--profile", "ci"])
        assert rc == EXIT_PARSE

    def test_manifest_key_naming_no_flag_rejected(self, training_dir, tmp_path):
        run_manifest = tmp_path / "run.conf"
        run_manifest.write_text("profile = ci\n")
        rc = main(["predict", "--training", str(training_dir / "manifest.conf"),
                   "--sample", str(tmp_path / "s.csv"), "--manifest", str(run_manifest)])
        assert rc == EXIT_PARSE

    def test_help_exits_ok(self, capsys):
        assert main(["predict", "--help"]) == EXIT_OK
        assert "--training" in capsys.readouterr().out

    def test_top_level_help_lists_every_command(self, capsys):
        assert main(["--help"]) == EXIT_OK
        out = capsys.readouterr().out
        for name, (_, help_text, _) in COMMANDS.items():
            assert re.search(rf"^    {name} +{re.escape(help_text)}$", out, re.MULTILINE)

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_command_help_lists_exactly_its_flags(self, command, capsys):
        assert main([command, "--help"]) == EXIT_OK
        out = capsys.readouterr().out
        options = out[out.index("options:"):]
        listed = set(re.findall(r"^  (?:-h, )?(--[a-z-]+)", options, re.MULTILINE))
        assert listed == {"--help", *COMMANDS[command][2]}
        # the parser built for every command prints the same help
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--help"])
        assert capsys.readouterr().out == out

    @pytest.mark.parametrize("argv", CLI_TEXT_CASES.values(), ids=CLI_TEXT_CASES)
    def test_text_equals_the_all_commands_parser(self, argv, capsys, monkeypatch):
        # main registers only the invoked command; its exit code, help,
        # usage and error text must be those of the parser of every command
        def run():
            rc = main(list(argv))
            captured = capsys.readouterr()
            return rc, captured.out, captured.err

        lean = run()
        every_command = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda command=None: every_command())
        assert lean == run()

    def test_manifest_spliced_only_for_the_flag(self, tmp_path, monkeypatch):
        run_manifest = tmp_path / "run.conf"
        run_manifest.write_text("seed = 4\n")
        for flag in (["--manifest", str(run_manifest)], [f"--manifest={run_manifest}"]):
            assert cli._splice_manifest(["evaluate"] + flag) == ["evaluate", "--seed=4"] + flag

        def no_parser(*args, **kwargs):
            raise AssertionError("a pre-parser was built")

        monkeypatch.setattr(cli.argparse, "ArgumentParser", no_parser)
        for argv in (["evaluate", "--training", "t.conf"],
                     ["evaluate", "--training", "t.conf", "--out", "x--manifest"]):
            assert cli._splice_manifest(argv) == argv

    def test_readme_flag_table_matches_the_commands(self):
        # a flag added or deleted in the CLI must be added or deleted there too
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme) as fh:
            rows = re.findall(r"^\| `([a-z]+)` \| `(--[a-z -]+)` \|$", fh.read(), re.MULTILINE)
        assert {name: tuple(flags.split()) for name, flags in rows} == {
            name: flags for name, (_, _, flags) in COMMANDS.items()}

    def test_unknown_command_exits_parse(self, capsys):
        assert main(["bogus", "--training", "x"]) == EXIT_PARSE
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    def test_module_entry_point(self):
        # `python -m heterotune` runs in a fresh process, as a shell would
        src = os.path.dirname(os.path.dirname(heterotune.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-m", "heterotune", "predict", "--help"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == EXIT_OK
        assert "--training" in done.stdout

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_params_flag_rejected(self, training_dir, tmp_path, capsys, command):
        # the prediction path takes no settings; an old --params flag or
        # params key is an unknown flag, not silently ignored
        params = tmp_path / "params.conf"
        params.write_text("[estimator]\nlatent_dim = 3\n")
        run_manifest = tmp_path / "run.conf"
        run_manifest.write_text(f"params = {params}\n")
        argv = [command, "--training", str(training_dir / "manifest.conf")]
        if command == "predict":
            argv += ["--sample", str(tmp_path / "s.csv")]
        for extra in (["--params", str(params)], ["--manifest", str(run_manifest)]):
            assert main(argv + extra) == EXIT_PARSE
            assert "unrecognized arguments: --params" in capsys.readouterr().err

OUT_OF_RANGE = [
    ("evaluate", ["--trials", "0"]),
    ("evaluate", ["--trials", "-1"]),
    ("evaluate", ["--approaches", "holistic,magic"]),
    ("evaluate", ["--approaches", "holistic,holistic"]),
    ("evaluate", ["--samples", "500"]),
    ("evaluate", ["--samples", "5"]),
    ("sample", ["--samples", "500"]),
    ("run", ["--predicted-energy", "0"]),
    ("run", ["--predicted-energy", "-5"]),
    ("run", ["--noise", "-1"]),
    ("benchmark", ["--seed", "-1"]),
    ("sample", ["--seed", "-3"]),
]


@pytest.mark.parametrize("command,extra", OUT_OF_RANGE,
                         ids=[" ".join([c] + e) for c, e in OUT_OF_RANGE])
def test_out_of_range_value_exits_parse(training_dir, tmp_path, capsys, command, extra):
    manifest = str(training_dir / "manifest.conf")
    cmds = ["--cpu-cmd", "app:1", "--gpu-cmd", "app:1"]
    base = {
        "evaluate": ["--training", manifest],
        "sample": ["--backend-data", manifest, "--out", str(tmp_path / "s.csv")] + cmds,
        "run": ["--profile", "ci", "--config", "ci-cpu:c1:f1.2:m1"] + cmds,
        "benchmark": ["--profile", "ci", "--out", str(tmp_path / "b")],
    }[command]
    assert main([command] + base + extra) == EXIT_PARSE
    assert "error" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command, extra", [
    ("benchmark", ["--out", "b"]),
    ("sample", ["--gpu-cmd", "app:1", "--out", "s.csv"]),
    ("run", ["--gpu-cmd", "app:1", "--config", "ci-gpu:w1:f1.0:m1"]),
], ids=["benchmark", "sample", "run"])
def test_system_without_cpu_exits_parse(tmp_path, monkeypatch, capsys, command, extra):
    # the unified coordinates need a reference CPU
    sys_file = tmp_path / "gpu-only.conf"
    save_system([p for p in CI_SYSTEM if p.kind is PlatformKind.GPU], str(sys_file))
    monkeypatch.chdir(tmp_path)
    assert main([command, "--system", str(sys_file)] + extra) == EXIT_PARSE
    assert f"{sys_file}: no CPU platform" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["gpu-only.conf"]


class TestBackendErrors:
    def test_bad_app_selector_exits_backend(self, training_dir, tmp_path):
        rc = main([
            "sample", "--profile", "ci", "--backend-data", str(training_dir / "manifest.conf"),
            "--cpu-cmd", "./real-binary", "--gpu-cmd", "./real-binary",
            "--seed", "1", "--out", str(tmp_path / "s.csv"),
        ])
        assert rc == EXIT_BACKEND

    def test_unknown_app_id_exits_backend(self, training_dir, tmp_path):
        rc = main([
            "sample", "--profile", "ci", "--backend-data", str(training_dir / "manifest.conf"),
            "--cpu-cmd", "app:99", "--gpu-cmd", "app:99",
            "--seed", "1", "--out", str(tmp_path / "s.csv"),
        ])
        assert rc == EXIT_BACKEND
