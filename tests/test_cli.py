import configparser
import os
import shutil

import numpy as np
import pytest

from heterotune.backends import (
    WORKGROUP_ENV_VAR,
    ExecutableDescriptor,
    SimulatedBackend,
    build_environment,
)
from heterotune.cli import (
    EXIT_BACKEND,
    EXIT_ESTIMATOR,
    EXIT_OK,
    EXIT_PARSE,
    load_params,
    main,
)
from heterotune.dataset import load_training, save_training
from heterotune.errors import BackendError
from heterotune.estimator import EstimatorParams
from heterotune.evaluation import brute_force_best
from heterotune.platforms import NativeConfig, PlatformKind, save_system
from heterotune.synthetic import CI_SYSTEM, PROFILES, SyntheticSpec, generate_system


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
        calls = {"n": 0}
        orig = SimulatedBackend.run

        def counting(self, descriptor, config):
            calls["n"] += 1
            return orig(self, descriptor, config)

        monkeypatch.setattr(SimulatedBackend, "run", counting)
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
        calls = {"n": 0}
        orig = SimulatedBackend.run

        def counting(self, descriptor, config):
            calls["n"] += 1
            return orig(self, descriptor, config)

        monkeypatch.setattr(SimulatedBackend, "run", counting)
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
        (2, "{cfg1},-1.0,1.0", "negative power"),
        (2, "{cfg1},inf,1.0", "non-finite"),
        (99, "{cfg1},100.0,nan", "non-finite"),
    ], ids=["duplicate", "zero-time-new-app", "negative-power", "inf-power", "nan-time-new-app"])
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
        expected = matrix.power[0, 0] * matrix.time[0, 0]
        assert f"{expected:.3f}" in printed

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
        calls = {"n": 0}
        orig = SimulatedBackend.run

        def counting(self, descriptor, config):
            calls["n"] += 1
            return orig(self, descriptor, config)

        monkeypatch.setattr(SimulatedBackend, "run", counting)
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

    def test_params_file_reaches_evaluate(self, training_dir, tmp_path, monkeypatch):
        seen = {}

        class Report:
            def summary_text(self):
                return ""

        def fake_evaluate(matrix, **kwargs):
            seen.update(kwargs)
            return Report()

        monkeypatch.setattr("heterotune.cli.evaluate", fake_evaluate)
        argv = ["evaluate", "--training", str(training_dir / "manifest.conf"), "--params"]
        bad = tmp_path / "bad.conf"
        bad.write_text("[estimator]\nwhatever = 3\n")
        assert main(argv + [str(bad)]) == EXIT_PARSE
        assert not seen
        good = tmp_path / "good.conf"
        good.write_text("[estimator]\nlatent_dim = 3\n")
        assert main(argv + [str(good)]) == EXIT_OK
        assert seen["params"] == EstimatorParams(latent_dim=3)

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

    def test_params_file(self, tmp_path):
        p = tmp_path / "params.conf"
        p.write_text("[estimator]\nlatent_dim = 3\nmax_iters = 100\n")
        params = load_params(str(p))
        assert params == EstimatorParams(latent_dim=3, max_iters=100)

    def test_bad_params_key_rejected(self, tmp_path):
        # min_samples, log_time and ridge were estimator keys once; a file
        # that still sets one is rejected rather than silently obeyed or dropped
        from heterotune.errors import DataFormatError

        p = tmp_path / "params.conf"
        for line in ("whatever = 3", "min_samples = 3", "log_time = false", "ridge = 1e-8"):
            p.write_text(f"[estimator]\n{line}\n")
            with pytest.raises(DataFormatError, match="unknown estimator key"):
                load_params(str(p))


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
