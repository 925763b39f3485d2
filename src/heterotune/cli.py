"""Command-line pipeline: benchmark -> sample -> predict -> run, plus the
evaluation harness.

Prediction is entirely offline; only benchmark, sample and run touch a
measurement backend, built by ``_make_backend``.  The only backend shipped
is the simulated one, which answers from a synthetic system or a
previously benchmarked matrix (``--backend-data``).  A backing matrix
defines the system the command runs on.  A real energy meter would
implement ``run(descriptor, config) -> RunMeasurement`` as
``backends.SimulatedBackend`` does and be built there instead.

Exit codes: 0 success, 2 input/parse failure, 3 estimator failure,
4 backend failure.  Each command takes only the flags it reads.  A
command's flags may also be supplied through a run manifest file
(``--manifest``) holding ``key = value`` lines and no section header;
explicit flags win, and a key that names no flag of the command is
rejected.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import dataset
from .backends import ExecutableDescriptor, SimulatedBackend, build_environment
from .dataset import (
    SamplePlan,
    SampleSet,
    TrainingMatrix,
    load_applications,
    load_training,
    save_training,
    select_samples,
)
from .errors import BackendError, DataFormatError, EstimatorError
from .energy import total_energy_row
from .estimator import feature_matrix, predict_best_config, predict_new_app
from .evaluation import APPROACHES, DEFAULT_HOLISTIC_SAMPLES, HOLISTIC, evaluate
from .platforms import PlatformKind, load_system
from .readers import read_lines
from .synthetic import PROFILES

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_ESTIMATOR = 3
EXIT_BACKEND = 4


def _descriptor(args, configs) -> ExecutableDescriptor:
    """The executable to run at ``configs``; a configuration whose platform
    kind has no ``--cpu-cmd``/``--gpu-cmd`` is rejected before any run."""
    commands = {}
    for cfg in configs:
        command = getattr(args, f"{cfg.kind.value}_cmd")
        if not command:
            raise DataFormatError(f"configuration {cfg.config_id} needs --{cfg.kind.value}-cmd")
        commands[cfg.platform] = command
    return ExecutableDescriptor(commands=commands)


def _run(backend: SimulatedBackend, desc: ExecutableDescriptor, cfg):
    """Run ``desc`` once at ``cfg`` in that configuration's environment
    (a GPU configuration's workgroup size)."""
    return backend.run(ExecutableDescriptor(desc.commands, build_environment(desc, cfg)), cfg)


def _make_backend(args, apps=None) -> SimulatedBackend:
    """The simulated backend.  With ``--backend-data`` it answers from that
    training set, whose system the command then runs on; otherwise from a
    system generated from ``--profile`` or ``--system``, ``--seed`` and
    ``--noise``, with one application per entry of ``apps`` if given."""
    if args.backend_data:
        if args.noise is not None:
            raise DataFormatError("--noise cannot take effect with --backend-data")
        # the seed only generates a system; sample's seed also draws its plan
        if args.seed is not None and args.command != "sample":
            raise DataFormatError("--seed cannot take effect with --backend-data")
        matrix = load_training(args.backend_data)
        named = {}
        if args.profile:
            named["--profile"] = PROFILES[args.profile].platforms
        if args.system:
            named["--system"] = load_system(args.system)
        for flag, system in named.items():
            if system != matrix.system:
                raise DataFormatError(
                    f"{flag} names a different system than --backend-data {args.backend_data}"
                )
        return SimulatedBackend(matrix)
    if apps is not None and len(apps) < 2:
        raise DataFormatError(f"--apps {args.apps}: a generated system needs at least "
                              f"2 applications, got {len(apps)}")
    profile = PROFILES[args.profile or "full"]
    platforms = load_system(args.system) if args.system else profile.platforms
    n_apps = len(apps) if apps is not None else profile.n_apps
    n_cfg = sum(len(p.native_settings) for p in platforms)
    spec = dataclasses.replace(
        profile,
        platforms=platforms,
        n_apps=n_apps,
        rank=min(profile.rank, n_apps, n_cfg),
        seed=args.seed or 0,
        noise_sd=args.noise if args.noise is not None else profile.noise_sd,
    )
    return SimulatedBackend.generate(spec)


def _require_out(args) -> None:
    if args.out is None:
        raise DataFormatError(f"{args.command} needs --out")


def _out_directory(path: str) -> None:
    """Create an output directory before the first run or prediction, so
    that an unusable ``--out`` exits 2, naming it, before any work."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise DataFormatError(f"--out {path} is not a usable directory: {exc.strerror}") from exc


def _out_file(path: str) -> None:
    """Check an output file's location before the first run, as
    ``_out_directory`` does for a directory; nothing is written yet."""
    parent = os.path.dirname(path) or os.curdir
    if os.path.isdir(path):
        raise DataFormatError(f"--out {path} is a directory")
    if not os.path.isdir(parent):
        raise DataFormatError(f"--out {path}: no directory {parent}")


def cmd_benchmark(args) -> int:
    """Measure every (application, configuration) cell and write the
    training files; backend failures leave missing cells and continue.
    Without ``--apps`` the backend's own applications are measured."""
    _require_out(args)
    apps = load_applications(args.apps) if args.apps else None
    backend = _make_backend(args, apps)
    system, configs = backend.matrix.system, backend.matrix.configs
    if apps is None:
        apps = backend.matrix.apps
    known = {a.app_id for a in backend.matrix.apps}
    unknown = [a.app_id for a in apps if a.app_id not in known]
    if unknown:
        raise DataFormatError(f"--apps {args.apps}: the simulated backend has no "
                              f"application with id {unknown}")
    _out_directory(args.out)
    n_apps, n_cfg = len(apps), len(configs)
    power = np.full((n_apps, n_cfg), np.nan)
    time = np.full((n_apps, n_cfg), np.nan)
    failures = 0
    for i, app in enumerate(apps):
        desc = ExecutableDescriptor(
            commands={spec.name: f"app:{app.app_id}" for spec in system}
        )
        for j, cfg in enumerate(configs):
            try:
                meas = _run(backend, desc, cfg)
            except BackendError:
                failures += 1
                continue
            time[i, j] = meas.mean_time
            power[i, j] = meas.mean_power
    matrix = dataset.build_training_matrix(apps, system, power, time)
    # a generated system records the seed it was generated from
    manifest = save_training(matrix, args.out, None if args.backend_data else args.seed or 0)
    print(f"benchmarked {n_apps * n_cfg - failures}/{n_apps * n_cfg} cells "
          f"({failures} failures) -> {manifest}")
    return EXIT_OK


# The header keys of a sample file, in the order they are written; a file
# must give each exactly once.
SAMPLE_HEADER = ("app_id", "seed")


def save_samples(path: str, samples: SampleSet, seed: int, configs) -> None:
    with open(path, "w") as fh:
        for key, value in zip(SAMPLE_HEADER, (samples.app_id, seed)):
            fh.write(f"# {key} = {value}\n")
        fh.write("config_id,power,time\n")
        for k, j in enumerate(samples.config_indices):
            fh.write(
                f"{configs[j].config_id},{float(samples.power[k])!r},{float(samples.time[k])!r}\n"
            )


def load_samples(path: str, matrix: TrainingMatrix) -> SampleSet:
    """Read a sample file back as its sample set.  The header gives each
    key of ``SAMPLE_HEADER`` once, as an integer, and no other key."""
    meta = {}   # key -> (line, value)
    body = []
    for r, ln in read_lines(path, "sample file"):
        if ln.startswith("#"):
            try:
                key, value = (part.strip() for part in ln[1:].split("=", 1))
            except ValueError:
                raise DataFormatError(f"{path}:{r}: bad header line {ln!r}") from None
            if key not in SAMPLE_HEADER:
                raise DataFormatError(f"{path}:{r}: unknown header key {key!r}")
            if key in meta:
                raise DataFormatError(f"{path}:{r}: header key {key!r} given twice")
            meta[key] = (r, value)
        else:
            body.append((r, ln))
    for key in SAMPLE_HEADER:
        if key not in meta:
            raise DataFormatError(f"{path}: missing header key {key!r}")
    if not body or body[0][1] != "config_id,power,time":
        where = f":{body[0][0]}" if body else ""
        raise DataFormatError(f"{path}{where}: missing 'config_id,power,time' header")
    col = {cfg.config_id: j for j, cfg in enumerate(matrix.configs)}
    idx, seen, power, time = [], set(), [], []
    for r, ln in body[1:]:
        cells = ln.split(",")
        if len(cells) != 3:
            raise DataFormatError(f"{path}:{r}: expected 3 cells")
        if cells[0] not in col:
            raise DataFormatError(f"{path}:{r}: unknown config {cells[0]!r}")
        if cells[0] in seen:
            raise DataFormatError(f"{path}:{r}: config {cells[0]!r} listed twice")
        try:
            p, t = float(cells[1]), float(cells[2])
        except ValueError as exc:
            raise DataFormatError(f"{path}:{r}: {exc}") from exc
        if not (np.isfinite(p) and np.isfinite(t)):
            raise DataFormatError(f"{path}:{r}: non-finite value")
        if p <= 0:
            raise DataFormatError(f"{path}:{r}: non-positive power {p!r}")
        if t <= 0:
            raise DataFormatError(f"{path}:{r}: non-positive time {t!r}")
        idx.append(col[cells[0]])
        seen.add(cells[0])
        power.append(p)
        time.append(t)
    header = []
    for key in SAMPLE_HEADER:
        r, value = meta[key]
        try:
            header.append(int(value))
        except ValueError as exc:
            raise DataFormatError(f"{path}:{r}: bad header metadata: {exc}") from exc
    return SampleSet(
        app_id=header[0],
        config_indices=tuple(idx),
        power=np.array(power),
        time=np.array(time),
    )


def cmd_sample(args) -> int:
    """Measure the target executable on randomly chosen configurations."""
    _require_out(args)
    backend = _make_backend(args)
    configs = backend.matrix.configs
    n = args.samples or DEFAULT_HOLISTIC_SAMPLES
    minimum = feature_matrix(backend.matrix).shape[1]
    if not minimum <= n <= len(configs):
        raise DataFormatError(f"--samples {n} must lie between the estimator "
                              f"minimum {minimum} and the {len(configs)} configurations")
    seed = args.seed or 0
    plan = select_samples(len(configs), n, seed)
    desc = _descriptor(args, [configs[j] for j in plan.sample_configs])
    _out_file(args.out)
    power, time, app_ids = [], [], set()
    for j in plan.sample_configs:
        meas = _run(backend, desc, configs[j])
        app_ids.add(meas.app_id)
        power.append(meas.mean_power)
        time.append(meas.mean_time)
    if len(app_ids) > 1:
        raise DataFormatError(f"the sampled runs measured applications {sorted(app_ids)}; "
                              "a sample file holds one application")
    (app_id,) = app_ids
    samples = SampleSet(
        app_id=app_id,
        config_indices=plan.sample_configs,
        power=np.array(power),
        time=np.array(time),
    )
    save_samples(args.out, samples, seed, configs)
    print(f"sampled {len(plan.sample_configs)} configurations -> {args.out}")
    return EXIT_OK


def cmd_predict(args) -> int:
    """Estimate all configurations from training + samples and print the
    most energy-efficient one.  Never touches a measurement backend."""
    matrix = load_training(args.training)
    samples = load_samples(args.sample, matrix)
    if args.out:
        _out_directory(args.out)
    known_ids = {a.app_id for a in matrix.apps}
    try:
        if samples.app_id in known_ids:
            # The file's measurements replace the matrix's at the sampled
            # cells; masking then drops the rest of the row.
            row, idx = matrix.app_index(samples.app_id), list(samples.config_indices)
            power, time = matrix.power.copy(), matrix.time.copy()
            power[row, idx] = samples.power
            time[row, idx] = samples.time
            matrix = dataclasses.replace(matrix, power=power, time=time)
            plan = SamplePlan(samples.app_id, samples.config_indices)
            result = predict_best_config(matrix, samples.app_id, plan)
        else:
            result = predict_new_app(matrix, samples)
    except DataFormatError as exc:   # a training set the estimator cannot use
        raise DataFormatError(f"{args.training}: {exc}") from exc
    chosen = matrix.configs[result.chosen]
    print(f"chosen: {chosen.config_id}")
    print(f"platform: {chosen.platform}")
    knob = "workgroup_size" if chosen.kind is PlatformKind.GPU else "cores"
    print(f"setting: {knob}={chosen.cores} freq={chosen.freq} mem={chosen.mem}")
    print(f"estimated energy: {result.energy[result.chosen]:.3f} mJ")
    if not result.converged:
        print("warning: EM did not converge within max_iters", file=sys.stderr)
    if args.out:
        path = os.path.join(args.out, "estimates.csv")
        chosen_flags = ["0"] * len(matrix.configs)
        chosen_flags[result.chosen] = "1"
        columns = ([cfg.config_id for cfg in matrix.configs], map(repr, result.power.tolist()),
                   map(repr, result.time.tolist()), map(repr, result.energy.tolist()),
                   result.provenance, chosen_flags)
        with open(path, "w") as fh:
            fh.write("config_id,power,time,energy,provenance,chosen\n"
                     + "\n".join(map(",".join, zip(*columns))) + "\n")
        print(f"estimates -> {path}")
    return EXIT_OK


def cmd_run(args) -> int:
    """Execute once at a chosen configuration and report the measurement.
    Energy is whole-system energy, as ``predict`` estimates it, so the two
    compare directly."""
    backend = _make_backend(args)
    configs = {cfg.config_id: cfg for cfg in backend.matrix.configs}
    if args.config not in configs:
        raise DataFormatError(f"unknown configuration {args.config!r}")
    cfg = configs[args.config]
    meas = _run(backend, _descriptor(args, [cfg]), cfg)
    energy = float(total_energy_row(meas.mean_power, meas.mean_time, backend.matrix.system))
    print(f"config: {cfg.config_id}")
    print(f"measured time: {meas.mean_time:.6f} s")
    print(f"measured energy: {energy:.3f} mJ")
    if args.predicted_energy is not None:
        delta = energy - args.predicted_energy
        pct = delta / args.predicted_energy * 100.0
        print(f"predicted energy: {args.predicted_energy:.3f} mJ "
              f"(delta {delta:+.3f} mJ, {pct:+.2f}%)")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    """Compare approaches against the brute-force oracle on a full matrix."""
    approaches = args.approaches.split(",")
    if args.samples is not None and HOLISTIC not in approaches:
        raise DataFormatError(f"--samples sets the {HOLISTIC} budget and cannot take effect "
                              f"without {HOLISTIC} in --approaches")
    matrix = load_training(args.training)
    if args.out:
        _out_directory(args.out)
    try:
        report = evaluate(
            matrix,
            approaches=approaches,
            trials=args.trials,
            seed=args.seed or 0,
            holistic_samples=args.samples or DEFAULT_HOLISTIC_SAMPLES,
        )
    except DataFormatError as exc:   # a training set the approaches cannot use
        raise DataFormatError(f"{args.training}: {exc}") from exc
    except ValueError as exc:   # a bad approach list, or a sample count it cannot draw
        raise DataFormatError(str(exc)) from exc
    print(report.summary_text())
    if args.out:
        report.write(args.out)
        print(f"report -> {args.out}")
    return EXIT_OK


def _checked(cast, ok, rule: str):
    """A ``type=`` converter that also rejects values outside ``rule``;
    argparse turns either failure into exit 2 with a message."""
    def convert(text: str):
        value = cast(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {rule}")
        return value
    convert.__name__ = cast.__name__   # argparse's "invalid <type> value"
    return convert


_POSITIVE_INT = _checked(int, lambda v: v >= 1, "a positive integer")

# Every flag of the CLI; each command below lists the ones it reads.
FLAGS = {
    "--profile": dict(choices=sorted(PROFILES),
                      help="synthetic system profile (default full)"),
    "--system": dict(help="platform descriptor file"),
    "--apps": dict(help="application catalog file"),
    "--backend-data": dict(help="training manifest backing the simulated backend; "
                                "it defines the system"),
    "--noise": dict(type=_checked(float, lambda v: np.isfinite(v) and v >= 0, "finite and >= 0"),
                    default=None, help="relative per-run noise of the generated system"),
    "--cpu-cmd": dict(help="CPU executable (simulated: 'app:<id>')"),
    "--gpu-cmd": dict(help="GPU executable (simulated: 'app:<id>')"),
    "--training": dict(required=True, help="training manifest"),
    "--sample": dict(required=True, help="sample file from 'sample'"),
    "--config": dict(required=True, help="configuration id"),
    "--predicted-energy": dict(type=_checked(float, lambda v: np.isfinite(v) and v > 0,
                                             "finite and > 0"), default=None),
    "--samples": dict(type=_POSITIVE_INT, default=None,
                      help=f"sample count (default {DEFAULT_HOLISTIC_SAMPLES})"),
    "--trials": dict(type=_POSITIVE_INT, default=1),
    "--approaches": dict(default=",".join(APPROACHES),
                         help="comma list of distinct names (default all)"),
    "--seed": dict(type=_checked(int, lambda v: v >= 0, "a non-negative integer"),
                   default=None, help="random seed (default 0)"),
    "--out": dict(help="output file or directory"),
    "--manifest": dict(help="run manifest supplying this command's flags as key = value"),
}

_BACKEND_FLAGS = ("--profile", "--system", "--backend-data", "--noise")

COMMANDS = {
    "benchmark": (cmd_benchmark, "measure all apps on all configurations",
                  _BACKEND_FLAGS + ("--apps", "--seed", "--out", "--manifest")),
    "sample": (cmd_sample, "measure one executable on sampled configurations",
               _BACKEND_FLAGS + ("--cpu-cmd", "--gpu-cmd", "--samples", "--seed", "--out",
                                 "--manifest")),
    "predict": (cmd_predict, "predict the best configuration (offline)",
                ("--training", "--sample", "--out", "--manifest")),
    "run": (cmd_run, "run once at a chosen configuration",
            _BACKEND_FLAGS + ("--cpu-cmd", "--gpu-cmd", "--config", "--predicted-energy",
                              "--seed", "--manifest")),
    "evaluate": (cmd_evaluate, "compare approaches against brute force",
                 ("--training", "--trials", "--approaches", "--samples", "--seed", "--out",
                  "--manifest")),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser.  Without ``command`` every command is registered;
    with one, only that command and its flags are, which is all that
    parsing its argument list reads.  The command list in usage and error
    text names every command either way."""
    parser = argparse.ArgumentParser(
        prog="heterotune",
        description="energy-optimal configuration selection for heterogeneous systems",
    )
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in COMMANDS if command is None else (command,):
        func, help_text, flags = COMMANDS[name]
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
        p.set_defaults(func=func)
    return parser


def _splice_manifest(argv: list[str]) -> list[str]:
    """Insert a run manifest's ``key = value`` lines as ``--key=value``
    tokens right after the command name.  The command's parser then
    converts, validates or rejects them, and explicit flags, parsed later,
    win.  Lines starting with ``#`` or ``;`` are comments; a section
    header, a line without ``=`` or a key given twice is a DataFormatError
    naming the file's line."""
    if not any(arg == "--manifest" or arg.startswith("--manifest=") for arg in argv):
        return argv
    pre = argparse.ArgumentParser(prog="heterotune", add_help=False, allow_abbrev=False)
    pre.add_argument("--manifest")
    path = pre.parse_known_args(argv[1:])[0].manifest
    if path is None:
        return argv
    tokens = {}
    for r, ln in read_lines(path, "manifest"):
        if ln[0] in "#;":
            continue
        if ln.startswith("["):
            raise DataFormatError(f"{path}: line {r}: a run manifest has no sections, got {ln!r}")
        key, sep, value = ln.partition("=")
        flag = key.strip().replace("_", "-")
        if not sep or not flag:
            raise DataFormatError(f"{path}: line {r}: expected key = value, got {ln!r}")
        if flag in tokens:
            raise DataFormatError(f"{path}: line {r}: key {key.strip()!r} given twice")
        tokens[flag] = f"--{flag}={value.strip()}"
    return argv[:1] + list(tokens.values()) + argv[1:]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        try:
            args = parser.parse_args(_splice_manifest(argv))
        except SystemExit as exc:
            # argparse exits 0 after --help and 2 on a bad or missing flag
            return EXIT_OK if exc.code == 0 else EXIT_PARSE
        return args.func(args)
    except DataFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:   # every reader raises DataFormatError, so this is a write
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except EstimatorError as exc:
        print(f"estimator error: {exc}", file=sys.stderr)
        return EXIT_ESTIMATOR
    except BackendError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_BACKEND


if __name__ == "__main__":
    sys.exit(main())
