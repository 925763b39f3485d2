#!/usr/bin/env python3
"""Check that two source trees of heterotune give the same results, and
time them against each other in one process.

    python tools/compare_trees.py PARENT CHANGE [--profiles ci full]
                                  [--seeds 4] [--rounds 10]

Each tree's ``src/heterotune`` is imported under a name of its own, so both
run in this process on the same inputs.  The checks:

* every ``evaluate`` record and summary, on each profile and on generated
  7- and 2-application sets of the full system, for seeds 0 .. SEEDS-1 and
  ``trials`` 1 and 2, is identical;
* on the benchmark panel's requests (15 samples at sample seed
  1000 k + app id; 12 per application on ``ci``, 3 on full), every pick is
  identical, and so are each EM fit's K, iteration count, ``converged`` and
  ``sigma2_floored``.  The largest relative difference of the power, time
  and energy cells is reported, and must stay within 1e-12;
* ``heterotune predict`` and ``evaluate`` on training sets the estimator
  cannot use (``UNUSABLE``, taken from the ``ci`` profile) give the same
  exit code, stdout and stderr, each tree's directory read as ``<dir>``.

Then ROUNDS rounds time each tree's panel requests and one
``evaluate(trials=1)`` call, the trees' order alternating from round to
round, and report the median of CHANGE / PARENT.  Exits 1 when a check
fails.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib.util
import io
import os
import sys
import tempfile
from time import perf_counter

import numpy as np

PANEL = {"ci": 12, "full": 3}   # panel requests per application
ROW_TOL = 1e-12
# Unusable training sets: the ci rows kept (None: all) and the (row, column)
# cells left unmeasured; each is given to ``predict`` with app 2's samples
# (row 1, not sampled at column 20) and to ``evaluate`` with its default and
# its brute-force-only approaches.
UNUSABLE = {"unmeasured": (None, [(3, 5), (2, 9), (1, 20)]), "header-only": ((), []),
            "one-app": ((1,), [])}


def load(tree: str, name: str):
    """``tree``'s ``src/heterotune``, imported afresh as the package ``name``."""
    for stale in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
        del sys.modules[stale]
    src = os.path.join(tree, "src", "heterotune")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(src, "__init__.py"), submodule_search_locations=[src])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def panel(ht, matrix, per_app: int) -> list:
    """Each panel request's pick and its power, time and energy rows."""
    out = []
    for k in range(1, per_app + 1):
        for app in matrix.apps:
            plan = ht.select_samples(matrix.n_configs, 15, 1000 * k + app.app_id, app.app_id)
            res = ht.predict_best_config(matrix, app.app_id, plan)
            out.append((res.chosen, np.array([res.power, res.time, res.energy])))
    return out


def panel_fits(ht, matrix, per_app: int) -> tuple[list, list]:
    """``panel``, and each EM fit's K, iterations and flags, in call order."""
    fits, em_fit = [], ht.estimator.em_fit

    def recording(*args, **kwargs):
        state, completed = em_fit(*args, **kwargs)
        fits.append((state.loadings.shape[1], state.n_iters, state.converged,
                     state.sigma2_floored))
        return state, completed

    ht.estimator.em_fit = recording
    try:
        return panel(ht, matrix, per_app), fits
    finally:
        ht.estimator.em_fit = em_fit


def matrices(ht, profile: str) -> dict:
    """The profile's matrix and, for full, generated 7- and 2-application
    sets of its system, each by ``ht``'s own generator."""
    spec = ht.PROFILES[profile]
    counts = (7, 2) if profile == "full" else ()
    specs = {profile: spec} | {f"{n}-apps": dataclasses.replace(spec, n_apps=n, rank=min(4, n))
                               for n in counts}
    return {name: ht.generate_system(s).matrix for name, s in specs.items()}


def refusals(ht, directory: str) -> list:
    """Exit code, stdout and stderr of ``ht``'s ``predict`` and ``evaluate``
    on each ``UNUSABLE`` training set, which ``ht`` writes under
    ``directory``; the directory reads as ``<dir>`` in each run."""
    cli = importlib.import_module(ht.__name__ + ".cli")
    matrix = matrices(ht, "ci")["ci"]
    _, samples = ht.mask_application(matrix, 2, ht.select_samples(matrix.n_configs, 15, 4, 2))
    os.makedirs(directory)
    sample = os.path.join(directory, "samples.csv")
    cli.save_samples(sample, samples, 4, matrix.configs)
    commands = (["predict", "--sample", sample], ["evaluate"],
                ["evaluate", "--approaches", "brute-force"])
    out = []
    for name, (rows, cells) in UNUSABLE.items():
        power, time = matrix.power.copy(), matrix.time.copy()
        for cell in cells:
            power[cell] = time[cell] = np.nan
        keep = list(range(matrix.n_apps) if rows is None else rows)
        unusable = dataclasses.replace(matrix, apps=tuple(matrix.apps[i] for i in keep),
                                       power=power[keep], time=time[keep])
        manifest = ht.save_training(unusable, os.path.join(directory, name))
        for command, *flags in commands:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = cli.main([command, "--training", manifest, *flags])
            out.append((name, command, rc)
                       + tuple(s.getvalue().replace(directory, "<dir>") for s in (stdout, stderr)))
    return out


def timed(call) -> float:
    t0 = perf_counter()
    call()
    return perf_counter() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--profiles", nargs="+", default=["ci", "full"], choices=sorted(PANEL))
    ap.add_argument("--seeds", type=int, default=4)
    ap.add_argument("--rounds", type=int, default=10)
    args = ap.parse_args(argv)
    trees = load(args.parent, "heterotune_parent"), load(args.change, "heterotune_change")
    with tempfile.TemporaryDirectory() as tmp:
        runs = [refusals(ht, os.path.join(tmp, ht.__name__)) for ht in trees]
    same = runs[0] == runs[1]
    print(f"unusable training sets: {len(runs[0])} predict and evaluate runs "
          f"{'identical' if same else 'DIFFER'}")
    failed = [] if same else ["unusable training sets"]
    for profile in args.profiles:
        systems = [matrices(ht, profile) for ht in trees]
        for name in systems[0]:
            reports = [[([dataclasses.astuple(x) for x in r.records], r.summary_text())
                        for r in (ht.evaluate(sets[name], trials=t, seed=s)
                                  for s in range(args.seeds) for t in (1, 2))]
                       for ht, sets in zip(trees, systems)]
            same = reports[0] == reports[1]
            print(f"{name}: evaluate records {'identical' if same else 'DIFFER'}")
            failed += [f"{name} evaluate"] * (not same)
        pair = [sets[profile] for sets in systems]
        (old, old_fits), (new, new_fits) = (panel_fits(ht, m, PANEL[profile])
                                            for ht, m in zip(trees, pair))
        picks = sum(a[0] != b[0] for a, b in zip(old, new))
        rel = max(float(np.abs(b[1] / a[1] - 1).max()) for a, b in zip(old, new))
        fits = sum(a != b for a, b in zip(old_fits, new_fits)) + abs(len(old_fits) - len(new_fits))
        print(f"{profile} panel: {len(old)} requests, {picks} picks and {fits} of {len(old_fits)} "
              f"fits differ, largest relative row difference {rel:.2e}")
        failed += [f"{profile} panel"] * bool(picks or fits or rel > ROW_TOL)
        runs = {"requests": lambda ht, m: panel(ht, m, PANEL[profile]),
                "evaluate": lambda ht, m: ht.evaluate(m)}
        for what, run in runs.items():
            ratios = []
            for rnd in range(args.rounds):
                order = (0, 1) if rnd % 2 == 0 else (1, 0)
                took = {i: timed(lambda: run(trees[i], pair[i])) for i in order}
                ratios.append(took[1] / took[0])
            if ratios:
                print(f"{profile} {what}: change/parent median {np.median(ratios):.3f}, "
                      f"change faster in {sum(r < 1 for r in ratios)} of {len(ratios)} rounds")
    print("FAILED: " + ", ".join(failed) if failed else "all checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
