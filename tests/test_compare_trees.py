"""Smoke test of ``tools/compare_trees.py`` on the ``ci`` profile."""

import importlib.util
import os
import shutil

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "compare_trees", os.path.join(ROOT, "tools", "compare_trees.py"))
compare_trees = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_trees)

ARGS = ["--profiles", "ci", "--seeds", "1", "--rounds", "1"]


def test_tree_matches_itself(capsys):
    assert compare_trees.main([ROOT, ROOT] + ARGS) == 0
    out = capsys.readouterr().out
    assert "ci: evaluate records identical" in out
    assert "0 picks and 0 of 144 fits differ, largest relative row difference 0.00e+00" in out
    assert "ci evaluate: change/parent median" in out
    assert out.endswith("all checks passed\n")


def test_changed_records_are_reported(tmp_path, capsys):
    # a copy whose CPU-only baseline takes one sample fewer: its evaluate
    # records differ, its holistic panel does not
    changed = tmp_path / "src" / "heterotune"
    shutil.copytree(os.path.join(ROOT, "src", "heterotune"), changed,
                    ignore=shutil.ignore_patterns("__pycache__"))
    source = (changed / "evaluation.py").read_text()
    assert "CPU_SAMPLES = 15" in source
    (changed / "evaluation.py").write_text(source.replace("CPU_SAMPLES = 15", "CPU_SAMPLES = 14"))
    assert compare_trees.main([ROOT, str(tmp_path)] + ARGS) == 1
    out = capsys.readouterr().out
    assert "ci: evaluate records DIFFER" in out and "0 picks and 0 of 144 fits differ" in out
    assert out.endswith("FAILED: ci evaluate\n")
