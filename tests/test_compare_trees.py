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
    assert "unusable training sets: 9 predict and evaluate runs identical" in out
    assert "ci: evaluate records identical" in out
    assert "0 picks and 0 of 144 fits differ, largest relative row difference 0.00e+00" in out
    assert "ci evaluate: change/parent median" in out
    assert out.endswith("all checks passed\n")


def changed_copy(tree, module: str, old: str, new: str) -> str:
    """A copy of this tree's package under ``tree`` with ``old`` replaced by
    ``new`` in ``module``; returns ``tree``."""
    changed = tree / "src" / "heterotune"
    shutil.copytree(os.path.join(ROOT, "src", "heterotune"), changed,
                    ignore=shutil.ignore_patterns("__pycache__"))
    source = (changed / module).read_text()
    assert old in source
    (changed / module).write_text(source.replace(old, new))
    return str(tree)


def test_changed_records_are_reported(tmp_path, capsys):
    # a copy whose CPU-only baseline takes one sample fewer: its evaluate
    # records differ, its holistic panel does not
    changed = changed_copy(tmp_path, "evaluation.py", "CPU_SAMPLES = 15", "CPU_SAMPLES = 14")
    assert compare_trees.main([ROOT, changed] + ARGS) == 1
    out = capsys.readouterr().out
    assert "ci: evaluate records DIFFER" in out and "0 picks and 0 of 144 fits differ" in out
    assert out.endswith("FAILED: ci evaluate\n")


def test_changed_refusal_is_reported(tmp_path):
    # a copy that words the unmeasured-cell refusal otherwise: the three
    # runs on the set with unmeasured cells differ, and no other
    changed = changed_copy(tmp_path / "tree", "dataset.py", '"unmeasured cell at', '"gap at')
    runs = [compare_trees.refusals(compare_trees.load(tree, name), str(tmp_path / name))
            for tree, name in ((ROOT, "heterotune_parent"), (changed, "heterotune_change"))]
    assert [a[:3] for a, b in zip(*runs) if a != b] == [
        ("unmeasured", "predict", 2), ("unmeasured", "evaluate", 2),
        ("unmeasured", "evaluate", 2)]
    assert "gap at app 3" in runs[1][0][4]
