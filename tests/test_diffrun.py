"""tests/diffrun.py on a short case list: two copies of one tree give no
difference, a planted change in one printed field is reported under its
command and field, one that depends on the worker count under the counts
that show it, one that only a library case reaches under that case, and
a checkout that cannot run exits 2."""

from __future__ import annotations

import shutil
from pathlib import Path

import diffrun

SRC = Path(__file__).resolve().parents[1] / "src"

CASES = [
    ["solve", "--method", "brute", "--n", "8", "--h", "0.1"],
    ["sweep", "--method", "bangbang", "--h-list", "0.1,1", "--n-list", "3,8",
     "--format", "csv", "--out", "rows.csv"],
    ["sweep", "--method", "brute", "--h-list", "0.1", "--n-list", "8",
     "--out", "missing/rows.csv"],
    ["verify-ssc", "--n", "8", "--samples", "100", "--seed", "1"],
    ["growth", "--n", "8", "--samples", "100", "--seed", "1"],
]


def _copy(tmp_path: Path, name: str) -> Path:
    tree = tmp_path / name
    shutil.copytree(SRC, tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return tree


def test_two_copies_of_one_tree_give_no_difference(tmp_path):
    result = diffrun.compare(_copy(tmp_path, "a"), _copy(tmp_path, "b"), CASES)
    assert result["groups"] == {}
    assert result["summary"] == (
        "diffrun: 0 of 5 cases differ (0 in exit code, 0 command/field groups)"
    )


def test_a_planted_one_byte_change_is_reported_by_field(tmp_path):
    parent, child = _copy(tmp_path, "a"), _copy(tmp_path, "b")
    ssc = child / "src" / "conelab" / "ssc.py"
    text = ssc.read_text()
    assert text.count("(3 * n * n + 2) / (6 * n * n)") == 1
    ssc.write_text(text.replace("(3 * n * n + 2) / (6 * n * n)", "(3 * n * n + 3) / (6 * n * n)"))
    result = diffrun.compare(parent, child, CASES)
    assert result["groups"] == {
        ("verify-ssc", "beta_exact"): [CASES[3]],
        ("growth", "delta_exact"): [CASES[4]],
    }
    assert result["summary"].startswith("diffrun: 2 of 5 cases differ (0 in exit code")


def test_a_planted_worker_dependence_is_reported_by_worker_count(tmp_path):
    # growth's radius draw skips one extra number per row range past the
    # first: the reference (one worker) and the unpatched count on 800
    # cells (one range) keep their output, 2 and 8 ranges move it
    parent, child = _copy(tmp_path, "a"), _copy(tmp_path, "b")
    ssc = child / "src" / "conelab" / "ssc.py"
    text = ssc.read_text()
    draws = "rng.bit_generator.advance(samples * n)"
    assert text.count(draws) == 1
    ssc.write_text(text.replace(draws, "rng.bit_generator.advance(samples * n + len(results) - 2)"))
    result = diffrun.compare(parent, child, CASES)
    assert result["groups"] == {
        ("growth", f"workers={w}: worst_point.{key}"): [CASES[4]]
        for w in (2, 8)
        for key in ("t", "u")
    }
    assert result["summary"].startswith("diffrun: 1 of 5 cases differ (0 in exit code")


def test_a_planted_change_only_a_library_case_reaches_is_reported(tmp_path):
    # a pgd face step that is never kept: no CLI case of CASES runs pgd,
    # but the workload start's solve_pgd report moves
    parent, child = _copy(tmp_path, "a"), _copy(tmp_path, "b")
    solvers = child / "src" / "conelab" / "solvers.py"
    text = solvers.read_text()
    kept = "return (rt, ru, rgt, rgu, residual) if residual <= tol else None"
    assert text.count(kept) == 1
    solvers.write_text(text.replace(kept, "return None"))
    library = ["solve_pgd", "--seed", "1", "--n", "1024", "--start", "0"]
    assert library in diffrun.CASES
    result = diffrun.compare(parent, child, CASES + [library])
    assert {command for command, _ in result["groups"]} == {"solve_pgd"}
    assert ("solve_pgd", "iterations") in result["groups"]
    assert result["summary"].startswith("diffrun: 1 of 6 cases differ (0 in exit code")


def test_a_checkout_that_cannot_run_exits_two(tmp_path, capsys):
    empty = tmp_path / "empty"
    (empty / "src").mkdir(parents=True)
    assert diffrun.main([str(empty), str(_copy(tmp_path, "b"))]) == 2
    assert "failed" in capsys.readouterr().err
