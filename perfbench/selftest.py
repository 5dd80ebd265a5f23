"""Tests of the benchmark itself: oracles, failure counting, tracing, contract.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the repository's default pytest
collection, which stays the tier-1 suite.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from conelab import objective, solvers  # noqa: E402
from conelab.cone import ConePoint  # noqa: E402
from conelab.grid import GridFunction, Mesh  # noqa: E402


@pytest.mark.parametrize("n", range(1, 13))
@pytest.mark.parametrize("h", [0.1, 1.0, 3.5])
def test_closed_forms_agree_with_enumeration(n, h):
    report = solvers.solve_bruteforce(h, Mesh(n))
    assert math.isclose(report.objective, oracle.f_star(h, n), rel_tol=oracle.REL_TOL)
    assert math.isclose(report.minimizer.t, oracle.t_star(h, n), rel_tol=oracle.REL_TOL)
    assert report.tie_count == oracle.tie_count(n)


def _brute_stdout(n: int, h: float) -> tuple[int, str]:
    return workloads.run_cli(["solve", "--method", "brute", "--n", str(n), "--h", repr(h)])


def test_strict_json_rejects_nan_and_infinity():
    for text in ('{"objective": NaN}', '{"t": Infinity}', '[-Infinity]'):
        with pytest.raises(oracle.StrictJSONError):
            oracle.parse_strict(text)
    assert oracle.parse_strict('{"objective": -0.25}') == {"objective": -0.25}


def test_forged_reports_miss_their_oracles():
    code, stdout = _brute_stdout(6, 1.0)
    assert oracle.check_exact(code, stdout, 1.0, 6) == []
    report = json.loads(stdout)
    wrong_f = dict(report, objective=report["objective"] * (1 + 1e-6))
    assert oracle.check_exact(0, json.dumps(wrong_f), 1.0, 6)
    nan = json.dumps(dict(report, objective=float("nan")))
    assert "NaN" in nan and oracle.check_exact(0, nan, 1.0, 6)
    assert oracle.check_exact(1, stdout, 1.0, 6)
    assert oracle.check_exact(0, "", 1.0, 6)

    row = {"h": 0.1, "n": 4, "f_star": oracle.f_star(0.1, 4), "sign_changes": 3,
           "prop2_ok": True}
    assert oracle.check_sweep(0, json.dumps([row]), 0.1, [4]) == []
    assert oracle.check_sweep(0, json.dumps([dict(row, f_star=-0.0025)]), 0.1, [4])
    assert oracle.check_sweep(0, json.dumps([dict(row, sign_changes=0)]), 0.1, [4])

    saddle = {"converged": True, "nonvertex_cells": 8, "stationarity": 0.0,
              "objective": -0.25}
    assert oracle.pgd_certificate(saddle, 1.0, 8) == ["nonvertex_cells=8"]


def test_forged_reports_count_as_failed_operations():
    good = _brute_stdout(6, 1.0)
    forged = (0, good[1].replace('"objective": ', '"objective": NaN, "was": ', 1))
    check = lambda out: oracle.check_exact(*out, 1.0, 6)  # noqa: E731
    def crash():
        raise RuntimeError("solver blew up")

    ops = [
        workloads.Op("good", lambda: good, check),
        workloads.Op("forged", lambda: forged, check),
        workloads.Op("not an object", lambda: (0, "[1, 2]"), check),
        workloads.Op("crash", crash, check),
        workloads.Op("probe", lambda: forged, check, probe=True),
    ]
    result = worker.run_ops(ops)
    assert (result["attempted"], result["failed"]) == (4, 3)
    assert (result["probes"], result["probes_failed"]) == (1, 1)
    assert [m.split(":")[0] for m in result["misses"]] == [
        "forged", "not an object", "crash", "probe"]
    assert "solver blew up" in result["misses"][2]


def _cone_point(n: int) -> ConePoint:
    rng = np.random.default_rng(0)
    return ConePoint(1.0, GridFunction(Mesh(n), rng.uniform(-1.0, 1.0, size=n)))


def test_wrappers_count_apply_SstarS_on_every_import_path():
    p = _cone_point(16)
    original = objective.apply_SstarS
    with tracer.Tracer() as tr:
        assert {"conelab", "conelab.operators", "conelab.objective", "conelab.solvers"} <= set(
            tr.bindings["operators.apply_SstarS"])
        assert {"conelab.cone", "conelab.solvers"} <= set(tr.bindings["cone.project"])
        objective.gradient(0.5, p)
        after_gradient = tr.counts["operators.apply_SstarS"]
        solvers.pontryagin_check(p)
        after_check = tr.counts["operators.apply_SstarS"]
    assert (after_gradient, after_check) == (1, 2)
    assert objective.apply_SstarS is original


def test_self_times_and_unattributed_account_for_traced_wall_time():
    mesh = Mesh(64)
    start = _cone_point(64)
    with tracer.Tracer() as tr:
        t0 = time.perf_counter()
        report = solvers.solve_pgd(0.1, mesh, start)
        wall = time.perf_counter() - t0
    metrics = tracer.layer_metrics(tr, wall, 0.0)
    self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert math.isclose(self_total + metrics["trace.unattributed_s"], wall, rel_tol=1e-9)
    assert 0.0 <= metrics["trace.unattributed_s"] < 0.01 * wall + 1e-3
    assert metrics["solvers.solve_pgd.iterations"] == report.iterations
    assert set(tracer.PER_LAYER) - {"trace.overhead_frac"} == set(metrics)


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == tracer.PER_LAYER


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out", ".work-*"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pgd", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
