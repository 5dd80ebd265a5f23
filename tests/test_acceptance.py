"""Acceptance gate: the eight release criteria for this package.

Each test prints one PASS/FAIL line on the real stdout (visible even under
pytest capture) and then asserts, so a single run of this module yields a
complete checklist.
"""

import json
import subprocess
import sys

import numpy as np

import conftest

from conelab import (
    BETA_CERTIFIED,
    ConePoint,
    GridFunction,
    Mesh,
    SweepConfig,
    apply_SstarS,
    coercivity_estimate,
    growth_estimate,
    norm_S_sq,
    op_norm_SstarS,
    perturbation_sweep,
    solve_bangbang,
    solve_bruteforce,
    solve_pgd,
    stability_report,
    value,
)
from oracles import (
    apply_S,
    exact_l2_inner,
    norm_X_sq,
    pl_l2_inner,
    pontryagin_residual,
    random_feasible_point,
)

MESH_SIZES = (4, 16, 64, 256)


def _verdict(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"{status} criterion {number}: {detail}"
    conftest.ACCEPTANCE_VERDICTS.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, f"criterion {number}: {detail}"


def _run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "conelab", *args],
        capture_output=True,
        text=True,
    )


def test_criterion_1_coercivity_verification():
    result = _run_cli("verify-ssc", "--n", "256", "--samples", "10000")
    payload = json.loads(result.stdout) if result.stdout else {}
    ok = (
        result.returncode == 0
        and payload.get("beta_estimate", -1.0) >= BETA_CERTIFIED - 1e-9
        and payload.get("stationarity", 1.0) <= 1e-12
        and payload.get("chain_checks_passed") is True
    )
    betas = {}
    for n in MESH_SIZES:
        report = coercivity_estimate(Mesh(n), samples=10000, seed=0)
        betas[n] = report.beta_estimate
        ok = ok and report.chain_checks_passed
        ok = ok and report.beta_estimate >= BETA_CERTIFIED - 1e-9
    detail = (
        "verify-ssc on 256 cells exits 0 and every sampled direction at "
        f"n in {MESH_SIZES} passes the four-link chain; "
        f"beta estimates {betas} all >= 1/6"
    )
    _verdict(1, ok, detail)


def test_criterion_2_exact_energy_of_the_unit_profile():
    worst_energy = worst_form = 0.0
    for n in MESH_SIZES:
        mesh = Mesh(n)
        ones = GridFunction(mesh, np.ones(mesh.n))
        worst_energy = max(worst_energy, abs(norm_S_sq(ones) - 1.0 / 3.0))
        point = ConePoint(1.0, ones)
        worst_form = max(worst_form, abs(2.0 * value(0.0, point) - 5.0 / 3.0))
    ok = worst_energy <= 1e-14 and worst_form <= 1e-14
    detail = (
        "unit profile has image energy 1/3 and curvature form 5/3 on every "
        f"mesh (worst deviations {worst_energy:.2e}, {worst_form:.2e})"
    )
    _verdict(2, ok, detail)


def test_criterion_3_adjoint_and_operator_norm():
    mesh = Mesh(128)
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
        u = GridFunction(mesh, rng.standard_normal(mesh.n))
        v = GridFunction(mesh, rng.standard_normal(mesh.n))
        lhs = float(exact_l2_inner(apply_SstarS(u), v))
        rhs = pl_l2_inner(apply_S(u), apply_S(v))
        worst = max(worst, abs(lhs - rhs))
    lam = op_norm_SstarS(Mesh(256))
    ok = worst <= 1e-12 and 0.40 <= lam <= 0.41 and 2.0 * lam < 1.0
    detail = (
        f"adjoint identity holds to {worst:.2e} over 1000 pairs on 128 cells; "
        f"largest eigenvalue {lam:.17g} lies in [0.40, 0.41] and 2*lambda < 1"
    )
    _verdict(3, ok, detail)


def test_criterion_4_solver_agreement():
    ok = True
    worst_gap = 0.0
    for n in range(1, 13):
        mesh = Mesh(n)
        for h in (0.1, 0.5, 1.0):
            brute = solve_bruteforce(h, mesh)
            bb = solve_bangbang(h, mesh, np.ones(n))
            gap = abs(brute.objective - bb.objective)
            worst_gap = max(worst_gap, gap)
            ok = ok and gap <= 1e-10
            rng = np.random.default_rng(1000 * n + round(10 * h))
            for _ in range(5):
                report = solve_pgd(h, mesh, random_feasible_point(mesh, rng))
                ok = ok and report.objective >= brute.objective - 1e-8
                near_global = abs(report.objective - brute.objective) <= 1e-8
                ok = ok and (near_global or report.pontryagin_residual <= 1e-8)
    two = solve_bruteforce(1.0, Mesh(2))
    four = solve_bruteforce(1.0, Mesh(4))
    ok = ok and abs(two.objective + 3.0 / 7.0) <= 1e-12
    ok = ok and abs(two.minimizer.t - 6.0 / 7.0) <= 1e-12
    ok = ok and abs(four.objective + 12.0 / 25.0) <= 1e-12
    ok = ok and abs(four.minimizer.t - 24.0 / 25.0) <= 1e-12
    detail = (
        "descent matches the exact global solver on every grid up to 12 cells "
        f"(worst gap {worst_gap:.2e}); gradient runs end at certified "
        "stationary points; the 2- and 4-cell closed forms are reproduced"
    )
    _verdict(4, ok, detail)


def test_criterion_5_refinement_sweep():
    h = 0.1
    sizes = (8, 16, 32, 64, 128, 256)
    rows = perturbation_sweep(SweepConfig(h_list=[h], n_list=list(sizes)))
    ok = True
    for row in rows:
        n = row.n
        ok = ok and row.sign_changes == n - 1
        ok = ok and abs(row.f_star + h * h / 2.0) <= h * h / (3.0 * n * n)
        ok = ok and row.norm_Su_sq <= row.t_star**2 / (3.0 * n * n) + 1e-14
        baseline = value(h, ConePoint(h, GridFunction.zeros(Mesh(n))))
        ok = ok and baseline == 0.0 and row.f_star < baseline
    detail = (
        f"sweep at h={h} over n in {sizes}: every minimizer alternates sign "
        "each cell, the value approaches -h^2/2 at the quadratic rate, the "
        "image energy obeys the alternating-ray bound, and every row beats "
        "the zero-profile baseline"
    )
    _verdict(5, ok, detail)


def test_criterion_6_quadratic_growth_and_stability():
    ok = True
    deltas = {}
    for n in (16, 64):
        report = growth_estimate(Mesh(n), epsilon=1.0, samples=5000, seed=0)
        deltas[n] = report.delta_estimate
        ok = ok and report.delta_estimate >= 0.5 - 1e-9
    rows = perturbation_sweep(
        SweepConfig(h_list=[0.1], n_list=[8, 16, 32, 64, 128, 256])
    )
    ok = ok and all(row.prop2_ok for row in rows)
    record = stability_report(0.1, Mesh(16), 0.5)
    ok = ok and abs(record.row.prop2_bound - 0.4) <= 1e-15
    ok = ok and record.row.prop2_ok
    detail = (
        f"sampled growth constants {deltas} stay above the certified 1/2; "
        "every sweep row satisfies the perturbation bound, whose value at "
        "h=0.1 is 4h = 0.4"
    )
    _verdict(6, ok, detail)


def test_criterion_7_untilted_runs_collapse_to_the_apex():
    mesh = Mesh(64)
    worst_norm = worst_value = 0.0
    ok = True
    for s in range(20):
        rng = np.random.default_rng(7000 + s)
        report = solve_pgd(0.0, mesh, random_feasible_point(mesh, rng))
        x = report.minimizer
        norm = np.sqrt(norm_X_sq(x))
        worst_norm = max(worst_norm, norm)
        worst_value = max(worst_value, report.objective)
        ok = ok and norm <= 1e-6 and report.objective <= 1e-12
    detail = (
        "20 seeded gradient runs without tilt on 64 cells all end within "
        f"1e-6 of the apex (worst norm {worst_norm:.2e}, "
        f"worst value {worst_value:.2e})"
    )
    _verdict(7, ok, detail)


def test_criterion_8_deterministic_reports(tmp_path):
    commands = [
        ("verify-ssc", "--n", "32", "--samples", "500"),
        ("solve", "--method", "bangbang", "--n", "16", "--h", "0.5"),
        ("growth", "--n", "16", "--samples", "400"),
        ("stability", "--n", "16", "--h", "0.1", "--delta", "0.5"),
    ]
    ok = True
    for cmd in commands:
        first, second = _run_cli(*cmd), _run_cli(*cmd)
        ok = ok and first.stdout == second.stdout
        ok = ok and first.stderr == second.stderr
        ok = ok and first.returncode == second.returncode == 0
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        result = _run_cli(
            "sweep", "--h-list", "0.1,0.5", "--n-list", "4,16", "--out", str(path)
        )
        ok = ok and result.returncode == 0
    ok = ok and a.read_bytes() == b.read_bytes()
    detail = (
        "every command produces byte-identical stdout on repeated runs and "
        "repeated sweeps write byte-identical files"
    )
    _verdict(8, ok, detail)
