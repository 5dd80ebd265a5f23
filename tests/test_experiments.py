"""Sweep driver, report rows, and the atomic table writer."""

import dataclasses
import json
import math
import os
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conelab import (
    CSV_HEADER,
    DELTA_CERTIFIED,
    ConePoint,
    GridFunction,
    Mesh,
    SolverOptions,
    SweepConfig,
    cli,
    experiments,
    perturbation_sweep,
    solvers,
    solve_bangbang,
    solve_bruteforce,
    solve_with_canonical_start,
    stability_report,
    value,
    write_rows,
)
import oracles


def test_sweep_config_validation():
    SweepConfig(h_list=[0.1], n_list=[4])
    with pytest.raises(ValueError):
        SweepConfig(h_list=[], n_list=[4])
    with pytest.raises(ValueError):
        SweepConfig(h_list=[0.1], n_list=[])
    with pytest.raises(ValueError):
        SweepConfig(h_list=[-0.1], n_list=[4])
    with pytest.raises(ValueError):
        SweepConfig(h_list=[0.1], n_list=[0])
    with pytest.raises(ValueError):
        SweepConfig(h_list=[0.1], n_list=[4], method="simplex")
    # an untilted column is legitimate
    SweepConfig(h_list=[0.0], n_list=[4])
    # and a negative zero is stored without its sign
    assert not np.signbit(SweepConfig(h_list=[-0.0], n_list=[4]).h_list).any()


def test_sweep_config_checks_its_tilts_as_check_tilt_does():
    # a tilt check_tilt refuses is refused here too, not parsed by float()
    for h in (True, "0.5", None, 0.5j):
        with pytest.raises(ValueError, match="^tilt must be a finite real >= 0"):
            SweepConfig(h_list=[0.1, h], n_list=[4])
    cfg = SweepConfig(h_list=[np.float32(0.5), np.int64(1), 0], n_list=[4])
    assert cfg.h_list == (0.5, 1.0, 0.0) and all(type(h) is float for h in cfg.h_list)


def test_sweep_config_checks_its_sizes_as_mesh_does():
    # a size Mesh refuses is refused here too, not truncated or parsed
    for n in (2.7, True, "8", 0, -1):
        with pytest.raises(ValueError, match="^cell count must be"):
            SweepConfig(h_list=[0.1], n_list=[4, n])
    cfg = SweepConfig(h_list=[0.1], n_list=[np.int64(8), 2])
    assert cfg.n_list == (8, 2) and all(type(n) is int for n in cfg.n_list)


def test_sweep_row_closed_form_eight_cells():
    # alternating pattern on 8 cells: image energy fraction 1/(3 n^2)
    h, m = Fraction(1, 10), Fraction(1, 3 * 8 * 8)
    t = h / (1 + 2 * m)
    f = -h * h / (2 + 4 * m)
    cfg = SweepConfig(h_list=[0.1], n_list=[8], method="brute")
    (row,) = perturbation_sweep(cfg)
    assert row.h == 0.1 and row.n == 8
    assert_allclose(row.t_star, float(t), atol=1e-15)
    assert_allclose(row.f_star, float(f), atol=1e-15)
    assert_allclose(row.norm_Su_sq, float(t * t * m), atol=1e-16)
    assert_allclose(row.norm_x, float(t) * np.sqrt(2.0), rtol=1e-14)
    assert row.sign_changes == 7
    assert row.pontryagin_residual <= 1e-12
    assert row.stationarity <= 1e-12
    assert_allclose(row.prop2_bound, 0.4, rtol=1e-15)
    assert row.prop2_ok is True
    # the descent method lands on the same ray
    (bb_row,) = perturbation_sweep(
        SweepConfig(h_list=[0.1], n_list=[8], method="bangbang")
    )
    assert_allclose(bb_row.f_star, row.f_star, atol=1e-14)
    assert_allclose(bb_row.t_star, row.t_star, atol=1e-14)


def test_sweep_refinement_trends():
    h = 0.1
    cfg = SweepConfig(h_list=[h], n_list=[8, 16, 32, 64])
    rows = perturbation_sweep(cfg)
    values = [row.f_star for row in rows]
    assert all(a >= b for a, b in zip(values, values[1:]))
    for row in rows:
        n = row.n
        assert row.sign_changes == n - 1
        assert abs(row.f_star + h * h / 2.0) <= h * h / (3.0 * n * n)
        assert row.norm_Su_sq <= row.t_star**2 / (3.0 * n * n) + 1e-14
        assert row.f_star < 0.0
        baseline = ConePoint(h, GridFunction.zeros(Mesh(n)))
        assert value(h, baseline) == 0.0
        assert row.f_star < value(h, baseline)


def test_sweep_untilted_row_is_all_zero():
    (row,) = perturbation_sweep(SweepConfig(h_list=[0.0], n_list=[16]))
    assert row.t_star == 0.0
    assert row.f_star == 0.0
    assert row.norm_Su_sq == 0.0
    assert row.norm_x == 0.0
    assert row.sign_changes == 0
    assert row.prop2_bound == 0.0
    assert row.prop2_ok is True


def test_sweep_row_counts_sign_changes_at_a_tiny_tilt():
    (row,) = perturbation_sweep(SweepConfig(h_list=[1e-200], n_list=[6]))
    assert row.sign_changes == 5


def test_sweep_preserves_configuration_order():
    cfg = SweepConfig(h_list=[0.5, 0.1], n_list=[4, 2])
    rows = perturbation_sweep(cfg)
    assert [(row.h, row.n) for row in rows] == [
        (0.5, 4),
        (0.5, 2),
        (0.1, 4),
        (0.1, 2),
    ]
    # a repeated tilt or size gets its row every time it is listed
    for method in ("pgd", "bangbang", "brute"):
        cfg = SweepConfig(h_list=[0.5, 0.0, 0.5], n_list=[4, 2, 4], method=method)
        rows = perturbation_sweep(cfg)
        for row, (h, n) in zip(rows, [(h, n) for h in cfg.h_list for n in cfg.n_list]):
            report = solve_with_canonical_start(h, Mesh(n), method)
            assert row == experiments._make_row(h, Mesh(n), report, DELTA_CERTIFIED)


def test_sweep_with_projected_gradient_reports_a_vertex_local_minimizer():
    # PGD's canonical start first lands on the saddle (h/2, 0), where
    # f = -h^2/4, and escapes it to the ray optimum t * (1, sigma) of a
    # pattern with one sign change: a local minimizer above the global one
    h, mesh = 0.1, Mesh(8)
    (row,) = perturbation_sweep(SweepConfig(h_list=[h], n_list=[mesh.n], method="pgd"))
    assert row.sign_changes == 1
    assert row.pontryagin_residual == 0.0
    assert row.stationarity <= 1e-10
    assert_allclose(row.f_star, -h * h / (2.0 + 4.0 * row.norm_Su_sq / row.t_star**2), rtol=1e-9)
    assert solve_bruteforce(h, mesh).objective < row.f_star < -h * h / 4.0
    assert row.prop2_ok is True


def test_canonical_starts():
    mesh = Mesh(4)
    bb = solve_with_canonical_start(1.0, mesh, "bangbang")
    brute = solve_with_canonical_start(1.0, mesh, "brute")
    assert abs(bb.objective - brute.objective) <= 1e-12
    pgd = solve_with_canonical_start(1.0, mesh, "pgd")
    assert pgd.converged and pgd.nonvertex_cells == 0
    # a local minimizer, below the saddle (1/2, 0) where the first step lands
    assert brute.objective - 1e-12 <= pgd.objective < -0.25
    with pytest.raises(ValueError):
        solve_with_canonical_start(1.0, mesh, "annealing")


def test_nested_start_changes_nothing_but_iterations():
    sizes = [*range(1, 258), 511, 512, 513, 1023, 1024, 1025, 4095, 4096, 4097]
    for n in sizes:
        mesh = Mesh(n)
        for h in (0.0, 0.1, 1.0):
            nested = solve_with_canonical_start(h, mesh, "bangbang").as_dict()
            plain = solve_bangbang(h, mesh, np.ones(n)).as_dict()
            del nested["iterations"], plain["iterations"]
            assert nested == plain, (n, h)


def test_sweep_and_stability_output_match_the_all_plus_start(
    tmp_path, monkeypatch, capsys
):
    # sizes above 64, where the nested start differs from all-plus
    sizes, tilts = ["65", "100", "257", "1000"], ["0", "0.1", "1"]
    argvs = [["stability", "--n", n, "--h", h] for n in sizes for h in tilts]
    argvs += [
        ["sweep", "--h-list", ",".join(tilts), "--n-list", ",".join(sizes),
         "--format", fmt, "--out", fmt]
        for fmt in ("csv", "json")
    ]

    def outputs(directory):
        directory.mkdir()
        monkeypatch.chdir(directory)
        captured = []
        for argv in argvs:
            assert cli.main(argv) == 0
            captured.append(capsys.readouterr().out)
        captured += [(directory / fmt).read_bytes() for fmt in ("csv", "json")]
        return captured

    nested = outputs(tmp_path / "nested")
    # every tilted bang-bang report, single or swept, reads its levels
    # from bangbang_ladder; the stand-in descends each size from all-plus
    climbs = []

    def all_plus_ladder(n_list, max_sweeps):
        climbs.append(sorted(set(n_list)))
        for n in climbs[-1]:
            s = np.ones(n, np.int8)
            sweeps, settled = solvers._descend(s, max_sweeps)
            yield n, s, sweeps, settled

    monkeypatch.setattr(solvers, "bangbang_ladder", all_plus_ladder)
    assert outputs(tmp_path / "all_plus") == nested
    assert climbs.count([65, 100, 257, 1000]) == 2  # the two sweeps
    assert climbs.count([65]) == 2  # the stability runs at h = 0.1 and 1


@pytest.mark.parametrize(
    "n_list",
    [(512, 1024, 2048, 4096), (65, 129, 257, 513), (4096, 512, 2048, 64, 64, 65),
     (1, 2, 3, 33, 64)],
)
def test_sweep_rows_equal_single_solves(n_list):
    # levels shared across rows and tilts give every row the bytes of a
    # one-level solve, and that solve's report is solve_bangbang's from
    # the nested start built afresh by its definition, iterations included
    cfg = SweepConfig(h_list=(0.0, -0.0, 1e-200, 0.1, 1.0), n_list=n_list)
    rows = perturbation_sweep(cfg)
    pairs = [(h, n) for h in cfg.h_list for n in cfg.n_list]
    assert [(row.h, row.n) for row in rows] == pairs
    opts = SolverOptions()
    starts = {n: oracles.nested_start(n, opts.max_iterations) for n in set(n_list)}
    singles = {}
    for row, (h, n) in zip(rows, pairs):
        mesh = Mesh(n)
        report = singles[h, n] = solve_with_canonical_start(h, mesh, "bangbang", opts)
        single = experiments._make_row(h, mesh, report, DELTA_CERTIFIED)
        assert json.dumps(row.as_dict()) == json.dumps(single.as_dict()), (h, n)
        reference = solve_bangbang(h, mesh, starts[n], opts)
        assert report.to_json() == reference.to_json(), (h, n)
    # rows carry no sweep count, so the swept reports are held to it too
    swept = solvers.canonical_reports(cfg.h_list, cfg.n_list, "bangbang", opts)
    for h, n, report in swept:
        assert report.to_json() == singles.pop((h, n)).to_json(), (h, n)
    assert not singles


def test_a_sweep_descends_each_level_once(monkeypatch):
    descend, levels = solvers._descend, []

    def counted(s, max_sweeps):
        levels.append(len(s))
        return descend(s, max_sweeps)

    monkeypatch.setattr(solvers, "_descend", counted)
    ladder = [64, 128, 256, 512, 1024, 2048, 4096]
    perturbation_sweep(SweepConfig(h_list=(0.1, 0.5, 1), n_list=(512, 1024, 2048, 4096)))
    assert sorted(levels) == ladder
    levels.clear()
    perturbation_sweep(SweepConfig(h_list=(0.0, -0.0), n_list=(512, 4096)))
    assert levels == []
    solve_with_canonical_start(0.1, Mesh(4096), "bangbang")
    assert levels == ladder


@pytest.mark.parametrize(
    "method, solver", [("pgd", "solve_pgd"), ("brute", "solve_bruteforce")]
)
def test_a_sweep_solves_each_distinct_tilt_and_size_once(method, solver, monkeypatch):
    original, calls = getattr(solvers, solver), []

    def counted(h, mesh, *args):
        calls.append((h, mesh.n))
        return original(h, mesh, *args)

    monkeypatch.setattr(solvers, solver, counted)
    cfg = SweepConfig(h_list=(0.5, 0.0, -0.0, 0.5, 0.1), n_list=(8, 2, 8, 1, 2), method=method)
    rows = perturbation_sweep(cfg)
    assert sorted(calls) == [(h, n) for h in (0.0, 0.1, 0.5) for n in (1, 2, 8)]
    assert [(row.h, row.n) for row in rows] == [(h, n) for h in cfg.h_list for n in cfg.n_list]


def test_stability_report():
    record = stability_report(0.1, Mesh(16), 0.5)
    assert record.row.prop2_bound == 0.4
    assert record.delta == 0.5
    assert record.row.prop2_ok is True
    assert_allclose(
        record.row.norm_x, record.row.t_star * np.sqrt(2.0), rtol=1e-14
    )
    assert_allclose(record.slack, 0.4 - record.row.norm_x, rtol=1e-14)
    parsed = json.loads(record.to_json())
    assert parsed["prop2_ok"] is True
    assert parsed["delta"] == 0.5
    with pytest.raises(ValueError):
        stability_report(0.1, Mesh(16), 0.0)
    with pytest.raises(ValueError):
        stability_report(0.1, Mesh(16), -0.5)
    for delta in (math.inf, math.nan):
        with pytest.raises(ValueError, match="delta must be positive and finite"):
            stability_report(0.1, Mesh(8), delta)


def test_stability_report_refuses_a_delta_that_is_not_a_real():
    # as check_tilt: True is not the constant 1.0, a string is not parsed,
    # and None or a complex is refused with ValueError, not TypeError
    for bad in (True, np.bool_(True), "0.5", None, 0.5j, [0.5], 10**400):
        with pytest.raises(ValueError, match="delta must be positive and finite"):
            stability_report(0.1, Mesh(8), bad)
    # a real of another type gives the record of its float
    expected = stability_report(0.1, Mesh(8), 0.5).to_json()
    for good in (Fraction(1, 2), np.float32(0.5), np.float64(0.5)):
        assert stability_report(0.1, Mesh(8), good).to_json() == expected


def test_stability_report_untilted_is_tight():
    record = stability_report(0.0, Mesh(8), DELTA_CERTIFIED)
    assert record.row.norm_x == 0.0
    assert record.row.prop2_bound == 0.0
    assert record.row.prop2_ok is True
    assert record.slack == 0.0


def test_write_rows_csv(tmp_path):
    rows = perturbation_sweep(SweepConfig(h_list=[0.5, 0.1], n_list=[2, 4]))
    path = tmp_path / "table.csv"
    write_rows(rows, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert (
        lines[0]
        == "h,n,t_star,f_star,norm_Su_sq,norm_x,sign_changes,"
        "pontryagin_residual,stationarity,prop2_bound,prop2_ok"
    )
    assert len(lines) == 1 + len(rows)
    first = lines[1].split(",")
    assert float(first[0]) == 0.5
    assert int(first[1]) == 2
    # 17 significant digits round-trip every double exactly
    assert float(first[3]) == rows[0].f_star
    assert first[10] in ("true", "false")
    assert not list(tmp_path.glob("*.tmp"))


def test_write_rows_json(tmp_path):
    rows = perturbation_sweep(SweepConfig(h_list=[0.1], n_list=[2]))
    path = tmp_path / "table.json"
    write_rows(rows, str(path), format="json")
    parsed = json.loads(path.read_text())
    assert isinstance(parsed, list) and len(parsed) == 1
    assert parsed[0]["f_star"] == rows[0].f_star
    assert parsed[0]["prop2_ok"] is True


def test_write_rows_is_deterministic(tmp_path):
    rows = perturbation_sweep(SweepConfig(h_list=[0.1], n_list=[4, 8]))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_rows(rows, str(a))
    write_rows(rows, str(b))
    assert a.read_bytes() == b.read_bytes()


def test_write_rows_errors(tmp_path):
    rows = perturbation_sweep(SweepConfig(h_list=[0.1], n_list=[2]))
    with pytest.raises(ValueError):
        write_rows([], str(tmp_path / "empty.csv"))
    with pytest.raises(ValueError):
        write_rows(rows, str(tmp_path / "t.yaml"), format="yaml")
    nan_rows = [dataclasses.replace(rows[0], f_star=float("nan"))]
    with pytest.raises(ValueError):  # strict JSON has no NaN
        write_rows(nan_rows, str(tmp_path / "nan.json"), format="json")
    assert not (tmp_path / "nan.json").exists()
    missing = os.path.join(str(tmp_path), "no-such-dir", "t.csv")
    with pytest.raises(OSError, match="no-such-dir"):
        write_rows(rows, missing)
