"""End-to-end checks of the command line interface, mostly via subprocess."""

import json
import os
import subprocess
import sys

import pytest

from conelab import CSV_HEADER, cli, ssc


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "conelab", *args],
        capture_output=True,
        text=True,
    )


def test_verify_ssc_command():
    result = run_cli("verify-ssc", "--n", "16", "--samples", "200")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["beta_estimate"] >= 1.0 / 6.0 - 1e-9
    assert payload["beta_certified"] == pytest.approx(1.0 / 6.0)
    assert payload["stationarity"] <= 1e-12
    assert payload["chain_checks_passed"] is True
    assert payload["samples"] >= 200
    assert "beta" in result.stderr


def test_verify_ssc_fails_when_a_chain_link_fails(monkeypatch, capsys):
    # with a negative slack the first link fails on every row, while the
    # estimate still clears the certified bound
    monkeypatch.setattr(ssc, "_CHAIN_TOL", -1.0)
    assert cli.main(["verify-ssc", "--n", "16", "--samples", "200"]) == 1
    out, err = capsys.readouterr()

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    payload = json.loads(out, parse_constant=reject)
    assert payload["chain_checks_passed"] is False
    assert payload["beta_estimate"] >= payload["beta_certified"]
    # the summary names the chain, and not the checks that passed
    assert err.endswith(": FAIL (chain)\n")


def test_verify_ssc_memory_is_bounded_in_samples():
    # the child reports its own peak RSS: RUSAGE_CHILDREN would keep the
    # maximum of every earlier test's subprocess, and on Linux the child's
    # own ru_maxrss starts from this process's high-water mark across
    # fork/exec, so it reads VmHWM where /proc has one; the command's
    # range processes, reaped before it returns, report their largest
    # peak as the child's RUSAGE_CHILDREN
    child = (
        "import contextlib, io, resource\n"
        "from conelab.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['verify-ssc', '--n', '8192', '--samples', '4000'])\n"
        "try:\n"
        "    with open('/proc/self/status') as status:\n"
        "        fields = dict(line.split(':', 1) for line in status)\n"
        "    peak_kib = int(fields['VmHWM'].split()[0])\n"
        "except (OSError, KeyError):\n"
        "    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "ranges_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss\n"
        "print(code, peak_kib, ranges_kib)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, text=True
    )
    code, peak_kib, ranges_kib = map(int, result.stdout.split())
    assert code == 0
    # one 4000 x 8192 array of doubles alone would take 250 MiB
    assert peak_kib < 256 * 1024
    assert ranges_kib < 256 * 1024


def test_solve_command_bruteforce():
    result = run_cli("solve", "--method", "brute", "--n", "2", "--h", "1.0")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["objective"] == pytest.approx(-3.0 / 7.0, abs=1e-14)
    assert payload["minimizer"]["t"] == pytest.approx(6.0 / 7.0, abs=1e-14)
    assert payload["tie_count"] == 2
    assert payload["converged"] is True
    # 2^25 sign patterns, 2^13 of them tied at the minimum
    result = run_cli("solve", "--method", "brute", "--n", "25", "--h", "1.0")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["tie_count"] == 2**13
    assert payload["tie_count_log2"] == 13
    assert payload["converged"] is True
    # --tol bounds the stationarity residual here as for the other methods
    result = run_cli(
        "solve", "--method", "brute", "--n", "8", "--h", "1", "--tol", "1e-30"
    )
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    assert payload["converged"] is False


def test_solve_command_bruteforce_past_the_int_string_limit():
    # 2^15000 tied patterns: 4516 decimal digits, more than Python's default
    # int/str conversion limit, so the exact count is reported as null
    result = run_cli("solve", "--method", "brute", "--n", "30000", "--h", "0.1")
    assert result.returncode == 0

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    payload = json.loads(result.stdout, parse_constant=reject)
    assert payload["tie_count"] is None
    assert payload["tie_count_log2"] == 15000
    assert payload["converged"] is True


def test_non_finite_report_exits_nonzero_with_empty_stdout():
    # at h = 1e200 the objective overflows to NaN; stdout stays strict JSON
    result = run_cli("solve", "--method", "brute", "--n", "8", "--h", "1e200")
    assert result.returncode != 0
    assert result.stdout == ""
    assert "error: " in result.stderr


def test_solve_command_pgd_untilted():
    result = run_cli("solve", "--method", "pgd", "--n", "8", "--h", "0.0")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["converged"] is True
    assert abs(payload["objective"]) <= 1e-12


def test_sweep_command_csv(tmp_path):
    out = tmp_path / "rows.csv"
    result = run_cli(
        "sweep", "--h-list", "0.1,0.5", "--n-list", "4,8", "--out", str(out)
    )
    assert result.returncode == 0
    assert "4 rows" in result.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == (
        "h,n,t_star,f_star,norm_Su_sq,norm_x,sign_changes,"
        "pontryagin_residual,stationarity,prop2_bound,prop2_ok"
    )
    assert len(lines) == 5


def test_sweep_command_json(tmp_path):
    out = tmp_path / "rows.json"
    result = run_cli(
        "sweep",
        "--h-list",
        "0.1",
        "--n-list",
        "4",
        "--format",
        "json",
        "--out",
        str(out),
    )
    assert result.returncode == 0
    parsed = json.loads(out.read_text())
    assert parsed[0]["n"] == 4
    assert parsed[0]["prop2_ok"] is True


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_refuses_non_finite_rows_in_either_format(tmp_path, fmt):
    # at h = 1e200 the objective overflows: f_star is nan, norm_Su_sq is inf
    out = tmp_path / f"rows.{fmt}"
    result = run_cli(
        "sweep", "--h-list", "1e200", "--n-list", "8", "--format", fmt, "--out", str(out)
    )
    assert result.returncode == 2
    assert "f_star is nan" in result.stderr
    assert result.stdout == ""
    assert not out.exists()
    assert not list(tmp_path.iterdir())


def test_growth_command():
    result = run_cli("growth", "--n", "16", "--samples", "500")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["delta_estimate"] >= 0.5 - 1e-9
    assert payload["epsilon"] == 1.0


def test_stability_command():
    result = run_cli("stability", "--n", "16", "--h", "0.1", "--delta", "0.5")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["prop2_bound"] == pytest.approx(0.4)
    assert payload["prop2_ok"] is True
    assert payload["slack"] > 0.0


def test_norm_x_at_a_tiny_tilt_in_stability_and_sweep(tmp_path):
    # t_star is about 1e-200, so t_star^2 underflows to 0
    stability = json.loads(run_cli("stability", "--n", "64", "--h", "1e-200").stdout)
    out = tmp_path / "rows.json"
    result = run_cli(
        "sweep", "--h-list", "1e-200", "--n-list", "64", "--format", "json", "--out", str(out)
    )
    assert result.returncode == 0
    (row,) = json.loads(out.read_text())
    for payload in (stability, row):
        assert payload["t_star"] > 1e-201
        assert payload["norm_x"] == pytest.approx(2**0.5 * payload["t_star"], rel=1e-14, abs=0.0)


def test_exact_minimizer_at_a_tiny_tilt_is_converged():
    # stationarity scales with h; a 1e-12 floor in the projection kept it at ||x||
    result = run_cli(
        "solve", "--method", "bangbang", "--n", "64", "--h", "1e-13", "--tol", "1e-20"
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["converged"] is True


def test_a_negative_zero_tilt_is_echoed_as_zero(tmp_path):
    stability = run_cli("stability", "--n", "4", "--h", "-0")
    out = tmp_path / "rows.csv"
    sweep = run_cli("sweep", "--h-list", "-0", "--n-list", "4", "--out", str(out))
    assert stability.returncode == 0 and sweep.returncode == 0
    # every value is zero, so no field may print a sign
    assert "-0" not in stability.stdout
    assert "-0" not in out.read_text()


def test_a_list_value_may_start_with_a_minus(tmp_path):
    spaced, attached = tmp_path / "spaced.csv", tmp_path / "attached.csv"
    first = run_cli("sweep", "--h-list", "-0,0.1,1", "--n-list", "8", "--out", str(spaced))
    second = run_cli("sweep", "--h-list=-0,0.1,1", "--n-list", "8", "--out", str(attached))
    assert first.returncode == 0 and second.returncode == 0
    assert spaced.read_bytes() == attached.read_bytes()
    # read as the list's value, a negative size meets the size check
    out = tmp_path / "rows.csv"
    result = run_cli("sweep", "--h-list", "0.1", "--n-list", "-4,8", "--out", str(out))
    assert result.returncode == 2
    assert "argument --n-list: expected an integer >= 1, got '-4'" in result.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "--n", "8", "--h", "-1e-5"),
        ("solve", "--n", "8", "--h", "1", "--tol", "-1e-5"),
        ("stability", "--n", "8", "--h", "0.1", "--delta", "-1e-3"),
        ("growth", "--n", "8", "--epsilon", "-1e-3"),
    ],
)
def test_a_single_value_may_start_with_a_minus(argv):
    # read as the option's value, it meets the range check, not "expected one argument"
    result = run_cli(*argv)
    assert result.returncode == 2
    assert result.stdout == ""
    assert "expected a finite number >= 0" in result.stderr


@pytest.mark.parametrize("argv", [("solve", "--help"), ("--help", "solve")])
def test_help_takes_no_value(argv):
    result = run_cli(*argv)
    assert result.returncode == 0
    assert result.stdout.startswith("usage: conelab")


def test_repeated_runs_are_byte_identical(tmp_path):
    first = run_cli("verify-ssc", "--n", "8", "--samples", "300")
    second = run_cli("verify-ssc", "--n", "8", "--samples", "300")
    assert first.stdout == second.stdout
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        run_cli("sweep", "--h-list", "0.1", "--n-list", "4,8", "--out", str(path))
    assert a.read_bytes() == b.read_bytes()


def test_invalid_usage_exits_two():
    assert run_cli("solve", "--n", "0", "--h", "1.0").returncode == 2
    assert run_cli("solve", "--no-such-flag").returncode == 2
    assert run_cli("no-such-command").returncode == 2
    assert (
        run_cli("stability", "--n", "4", "--h", "0.1", "--delta", "-1.0").returncode
        == 2
    )
    # a non-finite --tol would let any point pass as converged
    assert run_cli("solve", "--n", "8", "--h", "1", "--tol", "inf").returncode == 2
    assert run_cli("growth", "--n", "8", "--epsilon", "inf").returncode == 2
    assert (
        run_cli("stability", "--n", "4", "--h", "0.1", "--delta", "inf").returncode
        == 2
    )


def test_unwritable_output_exits_one():
    result = run_cli(
        "sweep",
        "--h-list",
        "0.1",
        "--n-list",
        "4",
        "--out",
        "/no-such-directory/rows.csv",
    )
    assert result.returncode == 1
    assert "no-such-directory" in result.stderr


def test_out_of_memory_exits_two_with_nothing_on_stdout(tmp_path):
    # under a 1.5 GiB address-space limit the first array of 3e8 cells
    # (2.24 GiB) cannot be allocated: each command reports that on one
    # stderr line, prints nothing and writes no file
    resource = pytest.importorskip("resource")
    if not hasattr(resource, "RLIMIT_AS"):
        pytest.skip("the platform has no address-space limit")
    limit = 3 * 2**29

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    out = tmp_path / "rows.csv"
    n = "300000000"
    for argv in (
        ["solve", "--method", "brute", "--n", n, "--h", "0.1"],
        ["verify-ssc", "--n", n, "--samples", "2"],
        ["sweep", "--method", "brute", "--n-list", n, "--h-list", "0.1", "--out", str(out)],
    ):
        result = subprocess.run(
            [sys.executable, "-m", "conelab", *argv],
            capture_output=True,
            text=True,
            env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
            preexec_fn=cap,
            timeout=120,
        )
        assert result.returncode == 2, (argv, result.stderr)
        assert result.stdout == ""
        assert "Traceback" not in result.stderr
        assert result.stderr.startswith("error: out of memory: ")
        assert result.stderr.count("\n") == 1
    assert not out.exists()


def test_unconverged_solve_exits_one():
    result = run_cli(
        "solve", "--method", "bangbang", "--n", "64", "--h", "0.1", "--max-iter", "1"
    )
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    assert payload["converged"] is False


def test_every_report_prints_its_keys_in_a_fixed_order(tmp_path, capsys):
    # the printed order of each report's keys (each command prints its
    # report's as_dict), nested points included
    solve = ["minimizer", "objective", "method", "iterations", "stationarity",
             "pontryagin_residual", "sign_changes", "converged", "tie_count",
             "tie_count_log2", "nonvertex_cells"]
    row = ["h", "n", "t_star", "f_star", "norm_Su_sq", "norm_x", "sign_changes",
           "pontryagin_residual", "stationarity", "prop2_bound", "prop2_ok"]
    coercivity = ["beta_estimate", "beta_exact", "beta_certified", "samples",
                  "worst_direction", "chain_checks_passed"]
    growth = ["delta_estimate", "delta_exact", "epsilon", "samples", "worst_point"]
    expected = [
        (["solve", "--method", "brute", "--n", "4", "--h", "0.1"], solve, "minimizer"),
        (["verify-ssc", "--n", "4", "--samples", "8"], ["stationarity", *coercivity],
         "worst_direction"),
        (["growth", "--n", "4", "--samples", "8"], growth, "worst_point"),
        (["stability", "--n", "4", "--h", "0.1"], [*row, "delta", "slack"], None),
    ]
    for argv, keys, point in expected:
        cli.main(argv)
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == keys, argv[0]
        if point:
            assert list(payload[point]) == ["t", "u"], argv[0]
    assert CSV_HEADER == ",".join(row)
    for fmt in ("csv", "json"):
        out = tmp_path / f"rows.{fmt}"
        cli.main(["sweep", "--h-list", "0.1", "--n-list", "4", "--format", fmt, "--out", str(out)])
        text = out.read_text()
        keys = text.splitlines()[0].split(",") if fmt == "csv" else list(json.loads(text)[0])
        assert keys == row, fmt
