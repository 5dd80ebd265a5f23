"""Oracles for every operation the benchmark runs.

Each check returns a list of misses, one short string per failed
condition; an empty list means the output met its oracle.  An operation
misses on a nonzero exit code, on standard output that is not strict
JSON (NaN and Infinity are rejected) and on a value outside its
oracle's tolerance.

The closed forms follow from the chain structure of m(sigma) =
||S sigma||^2: its minimum over sign patterns is 1/(3 n^2), reached by
2^ceil(n/2) patterns, so the global minimum of f_h on n cells is
f* = -h^2 / (2 + 4/(3 n^2)) at apex height t* = h / (1 + 2/(3 n^2)).
"""

from __future__ import annotations

import json
import math

REL_TOL = 1e-10
STATIONARITY_TOL = 1e-10
OBJECTIVE_SLACK = 1e-12
BETA_CERTIFIED = 1.0 / 6.0
DELTA_CERTIFIED = 0.5


def f_star(h: float, n: int) -> float:
    # h * h, not h ** 2: a huge tilt overflows to inf instead of raising.
    return -h * h / (2.0 + 4.0 / (3.0 * n * n))


def t_star(h: float, n: int) -> float:
    return h / (1.0 + 2.0 / (3.0 * n * n))


def tie_count(n: int) -> int:
    return 2 ** ((n + 1) // 2)


class StrictJSONError(ValueError):
    """Output that standard JSON parsers reject (NaN, Infinity)."""


def _reject_constant(name: str):
    raise StrictJSONError(f"non-standard JSON constant {name}")


def parse_strict(text: str):
    """Parse JSON text, rejecting the NaN/Infinity extensions."""
    return json.loads(text, parse_constant=_reject_constant)


def _close(actual, expected: float, rel: float = REL_TOL) -> bool:
    return (
        isinstance(actual, (int, float))
        and math.isfinite(actual)
        and abs(actual - expected) <= rel * abs(expected)
    )


def _parse(code: int, text: str, misses: list[str], kind: type = dict):
    """Strict JSON of the expected kind, or None with the reason in misses."""
    if code != 0:
        misses.append(f"exit code {code}")
    try:
        data = parse_strict(text)
    except ValueError as exc:
        misses.append(f"output is not strict JSON ({exc})")
        return None
    if not isinstance(data, kind) or (kind is list and not all(isinstance(r, dict) for r in data)):
        misses.append(f"output is not a JSON {'array of objects' if kind is list else 'object'}")
        return None
    return data


def check_sweep(code: int, text: str, h: float, n_list) -> list[str]:
    """A bang-bang refinement sweep written as a JSON array of rows."""
    misses: list[str] = []
    rows = _parse(code, text, misses, list)
    if rows is None:
        return misses
    if [row.get("n") for row in rows] != list(n_list):
        return misses + [f"rows for n={[row.get('n') for row in rows]}, want {list(n_list)}"]
    for row in rows:
        n = row["n"]
        if row.get("h") != h:
            misses.append(f"n={n}: h={row.get('h')}, want {h}")
        if not _close(row.get("f_star"), f_star(h, n)):
            misses.append(f"n={n}: f_star={row.get('f_star')}, want {f_star(h, n)}")
        if row.get("sign_changes") != n - 1:
            misses.append(f"n={n}: sign_changes={row.get('sign_changes')}, want {n - 1}")
        if row.get("prop2_ok") is not True:
            misses.append(f"n={n}: prop2_ok is not true")
    return misses


def check_exact(code: int, stdout: str, h: float, n: int) -> list[str]:
    """A global solve: closed-form f* and t*, and the tie count."""
    misses: list[str] = []
    report = _parse(code, stdout, misses)
    if report is None:
        return misses
    if not _close(report.get("objective"), f_star(h, n)):
        misses.append(f"objective={report.get('objective')}, want {f_star(h, n)}")
    minimizer = report.get("minimizer")
    t = minimizer.get("t") if isinstance(minimizer, dict) else None
    if not _close(t, t_star(h, n)):
        misses.append(f"t={t}, want {t_star(h, n)}")
    if report.get("tie_count") != tie_count(n):
        misses.append(f"tie_count={report.get('tie_count')}, want {tie_count(n)}")
    return misses


def pgd_certificate(report: dict, h: float, n: int) -> list[str]:
    """Local-minimizer certificate of a projected-gradient result.

    The result must be converged, a vertex point (no cell strictly inside
    [-t, t], which rules out the saddles PGD can stop at), first-order
    stationary, and no lower than the global minimum.
    """
    misses: list[str] = []
    if report.get("converged") is not True:
        misses.append("not converged")
    if report.get("nonvertex_cells") != 0:
        misses.append(f"nonvertex_cells={report.get('nonvertex_cells')}")
    stat = report.get("stationarity")
    if not (isinstance(stat, (int, float)) and stat <= STATIONARITY_TOL):
        misses.append(f"stationarity={stat}")
    obj = report.get("objective")
    if not (
        isinstance(obj, (int, float))
        and math.isfinite(obj)
        and obj >= f_star(h, n) - OBJECTIVE_SLACK
    ):
        misses.append(f"objective={obj} below or not comparable to f*={f_star(h, n)}")
    return misses


def pgd_report_certificate(report, h: float, n: int) -> list[str]:
    """pgd_certificate of a SolveReport object."""
    fields = ("converged", "nonvertex_cells", "stationarity", "objective")
    return pgd_certificate({k: getattr(report, k) for k in fields}, h, n)


def check_pgd_cli(code: int, stdout: str, h: float, n: int) -> list[str]:
    """`conelab solve --method pgd`: exit code, strict JSON, certificate."""
    misses: list[str] = []
    report = _parse(code, stdout, misses)
    if report is None:
        return misses
    return misses + pgd_certificate(report, h, n)


def check_verify_ssc(code: int, stdout: str) -> list[str]:
    misses: list[str] = []
    report = _parse(code, stdout, misses)
    if report is None:
        return misses
    beta = report.get("beta_estimate")
    if not (isinstance(beta, (int, float)) and beta >= BETA_CERTIFIED):
        misses.append(f"beta_estimate={beta} below {BETA_CERTIFIED}")
    if report.get("chain_checks_passed") is not True:
        misses.append("chain_checks_passed is not true")
    return misses


def check_growth(code: int, stdout: str) -> list[str]:
    misses: list[str] = []
    report = _parse(code, stdout, misses)
    if report is None:
        return misses
    delta = report.get("delta_estimate")
    if not (isinstance(delta, (int, float)) and delta >= DELTA_CERTIFIED):
        misses.append(f"delta_estimate={delta} below {DELTA_CERTIFIED}")
    return misses
