"""Mesh-refinement sweeps, a stability audit, and their CSV/JSON output.

For h > 0 the minimizing cell pattern alternates sign (sign_changes =
n - 1 in every computed row), the minimum slides down toward -h^2/2 at
the rate 1/(3 n^2), and ||S u*||^2 vanishes at the same rate: refining
the mesh buys a lower objective only through ever faster oscillation.
The point the oscillating minimizers converge to weakly, (h, 0), has
objective exactly 0 and is undercut by every row.  Each row also
audits the stability bound ||minimizer|| <= 2 h / delta with the
certified growth constant delta = 1/2.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass, fields

from .cone import ConePoint, norm_X, project
from .grid import GridFunction, Mesh
from .objective import check_tilt
from .operators import norm_S_sq
from .solvers import (
    SolveReport,
    SolverOptions,
    all_plus_signs,
    bangbang_ladder,
    bangbang_report,
    solve_bangbang,
    solve_bruteforce,
    solve_pgd,
)
from .ssc import DELTA_CERTIFIED

_METHODS = ("pgd", "bangbang", "brute")
_FORMATS = ("csv", "json")

@dataclass(frozen=True)
class SweepRow:
    h: float
    n: int
    t_star: float
    f_star: float
    norm_Su_sq: float
    norm_x: float
    sign_changes: int
    pontryagin_residual: float
    stationarity: float
    prop2_bound: float
    prop2_ok: bool

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in _ROW_FIELDS}


_ROW_FIELDS = tuple(f.name for f in fields(SweepRow))
CSV_HEADER = ",".join(_ROW_FIELDS)


@dataclass(frozen=True)
class StabilityRecord:
    """A sweep row plus the audited growth constant and the bound's slack."""

    row: SweepRow
    delta: float
    slack: float

    def as_dict(self) -> dict:
        out = self.row.as_dict()
        out["delta"] = self.delta
        out["slack"] = self.slack
        return out

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), allow_nan=False)


@dataclass(frozen=True)
class SweepConfig:
    """Validated sweep plan: tilts, mesh sizes and solver."""

    h_list: tuple
    n_list: tuple
    method: str = "bangbang"

    def __post_init__(self) -> None:
        object.__setattr__(self, "h_list", tuple(check_tilt(float(h)) for h in self.h_list))
        object.__setattr__(self, "n_list", tuple(int(n) for n in self.n_list))
        if not self.h_list or not self.n_list:
            raise ValueError("h_list and n_list must be nonempty")
        for n in self.n_list:
            if n < 1:
                raise ValueError("mesh sizes must be >= 1")
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}")


def solve_with_canonical_start(
    h: float, mesh: Mesh, method: str, opts: SolverOptions | None = None
) -> SolveReport:
    """Run one solver from its fixed, documented start.

    bangbang starts coarse to fine, as in bangbang_ladder: all-plus
    up to 64 cells, above that the prolonged bang-bang minimizer of the
    next coarser mesh (h = 0 returns the apex before any sweep, so it
    starts from all-plus and builds no coarse level).  A bangbang solve
    is the one-level plan of a sweep (_bangbang_reports), so solve,
    stability and sweep report from one code path.  pgd starts from
    the projection of (h, 0), and brute needs no start.  Each start is
    a pure function of the mesh and opts.max_iterations, so a report
    does not depend on what was solved before it.  A negative or
    non-finite h is refused before any start is built.
    """
    h = check_tilt(h)
    opts = opts or SolverOptions()
    if method == "bangbang":
        ((_, _, report),) = _bangbang_reports((h,), (mesh.n,), opts)
        return report
    if method == "pgd":
        start = project(ConePoint(h, GridFunction.zeros(mesh)))
        return solve_pgd(h, mesh, start, opts)
    if method == "brute":
        return solve_bruteforce(h, mesh, opts)
    raise ValueError(f"method must be one of {_METHODS}")


def _bangbang_reports(h_list, n_list, opts: SolverOptions):
    # Yield (h, n, report) once for each distinct tilt and mesh size,
    # bang-bang from the canonical start.  For h > 0 the ray optimum is
    # -h^2 / (2 + 4 m), so the best pattern minimizes m alone: one
    # bangbang_ladder climb serves every tilt, and only the ray optimum
    # and the report are built per (h, n).  h = 0 descends nothing.
    tilts = set(h_list)
    if 0.0 in tilts:
        for n in set(n_list):
            yield 0.0, n, solve_bangbang(0.0, Mesh(n), all_plus_signs(n), opts)
        tilts.remove(0.0)
    if tilts:
        for n, signs, sweeps, settled in bangbang_ladder(n_list, opts.max_iterations):
            mesh = Mesh(n)
            for h in tilts:
                yield h, n, bangbang_report(h, mesh, signs, sweeps, settled, opts)


def _make_row(h: float, mesh: Mesh, report: SolveReport, delta: float) -> SweepRow:
    p = report.minimizer
    nx = norm_X(p)
    bound = 2.0 * h / delta
    return SweepRow(
        h=float(h),
        n=mesh.n,
        t_star=p.t,
        f_star=report.objective,
        norm_Su_sq=norm_S_sq(p.u),
        norm_x=nx,
        sign_changes=report.sign_changes,
        pontryagin_residual=report.pontryagin_residual,
        stationarity=report.stationarity,
        prop2_bound=bound,
        prop2_ok=bool(nx <= bound),
    )


def perturbation_sweep(cfg: SweepConfig) -> list[SweepRow]:
    """One row per (h, n), in the order the config lists them (h outer).

    Each distinct (h, n) is solved once.  bangbang rows come from one
    _bangbang_reports plan: each canonical level is descended once for
    the whole sweep and serves every tilt and every finer size that
    starts from it, and is dropped when no later row needs it.  Every
    row equals the one a single solve_with_canonical_start gives.
    """
    if cfg.method == "bangbang":
        solved = _bangbang_reports(cfg.h_list, cfg.n_list, SolverOptions())
    else:
        solved = (
            (h, n, solve_with_canonical_start(h, Mesh(n), cfg.method))
            for h in set(cfg.h_list)
            for n in set(cfg.n_list)
        )
    rows = {
        (h, n): _make_row(h, Mesh(n), report, DELTA_CERTIFIED) for h, n, report in solved
    }
    return [rows[h, n] for h in cfg.h_list for n in cfg.n_list]


def stability_report(h: float, mesh: Mesh, delta: float) -> StabilityRecord:
    """Audit the bound ||minimizer|| <= 2 h / delta at one (h, mesh).

    delta is the quadratic-growth constant to audit against: the
    certified 1/2, or a growth_estimate result.  The minimizer is the
    bang-bang solver's from its canonical coarse-to-fine start
    (solve_with_canonical_start).
    """
    h = check_tilt(h)
    if not delta > 0:
        raise ValueError("delta must be positive")
    report = solve_with_canonical_start(h, mesh, "bangbang")
    row = _make_row(h, mesh, report, delta)
    return StabilityRecord(row=row, delta=float(delta), slack=row.prop2_bound - row.norm_x)


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return repr(value)
    return format(value, ".17g")


def write_rows(rows, path: str, format: str = "csv") -> None:
    """Write sweep rows to path as CSV or a JSON array, atomically.

    CSV carries the fixed header and 17-significant-digit decimals, so
    reading the file back reproduces every double bit for bit.  A row
    holding a non-finite value is refused in either format (ValueError
    naming the field) before any file is created.  The content goes to
    a temporary file first and is renamed into place, so a failed write
    never leaves a partial file at path.
    """
    rows = list(rows)
    if not rows:
        raise ValueError("rows must be nonempty")
    if format not in _FORMATS:
        raise ValueError(f"format must be one of {_FORMATS}")
    for row in rows:
        for name, value in row.as_dict().items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"row h={row.h!r}, n={row.n}: {name} is {value!r}")
    if format == "csv":
        lines = [CSV_HEADER]
        lines += [",".join(_cell(v) for v in row.as_dict().values()) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps([row.as_dict() for row in rows], allow_nan=False) + "\n"
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    except OSError as exc:
        raise OSError(f"cannot write rows to {path!r}: {exc}") from exc
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except OSError as exc:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise OSError(f"cannot write rows to {path!r}: {exc}") from exc
