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

from .cone import Report, norm_X
from .grid import Mesh
from .objective import check_tilt
from .operators import norm_S_sq
from .solvers import METHODS, SolveReport, canonical_reports, solve_with_canonical_start
from .ssc import DELTA_CERTIFIED

_FORMATS = ("csv", "json")

@dataclass(frozen=True)
class SweepRow(Report):
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


SweepRow.KEYS = tuple(f.name for f in fields(SweepRow))
CSV_HEADER = ",".join(SweepRow.KEYS)


@dataclass(frozen=True)
class StabilityRecord(Report):
    """A sweep row plus the audited growth constant and the bound's slack."""

    row: SweepRow
    delta: float
    slack: float

    KEYS = ("delta", "slack")

    def as_dict(self) -> dict:
        return {**self.row.as_dict(), **super().as_dict()}


@dataclass(frozen=True)
class SweepConfig:
    """Validated sweep plan: tilts, mesh sizes and solver."""

    h_list: tuple
    n_list: tuple
    method: str = "bangbang"

    def __post_init__(self) -> None:
        object.__setattr__(self, "h_list", tuple(check_tilt(h) for h in self.h_list))
        object.__setattr__(self, "n_list", tuple(Mesh(n).n for n in self.n_list))
        if not self.h_list or not self.n_list:
            raise ValueError("h_list and n_list must be nonempty")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")


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

    The rows come from one solvers.canonical_reports plan, which solves
    each distinct (h, n) once, so every row equals the one a single
    solve_with_canonical_start gives.
    """
    solved = canonical_reports(cfg.h_list, cfg.n_list, cfg.method)
    rows = {
        (h, n): _make_row(h, Mesh(n), report, DELTA_CERTIFIED) for h, n, report in solved
    }
    return [rows[h, n] for h in cfg.h_list for n in cfg.n_list]


def stability_report(h: float, mesh: Mesh, delta: float) -> StabilityRecord:
    """Audit the bound ||minimizer|| <= 2 h / delta at one (h, mesh).

    delta is the quadratic-growth constant to audit against: the
    certified 1/2, or a growth_estimate result.  The minimizer is the
    bang-bang solver's from its canonical coarse-to-fine start
    (solvers.solve_with_canonical_start).
    """
    h = check_tilt(h)
    if not 0 < delta < math.inf:
        raise ValueError(f"delta must be positive and finite, got {delta!r}")
    row = _make_row(h, mesh, solve_with_canonical_start(h, mesh, "bangbang"), delta)
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
