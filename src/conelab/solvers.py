"""Minimizers of f_h over the cone, by three independent routes.

* solve_pgd: projected gradient descent with backtracking.
* solve_bangbang: descent on vertex sign patterns.  For fixed t the
  u-subproblem minimizes the concave quadratic ||S u||^2 - ||u||^2 / 2
  over the box [-t, t]^n (concave because 2 lambda_max(S*S) < 1, with
  lambda_max in closed form in operators.op_norm_SstarS), so
  its minimum sits at a vertex u = t * sigma, and along each ray u =
  t * sigma the objective is t^2 (1/2 + m) - h t with m = ||S sigma||^2,
  minimized at t = h / (1 + 2 m) with value -h^2 / (2 + 4 m).  Finding
  the best pattern therefore means minimizing m over sign vectors, and
  m = (width^3 / 6) sigma' K6 sigma = (width^3 / 3) E(sigma) with the
  integer matrix K6 and the integer walk energy E of operators, so all
  pattern comparisons are exact integer comparisons.  A sweep reads
  every flip gain from running prefix and suffix sums of the signs,
  O(n) per sweep with no K6 sigma vector.
* solve_bruteforce: the exact global minimum over all 2^n sign
  patterns, the oracle the iterative methods are tested against.  By
  the step-cost lemma of operators.walk_energy the minimizers are the
  walks within heights -1, 0 and 1, so it returns the alternating
  pattern and the tie count 2^ceil(n/2) in closed form, O(n) for any n.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .cone import (
    ConePoint,
    InfeasiblePointError,
    contains,
    norm_X,
    project,
    stationarity_residual,
)
from .grid import GridFunction, Mesh, MeshMismatchError
from .objective import gradient, quadratic_decrease, value
from .operators import apply_SstarS, norm_S_sq

MIN_BACKTRACK_STEP = 1e-16


@dataclass(frozen=True)
class SolverOptions:
    """Shared iteration controls."""

    max_iterations: int = 100000
    tolerance: float = 1e-10

    def __post_init__(self) -> None:
        if not isinstance(self.max_iterations, int) or self.max_iterations < 1:
            raise ValueError("max_iterations must be an integer >= 1")
        if not (0.0 < float(self.tolerance) < math.inf):
            raise ValueError("tolerance must be positive and finite")


@dataclass(frozen=True)
class PontryaginCheck:
    """Deviation from the pointwise bang-bang optimality conditions.

    residual is the worst-cell deviation; nonvertex_cells counts cells
    whose value is not at an endpoint of [-t, t], reported separately
    because cells with a vanishing multiplier pass the residual test at
    any interior value.
    """

    residual: float
    nonvertex_cells: int


@dataclass(frozen=True)
class SolveReport:
    minimizer: ConePoint
    objective: float
    method: str
    iterations: int
    stationarity: float
    pontryagin_residual: float
    sign_changes: int
    converged: bool
    tie_count: int | None = None
    nonvertex_cells: int = 0

    @property
    def tie_count_log2(self) -> float | None:
        return None if self.tie_count is None else math.log2(self.tie_count)

    def as_dict(self) -> dict:
        """The report as plain data.

        tie_count is null when its decimal form is longer than the
        interpreter converts (sys.get_int_max_str_digits); tie_count_log2
        still gives its size then.
        """
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
        tie_count = self.tie_count
        if tie_count is not None and limit and tie_count >= 10**limit:
            tie_count = None
        return {
            "minimizer": {"t": self.minimizer.t, "u": self.minimizer.u.values.tolist()},
            "objective": self.objective,
            "method": self.method,
            "iterations": self.iterations,
            "stationarity": self.stationarity,
            "pontryagin_residual": self.pontryagin_residual,
            "sign_changes": self.sign_changes,
            "converged": self.converged,
            "tie_count": tie_count,
            "tie_count_log2": self.tie_count_log2,
            "nonvertex_cells": self.nonvertex_cells,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), allow_nan=False)


def count_sign_changes(values: np.ndarray) -> int:
    """Number of adjacent cell pairs with strictly opposite signs."""
    v = np.asarray(values, dtype=float).reshape(-1)
    return int(np.count_nonzero(np.sign(v[:-1]) * np.sign(v[1:]) < 0.0))


def all_plus_signs(n: int) -> np.ndarray:
    return np.ones(n)


def alternating_signs(n: int) -> np.ndarray:
    signs = np.ones(n)
    signs[1::2] = -1.0
    return signs


def pontryagin_check(p: ConePoint, tol: float = 1e-10) -> PontryaginCheck:
    """Check the pointwise endpoint conditions satisfied by minimizers.

    Minimizing the objective cell by cell in u (all other cells and t
    held fixed) is a concave one-dimensional problem on [-t, t], so at
    any local minimizer each cell sits at the endpoint opposing the
    sign of the reduced derivative g = 2 S*S u - u: where |g_i| > tol
    the cell must equal -t * sign(g_i), and where g_i vanishes any box
    value is cellwise admissible, so only the box violation
    max(|u_i| - t, 0) is charged.  The returned residual is the worst
    deviation over cells; zero certifies the necessary condition.
    """
    if not contains(p, tol):
        raise InfeasiblePointError("the check applies to cone points only")
    u = p.u.values
    g = 2.0 * apply_SstarS(p.u).values - u
    active = np.abs(g) > tol
    deviation = np.where(
        active,
        np.abs(u + p.t * np.sign(g)),
        np.maximum(np.abs(u) - p.t, 0.0),
    )
    nonvertex = int(np.count_nonzero(np.abs(np.abs(u) - p.t) > tol))
    return PontryaginCheck(residual=float(deviation.max()), nonvertex_cells=nonvertex)


def _build_report(
    h: float,
    method: str,
    p: ConePoint,
    iterations: int,
    reached: bool,
    opts: SolverOptions,
    tie_count: int | None = None,
) -> SolveReport:
    stat = stationarity_residual(p, gradient(h, p))
    check = pontryagin_check(p, opts.tolerance)
    return SolveReport(
        minimizer=p,
        objective=value(h, p),
        method=method,
        iterations=iterations,
        stationarity=stat,
        pontryagin_residual=check.residual,
        sign_changes=count_sign_changes(p.u.values),
        converged=bool(reached and stat <= opts.tolerance),
        tie_count=tie_count,
        nonvertex_cells=check.nonvertex_cells,
    )


def _axpy(p: ConePoint, a: float, q: ConePoint) -> ConePoint:
    return ConePoint(p.t + a * q.t, GridFunction(p.mesh, p.u.values + a * q.u.values))


def solve_pgd(
    h: float, mesh: Mesh, start: ConePoint, opts: SolverOptions | None = None
) -> SolveReport:
    """Projected gradient descent from a feasible start.

    Each iteration takes one gradient g at x and projects x - alpha * g
    back onto the cone, with alpha halved from 1 until the objective
    decreases; the decrease is evaluated from g through the exact
    quadratic expansion (quadratic_decrease), which stays meaningful
    where the difference of two objective values would drown in
    cancellation.  The unit-step move project(x - g) - x serves twice:
    convergence is declared when its norm, the fixed-point residual,
    drops to opts.tolerance, and otherwise it is the step-1 trial, so
    project runs again only after a halving.  A backtracking stall
    (step below 1e-16 with no decrease) stops the iteration with
    converged=False.
    """
    opts = opts or SolverOptions()
    if start.mesh != mesh:
        raise MeshMismatchError("start must live on the target mesh")
    if not contains(start):
        raise InfeasiblePointError("solve_pgd requires a feasible start")
    x = start
    steps = 0
    reached = False
    while True:
        g = gradient(h, x)
        candidate = project(_axpy(x, -1.0, g))
        move = _axpy(candidate, -1.0, x)
        if norm_X(move) <= opts.tolerance:
            reached = True
            break
        if steps >= opts.max_iterations:
            break
        step = 1.0
        accepted = None
        while True:
            if quadratic_decrease(g, move) < 0.0:
                accepted = candidate
                break
            step *= 0.5
            if step < MIN_BACKTRACK_STEP:
                break
            candidate = project(_axpy(x, -step, g))
            move = _axpy(candidate, -1.0, x)
        if accepted is None:
            break
        x = accepted
        steps += 1
    return _build_report(h, "pgd", x, steps, reached, opts)


def _single_flips(s: list[int], total: int, polish: bool) -> tuple[int, bool]:
    # One left-to-right pass of single flips over s, in place; total is
    # sum_j tail_j s_j with tail_j = K6[j, j] + 1 = 6 n - 3 - 6 j.  The
    # cells ahead of i are still untouched, so with P the sum of the
    # signs before i (this pass's flips included) and Q the sum of
    # tail_j s_j after i, flipping cell i lowers sigma' K6 sigma by
    # 4 s_i (tail_i P + Q).  Returns the new total and whether a cell flipped.
    P, Q, t = 0, total, 6 * len(s) - 3
    moved = False
    for i in range(len(s)):
        si = s[i]
        Q -= t * si
        gain = si * (t * P + Q)
        if (si < 0 and gain == 0) if polish else gain > 0:
            si = s[i] = -si
            total += 2 * t * si
            moved = True
        P += si
        t -= 6
    return total, moved


def _pair_flips(s: list[int], total: int, polish: bool) -> tuple[int, bool]:
    # The same for flipping cells i and i+1 together.  The two single
    # gains minus 2 s_i s_{i+1} tail_{i+1} (the K6[i, i+1] coupling) sum
    # to (s_i tail_i + s_{i+1} tail_{i+1}) P + (s_i + s_{i+1}) R with R the
    # sum of tail_j s_j after i+1.
    P, t = 0, 6 * len(s) - 3
    Q = total - t * s[0]
    moved = False
    for i in range(len(s) - 1):
        si, sj, u = s[i], s[i + 1], t - 6
        R = Q - u * sj
        gain = (si * t + sj * u) * P + (si + sj) * R
        if (si < 0 and gain == 0) if polish else gain > 0:
            si, sj = s[i], s[i + 1] = -si, -sj
            total += 2 * (t * si + u * sj)
            moved = True
        P += si
        Q, t = R, u
    return total, moved


def _descend(s: list[int], max_sweeps: int) -> tuple[int, bool]:
    # The sweep loop of solve_bangbang on the signs s, in place: strict
    # single and pair passes, then the polish passes once neither moves.
    # Returns the sweeps run and whether s settled within max_sweeps.
    total = sum((6 * len(s) - 3 - 6 * j) * x for j, x in enumerate(s))
    sweeps = 0
    while sweeps < max_sweeps:
        sweeps += 1
        total, single = _single_flips(s, total, polish=False)
        total, pair = _pair_flips(s, total, polish=False)
        if not (single or pair):
            total, single = _single_flips(s, total, polish=True)
            total, pair = _pair_flips(s, total, polish=True)
            if not (single or pair):
                return sweeps, True
    return sweeps, False


def nested_bangbang_start(n: int, max_sweeps: int) -> list[int]:
    """The canonical bang-bang start on n cells, coarse to fine.

    For n <= 64 it is all-plus.  Above, it is the pattern bang-bang
    descends to on ceil(n / 2) cells from that mesh's own nested start,
    within max_sweeps sweeps, with each sign repeated twice and the
    result cut to n: nested iteration, the first half of full multigrid
    (Brandt 1977).  The start depends on bang-bang alone, never on the
    closed-form minimizer, and is a pure function of (n, max_sweeps).
    Each level keeps one list of Python ints; the coarse one is freed
    on return, before the caller descends the finer mesh.
    """
    if n <= 64:
        return [1] * n
    coarse = nested_bangbang_start((n + 1) // 2, max_sweeps)
    _descend(coarse, max_sweeps)
    s = [0] * n
    s[0::2] = coarse
    s[1::2] = coarse[: n // 2]
    return s


def _ray_optimum(h: float, mesh: Mesh, signs: np.ndarray) -> ConePoint:
    # The best point t * (1, sigma) on the ray of a sign pattern.
    t = h / (1.0 + 2.0 * norm_S_sq(GridFunction(mesh, signs)))
    return ConePoint(t, GridFunction(mesh, t * signs))


def solve_bangbang(
    h: float,
    mesh: Mesh,
    start_signs: np.ndarray,
    opts: SolverOptions | None = None,
) -> SolveReport:
    """Descend on sign patterns until no cellwise move improves.

    Works on m(sigma) = ||S sigma||^2 = (width^3 / 6) sigma' K6 sigma,
    which alone determines the ray optimum t = h / (1 + 2 m).  A sweep
    applies, in order, left to right: single flips with positive gain
    (flipping cell i lowers sigma' K6 sigma by 4 (sigma_i (K6 sigma)_i -
    K6_ii)), adjacent pair flips with positive gain (these escape the
    stalls single flips hit on domain walls), and, once no gaining move
    exists, zero-gain flips that turn the earliest possible -1 into +1.
    The last pass walks the plateau of tied patterns to its
    lexicographically smallest member (+1 before -1) without changing m,
    so tied runs land on one canonical pattern.

    Within a pass the cells ahead of the current one are untouched, so
    each gain is an exact integer from two running sums: the sum of the
    signs behind the cell and the sum of tail_j sigma_j over the cells
    ahead of it, where tail_j = 6 n + 3 - 6 j (1-based) is K6[k, j] for
    every k < j.  A pass is O(n) on Python ints; no K6 sigma vector is
    kept.

    Strict moves decrease the integer sigma' K6 sigma and polish moves
    strictly decrease the lexicographic key, so the iteration cannot
    cycle; it stops at a pattern where no move applies (converged) or
    at the sweep cap (converged=False).  iterations counts the sweeps
    on this mesh only, not those nested_bangbang_start spends on the
    coarser meshes of the canonical start.

    For h = 0 the ray optimum is t = 0 for every pattern, so the apex
    is returned immediately.
    """
    opts = opts or SolverOptions()
    signs = np.array(start_signs, dtype=float).reshape(-1)
    if signs.shape[0] != mesh.n or not np.all(np.abs(signs) == 1.0):
        raise ValueError("start_signs must be a length-n sequence of +/-1 entries")
    if h == 0:
        apex = ConePoint.apex(mesh)
        return _build_report(0.0, "bangbang", apex, 0, True, opts)
    s = signs.astype(np.int64).tolist()
    sweeps, settled = _descend(s, opts.max_iterations)
    p = _ray_optimum(h, mesh, np.array(s, dtype=float))
    return _build_report(h, "bangbang", p, sweeps, settled, opts)


def solve_bruteforce(
    h: float, mesh: Mesh, opts: SolverOptions | None = None
) -> SolveReport:
    """Global minimizer in closed form, by the step-cost lemma.

    Valid because the u-subproblem at fixed t is strictly concave on the
    box (2 lambda_max(S*S) < 1, the closed form of op_norm_SstarS), so the
    global minimizer is the apex or a vertex point t(sigma) * (1, sigma);
    the apex, with objective 0, never beats a ray value -h^2 / (2 + 4 m)
    and coincides with every ray optimum when h = 0.

    The best pattern minimizes the integer walk energy E(sigma), and
    operators.walk_energy proves that the minimizers are the 2^ceil(n/2)
    walks within heights -1, 0 and 1 (E = n), of which
    alternating_signs(n) is the lexicographically smallest (+1 first).
    tie_count is the number of tied patterns (sigma and -sigma always
    tie); iterations reports n, one per cell of the pattern.
    converged still requires the stationarity residual within
    opts.tolerance.
    """
    n = mesh.n
    opts = opts or SolverOptions()
    if h == 0:
        # Every ray optimum is t = 0: all 2^n patterns tie at the apex.
        return _build_report(
            0.0, "brute", ConePoint.apex(mesh), 0, True, opts, tie_count=2**n
        )
    p = _ray_optimum(h, mesh, alternating_signs(n))
    return _build_report(h, "brute", p, n, True, opts, tie_count=2 ** ((n + 1) // 2))
