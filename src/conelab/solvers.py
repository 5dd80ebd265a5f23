"""Minimizers of f_h over the cone, by three independent routes.

* solve_pgd: projected gradient descent with backtracking and a face step.
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
  pattern comparisons are exact integer comparisons.  Every pass of a
  sweep, single or pair, strict or polish, is _flips, O(n) with no
  K6 sigma vector; _flips and _descend give its shared int64 gain scan,
  its run as a two-state transducer (a segmented prefix scan over
  two-state maps, Blelloch 1990) and the bound that keeps it exact.
* solve_bruteforce: the exact global minimum over all 2^n sign
  patterns, the oracle the iterative methods are tested against.  By
  the step-cost lemma of operators.walk_energy the minimizers are the
  walks within heights -1, 0 and 1, so it returns the alternating
  pattern and the tie count 2^ceil(n/2) in closed form, O(n) for any n.

canonical_reports is the one plan that starts every method: a single
solve (solve_with_canonical_start), a stability audit and a sweep all
read their reports from it.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cone import (
    ConePoint,
    InfeasiblePointError,
    Report,
    contains,
    norm_X_values,
    project,
    project_values,
)
from .grid import GridFunction, Mesh, MeshMismatchError
from .objective import _real, check_tilt, gradient_values, quadratic_decrease_values, value
from .operators import SstarS_values, alternating_signs, apply_SstarS, walk_energy

MIN_BACKTRACK_STEP = 1e-16
METHODS = ("pgd", "bangbang", "brute")


@dataclass(frozen=True)
class SolverOptions:
    """Shared iteration controls."""

    max_iterations: int = 100000
    tolerance: float = 1e-10

    def __post_init__(self) -> None:
        cap = self.max_iterations
        if not isinstance(cap, (int, np.integer)) or isinstance(cap, bool) or cap < 1:
            raise ValueError("max_iterations must be an integer >= 1")
        object.__setattr__(self, "max_iterations", int(cap))
        tol = _real(self.tolerance)
        if not 0.0 < tol < math.inf:
            raise ValueError("tolerance must be positive and finite")
        object.__setattr__(self, "tolerance", tol)


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
class SolveReport(Report):
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

    KEYS = (
        "minimizer", "objective", "method", "iterations", "stationarity",
        "pontryagin_residual", "sign_changes", "converged", "tie_count",
        "tie_count_log2", "nonvertex_cells",
    )

    @property
    def tie_count_log2(self) -> float | None:
        return None if self.tie_count is None else math.log2(self.tie_count)

    def as_dict(self) -> dict:
        """The report as plain data.

        tie_count is null when its decimal form is longer than the
        interpreter converts (sys.get_int_max_str_digits); tie_count_log2
        still gives its size then.
        """
        out = super().as_dict()
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
        ties = self.tie_count
        # every count below 2^(3 limit) < 10^limit fits, so 10^limit is formed only above
        if ties is not None and limit and ties.bit_length() > 3 * limit and ties >= 10**limit:
            out["tie_count"] = None
        return out


def count_sign_changes(values: np.ndarray) -> int:
    """Number of adjacent cell pairs with strictly opposite signs."""
    v = np.asarray(values, dtype=float).reshape(-1)
    return int(np.count_nonzero(np.sign(v[:-1]) * np.sign(v[1:]) < 0.0))


def _interior(t: float, u: np.ndarray, tol: float) -> np.ndarray:
    # The cells off both endpoints of [-t, t] by more than the absolute tol.
    return np.abs(np.abs(u) - t) > tol


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
    return _pontryagin(p.t, u, gradient_values(u, apply_SstarS(p.u).values), tol)


def _pontryagin(t: float, u: np.ndarray, g: np.ndarray, tol: float) -> PontryaginCheck:
    # pontryagin_check of the cone point (t, u), given g = 2 S*S u - u.
    active = np.abs(g) > tol
    deviation = np.where(active, np.abs(u + t * np.sign(g)), np.maximum(np.abs(u) - t, 0.0))
    nonvertex = int(np.count_nonzero(_interior(t, u, tol)))
    return PontryaginCheck(residual=float(deviation.max()), nonvertex_cells=nonvertex)


def _build_report(
    h: float,
    method: str,
    p: ConePoint,
    gu: np.ndarray,
    stationarity: float,
    iterations: int,
    reached: bool,
    opts: SolverOptions,
    tie_count: int | None = None,
) -> SolveReport:
    # The report at p from the solver's own u-gradient gu = 2 S*S u - u
    # and stationarity residual there: the one S*S u serves both checks.
    check = _pontryagin(p.t, p.u.values, gu, opts.tolerance)
    return SolveReport(
        minimizer=p,
        objective=value(h, p),
        method=method,
        iterations=iterations,
        stationarity=stationarity,
        pontryagin_residual=check.residual,
        sign_changes=count_sign_changes(p.u.values),
        converged=bool(reached and stationarity <= opts.tolerance and not check.nonvertex_cells),
        tie_count=tie_count,
        nonvertex_cells=check.nonvertex_cells,
    )


def _finite(mesh: Mesh, t: float, u: np.ndarray) -> tuple[float, np.ndarray]:
    """(t, u), refused if not finite with the error its ConePoint would raise."""
    if not (math.isfinite(t) and np.isfinite(u).all()):
        ConePoint(t, GridFunction(mesh, u))
    return t, u


def _candidate(mesh: Mesh, t: float, u: np.ndarray, yt: float, yu: np.ndarray) -> tuple:
    # The candidate P_C(y) of y = (yt, yu) and its move P_C(y) - x from
    # x = (t, u), y and the move _finite (v clips a finite yu, so a
    # non-finite tau shows in the move).
    tau, v = project_values(*_finite(mesh, yt, yu), mesh.width)
    return tau, v, *_finite(mesh, tau - t, v - u)


def _unit_step(mesh: Mesh, h: float, t: float, u: np.ndarray) -> tuple:
    # The one point evaluation of every solver at x = (t, u): the _finite
    # gradient g = (2 t - h, 2 S*S u - u), the _candidate of x - g and its
    # move's norm ||P_C(x - g) - x||, the residual every report certifies.
    gt, gu = _finite(mesh, 2.0 * t - h, gradient_values(u, SstarS_values(u, mesh.width)))
    candidate = _candidate(mesh, t, u, t - gt, u - gu)
    return gt, gu, candidate, norm_X_values(*candidate[2:], mesh.width)


def _ray_point(h: float, signs: np.ndarray, width: float) -> tuple[float, np.ndarray]:
    # The ray optimum t * (1, sigma) of the float signs sigma as bare
    # values, with ||S sigma||^2 taken as norm_S_sq takes it.
    t = h / (1.0 + 2.0 * float(width**3 / 3.0 * walk_energy(signs)))
    return t, t * signs


def _face_step(
    h: float, t: float, u: np.ndarray, gt: float, gu: np.ndarray, sigma: np.ndarray,
    mesh: Mesh, tol: float,
) -> tuple | None:
    # solve_pgd's trial from (t, u) of the ray optimum r of the float signs
    # sigma: r, its gradient and unit-step residual if kept, else None; an
    # overflow declines it silently.
    rt, ru = _ray_point(h, sigma, mesh.width)
    with np.errstate(over="ignore", invalid="ignore"):
        if not quadratic_decrease_values(gt, gu, rt - t, ru - u, mesh.width) <= 0.0:
            return None
        rgt, rgu, _, residual = _unit_step(mesh, h, rt, ru)
    return (rt, ru, rgt, rgu, residual) if residual <= tol else None


def solve_pgd(
    h: float, mesh: Mesh, start: ConePoint, opts: SolverOptions | None = None
) -> SolveReport:
    """Projected gradient descent from a feasible start.

    Each pass opens with one _unit_step at x, which gives the gradient g,
    the candidate project(x - g) and the norm of its move: that
    residual stops the iteration at opts.tolerance and is the report's
    stationarity, and otherwise the candidate is the step-1 trial, alpha
    halved from 1 until the exact change quadratic_decrease_values of
    the move to project(x - alpha * g) is negative.  A stall (step below
    1e-16 with no decrease) stops it with converged=False.

    A stationary point with cells strictly inside [-t, t] (by more than
    the absolute opts.tolerance, as pontryagin_check counts them) is a
    saddle, not a minimizer: the u-subproblem at fixed t is strictly
    concave (2 lambda_max(S*S) < 1), so moving each interior cell to
    -t * sign(g_i), or to +t where g_i = 0, lowers f.  That escape step
    is taken at fixed t when quadratic_decrease_values confirms the
    decrease, counts as an iteration, and the descent resumes; when it
    does not, the point is reported with converged=False, as every
    report off the vertices is.  PGD so certifies a local minimizer, not
    the global one (all-plus, for one, is a fixed point).

    On an identified face PGD only halves its residual along one ray
    (Calamai and More 1987); the exact minimization there (More and
    Toraldo 1991) is the ray optimum r of the face's signs sigma, as
    bang-bang and brute report it.  PGD reads sigma = -sign(g_u) off each
    pass's own gradient (+1 where signbit(g_i), -1 elsewhere), the vertex
    pontryagin_check asks of every cell: the unit step sends an interior
    cell to 2 u_i - 2 (S*S u)_i, doubling its distance from the value
    where g_i = 0, so its final sign is known passes before it reaches
    -t * sign(g_i).  When two passes in a row that do not stop (the rule
    of their GPCG) give one sigma, r is tried once per sigma.  It is
    kept, as the last iteration, only if f does not rise and r's own
    _unit_step residual is within opts.tolerance; else nothing is
    counted, since the closed form's float residual can miss a tolerance
    the iterates meet (about 1e134 at h = 1e150, where theirs reaches 0).

    x is kept as a float t and an array u for the array kernels
    gradient_values, project_values and quadratic_decrease_values; a
    non-finite gradient, x - alpha * g or move raises the error of its
    ConePoint.
    """
    opts = opts or SolverOptions()
    if start.mesh != mesh:
        raise MeshMismatchError("start must live on the target mesh")
    if not contains(start):
        raise InfeasiblePointError("solve_pgd requires a feasible start")
    h, width = check_tilt(h), mesh.width
    t, u = start.t, start.u.values
    steps, face, tried = 0, None, set()
    while True:
        gt, gu, (tau, v, mt, mu), residual = _unit_step(mesh, h, t, u)
        done = residual <= opts.tolerance or steps >= opts.max_iterations
        # the face step: one sigma = -sign(g), read as signbit(g), twice in a row
        key = None if done else np.signbit(gu).tobytes()
        if key is not None and key == face and key not in tried:
            tried.add(key)
            sigma = np.copysign(1.0, gu) * -1.0  # not np.negative: a new ufunc pages in 0.14 MiB
            trial = _face_step(h, t, u, gt, gu, sigma, mesh, opts.tolerance)
            if trial:
                (t, u, gt, gu, residual), done = trial, True
                steps += 1
        face = key
        step = 1.0
        while not (done or quadratic_decrease_values(gt, gu, mt, mu, width) < 0.0):
            step *= 0.5
            if step < MIN_BACKTRACK_STEP:
                break
            tau, v, mt, mu = _candidate(mesh, t, u, t - step * gt, u - step * gu)
        if residual <= opts.tolerance and steps < opts.max_iterations:
            inside = _interior(t, u, opts.tolerance)
            if inside.any():  # a saddle: the escape step, at fixed t
                tau, v = t, np.where(inside, np.where(gu > 0.0, -t, t), u)
                done = not quadratic_decrease_values(gt, gu, 0.0, v - u, width) < 0.0
        if done or step < MIN_BACKTRACK_STEP:
            break
        t, u = tau, v
        steps += 1
    # + 0.0: a projection onto the apex, or the face step at h = 0, leaves
    # -0.0 cells; report +0.0 ones, as vertex reports do
    x = ConePoint(t, GridFunction(mesh, u + 0.0))
    reached = residual <= opts.tolerance
    return _build_report(h, "pgd", x, gu, residual, steps, reached, opts)


# Every integer a pass forms has magnitude below 18 n^2 (see _descend),
# so int64 holds it exactly while 18 n^2 < 2^63.
_MAX_N = math.isqrt((2**63 - 1) // 18)  # 715,827,882

# bangbang_ladder starts every level of up to _BASE_N cells all-plus.
_BASE_N = 64

# Levels this small walk every moving pass: on the all-plus base levels
# the passes visit up to 33 states, and a walk over their cells costs
# less than the numpy calls of a transducer that would escape.
_WALK_MAX_N = _BASE_N


def _check_size(n: int) -> None:
    # Refuse a level the int64 gain scan cannot hold, before it is built.
    if n > _MAX_N:
        raise ValueError(
            f"bang-bang descends at most {_MAX_N} cells (18 n^2 < 2^63 for its "
            f"int64 gain scan), got n = {n}"
        )


class _Scan:
    # The int64 gain scan of one sign pattern (_descend): a, w, P, Q and
    # the single and pair gains.

    def __init__(self, s: np.ndarray) -> None:
        self.a = a = s.astype(np.int64)
        self.w = w = np.arange(6 * len(s) - 3, 0, -6, dtype=np.int64) * a
        C = np.cumsum(w)
        self.P = np.cumsum(a) - a
        self.Q = C[-1] - C

    @cached_property
    def single(self) -> np.ndarray:
        return self.w * self.P + self.a * self.Q

    @cached_property
    def pair(self) -> np.ndarray:
        a, w = self.a, self.w
        return (w[:-1] + w[1:]) * self.P[:-1] + (a[:-1] + a[1:]) * self.Q[1:]


def _moves(gain: np.ndarray, first: np.ndarray, polish: bool) -> np.ndarray:
    # The move rule on the cells (pairs) of a pass: a positive gain, or
    # when polishing a zero gain where the first sign is -1.
    return (first < 0) & (gain == 0) if polish else gain > 0


def _transduce(
    s: np.ndarray, scan: _Scan, k: int, move_a: np.ndarray, polish: bool, pair: bool
) -> tuple[int, int, int] | None:
    # The pass after its first move at k, with move_a the moves of state
    # A on the cells after k, as a transducer on {A, B} (_flips).  Each
    # cell maps A and B to A, B or "escape", so its map on {A, B} is
    # affine over GF(2), b' = d ^ (c & b): constant where c is 0, the
    # identity or a swap where c is 1.  The state entering every cell is
    # then the xor of d from the last constant map on, one
    # maximum.accumulate and one xor accumulate; an escaping entry is
    # replaced by a constant, which no state before the first escape
    # reads.  Applies every flip before the first cell whose actual
    # transition escapes and returns that cell with its exact P and Q
    # for _walk, or None when the pass ends in {A, B}.
    a, w, P, Q = scan.a, scan.w, scan.P, scan.Q
    ak, j = int(a[k]), k + 1
    dP = -2 * ak
    if pair:
        x = a[j:-1]
        gain_b = (w[j + 1 :] - w[j:-1]) * (P[j:-1] + dP) + (a[j + 1 :] - x) * Q[j + 1 :]
        move_b = _moves(gain_b, -x, polish)
    else:
        x = a[j:]
        move_b = _moves(scan.single[j:] + dP * w[j:], x, polish)
    # A move from A leads to B, or escapes when it changes dP the other
    # way.  B returns to A only when the cell's sign undoes dP: in a
    # single pass by moving, in a pair pass by not moving (a move keeps
    # B); to_b is where B goes when it does not escape.
    same = x == ak
    esc_a = move_a & ~same
    to_b = move_b if pair else ~move_b
    esc_b = same & (~move_b if pair else move_b)
    m = len(x)
    d = np.empty(m + 1, bool)
    d[0] = True  # the state entering cell k + 1 is B
    d[1:] = np.where(esc_a, to_b, move_a)
    c = np.empty(m + 1, bool)
    c[0] = False
    c[1:] = (move_a ^ to_b) & ~(esc_a | esc_b)
    last = np.arange(m + 1)
    last[c] = 0
    last = np.maximum.accumulate(last[:m])
    xor = np.zeros(m + 2, bool)
    np.logical_xor.accumulate(d, out=xor[1:])
    in_b = xor[1:-1] ^ xor[last]  # whether the state entering each cell is B
    escaped = np.where(in_b, esc_b, esc_a)
    e = int(escaped.argmax()) if escaped.any() else m
    moved = np.empty(e + 1, bool)
    moved[0] = True
    moved[1:] = np.where(in_b[:e], move_b[:e], move_a[:e])
    if pair:
        edges = np.zeros(e + 3, bool)
        edges[1:-1] = moved
        moved = edges[1:] ^ edges[:-1]  # cell i flips with pair i - 1 or i, not both
    cells = s[k : k + len(moved)]
    np.negative(cells, out=cells, where=moved)
    if e == m:
        return None
    i = j + e
    return i, int(P[i]) + (dP if in_b[e] else 0), int(Q[i])


def _walk(s: np.ndarray, k: int, P: int, Q: int, polish: bool, pair: bool) -> None:
    # The rest of a pass from cell k (pair k, k+1) on, on Python ints,
    # which cannot overflow: P is the sum of the signs before k, this
    # pass's flips included, and Q the sum of tail_j s_j after k.  The
    # walk carries both past each cell and writes the tail back.
    v = s[k:].tolist()
    t = 6 * len(s) - 3 - 6 * k
    if pair:
        for i in range(len(v) - 1):
            si, sj, u = v[i], v[i + 1], t - 6
            R = Q - u * sj
            gain = (si * t + sj * u) * P + (si + sj) * R
            if (si < 0 and gain == 0) if polish else gain > 0:
                si, sj = v[i], v[i + 1] = -si, -sj
            P += si
            Q, t = R, u
    else:
        Q += t * v[0]  # the loop takes cell k's own term off first
        for i in range(len(v)):
            si = v[i]
            Q -= t * si
            gain = si * (t * P + Q)
            if (si < 0 and gain == 0) if polish else gain > 0:
                si = v[i] = -si
            P += si
            t -= 6
    s[k:] = v


def _flips(s: np.ndarray, scan: _Scan, polish: bool, pair: bool) -> bool:
    """One left-to-right pass over the int8 signs s, in place.

    Single flips, or flips of the pairs i, i+1; strict (positive gain)
    or polish (zero gain on a -1 cell), the rule of _moves.  scan is the
    gain scan of s (_descend) and is stale once the pass returns True,
    that a cell flipped.  The cells ahead of i are still untouched, so
    with P the sum of the signs before i (this pass's flips included)
    and Q the sum of tail_j s_j after i, tail_j = K6[j, j] + 1 =
    6 n - 3 - 6 j, flipping cell i lowers sigma' K6 sigma by
    4 s_i (tail_i P + Q).  The two single gains minus
    2 s_i s_{i+1} tail_{i+1} (the K6[i, i+1] coupling) sum to the pair
    gain (s_i tail_i + s_{i+1} tail_{i+1}) P + (s_i + s_{i+1}) R with R
    the sum of tail_j s_j after i+1.

    The scan's gains give the pass's moves on the unflipped pattern and
    so its first move k; an idle pass returns there.  From k on, the
    pass's own flips change only P, by dP, so a cell's gain is the
    scan's gain read at P + dP (in a pair pass with the cell's own sign
    negated when pair i - 1 just flipped it), and the pass is a
    transducer on dP and, for pairs, on whether the cell was just
    flipped.  On a nested level it visits two states: the start A
    (dP = 0, not just flipped), whose moves are those the scan gave,
    and the state B after the first flip (dP = -2 s_k, just flipped in a
    pair pass).  _transduce finds the state entering every cell at once
    and applies the flips up to the first cell whose transition would
    leave {A, B}; from there, or from k on levels of up to _WALK_MAX_N
    cells, _walk finishes the pass on Python ints.  The moves are those
    of a walk over every cell.
    """
    gain = scan.pair if pair else scan.single
    move = _moves(gain, scan.a[: len(gain)], polish)
    k = int(move.argmax()) if move.size else 0
    if not (move.size and move[k]):
        return False
    if len(s) <= _WALK_MAX_N:
        start = k, int(scan.P[k]), int(scan.Q[k])
    else:
        start = _transduce(s, scan, k, move[k + 1 :], polish, pair)
    if start is not None:
        _walk(s, *start, polish, pair)
    return True


def _descend(s: np.ndarray, max_sweeps: int) -> tuple[int, bool]:
    """The sweep loop of solve_bangbang on the int8 signs s, in place.

    Strict single and pair passes, then the polish passes once neither
    moves; every pass is _flips.  Returns the sweeps run and whether s
    settled within max_sweeps.

    Most passes move nothing (on a nested level 8 of its 10), so every
    pass reads its gains from one int64 scan of the pattern (_Scan):
    with a the signs, w_j = tail_j a_j, C = cumsum(w), P = cumsum(a) - a
    (the signs before i) and Q = C[-1] - C (tail_j a_j after i), the
    single gain is w_i P_i + a_i Q_i and the pair gain
    (w_i + w_{i+1}) P_i + (a_i + a_{i+1}) Q_{i+1}.  The scan is built
    once per pattern and shared by the passes until one moves, so a
    nested level builds 3 scans for its 10 passes.

    The scan is exact: tail_j <= 6 n - 3 < 6 n, |P| <= n (|P + dP| <= n
    at every pair and n + 1 at every cell in the transducer's states)
    and |C|, |Q| <= sum of the tails = 3 n^2, so a single gain is below
    6 n (n + 1) + 3 n^2 and a pair gain below 12 n * n + 2 * 3 n^2 =
    18 n^2 in magnitude, held exactly in int64 while 18 n^2 < 2^63,
    that is n <= _MAX_N = 715,827,882.  numpy integer arrays wrap
    without a warning, so solve_bangbang and bangbang_ladder refuse a
    larger n before they build a level.
    """
    sweeps, scan = 0, None
    while sweeps < max_sweeps:
        sweeps += 1
        for polish in (False, True):
            moved = False
            for pair in (False, True):
                if scan is None:
                    scan = _Scan(s)
                if _flips(s, scan, polish, pair):
                    scan, moved = None, True
            if moved:
                break
        else:
            return sweeps, True
    return sweeps, False


def bangbang_ladder(
    sizes: Iterable[int], max_sweeps: int
) -> Iterator[tuple[int, np.ndarray, int, bool]]:
    """The canonical bang-bang levels of the given mesh sizes, each once.

    Yields (n, signs, sweeps, settled) for each distinct n in sizes, in
    ascending order: the int8 pattern bang-bang settles to on n cells
    from the canonical start, the sweeps it took there and whether it
    settled within max_sweeps.  The start is all-plus for n <= _BASE_N;
    above, it is the level of ceil(n / 2) cells with each sign repeated
    twice and cut to n: nested iteration, the first half of full
    multigrid (Brandt 1977).  A level depends on (n, max_sweeps) alone,
    never on the closed-form minimizer or the tilt, so one ladder serves
    every h > 0 of a sweep.

    The levels the sizes need are climbed coarse to fine and each is
    descended once: sizes that share coarser levels share their
    descents, and a size's own level is the start of a finer size that
    halves to it (512 ... 4096 descend the 7 levels 64 ... 4096).  A
    level is kept only until the last finer level that starts from it
    is built, and nothing outlives the iteration.  A size below 1 is
    refused, as by Mesh, before any level is descended.
    """
    wanted, levels = {Mesh(n).n for n in sizes}, set()
    _check_size(max(wanted, default=0))
    for n in wanted:
        while n not in levels:
            levels.add(n)
            if n > _BASE_N:
                n = (n + 1) // 2
    pending = Counter((n + 1) // 2 for n in levels if n > _BASE_N)
    kept = {}
    for n in sorted(levels):
        if n <= _BASE_N:
            s = np.ones(n, np.int8)
        else:
            coarse = (n + 1) // 2
            s = np.repeat(kept[coarse], 2)[:n]
            pending[coarse] -= 1
            if not pending[coarse]:
                del kept[coarse]
        sweeps, settled = _descend(s, max_sweeps)
        if pending[n]:
            kept[n] = s
        if n in wanted:
            yield n, s, sweeps, settled


def _ray_optimum(h: float, mesh: Mesh, signs: np.ndarray) -> ConePoint:
    # The best point t * (1, sigma) on the ray of a sign pattern.
    t, u = _ray_point(h, signs.astype(float), mesh.width)
    return ConePoint(t, GridFunction(mesh, u))


def _vertex_report(
    h: float, method: str, mesh: Mesh, signs: np.ndarray | None, iterations: int,
    reached: bool, opts: SolverOptions, tie_count: int | None = None,
) -> SolveReport:
    # The report of bang-bang or brute settled on signs: its ray optimum,
    # or at h = 0 that of every pattern, the apex, with no iteration,
    # fed the gradient and residual taken once there.
    if h == 0:
        p, iterations, reached = ConePoint.apex(mesh), 0, True
    else:
        p = _ray_optimum(h, mesh, signs)
    _, gu, _, stat = _unit_step(mesh, h, p.t, p.u.values)
    return _build_report(h, method, p, gu, stat, iterations, reached, opts, tie_count)


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

    All four passes are one function, _flips, O(n) with exact integer
    gains; _flips and _descend describe how.  The visit order and every
    move are those of a walk over every cell.  A mesh of more than
    715,827,882 cells, past the bound of their int64 gain scan, is
    refused before the start is read.

    Strict moves decrease the integer sigma' K6 sigma and polish moves
    strictly decrease the lexicographic key, so the iteration cannot
    cycle; it stops at a pattern where no move applies (converged) or
    at the sweep cap (converged=False).  iterations counts the sweeps
    on this mesh only, not those bangbang_ladder spends on the coarser
    meshes of the canonical start.

    A negative or non-finite h is refused first (check_tilt).  For
    h = 0 every ray optimum is the apex, so no sweep is run.
    """
    h = check_tilt(h)
    _check_size(mesh.n)
    opts = opts or SolverOptions()
    signs = np.array(start_signs, dtype=float).reshape(-1)
    if signs.shape[0] != mesh.n or not np.all(np.abs(signs) == 1.0):
        raise ValueError("start_signs must be a length-n sequence of +/-1 entries")
    s = signs.astype(np.int8)
    sweeps, settled = _descend(s, opts.max_iterations) if h else (0, True)
    return _vertex_report(h, "bangbang", mesh, s, sweeps, settled, opts)


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
    opts.tolerance.  A negative or non-finite h is refused first.
    """
    h, n = check_tilt(h), mesh.n
    ties, signs = (2 ** ((n + 1) // 2), alternating_signs(n)) if h else (2**n, None)
    return _vertex_report(h, "brute", mesh, signs, n, True, opts or SolverOptions(), ties)


def canonical_reports(
    h_list: Iterable[float],
    n_list: Iterable[int],
    method: str,
    opts: SolverOptions | None = None,
) -> Iterator[tuple[float, int, SolveReport]]:
    """Each method's report from its canonical start, once per (h, n).

    Yields (h, n, report) once for each distinct tilt of h_list and size
    of n_list, in one loop over levels and, inside, tilts.  bangbang's
    levels are one bangbang_ladder when some tilt is positive: the ray
    optimum -h^2 / (2 + 4 m) is best where m is least, so a level serves
    every tilt.  pgd starts from the projection of (h, 0), and brute
    needs no start.  Each start depends on n and opts.max_iterations
    alone, so a report does not depend on what else is listed.  A
    negative or non-finite tilt, then a size below 1 (as by Mesh), then
    an unknown method, then a bangbang size past _MAX_N is refused
    before any start is built.
    """
    opts = opts or SolverOptions()
    tilts, sizes = {check_tilt(h) for h in h_list}, {Mesh(n).n for n in n_list}
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    levels = ((n, None, 0, True) for n in sizes)
    if method == "bangbang":
        _check_size(max(sizes, default=0))
        if any(tilts):
            levels = bangbang_ladder(sizes, opts.max_iterations)
    for n, signs, sweeps, settled in levels:
        mesh = Mesh(n)
        for h in tilts:
            if method == "bangbang":
                yield h, n, _vertex_report(h, method, mesh, signs, sweeps, settled, opts)
            elif method == "brute":
                yield h, n, solve_bruteforce(h, mesh, opts)
            else:
                start = project(ConePoint(h, GridFunction.zeros(mesh)))
                yield h, n, solve_pgd(h, mesh, start, opts)


def solve_with_canonical_start(
    h: float, mesh: Mesh, method: str, opts: SolverOptions | None = None
) -> SolveReport:
    """One solve from the method's canonical start: the one-size plan of
    canonical_reports, so solve, stability and sweep report alike."""
    ((_, _, report),) = canonical_reports((h,), (mesh.n,), method, opts)
    return report
