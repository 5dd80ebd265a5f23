"""Test oracles that the program itself never calls.

The piecewise-linear image of S and its exact L^2 pairing (the other
side of the adjoint identity), mesh nodes, the L^2 inner product of two
step functions and the squared product norm, exactly, the cone
projection's height by an exact bracket search, the stationarity
residual in Fractions, a random feasible start, the coercivity chain
checked on one direction through ssc._chain, and the bang-bang sweep
loop as a walk over every cell on Python ints (_single_flips,
_pair_flips and _descend), and the canonical
nested bang-bang start built level by level on that walk (nested_start),
which the shared levels of solvers.bangbang_ladder must reproduce.

solvers._descend shortens that walk (solvers._flips gives how), and
must make its moves, in its order, with its sweep count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from conelab import ssc
from conelab.cone import ConePoint, InfeasiblePointError, contains
from conelab.grid import GridFunction, Mesh
from conelab.objective import value
from conelab.operators import norm_S_sq
from conelab.solvers import pontryagin_check


def exact_l2_inner(u: GridFunction, v: GridFunction) -> Fraction:
    """The L^2(0,1) inner product (1/n) * sum(u_i v_i) of two step functions, exactly."""
    if u.mesh != v.mesh:
        raise ValueError("grid functions live on different meshes")
    # each float is an integer over a power of 2, so every product's
    # denominator divides the largest one, and one integer sum is exact
    ratios = [
        (a.as_integer_ratio(), b.as_integer_ratio())
        for a, b in zip(u.values.tolist(), v.values.tolist())
    ]
    den = max(p[1] * q[1] for p, q in ratios)
    return Fraction(sum(p[0] * q[0] * (den // (p[1] * q[1])) for p, q in ratios), den * u.mesh.n)


def norm_X_sq(p: ConePoint) -> float:
    """Squared product norm t^2 + ||u||^2, rounded once from its exact value."""
    return float(Fraction(p.t) ** 2 + exact_l2_inner(p.u, p.u))


def exact_projection_height(t: float, u: np.ndarray, width: float) -> Fraction:
    """The apex height tau of the projection of (t, u) onto the cone, exactly.

    A bracket search in Fraction arithmetic: with |u_i| sorted in
    descending order a_1 >= ... >= a_n (a_0 = inf, a_{n+1} = -inf), the
    derivative of the distance in tau is linear on [a_{k+1}, a_k], where
    its root is (t + width * (a_1 + ... + a_k)) / (1 + width * k).  The
    first root that lies in its own bracket is the answer (tied brackets
    share their root), clamped at the apex height 0.  The inputs may be
    floats or Fractions.
    """
    a = sorted((abs(Fraction(x)) for x in u), reverse=True)
    w = Fraction(width)
    for k in range(len(a) + 1):
        tau = (Fraction(t) + w * sum(a[:k])) / (1 + w * k)
        if (k == 0 or tau <= a[k - 1]) and (k == len(a) or tau >= a[k]):
            return max(tau, Fraction(0))
    raise AssertionError("no bracket holds the root")


def exact_stationarity_sq(h: float, t: float, u: np.ndarray) -> Fraction:
    """The squared stationarity residual ||P_C(x - g) - x||^2 of f_h at x = (t, u), exactly.

    g = (2 t - h, 2 S*S u - u) on len(u) cells of width 1/n, with each
    (S*S u)_i = <S u, S e_i> / width from the pairing of the two
    piecewise-linear images (the adjoint of S, not the K6 closed form);
    the projection of y = x - g has the height tau of
    exact_projection_height and clips y_u to [-tau, tau].
    """
    n = len(u)
    width = Fraction(1, n)
    t, u = Fraction(t), [Fraction(x) for x in u]
    walk = [Fraction(0)]  # the node values of S u
    for x in u:
        walk.append(walk[-1] + width * x)
    yu = []
    for i, x in enumerate(u):
        image = [width if k > i else Fraction(0) for k in range(n + 1)]  # S e_i
        pairing = sum(
            width / 6 * (2 * a1 * b1 + a1 * b2 + a2 * b1 + 2 * a2 * b2)
            for a1, a2, b1, b2 in zip(walk, walk[1:], image, image[1:])
        )
        yu.append(x - (2 * pairing / width - x))
    tau = exact_projection_height(t - (2 * t - Fraction(h)), yu, width)
    return (tau - t) ** 2 + width * sum((min(max(y, -tau), tau) - x) ** 2 for x, y in zip(u, yu))


def nodes(mesh: Mesh) -> np.ndarray:
    """The n+1 cell boundaries 0, 1/n, ..., 1."""
    return np.linspace(0.0, 1.0, mesh.n + 1)


@dataclass(frozen=True)
class PiecewiseLinear:
    """Continuous piecewise-linear function given by its n+1 node values."""

    mesh: Mesh
    node_values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.array(self.node_values, dtype=float, copy=True).reshape(-1)
        if vals.shape != (self.mesh.n + 1,):
            raise ValueError(
                f"expected {self.mesh.n + 1} node values, got shape "
                f"{np.shape(self.node_values)}"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "node_values", vals)


def apply_S(u: GridFunction) -> PiecewiseLinear:
    """Running integral of a step function; node k holds width * sum(u_1..u_k)."""
    nodes = np.concatenate(([0.0], u.mesh.width * np.cumsum(u.values)))
    return PiecewiseLinear(u.mesh, nodes)


def pl_l2_inner(f: PiecewiseLinear, g: PiecewiseLinear) -> float:
    """Exact L^2 inner product of two piecewise-linear functions.

    Per cell with endpoint values (a1, a2) and (b1, b2) the product
    integrates to width * (2*a1*b1 + a1*b2 + a2*b1 + 2*a2*b2) / 6.
    """
    if f.mesh != g.mesh:
        raise ValueError("piecewise-linear functions live on different meshes")
    a1, a2 = f.node_values[:-1], f.node_values[1:]
    b1, b2 = g.node_values[:-1], g.node_values[1:]
    return float(
        f.mesh.width / 6.0 * np.sum(2 * a1 * b1 + a1 * b2 + a2 * b1 + 2 * a2 * b2)
    )


def random_feasible_point(mesh: Mesh, rng: np.random.Generator) -> ConePoint:
    """A random cone point with t = 1 and cell values uniform in [-1, 1]."""
    return ConePoint(1.0, GridFunction(mesh, rng.uniform(-1.0, 1.0, size=mesh.n)))


def pontryagin_residual(p: ConePoint, tol: float = 1e-10) -> float:
    return pontryagin_check(p, tol).residual


def rayleigh_ratio(d: ConePoint) -> float:
    """The curvature form f''(d, d) = 2 f_0(d) over the squared product norm of d."""
    nsq = norm_X_sq(d)
    if nsq == 0.0:
        raise ValueError("the ratio is undefined at the origin")
    return 2.0 * value(0.0, d) / nsq


@dataclass(frozen=True)
class ChainLink:
    """One verified inequality, stated as lhs <= rhs."""

    name: str
    lhs: float
    rhs: float
    passed: bool
    slack: float


def coercivity_certificate(d: ConePoint, tol: float = 1e-10) -> list[ChainLink]:
    """Check the coercivity chain on one nonzero cone direction.

    Returns the four links in order; each is an inequality lhs <= rhs
    allowed slack tol * max(1, t^2).
    """
    if not contains(d, tol):
        raise InfeasiblePointError("certificate directions must lie in the cone")
    t2 = d.t * d.t
    _, nsq, links = ssc._chain(t2, norm_S_sq(d.u), float(exact_l2_inner(d.u, d.u)))
    if nsq == 0.0:
        raise ValueError("certificate directions must be nonzero")
    scale = tol * max(1.0, t2)
    return [
        ChainLink(name, lhs, rhs, lhs <= rhs + scale, rhs - lhs) for name, lhs, rhs in links
    ]


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


def nested_start(n: int, max_sweeps: int) -> list[int]:
    # The canonical bang-bang start by its recursive definition, every
    # coarser level built afresh by the walk: all-plus up to 64 cells,
    # above that the settled signs of ceil(n / 2) cells, each twice, cut
    # to n.
    if n <= 64:
        return [1] * n
    coarse = nested_start((n + 1) // 2, max_sweeps)
    _descend(coarse, max_sweeps)
    return [x for x in coarse for _ in range(2)][:n]
