"""Test oracles that the program itself never calls.

The piecewise-linear image of S and its exact L^2 pairing (the other
side of the adjoint identity), mesh nodes, a random feasible start, and
the coercivity chain checked on one direction through ssc._chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from conelab import ssc
from conelab.cone import ConePoint, InfeasiblePointError, contains, norm_X_sq
from conelab.grid import GridFunction, Mesh, l2_norm_sq
from conelab.objective import hessian_form
from conelab.operators import norm_S_sq
from conelab.solvers import pontryagin_check


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
    """hessian_form(d) over the squared product norm of d."""
    nsq = norm_X_sq(d)
    if nsq == 0.0:
        raise ValueError("the ratio is undefined at the origin")
    return hessian_form(d) / nsq


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
    _, nsq, links = ssc._chain(t2, norm_S_sq(d.u), l2_norm_sq(d.u))
    if nsq == 0.0:
        raise ValueError("certificate directions must be nonzero")
    scale = tol * max(1.0, t2)
    return [
        ChainLink(name, lhs, rhs, lhs <= rhs + scale, rhs - lhs) for name, lhs, rhs in links
    ]
