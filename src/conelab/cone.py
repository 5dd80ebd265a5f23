"""The constraint cone C = {(t, u) : |u| <= t almost everywhere}.

Points pair a scalar t with a grid function u; the norm on the product
space is ||(t, u)||^2 = t^2 + ||u||^2 with the L^2 norm on the second
factor.  Feasibility for step functions means |u_i| <= t on every cell,
which forces t >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridFunction, Mesh, l2_norm_sq


class InfeasiblePointError(ValueError):
    """Raised when an operation requires a point of the cone."""


@dataclass(frozen=True)
class ConePoint:
    """A point (t, u) of R x L^2, not necessarily feasible.

    The same type carries gradients, which live in the same product
    space via the Riesz representation of the derivative pairing.
    """

    t: float
    u: GridFunction

    def __post_init__(self):
        if not np.isfinite(self.t):
            raise ValueError(f"scalar component must be finite, got {self.t!r}")
        object.__setattr__(self, "t", float(self.t))

    @property
    def mesh(self) -> Mesh:
        return self.u.mesh

    @classmethod
    def apex(cls, mesh: Mesh) -> "ConePoint":
        return cls(0.0, GridFunction.zeros(mesh))


def norm_X_sq(p: ConePoint) -> float:
    """Squared product norm t^2 + ||u||^2."""
    return p.t * p.t + l2_norm_sq(p.u)


def norm_X(p: ConePoint) -> float:
    return float(np.sqrt(norm_X_sq(p)))


def contains(p: ConePoint, tol: float = 0.0) -> bool:
    """Whether |u_i| <= t + tol on every cell (and t >= -tol)."""
    if p.t < -tol:
        return False
    return bool(np.all(np.abs(p.u.values) <= p.t + tol))


def project(p: ConePoint) -> ConePoint:
    """Nearest point of C in the product norm.

    For fixed apex height tau >= 0 the optimal u clips each cell to
    [-tau, tau], so tau minimizes

        (tau - t)^2 + width * sum_{|u_i| > tau} (tau - |u_i|)^2,

    whose derivative phi is continuous, piecewise linear and strictly
    increasing.  Sorting |u_i| in descending order a_1 >= ... >= a_n
    makes phi linear on each interval [a_{k+1}, a_k] with the k largest
    magnitudes active, where its root is

        tau_k = (t + width * (a_1 + ... + a_k)) / (1 + width * k).

    Exactly one candidate lands in its own bracket; a negative root
    means phi(0) >= 0 and the projection is the apex.
    """
    t = p.t
    u = p.u.values
    width = p.mesh.width
    a = np.sort(np.abs(u))[::-1]
    prefix = np.concatenate(([0.0], np.cumsum(a)))
    k = np.arange(a.size + 1)
    tau = (t + width * prefix) / (1.0 + width * k)
    upper = np.concatenate(([np.inf], a))
    lower = np.concatenate((a, [-np.inf]))
    slack = 1e-12 * max(1.0, abs(t), float(a[0]))
    valid = (tau >= lower - slack) & (tau <= upper + slack)
    # exactly one bracket holds the root of phi; float ties agree on tau
    best = int(np.argmax(valid))
    tau_star = max(float(tau[best]), 0.0)
    return ConePoint(tau_star, GridFunction(p.mesh, np.clip(u, -tau_star, tau_star)))


def stationarity_residual(p: ConePoint, g: ConePoint) -> float:
    """Norm of p - project(p - g), the fixed-point defect of a unit

    projected-gradient step.  Zero exactly when -g lies in the normal
    cone at p, so this certifies first-order optimality when g is the
    gradient there.
    """
    if not contains(p, 1e-10):
        raise InfeasiblePointError("stationarity is only defined on the cone")
    if p.mesh != g.mesh:
        raise ValueError("point and gradient live on different meshes")
    moved = ConePoint(p.t - g.t, GridFunction(p.mesh, p.u.values - g.u.values))
    proj = project(moved)
    dt = p.t - proj.t
    du = p.u.values - proj.u.values
    return float(np.sqrt(dt * dt + p.mesh.width * np.dot(du, du)))
