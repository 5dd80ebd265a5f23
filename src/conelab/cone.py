"""The constraint cone C = {(t, u) : |u| <= t almost everywhere}.

Points pair a scalar t with a grid function u; the norm on the product
space is ||(t, u)||^2 = t^2 + ||u||^2 with the L^2 norm on the second
factor.  Feasibility for step functions means |u_i| <= t on every cell,
which forces t >= 0.  solvers._unit_step builds the stationarity residual
from the bare-value kernels project_values and norm_X_values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .grid import GridFunction, Mesh, _row_dots


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

    def as_dict(self) -> dict:
        """The point as plain data, as every report prints it."""
        return {"t": self.t, "u": self.u.values.tolist()}


class Report:
    """The printed shape of a report: its KEYS, in order, as strict JSON.

    A report type lists its keys, fields and properties alike, in KEYS;
    as_dict reads each one, with a ConePoint as its as_dict, and to_json
    prints that dict with no NaN or Infinity.
    """

    KEYS: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        out = {}
        for key in self.KEYS:
            value = getattr(self, key)
            out[key] = value.as_dict() if isinstance(value, ConePoint) else value
        return out

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), allow_nan=False)


_TINY = np.finfo(float).tiny  # the least normal float


def norm_X_values(t: float, u: np.ndarray, width: float) -> float:
    """The product norm sqrt(t^2 + width * sum(u_i^2)) on bare values.

    Where that sum is not a normal float (it overflows, or underflows off
    the apex), (t, u) is first divided by m = max(|t|, |u_i|) and the
    norm multiplied back by m.
    """
    s = t * t + width * float(_row_dots(u, u))
    if _TINY <= s < np.inf:
        return float(np.sqrt(s))
    m = max(abs(t), float(np.abs(u).max()))
    if not 0.0 < m < np.inf:
        return float(np.sqrt(s))
    t, u = t / m, u / m
    return m * float(np.sqrt(t * t + width * float(_row_dots(u, u))))


def contains(p: ConePoint, tol: float = 0.0) -> bool:
    """Whether |u_i| <= t * (1 + tol) on every cell (so t >= 0).

    The slack is relative, so a point counts as feasible at every scale
    by the same measure; at the apex t = 0 only u = 0 passes.
    """
    return bool(np.all(np.abs(p.u.values) <= p.t * (1.0 + tol)))


def project_values(t: float, u: np.ndarray, width: float) -> tuple[float, np.ndarray]:
    """Nearest point (tau, clipped u) of C to (t, u), in the product norm.

    For fixed apex height tau >= 0 the optimal u clips each cell to
    [-tau, tau], so tau minimizes

        (tau - t)^2 + width * sum_{|u_i| > tau} (tau - |u_i|)^2,

    whose half-derivative phi(tau) = tau - t + width * sum_{|u_i| > tau}
    (tau - |u_i|) is strictly increasing.  With |u_i| sorted in
    descending order a_1 >= ... >= a_n, let phi_k be the line with the k
    largest magnitudes active,

        phi_k(tau) = (1 + width * k) tau - (t + width * (a_1 + ... + a_k)).

    phi = min_k phi_k, since a prefix sum of the terms tau - a_i is least
    when it holds exactly the negative ones.  So phi(tau) <= 0 iff some
    phi_k(tau) <= 0, and the root of phi is the largest root of the lines,

        tau* = max_k (t + width * (a_1 + ... + a_k)) / (1 + width * k).

    A negative tau* means phi(0) > 0 and the projection is the apex.

    One array of n + 1 cells holds the magnitudes, sorted in place in
    ascending order, then 0: read backwards, its prefix sums are
    0, a_1, a_1 + a_2, ...  They overwrite it, then the roots overwrite
    them (the line of k magnitudes in cell n - k), and its first n cells
    finally hold the clipped u.
    """
    n = u.size
    tau = np.empty(n + 1)
    np.abs(u, out=tau[:n])
    tau[:n].sort()
    tau[n] = 0.0
    np.cumsum(tau[::-1], out=tau[::-1])
    tau *= width
    tau += t
    lines = np.arange(n, -1, -1, dtype=float)
    lines *= width
    lines += 1.0
    tau /= lines
    # argmax, not tau.max(): a float maximum-reduce runs nowhere else in
    # verify-ssc, and its code pages alone add about 0.1 MiB to peak RSS
    tau_star = max(float(tau[np.argmax(tau)]), 0.0)
    return tau_star, np.clip(u, -tau_star, tau_star, out=tau[:n])


def project(p: ConePoint) -> ConePoint:
    """Nearest point of C to p (project_values)."""
    tau, u = project_values(p.t, p.u.values, p.mesh.width)
    return ConePoint(tau, GridFunction(p.mesh, u))

