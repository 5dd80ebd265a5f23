"""Second-order analysis at the apex: coercivity and quadratic growth.

At the origin the untilted objective has zero gradient, and on the cone
the Hessian form dominates a multiple of the squared norm:

    |u| <= t   =>   |(S u)(x)| <= t x
               =>   f''(d, d) >= (2 - 2/3 - 1) t^2 = t^2 / 3
               =>   f''(d, d) >= (1/6) ||d||^2,

since t^2 >= ||d||^2 / 2 on the cone.  coercivity_certificate checks
this chain link by link on a concrete direction; the sampled estimates
below measure how much slack the bound leaves.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .cone import ConePoint, InfeasiblePointError, contains, norm_X_sq, stationarity_residual
from .grid import GridFunction, Mesh, l2_norm_sq
from .objective import gradient, hessian_form
from .operators import norm_S_sq, walk_energy
from .solvers import alternating_signs

BETA_CERTIFIED = 1.0 / 6.0
DELTA_CERTIFIED = 0.5


def check_stationarity(h: float, p: ConePoint) -> float:
    """Projected-gradient fixed-point residual of f_h at p (p must be in C)."""
    return stationarity_residual(p, gradient(h, p))


@dataclass(frozen=True)
class ChainLink:
    """One verified inequality, stated as lhs <= rhs."""

    name: str
    lhs: float
    rhs: float
    passed: bool
    slack: float

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "passed": self.passed,
            "slack": self.slack,
        }


def coercivity_certificate(d: ConePoint, tol: float = 1e-10) -> list[ChainLink]:
    """Check the coercivity chain on one nonzero cone direction.

    Returns the four links in order; each is an inequality lhs <= rhs
    allowed slack tol * max(1, t^2).
    """
    if not contains(d, tol):
        raise InfeasiblePointError("certificate directions must lie in the cone")
    nsq = norm_X_sq(d)
    if nsq == 0.0:
        raise ValueError("certificate directions must be nonzero")
    t2 = d.t * d.t
    scale = tol * max(1.0, t2)
    image = norm_S_sq(d.u)
    comp = l2_norm_sq(d.u)
    form = hessian_form(d)
    links = [
        ChainLink("image_energy_bound", image, t2 / 3.0, image <= t2 / 3.0 + scale,
                  t2 / 3.0 - image),
        ChainLink("component_energy_bound", comp, t2, comp <= t2 + scale, t2 - comp),
        ChainLink("form_lower_bound", t2 / 3.0, form, t2 / 3.0 <= form + scale,
                  form - t2 / 3.0),
        ChainLink("coercivity_bound", nsq / 6.0, form, nsq / 6.0 <= form + scale,
                  form - nsq / 6.0),
    ]
    return links


@dataclass(frozen=True)
class CoercivityReport:
    beta_estimate: float
    beta_certified: float
    samples: int
    worst_direction: ConePoint = field(repr=False)
    chain_checks_passed: bool

    def as_dict(self) -> dict:
        return {
            "beta_estimate": self.beta_estimate,
            "beta_certified": self.beta_certified,
            "samples": self.samples,
            "worst_direction": {
                "t": self.worst_direction.t,
                "u": self.worst_direction.u.values.tolist(),
            },
            "chain_checks_passed": self.chain_checks_passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), allow_nan=False)


@dataclass(frozen=True)
class GrowthReport:
    delta_estimate: float
    epsilon: float
    samples: int
    worst_point: ConePoint = field(repr=False)

    def as_dict(self) -> dict:
        return {
            "delta_estimate": self.delta_estimate,
            "epsilon": self.epsilon,
            "samples": self.samples,
            "worst_point": {
                "t": self.worst_point.t,
                "u": self.worst_point.u.values.tolist(),
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), allow_nan=False)


def _direction_rows(mesh: Mesh, samples: int, rng: np.random.Generator) -> np.ndarray:
    """Cell-value rows of sampled cone directions, all with t = 1.

    samples uniform rows u_i ~ U(-1, 1), then deterministic extras: the
    pure scalar direction u = 0, the alternating sign pattern, and for
    n <= 12 every vertex pattern u = sigma.
    """
    n = mesh.n
    rows = [rng.uniform(-1.0, 1.0, size=(samples, n))]
    rows.append(np.zeros((1, n)))
    rows.append(alternating_signs(n)[None, :])
    if n <= 12:
        # bit k of the row index, from the most significant, marks cell k as -1
        idx = np.arange(2**n)[:, None]
        rows.append(1 - 2 * ((idx >> np.arange(n - 1, -1, -1)) & 1))
    return np.vstack(rows)


def coercivity_estimate(
    mesh: Mesh, samples: int = 10000, seed: int = 0, tol: float = 1e-10
) -> CoercivityReport:
    """Sampled lower estimate of the coercivity constant at the apex.

    beta_estimate is the smallest Rayleigh ratio f''(d, d) / ||d||^2
    over the sampled directions; chain_checks_passed records whether
    the certificate chain held on every one of them.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    U = _direction_rows(mesh, samples, rng)
    width = mesh.width
    image = width**3 / 3.0 * walk_energy(U)
    comp = width * np.sum(U * U, axis=1)
    form = 2.0 + 2.0 * image - comp
    nsq = 1.0 + comp
    ratios = form / nsq
    chain = (
        np.all(image <= 1.0 / 3.0 + tol)
        and np.all(comp <= 1.0 + tol)
        and np.all(1.0 / 3.0 <= form + tol)
        and np.all(nsq / 6.0 <= form + tol)
    )
    worst = int(np.argmin(ratios))
    return CoercivityReport(
        beta_estimate=float(ratios[worst]),
        beta_certified=BETA_CERTIFIED,
        samples=samples,
        worst_direction=ConePoint(1.0, GridFunction(mesh, U[worst])),
        chain_checks_passed=bool(chain),
    )


def growth_estimate(
    mesh: Mesh, epsilon: float = 1.0, samples: int = 10000, seed: int = 0
) -> GrowthReport:
    """Sampled quadratic-growth constant of the untilted objective.

    Scales each sampled direction to a random norm in (0, epsilon] and
    returns the smallest value of 2 f_0(x) / ||x||^2.  The certified
    lower bound for this instance is 1/2: on the cone f_0(x) >= t^2 -
    ||u||^2 / 2 >= t^2 / 2 >= ||x||^2 / 4.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    rng = np.random.default_rng(seed)
    U = _direction_rows(mesh, samples, rng)
    width = mesh.width
    nsq = 1.0 + width * np.sum(U * U, axis=1)
    scales = epsilon * (1.0 - rng.uniform(0.0, 1.0, size=U.shape[0])) / np.sqrt(nsq)
    T = scales.copy()
    U = U * scales[:, None]
    image = width**3 / 3.0 * walk_energy(U)
    comp = width * np.sum(U * U, axis=1)
    f0 = T * T + image - 0.5 * comp
    ratios = 2.0 * f0 / (T * T + comp)
    worst = int(np.argmin(ratios))
    return GrowthReport(
        delta_estimate=float(ratios[worst]),
        epsilon=float(epsilon),
        samples=samples,
        worst_point=ConePoint(float(T[worst]), GridFunction(mesh, U[worst])),
    )
