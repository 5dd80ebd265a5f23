"""The tilted quadratic objective on R x L^2(0,1).

    f_h(t, u) = t^2 + ||S u||^2 - (1/2) ||u||^2 - h t,       h >= 0.

The tilt h only touches the linear term, so the Hessian is the constant
quadratic form 2 t^2 + 2 ||S u||^2 - ||u||^2 shared by every h.
"""

from __future__ import annotations

import numpy as np

from .cone import ConePoint
from .grid import GridFunction, l2_inner, l2_norm_sq
from .operators import apply_SstarS, norm_S_sq


def check_tilt(h: float) -> float:
    if not np.isfinite(h) or h < 0:
        raise ValueError(f"tilt must be a finite real >= 0, got {h!r}")
    return float(h)


def value(h: float, p: ConePoint) -> float:
    """f_h at p."""
    h = check_tilt(h)
    return p.t * p.t + norm_S_sq(p.u) - 0.5 * l2_norm_sq(p.u) - h * p.t


def gradient(h: float, p: ConePoint) -> ConePoint:
    """Riesz representative of f_h' at p: (2t - h, 2 S*S u - u)."""
    h = check_tilt(h)
    w = apply_SstarS(p.u).values
    return ConePoint(2.0 * p.t - h, GridFunction(p.mesh, 2.0 * w - p.u.values))


def hessian_form(d: ConePoint) -> float:
    """The quadratic form f''(d, d) = 2 t^2 + 2 ||S u||^2 - ||u||^2."""
    return 2.0 * d.t * d.t + 2.0 * norm_S_sq(d.u) - l2_norm_sq(d.u)


def quadratic_decrease(g: ConePoint, step: ConePoint) -> float:
    """Exact change f_h(p + step) - f_h(p), given g = gradient(h, p).

    The objective is quadratic, so the change equals
    <g, step> + step_t^2 + ||S step_u||^2 - (1/2)||step_u||^2
    identically.  Evaluating it this way avoids the cancellation that
    makes the difference of two nearly equal objective values unusable
    near a stationary point.  Taking g from the caller lets solve_pgd
    reuse one gradient for every backtracking trial.
    """
    inner = g.t * step.t + l2_inner(g.u, step.u)
    return inner + step.t * step.t + norm_S_sq(step.u) - 0.5 * l2_norm_sq(step.u)

