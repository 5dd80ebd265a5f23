"""The tilted quadratic objective on R x L^2(0,1).

    f_h(t, u) = t^2 + ||S u||^2 - (1/2) ||u||^2 - h t,       h >= 0.

The tilt h only touches the linear term, so the Hessian is the constant
quadratic form 2 t^2 + 2 ||S u||^2 - ||u||^2 = 2 f_0 shared by every h.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .cone import ConePoint
from .grid import GridFunction, _row_dots
from .operators import _walk_energy, apply_SstarS


def _real(x) -> float:
    """float(x) of a Python or numpy real, not a bool (inf past the float range), else nan."""
    try:
        return float(x) if isinstance(x, numbers.Real) and not isinstance(x, bool) else math.nan
    except OverflowError:
        return math.inf


def check_tilt(h: float) -> float:
    """h as a float, refused with ValueError unless it is a Python or numpy
    real, not a bool, whose float is finite and >= 0."""
    x = _real(h)
    if not 0.0 <= x < math.inf:
        raise ValueError(f"tilt must be a finite real >= 0, got {h!r}")
    return x + 0.0  # -0.0 + 0.0 is +0.0


def _half_form(t: float, u: np.ndarray, width: float) -> float:
    """t^2 + ||S u||^2 - (1/2) ||u||^2 on bare values: f_0, half of f''.

    One sum of squares serves both norms: it is ||u||^2 / width and the
    squares term of the walk energy (operators._walk_energy).
    """
    squares = _row_dots(u, u)
    energy = float(width**3 / 3.0 * _walk_energy(np.cumsum(u), squares))
    return t * t + energy - 0.5 * (width * float(squares))


def value(h: float, p: ConePoint) -> float:
    """f_h at p."""
    return _half_form(p.t, p.u.values, p.mesh.width) - check_tilt(h) * p.t


def gradient_values(u: np.ndarray, SstarS_u: np.ndarray) -> np.ndarray:
    """The u-part 2 S*S u - u of the gradient, from the values of u and S*S u."""
    g = 2.0 * SstarS_u
    g -= u
    return g


def gradient(h: float, p: ConePoint) -> ConePoint:
    """Riesz representative of f_h' at p: (2t - h, 2 S*S u - u)."""
    h = check_tilt(h)
    gu = gradient_values(p.u.values, apply_SstarS(p.u).values)
    return ConePoint(2.0 * p.t - h, GridFunction(p.mesh, gu))


def quadratic_decrease_values(
    gt: float, gu: np.ndarray, st: float, su: np.ndarray, width: float
) -> float:
    """Exact change f_h(p + step) - f_h(p) from the gradient g at p.

    g = (gt, gu) is gradient(h, p) and step = (st, su), as bare values.
    The objective is quadratic, so the change equals the pairing plus
    the step's _half_form, <g, step> + step_t^2 + ||S step_u||^2 -
    (1/2)||step_u||^2, identically.  Evaluating it this way avoids the
    cancellation that makes the difference of two nearly equal objective
    values unusable near a stationary point.  Taking g from the caller
    lets solve_pgd reuse one gradient for every backtracking trial.
    """
    return gt * st + width * float(_row_dots(gu, su)) + _half_form(st, su, width)

