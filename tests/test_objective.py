"""Objective value, gradient, and the Hessian form 2 f_0, against exact expansions."""

import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conelab import (
    ConePoint,
    GridFunction,
    Mesh,
    gradient,
    value,
)
from conelab.objective import check_tilt, quadratic_decrease_values
from oracles import exact_l2_inner, norm_X_sq, rayleigh_ratio


def _point(t, values):
    values = np.atleast_1d(np.asarray(values, dtype=float))
    return ConePoint(t, GridFunction(Mesh(values.size), values))


def _form(d):
    # the curvature form f''(d, d): twice the untilted objective
    return 2.0 * value(0.0, d)


def _pairing(g, d):
    return g.t * d.t + float(exact_l2_inner(g.u, d.u))


def _rand_point(rng, mesh, scale=1.0):
    return ConePoint(
        float(scale * rng.normal()), GridFunction(mesh, scale * rng.normal(size=mesh.n))
    )


def test_value_known_points():
    apex = ConePoint.apex(Mesh(4))
    assert value(0.0, apex) == 0.0
    assert value(3.0, apex) == 0.0
    # t = 1, u = 1: 1 + 1/3 - 1/2 = 5/6
    p = ConePoint(1.0, GridFunction(Mesh(8), np.ones(8)))
    assert_allclose(value(0.0, p), 5.0 / 6.0, rtol=1e-15)
    # the ray value t^2 (1/2 + m) - h t at t = 6/7, m = 1/12 is -3/7
    t = float(Fraction(6, 7))
    q = _point(t, [t, -t])
    assert_allclose(value(1.0, q), float(-Fraction(3, 7)), rtol=1e-14)


def test_tilt_validation():
    p = ConePoint.apex(Mesh(2))
    for bad in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError):
            value(bad, p)
        with pytest.raises(ValueError):
            gradient(bad, p)


def test_check_tilt_takes_real_scalars_and_refuses_the_rest():
    # a bool, a string or any other non-real value is refused as a tilt
    # with ValueError, not read as a number
    for bad in (True, False, np.bool_(True), "0.5", b"1", None, 0.5j, [0.5], np.array(0.5),
                10**400, math.nan, -math.inf, -1):
        with pytest.raises(ValueError, match="^tilt must be a finite real >= 0"):
            check_tilt(bad)
    for good, expected in ((0, 0.0), (0.5, 0.5), (-0.0, 0.0), (np.float64(0.5), 0.5),
                           (np.float32(0.5), 0.5), (np.int64(2), 2.0), (Fraction(1, 4), 0.25)):
        h = check_tilt(good)
        assert type(h) is float and h == expected and not math.copysign(1.0, h) < 0, good


def test_gradient_single_cell_closed_form():
    # n = 1: S*S is multiplication by 1/3, so the u-part is -v/3
    for t, v, h in ((0.7, 0.4, 0.0), (1.0, -1.0, 0.5), (0.0, 0.9, 2.0)):
        g = gradient(h, _point(t, [v]))
        assert_allclose(g.t, 2.0 * t - h, rtol=1e-15)
        assert_allclose(g.u.values, [-v / 3.0], rtol=1e-14)


def test_gradient_matches_central_differences():
    # the objective is quadratic, so central differences are exact up
    # to roundoff
    rng = np.random.default_rng(31)
    mesh = Mesh(6)
    eps = 1e-5
    for h in (0.0, 0.3):
        p = _rand_point(rng, mesh)
        g = gradient(h, p)
        d = _rand_point(rng, mesh)
        plus = ConePoint(p.t + eps * d.t, GridFunction(mesh, p.u.values + eps * d.u.values))
        minus = ConePoint(p.t - eps * d.t, GridFunction(mesh, p.u.values - eps * d.u.values))
        directional = (value(h, plus) - value(h, minus)) / (2.0 * eps)
        pairing = _pairing(g, d)
        assert_allclose(directional, pairing, rtol=1e-8, atol=1e-10)


def test_exact_quadratic_expansion():
    # f(p + d) = f(p) + <g, d> + (1/2) f''(d, d), with no remainder
    rng = np.random.default_rng(32)
    mesh = Mesh(9)
    for _ in range(25):
        h = float(rng.uniform(0.0, 2.0))
        p, d = _rand_point(rng, mesh), _rand_point(rng, mesh)
        g = gradient(h, p)
        shifted = ConePoint(p.t + d.t, GridFunction(mesh, p.u.values + d.u.values))
        lhs = value(h, shifted)
        rhs = value(h, p) + _pairing(g, d) + 0.5 * _form(d)
        assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-13)


def test_quadratic_decrease_is_the_exact_change():
    rng = np.random.default_rng(33)
    mesh = Mesh(5)
    for _ in range(25):
        h = float(rng.uniform(0.0, 1.0))
        p, d = _rand_point(rng, mesh), _rand_point(rng, mesh, scale=0.5)
        shifted = ConePoint(p.t + d.t, GridFunction(mesh, p.u.values + d.u.values))
        g = gradient(h, p)
        assert_allclose(
            quadratic_decrease_values(g.t, g.u.values, d.t, d.u.values, mesh.width),
            value(h, shifted) - value(h, p),
            rtol=1e-10, atol=1e-13,
        )


def test_hessian_form_known_values():
    assert_allclose(_form(_point(1.0, [0.0, 0.0])), 2.0, rtol=1e-15)
    # u = 1, t = 0: 2/3 - 1 = -1/3, a concave direction
    ones = ConePoint(0.0, GridFunction(Mesh(4), np.ones(4)))
    assert_allclose(_form(ones), -1.0 / 3.0, rtol=1e-14)
    tilted = ConePoint(1.0, GridFunction(Mesh(4), np.ones(4)))
    assert_allclose(_form(tilted), 5.0 / 3.0, rtol=1e-15)
    alt = _point(1.0, [1.0, -1.0, 1.0, -1.0])
    assert_allclose(_form(alt), 1.0 + 1.0 / 24.0, rtol=1e-14)


def test_hessian_vec_consistency():
    rng = np.random.default_rng(34)
    mesh = Mesh(6)
    for _ in range(20):
        d = _rand_point(rng, mesh)
        # the Hessian applied to d is the untilted gradient at d
        Hd = gradient(0.0, d)
        assert_allclose(_pairing(Hd, d), _form(d), rtol=1e-12, atol=1e-14)


def test_hessian_is_independent_of_the_tilt():
    # the tilt only shifts the linear part, so gradients at two tilts
    # differ by exactly (h2 - h1, 0)
    rng = np.random.default_rng(35)
    mesh = Mesh(3)
    p = _rand_point(rng, mesh)
    g0, g1 = gradient(0.0, p), gradient(1.5, p)
    assert_allclose(g0.t - g1.t, 1.5, rtol=1e-15)
    assert np.array_equal(g0.u.values, g1.u.values)


def test_value_is_linear_in_the_tilt():
    rng = np.random.default_rng(36)
    mesh = Mesh(5)
    for _ in range(20):
        p = _rand_point(rng, mesh)
        h = float(rng.uniform(0.0, 3.0))
        assert_allclose(value(h, p) - value(0.0, p), -h * p.t, rtol=1e-12, atol=1e-15)


def test_sign_symmetry():
    rng = np.random.default_rng(37)
    mesh = Mesh(8)
    for h in (0.0, 0.7):
        p = _rand_point(rng, mesh)
        mirrored = ConePoint(p.t, GridFunction(mesh, -p.u.values))
        assert value(h, p) == value(h, mirrored)


def test_rayleigh_ratio():
    p = ConePoint(1.0, GridFunction(Mesh(4), np.ones(4)))
    assert_allclose(rayleigh_ratio(p), _form(p) / norm_X_sq(p), rtol=1e-15)
    assert_allclose(rayleigh_ratio(p), 5.0 / 6.0, rtol=1e-14)
    with pytest.raises(ValueError):
        rayleigh_ratio(ConePoint.apex(Mesh(4)))
