"""Cone membership, nearest-point projection, the product norm and the stationarity residual."""

from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conelab import (
    ConePoint,
    GridFunction,
    Mesh,
    contains,
    project,
)
from conelab.cone import Report, norm_X_values, project_values
from conelab.grid import _row_dots
from conelab.solvers import _unit_step
from oracles import exact_projection_height, norm_X_sq


def _point(t, values):
    values = np.atleast_1d(np.asarray(values, dtype=float))
    return ConePoint(t, GridFunction(Mesh(values.size), values))


def _dist_sq(p, q):
    return norm_X_sq(ConePoint(p.t - q.t, GridFunction(p.mesh, p.u.values - q.u.values)))


def _norm(p):
    return norm_X_values(p.t, p.u.values, p.mesh.width)


def test_cone_point_basics():
    mesh = Mesh(3)
    apex = ConePoint.apex(mesh)
    assert apex.t == 0.0
    assert apex.mesh == mesh
    assert norm_X_sq(apex) == 0.0
    with pytest.raises(ValueError):
        ConePoint(np.nan, GridFunction.zeros(mesh))
    p = _point(2.0, [1.0, -2.0, 0.5])
    assert_allclose(norm_X_sq(p), 4.0 + (1.0 + 4.0 + 0.25) / 3.0, rtol=1e-15)
    assert_allclose(_norm(p), np.sqrt(norm_X_sq(p)), rtol=1e-15)


def test_norm_X_rescales_only_outside_the_normal_range():
    rng = np.random.default_rng(30)
    for n in (1, 7, 64):
        p = _point(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0, size=n))
        # the unscaled sum, with the one reduction _row_dots, bit for bit
        u = p.u.values
        assert _norm(p) == float(np.sqrt(p.t * p.t + p.mesh.width * float(_row_dots(u, u))))
    # t^2 + ||u||^2 underflows or overflows, the norm does not
    for scale in (1e-300, 1e-200, 1e200, 1e300):
        p = _point(scale, [scale, -0.5 * scale])
        with np.errstate(over="ignore"):
            assert_allclose(_norm(p), scale * np.sqrt(1.625), rtol=1e-15)
    assert _norm(ConePoint.apex(Mesh(3))) == 0.0


def test_contains():
    assert contains(_point(1.0, [1.0, -1.0]))
    assert contains(_point(0.0, [0.0]))
    assert not contains(_point(-0.1, [0.0]))
    assert not contains(_point(1.0, [1.0 + 1e-6]))
    assert contains(_point(1.0, [1.0 + 1e-6]), tol=1e-5)


def test_feasibility_slack_is_relative_to_t():
    # |u_i| = 30 t lies outside the cone however small t is
    far = _point(1e-12, [3e-11, -3e-11])
    assert not contains(far, 1e-10)
    # the slack is t * tol: at the apex only u = 0 passes
    assert contains(_point(1e-12, [1e-12 * (1.0 + 1e-11)]), 1e-10)
    assert not contains(_point(1e-12, [1e-12 * (1.0 + 1e-9)]), 1e-10)
    assert contains(_point(0.0, [0.0, -0.0]), 1e-10)
    assert not contains(_point(0.0, [1e-300]), 1e-10)


def test_project_fixes_feasible_points_exactly():
    rng = np.random.default_rng(5)
    for n in (1, 2, 9):
        t = float(rng.uniform(0.0, 2.0))
        u = rng.uniform(-t, t, size=n)
        p = _point(t, u)
        q = project(p)
        assert q.t == p.t
        assert np.array_equal(q.u.values, p.u.values)


def test_project_known_values():
    # pulling (0, 1) to the cone balances raising t against lowering u
    q = project(_point(0.0, [1.0]))
    assert_allclose([q.t, q.u.values[0]], [0.5, 0.5], rtol=1e-15)
    # everything below the apex collapses onto it
    q = project(_point(-1.0, [0.0, 0.0]))
    assert q.t == 0.0
    assert np.all(q.u.values == 0.0)
    # a negative t can still produce a positive threshold if u is large
    q = project(_point(-0.5, [3.0]))
    assert_allclose([q.t, q.u.values[0]], [1.25, 1.25], rtol=1e-15)


def _projection_cases():
    rng = np.random.default_rng(11)
    yield 0.0, np.zeros(3)
    yield -1.0, np.zeros(2)
    yield 0.0, np.array([-0.0])
    for scale in 10.0 ** np.arange(-300, 301, 25):
        for n in range(1, 10):
            for _ in range(6):
                u = scale * rng.normal(size=n)
                t = scale * float(rng.normal())
                yield t, u
                yield -abs(t), u
                # exact ties, zero cells among them
                yield t, scale * rng.integers(-3, 4, size=n).astype(float)
                # in the polar cone, which projects to the apex
                yield -2.0 * float(np.abs(u).max()), u


def test_project_matches_the_exact_bracket_root():
    # the exact bracket search, in Fraction arithmetic, at every scale
    # where the sums stay finite; no absolute floor on the error
    for t, u in _projection_cases():
        width = 1.0 / u.size
        tau, v = project_values(t, u, width)
        exact = exact_projection_height(t, u, width)
        scale = max(abs(t), float(np.abs(u).max()))
        assert abs(Fraction(tau) - exact) <= Fraction(1e-15) * Fraction(scale), (t, u)
        assert np.array_equal(v, np.clip(u, -tau, tau))


def test_project_against_grid_search_oracle():
    rng = np.random.default_rng(6)
    for n in (1, 2, 3, 6):
        mesh = Mesh(n)
        for _ in range(25):
            p = ConePoint(float(rng.normal()), GridFunction(mesh, 3.0 * rng.normal(size=n)))
            best = project(p)
            achieved = _dist_sq(p, best)
            hi = max(abs(p.t), float(np.abs(p.u.values).max())) + 1.0
            for tau in np.linspace(0.0, hi, 2001):
                candidate = ConePoint(
                    tau, GridFunction(mesh, np.clip(p.u.values, -tau, tau))
                )
                assert achieved <= _dist_sq(p, candidate) + 1e-9


def test_project_beats_random_feasible_points():
    rng = np.random.default_rng(8)
    mesh = Mesh(5)
    for _ in range(50):
        p = ConePoint(float(rng.normal()), GridFunction(mesh, 2.0 * rng.normal(size=5)))
        best = project(p)
        assert contains(best)
        t = float(rng.uniform(0.0, 3.0))
        q = ConePoint(t, GridFunction(mesh, rng.uniform(-t, t, size=5)))
        assert _dist_sq(p, best) <= _dist_sq(p, q) + 1e-12


def test_project_moreau_identities():
    # the residual p - project(p) is orthogonal to the projection and
    # makes a nonpositive inner product with every cone point
    rng = np.random.default_rng(9)
    mesh = Mesh(7)
    w = mesh.width
    for _ in range(50):
        p = ConePoint(float(rng.normal()), GridFunction(mesh, 2.0 * rng.normal(size=7)))
        q = project(p)
        res_t, res_u = p.t - q.t, p.u.values - q.u.values
        assert abs(res_t * q.t + w * np.dot(res_u, q.u.values)) <= 1e-12
        t = float(rng.uniform(0.0, 2.0))
        z = rng.uniform(-t, t, size=7)
        assert res_t * t + w * np.dot(res_u, z) <= 1e-12


def test_project_is_nonexpansive_and_positively_homogeneous():
    rng = np.random.default_rng(10)
    mesh = Mesh(4)
    for _ in range(50):
        p = ConePoint(float(rng.normal()), GridFunction(mesh, 2.0 * rng.normal(size=4)))
        q = ConePoint(float(rng.normal()), GridFunction(mesh, 2.0 * rng.normal(size=4)))
        d_images = np.sqrt(_dist_sq(project(p), project(q)))
        d_points = np.sqrt(_dist_sq(p, q))
        assert d_images <= d_points + 1e-12
        lam = float(rng.uniform(0.1, 3.0))
        scaled = project(ConePoint(lam * p.t, GridFunction(mesh, lam * p.u.values)))
        direct = project(p)
        assert_allclose(scaled.t, lam * direct.t, rtol=1e-12, atol=1e-14)
        assert_allclose(scaled.u.values, lam * direct.u.values, rtol=1e-12, atol=1e-14)
        # atol=1e-14 passes anything at these scales, so rtol alone
        for lam in (1e-13, 1e-200):
            scaled = project(ConePoint(lam * p.t, GridFunction(mesh, lam * p.u.values)))
            assert_allclose(scaled.t, lam * direct.t, rtol=1e-12, atol=0.0)
            assert_allclose(scaled.u.values, lam * direct.u.values, rtol=1e-12, atol=0.0)


def test_stationarity_residual_values():
    # the residual of _unit_step at the apex, where the gradient is (-h, 0)
    mesh = Mesh(4)
    zeros = np.zeros(4)
    assert _unit_step(mesh, 0.0, 0.0, zeros)[3] == 0.0
    # an inward-pointing gradient component moves the apex by h
    assert_allclose(_unit_step(mesh, 0.2, 0.0, zeros)[3], 0.2, rtol=1e-15)
    # outward gradients are swallowed by the cone's normal directions: the
    # kernel takes a negative h, whose gradient (0.7, 0) points outward
    assert _unit_step(mesh, -0.7, 0.0, zeros)[3] == 0.0


def test_report_prints_its_keys_in_order_with_points_as_plain_data():
    class Pair(Report):
        KEYS = ("second", "point", "first")
        first, second = 1.5, True
        point = _point(0.5, [0.5, -0.25])

    pair = Pair()
    text = '{"second": true, "point": {"t": 0.5, "u": [0.5, -0.25]}, "first": 1.5}'
    assert pair.to_json() == text
    assert list(pair.as_dict()) == ["second", "point", "first"]
    pair.first = float("nan")
    with pytest.raises(ValueError, match="not JSON compliant"):
        pair.to_json()
