"""Mesh and piecewise-constant function basics, against exact arithmetic."""

from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conelab import GridFunction, Mesh
from conelab.grid import _row_dots
from oracles import exact_l2_inner, nodes


def test_mesh_validation():
    for bad in (0, -1, 1.5, "4", True):
        with pytest.raises(ValueError):
            Mesh(bad)
    assert Mesh(1).n == 1


def test_mesh_width_and_nodes():
    mesh = Mesh(4)
    assert mesh.width == 0.25
    assert_allclose(nodes(mesh), [0.0, 0.25, 0.5, 0.75, 1.0], rtol=0, atol=0)
    assert Mesh(4) == Mesh(4)
    assert Mesh(4) != Mesh(5)
    assert len({Mesh(4), Mesh(4), Mesh(5)}) == 2


def test_gridfunction_validation():
    mesh = Mesh(3)
    with pytest.raises(ValueError):
        GridFunction(mesh, np.ones(2))
    with pytest.raises(ValueError):
        GridFunction(mesh, np.array([1.0, np.nan, 0.0]))
    with pytest.raises(ValueError):
        GridFunction(mesh, np.array([1.0, np.inf, 0.0]))
    column = GridFunction(mesh, np.ones((3, 1)))
    assert column.values.shape == (3,)


def test_gridfunction_is_an_immutable_copy():
    mesh = Mesh(2)
    source = np.array([1.0, 2.0])
    u = GridFunction(mesh, source)
    source[0] = 99.0
    assert u.values[0] == 1.0
    with pytest.raises(ValueError):
        u.values[0] = 5.0


def test_zeros_and_constant():
    mesh = Mesh(5)
    assert_allclose(GridFunction.zeros(mesh).values, np.zeros(5), rtol=0, atol=0)
    assert_allclose(GridFunction(mesh, np.full(5, 2.5)).values, np.full(5, 2.5), rtol=0, atol=0)


def _inner(u, v):
    # the program's L^2 inner product: the width times the one reduction
    return u.mesh.width * float(_row_dots(u.values, v.values))


def test_inner_product_against_fraction_oracle():
    # width * sum(u_i v_i) computed exactly in rational arithmetic
    mesh = Mesh(4)
    u_vals = [Fraction(1, 3), Fraction(-2, 7), Fraction(5, 11), Fraction(0)]
    v_vals = [Fraction(2, 5), Fraction(1, 9), Fraction(-3, 4), Fraction(8, 13)]
    exact = Fraction(1, 4) * sum(a * b for a, b in zip(u_vals, v_vals))
    u = GridFunction(mesh, np.array([float(a) for a in u_vals]))
    v = GridFunction(mesh, np.array([float(b) for b in v_vals]))
    assert_allclose(_inner(u, v), float(exact), rtol=1e-15)
    assert_allclose(_inner(u, u), float(Fraction(1, 4) * sum(a * a for a in u_vals)),
                    rtol=1e-15)
    # and the exact oracle on the rounded cell values, within a few ulps
    rng = np.random.default_rng(8)
    for n in (1, 3, 17, 1000):
        u = GridFunction(Mesh(n), rng.normal(size=n))
        v = GridFunction(Mesh(n), rng.normal(size=n))
        assert_allclose(_inner(u, v), float(exact_l2_inner(u, v)), rtol=1e-14, atol=1e-16)
        assert _inner(u, u) == pytest.approx(float(exact_l2_inner(u, u)), rel=1e-15)


def test_inner_product_symmetry_and_cauchy_schwarz():
    rng = np.random.default_rng(7)
    mesh = Mesh(17)
    for _ in range(50):
        u = GridFunction(mesh, rng.normal(size=17))
        v = GridFunction(mesh, rng.normal(size=17))
        assert _inner(u, v) == _inner(v, u)
        assert abs(_inner(u, v)) <= np.sqrt(_inner(u, u) * _inner(v, v)) + 1e-12


def test_norm_of_constant_one_is_one():
    for n in (1, 2, 8, 125):
        ones = GridFunction(Mesh(n), np.ones(n))
        assert_allclose(_inner(ones, ones), 1.0, rtol=1e-15)
        assert exact_l2_inner(ones, ones) == 1


def test_refinement_replication_preserves_integrals():
    # duplicating each cell value on a twice-finer mesh represents the
    # same L^2 function, so inner products must not change
    rng = np.random.default_rng(3)
    coarse = Mesh(4)
    fine = Mesh(8)
    a, b = rng.normal(size=4), rng.normal(size=4)
    u_c, v_c = GridFunction(coarse, a), GridFunction(coarse, b)
    u_f = GridFunction(fine, np.repeat(a, 2))
    v_f = GridFunction(fine, np.repeat(b, 2))
    assert _inner(u_c, v_c) == pytest.approx(_inner(u_f, v_f), abs=1e-16)
    assert exact_l2_inner(u_c, v_c) == exact_l2_inner(u_f, v_f)
