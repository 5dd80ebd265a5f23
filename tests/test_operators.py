"""Integration operator, its normal operator S*S, and spectral checks.

Expected values come from exact rational arithmetic: the image of a
piecewise-constant function under the running integral is piecewise
linear with rational node values, and integrals of products of linear
pieces are evaluated through the antiderivative

    integral of (a + (b-a)s)(c + (d-c)s) ds over [0, 1]
        = a c + (a (d-c) + c (b-a)) / 2 + (b-a)(d-c) / 3,

a different algebraic route than the implementation's symmetric
quadrature weights.  The Gram matrix exists only on the test side,
assembled column by column from width * apply_SstarS(e_j), so the
entry and eigenvalue oracles check the matrix-free operator.
"""

from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conelab import (
    GridFunction,
    Mesh,
    alternating_signs,
    apply_SstarS,
    l2_inner,
    norm_S_sq,
    op_norm_SstarS,
)
from conelab import operators, solvers
from conelab.operators import walk_energy
from oracles import PiecewiseLinear, apply_S, nodes, pl_l2_inner


def _exact_nodes(values):
    # running integral of a piecewise-constant function, in Fractions
    width = Fraction(1, len(values))
    nodes = [Fraction(0)]
    for v in values:
        nodes.append(nodes[-1] + width * v)
    return nodes


def _exact_pl_inner(f_nodes, g_nodes):
    width = Fraction(1, len(f_nodes) - 1)
    total = Fraction(0)
    for a, b, c, d in zip(f_nodes[:-1], f_nodes[1:], g_nodes[:-1], g_nodes[1:]):
        total += width * (a * c + (a * (d - c) + c * (b - a)) / 2 + (b - a) * (d - c) / 3)
    return total


def _gram_from_operator(n):
    # column j is width * S*S e_j, i.e. the inner products <S e_i, S e_j>
    mesh = Mesh(n)
    cols = [apply_SstarS(GridFunction(mesh, e)).values for e in np.eye(n)]
    return mesh.width * np.column_stack(cols)


def _rational_cells(rng, n):
    return [Fraction(int(rng.integers(-12, 13)), int(rng.integers(1, 9))) for _ in range(n)]


def test_apply_S_node_values():
    mesh = Mesh(4)
    image = apply_S(GridFunction.constant(mesh, 1.0))
    assert isinstance(image, PiecewiseLinear)
    assert_allclose(image.node_values, [0.0, 0.25, 0.5, 0.75, 1.0], rtol=0, atol=0)
    hat = apply_S(GridFunction(Mesh(2), np.array([1.0, -1.0])))
    assert_allclose(hat.node_values, [0.0, 0.5, 0.0], rtol=0, atol=0)


def test_piecewise_linear_validation():
    with pytest.raises(ValueError):
        PiecewiseLinear(Mesh(3), np.zeros(3))


def test_norm_S_sq_closed_values():
    assert_allclose(norm_S_sq(GridFunction.constant(Mesh(8), 1.0)), 1.0 / 3.0, rtol=1e-15)
    alternating2 = GridFunction(Mesh(2), np.array([1.0, -1.0]))
    assert_allclose(norm_S_sq(alternating2), 1.0 / 12.0, rtol=1e-15)
    alternating4 = GridFunction(Mesh(4), np.array([1.0, -1.0, 1.0, -1.0]))
    assert_allclose(norm_S_sq(alternating4), 1.0 / 48.0, rtol=1e-15)


def test_norm_S_sq_against_rational_quadrature():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 5, 8):
        cells = _rational_cells(rng, n)
        nodes = _exact_nodes(cells)
        exact = _exact_pl_inner(nodes, nodes)
        u = GridFunction(Mesh(n), np.array([float(c) for c in cells]))
        assert_allclose(norm_S_sq(u), float(exact), rtol=1e-13, atol=1e-16)


def test_pl_inner_against_rational_quadrature():
    rng = np.random.default_rng(12)
    for n in (1, 2, 4, 7):
        f_cells = _rational_cells(rng, n)
        g_cells = _rational_cells(rng, n)
        f_nodes, g_nodes = _exact_nodes(f_cells), _exact_nodes(g_cells)
        exact = _exact_pl_inner(f_nodes, g_nodes)
        f = apply_S(GridFunction(Mesh(n), np.array([float(c) for c in f_cells])))
        g = apply_S(GridFunction(Mesh(n), np.array([float(c) for c in g_cells])))
        assert_allclose(pl_l2_inner(f, g), float(exact), rtol=1e-13, atol=1e-16)


def test_gram_matrix_entries_are_pairwise_image_inner_products():
    # G_ij must equal the inner product of the images of unit cell
    # indicators, computed here in exact arithmetic
    for n in (1, 2, 3, 6):
        G = _gram_from_operator(n)
        for i in range(n):
            for j in range(n):
                e_i = [Fraction(int(k == i)) for k in range(n)]
                e_j = [Fraction(int(k == j)) for k in range(n)]
                exact = _exact_pl_inner(_exact_nodes(e_i), _exact_nodes(e_j))
                assert_allclose(G[i, j], float(exact), rtol=1e-14, atol=1e-18)
        assert_allclose(G, G.T, rtol=0, atol=0)


def test_gram_matrix_n2_exact():
    assert_allclose(
        _gram_from_operator(2),
        [[1.0 / 6.0, 1.0 / 16.0], [1.0 / 16.0, 1.0 / 24.0]],
        rtol=1e-15,
    )


def test_apply_SstarS_exact_cell_averages():
    # (S*S u)_i is the cell average of x -> integral of Su over (x, 1);
    # for u = (1, 1) on two cells that gives (11/24, 5/24), and for
    # u = 1 on one cell the average of (1 - x^2)/2, which is 1/3
    out2 = apply_SstarS(GridFunction.constant(Mesh(2), 1.0))
    assert_allclose(out2.values, [11.0 / 24.0, 5.0 / 24.0], rtol=1e-15)
    out1 = apply_SstarS(GridFunction.constant(Mesh(1), 1.0))
    assert_allclose(out1.values, [1.0 / 3.0], rtol=1e-15)


def test_apply_SstarS_of_the_constant_on_a_million_cells():
    # far beyond any dense n x n matrix: the cell average of (1 - x^2)/2
    # over [x_{i-1}, x_i] is (1 - (x_{i-1}^2 + x_{i-1} x_i + x_i^2)/3)/2,
    # which with x_i = i/n is (3n^2 - 3i^2 + 3i - 1) / (6n^2)
    n = 2**20
    i = np.arange(1, n + 1, dtype=np.int64)
    exact = (3 * n * n - 3 * i * i + 3 * i - 1) / (6.0 * n * n)
    out = apply_SstarS(GridFunction.constant(Mesh(n), 1.0))
    assert_allclose(out.values, exact, rtol=1e-12, atol=0)


def test_adjoint_identity():
    # <Su, Sv> in the image space equals <u, S*S v> in the source space
    rng = np.random.default_rng(21)
    for n in (1, 2, 5, 16, 128):
        mesh = Mesh(n)
        for _ in range(20):
            u = GridFunction(mesh, rng.normal(size=n))
            v = GridFunction(mesh, rng.normal(size=n))
            lhs = pl_l2_inner(apply_S(u), apply_S(v))
            rhs = l2_inner(u, apply_SstarS(v))
            assert abs(lhs - rhs) <= 1e-12


def test_image_pointwise_bound_on_cone_points():
    # |u| <= t forces |(Su)(x)| <= t x at every node
    rng = np.random.default_rng(22)
    for n in (1, 4, 33):
        mesh = Mesh(n)
        t = 1.0
        u = GridFunction(mesh, rng.uniform(-t, t, size=n))
        image = apply_S(u)
        assert np.all(np.abs(image.node_values) <= t * nodes(mesh) + 1e-15)


def test_walk_energy_step_cost_lemma_on_every_sign_pattern():
    # E(sigma) >= m^3 + n - m for the walk's largest height m, and E = n
    # exactly for the 2^ceil(n/2) walks that stay in {-1, 0, 1}
    for n in range(1, 13):
        # cell k is bit n - 1 - k of the row index, so the rows run in
        # lexicographic order with +1 before -1
        bits = np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)
        sigma = (1 - 2 * (bits & 1)).astype(np.int64)
        energy = walk_energy(sigma)
        m = np.abs(np.cumsum(sigma, axis=1)).max(axis=1)
        assert np.all(energy >= m**3 + n - m)
        np.testing.assert_array_equal(energy == n, m <= 1)
        assert np.count_nonzero(m <= 1) == 2 ** ((n + 1) // 2)
        first = sigma[np.flatnonzero(energy == n)[0]]
        np.testing.assert_array_equal(first, alternating_signs(n))
    # the pattern is defined beside the lemma; the package and solvers re-export it
    assert alternating_signs is operators.alternating_signs is solvers.alternating_signs


def _exact_walk_energy(row):
    # every float is an integer over a power of two: clear the largest
    # denominator and sum a^2 + ab + b^2 on Python ints
    fractions = [Fraction(x) for x in row.tolist()]
    den = max(f.denominator for f in fractions)
    a = total = 0
    for f in fractions:
        b = a + f.numerator * (den // f.denominator)
        total += a * a + a * b + b * b
        a = b
    return Fraction(total, den * den)


def _reference_walk_energy(values):
    # the kernel's earlier form: the node walk and the a^2 + ab + b^2 products
    nodes = np.zeros(values.shape[:-1] + (values.shape[-1] + 1,), dtype=values.dtype)
    np.cumsum(values, axis=-1, out=nodes[..., 1:])
    a, b = nodes[..., :-1], nodes[..., 1:]
    return np.sum(a * a + a * b + b * b, axis=-1)


def test_walk_energy_float_rows_match_the_fraction_oracle():
    rng = np.random.default_rng(8)
    for n in (1, 2, 64, 1024, 4096):
        ray = rng.uniform(0.01, 10.0, size=(3, 1)) * alternating_signs(n)
        uniform = rng.uniform(-1.0, 1.0, size=(3, n))
        for rows in (ray, uniform):
            energy = walk_energy(rows)
            assert energy.shape == (3,)
            for row, got in zip(rows, energy):
                exact = _exact_walk_energy(row)
                # the stack of rows and the single row take different dots
                for value in (got, walk_energy(row)):
                    assert abs(Fraction(float(value)) - exact) <= Fraction(1, 10**13) * exact


def test_walk_energy_is_exact_on_integer_sign_rows():
    rng = np.random.default_rng(9)
    for n in (1, 2, 3, 17, 256, 2048):
        sigma = rng.choice(np.array([-1, 1], dtype=np.int64), size=(8, n))
        energy = walk_energy(sigma)
        assert energy.dtype == np.int64
        np.testing.assert_array_equal(energy, _reference_walk_energy(sigma))
        for row in sigma:
            single = walk_energy(row)
            assert single.dtype == np.int64
            assert single == _reference_walk_energy(row)


def test_op_norm_closed_form():
    # n = 1: S*S acts as multiplication by 1/3
    assert_allclose(op_norm_SstarS(Mesh(1)), 1.0 / 3.0, rtol=0, atol=1e-15)
    # dense eigenvalue solve of the operator-assembled matrix as an oracle
    for n in range(1, 65):
        dense = np.linalg.eigvalsh(_gram_from_operator(n) / Mesh(n).width).max()
        assert_allclose(op_norm_SstarS(Mesh(n)), dense, rtol=0, atol=1e-14)
    # and as an eigenpair of the matrix-free operator on large meshes,
    # with eigenvector u_i = cos((i - 1/2) pi / (2n))
    for n in (4096, 65536, 2**20):
        mesh = Mesh(n)
        u = np.cos((np.arange(1, n + 1) - 0.5) * np.pi / (2 * n))
        lam = op_norm_SstarS(mesh)
        Au = apply_SstarS(GridFunction(mesh, u)).values
        assert np.max(np.abs(Au - lam * u)) <= 1e-12 * np.max(np.abs(Au))


def test_op_norm_monotone_and_bounded():
    continuum = 4.0 / np.pi**2
    # this carries the premise 2 lambda < 1 that the solvers rely on unchecked
    sizes = (1, 2, 4, 8, 16, 64, 256, 4096, 65536)
    values = [op_norm_SstarS(Mesh(n)) for n in sizes]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert all(v < continuum for v in values)
    assert all(2.0 * v < 1.0 for v in values)
    v256 = values[sizes.index(256)]
    assert 0.40 <= v256 <= 0.41
    assert abs(v256 - continuum) < 2e-5
    # the gap closes like 1/(12 n^2): about 1.9e-11 at n = 65536
    assert abs(values[-1] - continuum) < 1e-10
