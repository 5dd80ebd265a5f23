"""The integration operator S and its discrete normal operator S*S.

S maps u to its running integral, (S u)(x) = integral of u over (0, x).
For a piecewise-constant u the image is continuous piecewise linear with
node values

    (S u)(k/n) = width * (u_1 + ... + u_k),

so everything about S on the mesh is exact.  The module computes only
what the program reads from that image: ||S u||^2, the normal operator
S*S and its norm; the image as a piecewise-linear function and its L^2
pairing, the other side of the adjoint identity, are test oracles
(tests/oracles.py).

With the partial sums a_k = u_1 + ... + u_{k-1} and b_k = a_k + u_k
(the walk of u),

    ||S u||^2 = (width^3 / 3) * sum_k (a_k^2 + a_k b_k + b_k^2),

and the Gram matrix of the images S e_i of the cell indicators is
(width^3 / 6) * K6 with the integer matrix (1-based cells)

    K6[I, J] = 6 n + 3 - 6 max(I, J) - [I = J].

Row I of K6 u is 6 (P_I + ... + P_n) - 3 P_n - u_I over the prefix sums
P_k = u_1 + ... + u_k, so S*S is applied in O(n) with no n x n array;
(S*S u)_i = (width^2 / 6) (K6 u)_i is the exact cell average of
x -> integral of (S u) over (x, 1).
"""

from __future__ import annotations

import math

import numpy as np

from .grid import GridFunction, Mesh, _row_dots


def walk_energy(values: np.ndarray) -> np.ndarray:
    """Sum of a^2 + a*b + b^2 over cells, along the last axis.

    a and b are the partial sums of values before and after each cell,
    starting from 0, so rows are independent and integer input gives
    an exact integer result: 3 ||S sigma||^2 / width^3 for a sign
    pattern sigma.  With b = a + u the cell term is 3ab + u^2, so the
    sum is 3 sum_k P_{k-1} P_k + sum_k u_k^2 over the prefix sums P:
    one cumsum and two row dots (grid._row_dots), with no product array
    for a stack of rows; _walk_energy finishes the sum for a caller that
    holds both already.

    Step-cost lemma: a +/-1 step from height a to b costs a^2 + ab + b^2
    = |b^3 - a^3| >= 1, with equality iff it joins 0 and +/-1; reaching
    height a costs |a|^3, so a walk through a costs at least |a|^3 + n - |a|:
    E(sigma) >= n = E(alternating), with equality iff it stays in {-1, 0, 1}.
    Such a walk may step either way from 0 but must return to 0 from +/-1,
    so there are 2^ceil(n/2) minimizers, and the +1-first one is
    alternating_signs(n).
    """
    values = np.asarray(values)
    return _walk_energy(np.cumsum(values, axis=-1), _row_dots(values, values))


def alternating_signs(n: int) -> np.ndarray:
    """The pattern +1, -1, +1, ... on n cells: by the step-cost lemma of
    walk_energy, the least-energy walk with +1 first."""
    signs = np.ones(n)
    signs[1::2] = -1.0
    return signs


def _walk_energy(P: np.ndarray, squares: np.ndarray, out=None) -> np.ndarray:
    """walk_energy of the values with prefix sums P and row sums of squares.

    squares is _row_dots(values, values); a caller that also needs
    ||u||^2 computes it once for both.  A stack of rows may give out, an
    array of one value per row, to take the result in place.
    """
    energy = _row_dots(P[..., :-1], P[..., 1:], out)
    energy *= 3
    energy += squares
    return energy


def norm_S_sq(u: GridFunction) -> float:
    """Exact squared L^2 norm of S u.

    On each cell S u runs linearly from width * a to width * b, and the
    integral of its square over the cell is width^3 (a^2 + a*b + b^2) / 3.
    """
    return float(u.mesh.width**3 / 3.0 * walk_energy(u.values))


def _k6_times(u: np.ndarray) -> np.ndarray:
    # K6 u = 6 (P_I + ... + P_n) - 3 P_n - u_I over the prefix sums P;
    # exact for integer u.  The suffix sums of P overwrite P, and the
    # rest is computed in place there.
    P = np.cumsum(u)
    last = P[-1]
    np.cumsum(P[::-1], out=P[::-1])
    P *= 6
    P -= 3 * last
    P -= u
    return P


def SstarS_values(u: np.ndarray, width: float) -> np.ndarray:
    """S*S on bare cell values, exactly (width^2 / 6) K6 u."""
    K = _k6_times(u)
    K *= width**2 / 6.0
    return K


def apply_SstarS(u: GridFunction) -> GridFunction:
    """Cell averages of S*S u (SstarS_values)."""
    return GridFunction(u.mesh, SstarS_values(u.values, u.mesh.width))


def op_norm_SstarS(mesh: Mesh) -> float:
    """Largest eigenvalue of S*S on the mesh: 1/(4 n^2 sin^2(pi/(4n))) - 1/(6 n^2).

    With w = width and node values v = S u (v_0 = 0), ||S u||^2 = v'Mv and
    ||u||^2 = v'Kv, where M = (w/6) tridiag(1, 4, 1) and K = (1/w)
    tridiag(-1, 2, -1), each with its last diagonal entry halved.  This
    pencil has eigenvectors v_k = sin(k theta_j) with n theta_j =
    (j - 1/2) pi, so lambda_j = (w^2/6) (2 + cos theta_j) /
    (1 - cos theta_j), and j = 1 gives the formula above, with eigenvector
    u_i = cos((i - 1/2) pi / (2n)).  S*S here is a Galerkin compression of
    the continuous one (norm_S_sq is exact on piecewise constants), so
    lambda rises toward ||S||^2 = 4/pi^2 < 1/2 and 2*lambda < 1 on every
    mesh: the bound that reduces the box subproblem to sign patterns.
    """
    n = mesh.n
    return 1.0 / (4 * n * n * math.sin(math.pi / (4 * n)) ** 2) - 1.0 / (6 * n * n)
