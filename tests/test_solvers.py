"""The three solvers against closed forms and an exact enumeration oracle.

The oracle rebuilds the Gram matrix of the running-integral operator in
rational arithmetic (same antiderivative route as the operator tests),
enumerates every sign pattern with Fractions, and applies the documented
tie-break; no floating-point shortcut of the implementation is reused.
Bang-bang descent is also held byte for byte to a reference that keeps
the vector K6 sigma and updates it column by column on every flip, and
the closed-form exact solver to a dynamic program over the partial-sum
walk that searches a wide band of walk heights.
"""

import dataclasses
import itertools
import json
import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conelab import (
    ConePoint,
    GridFunction,
    InfeasiblePointError,
    Mesh,
    MeshMismatchError,
    SolverOptions,
    SweepConfig,
    alternating_signs,
    cli,
    contains,
    count_sign_changes,
    gradient,
    objective,
    operators,
    perturbation_sweep,
    pontryagin_check,
    project,
    solve_bangbang,
    solve_bruteforce,
    solve_pgd,
    solve_with_canonical_start,
    solvers,
    value,
)
from conelab.cone import norm_X_values
from conelab.operators import _k6_times, walk_energy
import oracles
from oracles import pontryagin_residual, random_feasible_point


def _report(h, method, p, iterations, reached, opts, tie_count=None):
    # the report at p from a gradient and residual taken afresh there
    _, gu, _, stat = solvers._unit_step(p.mesh, h, p.t, p.u.values)
    return solvers._build_report(h, method, p, gu, stat, iterations, reached, opts, tie_count)


def _exact_gram(n):
    width = Fraction(1, n)
    G = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            # node values of the images of the cell indicators
            fi = [min(max(Fraction(k) - i, 0), 1) * width for k in range(n + 1)]
            fj = [min(max(Fraction(k) - j, 0), 1) * width for k in range(n + 1)]
            total = Fraction(0)
            for a, b, c, d in zip(fi[:-1], fi[1:], fj[:-1], fj[1:]):
                total += width * (
                    a * c + (a * (d - c) + c * (b - a)) / 2 + (b - a) * (d - c) / 3
                )
            G[i][j] = total
    return G


def _oracle_bruteforce(n, h):
    """Exact global minimum over sign patterns, with lex tie-break."""
    G = _exact_gram(n)
    h = Fraction(h)
    best_m, best_sigma, ties = None, None, 0
    for sigma in itertools.product((1, -1), repeat=n):
        m = sum(sigma[i] * G[i][j] * sigma[j] for i in range(n) for j in range(n))
        if best_m is None or m < best_m:
            best_m, best_sigma, ties = m, sigma, 1
        elif m == best_m:
            ties += 1
    t = h / (1 + 2 * best_m)
    f = -(h * h) / (2 + 4 * best_m)
    return best_sigma, t, f, ties


def test_solver_options_validation():
    SolverOptions()
    with pytest.raises(ValueError):
        SolverOptions(max_iterations=0)
    with pytest.raises(ValueError):
        SolverOptions(tolerance=0.0)
    with pytest.raises(ValueError):
        SolverOptions(tolerance=float("inf"))
    with pytest.raises(ValueError):
        SolverOptions(max_iterations=True)
    # a real tolerance is stored as the float the solvers compare against
    assert SolverOptions(tolerance=Fraction(1, 1000)).tolerance == 1e-3


def test_solver_options_take_numpy_integers_and_refuse_bools():
    # as Mesh does, a numpy integer is a count, stored as a Python int
    cap = SolverOptions(max_iterations=np.int64(5)).max_iterations
    assert cap == 5 and type(cap) is int
    for bad in (np.int64(0), np.bool_(True), 5.0):
        with pytest.raises(ValueError, match="max_iterations must be an integer >= 1"):
            SolverOptions(max_iterations=bad)
    # True is not the tolerance 1.0
    for bad in (True, False, np.bool_(True)):
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            SolverOptions(tolerance=bad)


def test_solver_options_refuse_a_tolerance_that_is_not_a_real():
    # as check_tilt: a string is not parsed, and None or a complex is
    # refused with ValueError, not TypeError
    for bad in ("1e-3", b"1e-3", None, 1e-3j, [1e-3], 10**400):
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            SolverOptions(tolerance=bad)
    for good in (np.float32(0.5), np.int64(1), 1):
        tol = SolverOptions(tolerance=good).tolerance
        assert type(tol) is float and tol == float(good)


def test_bruteforce_two_cells():
    report = solve_bruteforce(1.0, Mesh(2))
    t = 6.0 / 7.0
    assert_allclose(report.objective, -3.0 / 7.0, atol=1e-14)
    assert_allclose(report.minimizer.t, t, atol=1e-14)
    assert_allclose(report.minimizer.u.values, [t, -t], atol=1e-14)
    assert report.tie_count == 2
    assert report.sign_changes == 1
    assert report.iterations == 2
    assert report.converged
    assert report.stationarity <= 1e-12
    assert report.pontryagin_residual <= 1e-12
    assert report.nonvertex_cells == 0


def test_bruteforce_single_cell():
    report = solve_bruteforce(2.0, Mesh(1))
    assert_allclose(report.minimizer.t, 6.0 / 5.0, atol=1e-14)
    assert_allclose(report.objective, -6.0 / 5.0, atol=1e-14)


def test_bruteforce_four_cells():
    report = solve_bruteforce(1.0, Mesh(4))
    assert_allclose(report.objective, -12.0 / 25.0, atol=1e-13)
    assert_allclose(report.minimizer.t, 24.0 / 25.0, atol=1e-13)
    assert report.sign_changes == 3


def test_bruteforce_untilted_returns_the_apex():
    report = solve_bruteforce(0.0, Mesh(6))
    assert report.minimizer.t == 0.0
    assert np.all(report.minimizer.u.values == 0.0)
    assert report.objective == 0.0
    assert report.tie_count == 2**6
    assert report.sign_changes == 0


def test_bruteforce_against_exact_oracle():
    for n in range(1, 10):
        for h in (Fraction(1), Fraction(7, 10)):
            sigma, t, f, ties = _oracle_bruteforce(n, h)
            report = solve_bruteforce(float(h), Mesh(n))
            assert_allclose(report.objective, float(f), atol=1e-12)
            assert_allclose(report.minimizer.t, float(t), atol=1e-12)
            assert_allclose(
                report.minimizer.u.values, float(t) * np.array(sigma), atol=1e-12
            )
            assert report.tie_count == ties


def _closed_form(h, n):
    # min ||S sigma||^2 = 1/(3 n^2), attained by the alternating patterns
    m = 1.0 / (3.0 * n * n)
    return -h * h / (2.0 + 4.0 * m), h / (1.0 + 2.0 * m)


def test_bruteforce_closed_form_at_every_size_up_to_the_cap():
    h = 1.0
    for n in [*range(1, 65), 1000, 4096, 65536, 2**20]:
        report = solve_bruteforce(h, Mesh(n))
        f, t = _closed_form(h, n)
        assert_allclose(report.objective, f, rtol=1e-12)
        assert_allclose(report.minimizer.t, t, rtol=1e-12)
        assert report.tie_count == 2 ** ((n + 1) // 2)
        assert np.array_equal(np.sign(report.minimizer.u.values), alternating_signs(n))


def _reference_bruteforce(h, mesh):
    """The exact DP over the wide band of heights r with r^3 <= E(alternating).

    It uses only the weaker bound E >= |r|^3 for a walk through height r,
    so it keeps about 2 n^(1/3) heights where the solver keeps three.
    """
    n = mesh.n
    bound = int(walk_energy(alternating_signs(n).astype(np.int64)))
    r = 1
    while (r + 1) ** 3 <= bound:
        r += 1
    heights = np.arange(-r, r + 1, dtype=np.int64)
    up = 3 * heights * heights + 3 * heights + 1
    down = up - 6 * heights
    togo = np.zeros((n + 1, heights.size + 2), dtype=np.int64)
    togo[:, [0, -1]] = np.iinfo(np.int64).max // 2
    ways = np.zeros(heights.size + 2, dtype=object)
    ways[1:-1] = 1
    for k in range(n - 1, -1, -1):
        via_up, via_down = up + togo[k + 1, 2:], down + togo[k + 1, :-2]
        best = togo[k, 1:-1] = np.minimum(via_up, via_down)
        ways[1:-1] = np.where(via_up == best, ways[2:], 0) + np.where(
            via_down == best, ways[:-2], 0
        )
    signs = np.empty(n)
    a = r + 1
    for k in range(n):
        signs[k] = 1 if up[a - 1] + togo[k + 1, a + 1] == togo[k, a] else -1
        a += int(signs[k])
    p = solvers._ray_optimum(h, mesh, signs)
    return _report(h, "brute", p, n, True, SolverOptions(), tie_count=int(ways[r + 1]))


def test_bruteforce_matches_the_wide_band_reference():
    for n in [*range(1, 65), 257, 1000, 4096]:
        mesh = Mesh(n)
        for h in (0.1, 1.0):
            expected = _reference_bruteforce(h, mesh).to_json()
            assert solve_bruteforce(h, mesh).to_json() == expected, (n, h)


def test_bangbang_closed_form_on_a_fine_mesh():
    # the sweep counts from all-plus pin the visit order of the moves
    h = 1.0
    for n, sweeps in {512: 28, 1024: 37, 2048: 56, 4096: 74}.items():
        report = solve_bangbang(h, Mesh(n), np.ones(n))
        f, t = _closed_form(h, n)
        assert_allclose(report.objective, f, rtol=1e-12)
        assert_allclose(report.minimizer.t, t, rtol=1e-12)
        assert report.sign_changes == n - 1
        assert report.converged
        assert report.iterations == sweeps


def test_nested_start_prolongs_the_coarse_minimizer():
    # each ladder level is bang-bang from all-plus up to 64 cells; above,
    # from the ceil(n/2)-cell level, each sign twice, cut to n
    def level(n, cap):
        ((_, signs, sweeps, _),) = solvers.bangbang_ladder([n], cap)
        return signs, sweeps

    for n, cap in ((64, 5), (65, 100), (129, 100), (130, 100), (257, 100)):
        m = (n + 1) // 2
        start = np.ones(n) if n <= 64 else np.repeat(level(m, cap)[0], 2)[:n]
        report = solve_bangbang(1.0, Mesh(n), start, SolverOptions(max_iterations=cap))
        signs, sweeps = level(n, cap)
        assert np.array_equal(np.sign(report.minimizer.u.values), signs), n
        assert report.iterations == sweeps, n


def test_canonical_bangbang_hits_the_exact_minimizer_at_large_n():
    h = 0.1
    for k in range(1, 17):
        n = 2**k
        mesh = Mesh(n)
        report = solve_with_canonical_start(h, mesh, "bangbang")
        exact = solve_bruteforce(h, mesh)
        assert report.converged, n
        assert np.array_equal(report.minimizer.u.values, exact.minimizer.u.values), n
        assert report.minimizer.t == exact.minimizer.t, n
        assert report.objective == exact.objective, n
        if 512 <= n <= 4096:
            # fine-mesh sweeps only; from all-plus these take 28 to 74
            assert report.iterations == 3, n


def _reference_bangbang(h, mesh, start, opts):
    """Bang-bang descent that keeps the integer vector K6 sigma.

    Every gain is read from K6 sigma, which each flip updates in O(n)
    with a closed-form column of K6; the moves, their order and the
    sweep count are those documented for solve_bangbang.
    """
    n = mesh.n
    s = np.array(start, dtype=np.int64)
    Ks = _k6_times(s)
    tail = 6 * n + 3 - 6 * np.arange(1, n + 1, dtype=np.int64)

    def gain(i):
        # quarter of the drop in sigma' K6 sigma from flipping cell i
        return s[i] * Ks[i] - (tail[i] - 1)

    def pair_gain(i):
        # the same for cells i and i+1 together; K6[i, i+1] = tail[i+1]
        return gain(i) + gain(i + 1) - 2 * s[i] * s[i + 1] * tail[i + 1]

    def flip(i):
        # column i of K6 is tail[max(i, k)] - [k = i] in row k
        s[i] = -s[i]
        d = 2 * s[i]
        Ks[: i + 1] += d * tail[i]
        Ks[i + 1 :] += d * tail[i + 1 :]
        Ks[i] -= d

    sweeps, settled = 0, False
    while sweeps < opts.max_iterations:
        sweeps += 1
        moved = False
        for i in range(n):
            if gain(i) > 0:
                flip(i)
                moved = True
        for i in range(n - 1):
            if pair_gain(i) > 0:
                flip(i)
                flip(i + 1)
                moved = True
        if not moved:
            for i in range(n):
                if s[i] < 0 and gain(i) == 0:
                    flip(i)
                    moved = True
            for i in range(n - 1):
                if s[i] < 0 and pair_gain(i) == 0:
                    flip(i)
                    flip(i + 1)
                    moved = True
        if not moved:
            settled = True
            break
    p = solvers._ray_optimum(h, mesh, s.astype(float))
    return _report(h, "bangbang", p, sweeps, settled, opts)


def test_bangbang_matches_the_k6_vector_reference():
    rng = np.random.default_rng(2024)
    h = 0.1
    for n in [*range(1, 65), 257, 600]:
        mesh = Mesh(n)
        starts = [rng.choice([-1.0, 1.0], size=n) for _ in range(2 if n > 64 else 3)]
        for start in starts:
            for cap in (1, 3, SolverOptions().max_iterations):
                opts = SolverOptions(max_iterations=cap)
                expected = _reference_bangbang(h, mesh, start, opts).to_json()
                assert solve_bangbang(h, mesh, start, opts).to_json() == expected


def _walk_handover(s, polish, pair):
    # (k, P, Q) that one pass over s hands to _walk when every level
    # walks from its first move, or None when the pass is idle
    handed = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "_WALK_MAX_N", math.inf)
        mp.setattr(solvers, "_walk", lambda s, k, P, Q, *rest: handed.append((k, P, Q)))
        signs = np.array(s, np.int8)
        moved = solvers._flips(signs, solvers._Scan(signs), polish, pair)
    assert moved == bool(handed) and len(handed) <= 1, (s, polish, pair)
    return handed[0] if handed else None


def _assert_scan_starts_at_the_first_move(s):
    # each pass's scan names the first cell the walk over every cell
    # moves, with the exact sums P (signs before it) and Q (tail_j s_j
    # after it), and None when the walk moves nothing
    n = len(s)
    tails = [6 * n - 3 - 6 * j for j in range(n)]
    total = sum(t * x for t, x in zip(tails, s))
    for walk, pair in ((oracles._single_flips, False), (oracles._pair_flips, True)):
        for polish in (False, True):
            moved = list(s)
            walk(moved, total, polish)
            k = next((i for i in range(n) if moved[i] != s[i]), None)
            start = _walk_handover(s, polish, pair)
            if k is None:
                assert start is None, (n, pair, polish)
            else:
                tail_sum = sum(t * x for t, x in zip(tails[k + 1 :], s[k + 1 :]))
                assert start == (k, sum(s[:k]), tail_sum), (n, pair, polish)


def test_descend_matches_the_walk_over_every_cell():
    # the gain scan only skips the cells before a pass's first move, so
    # the signs, the sweeps and the settled flag are those of the
    # scan-free loop on every start and at every sweep cap
    rng = np.random.default_rng(15)
    sizes = [*range(1, 201), 257, 511, 512, 513, 1023, 1024, 1025, 4095, 4096, 4097]
    for n in sizes:
        for cap in (1, 2, 3, 100000):
            random_start = rng.choice([-1, 1], size=n).tolist()
            for start in (random_start, oracles.nested_start(n, cap)):
                s, expected = np.array(start, np.int8), list(start)
                assert solvers._descend(s, cap) == oracles._descend(expected, cap), (n, cap)
                assert s.tolist() == expected, (n, cap)
                if n <= 200:
                    _assert_scan_starts_at_the_first_move(start)
                    _assert_scan_starts_at_the_first_move(expected)
    cap = SolverOptions().max_iterations
    ((_, coarse, _, _),) = solvers.bangbang_ladder([32768], cap)
    start = np.repeat(coarse, 2)
    s, expected = start.copy(), start.tolist()
    assert solvers._descend(s, cap) == oracles._descend(expected, cap)
    assert s.tolist() == expected
    # the nested start itself, built on every level by the walk
    assert start.tolist() == oracles.nested_start(65536, cap)


def _recorded_walks(monkeypatch):
    # (cells, start cell) of every hand-over from a pass to _walk
    walked, walk = [], solvers._walk

    def recorded(s, k, *rest):
        walked.append((len(s), k))
        walk(s, k, *rest)

    monkeypatch.setattr(solvers, "_walk", recorded)
    return walked


def _one_pass(start, polish, pair):
    # one pass of the given kind over start, held to the walk over every
    # cell (oracles._single_flips or oracles._pair_flips)
    n = len(start)
    s, expected = np.array(start, np.int8), list(start)
    total = sum((6 * n - 3 - 6 * j) * x for j, x in enumerate(expected))
    walk = oracles._pair_flips if pair else oracles._single_flips
    _, moved = walk(expected, total, polish)
    assert solvers._flips(s, solvers._Scan(s), polish, pair) == moved, (start, polish, pair)
    assert s.tolist() == expected, (start, polish, pair)


def test_transducer_passes_match_the_walk_where_they_escape(monkeypatch):
    # every pass kind from starts whose transducer ends in its two states
    # or escapes at the cell (pair) after the first move, mid-pass or at
    # the last cell (pair): the alternating pattern on 65 cells with the
    # listed cells flipped.  No start of up to 14 cells makes a strict
    # single pass escape at the last cell, a polish single pass at the
    # cell after its first move or a polish pair pass at the last pair,
    # so those three have no case.
    walked = _recorded_walks(monkeypatch)
    cases = [
        ((0,), False, False, None),
        ((0, 2), False, False, "next"),
        ((0, 18), False, False, "mid"),
        ((0,), False, True, None),
        ((0, 4), False, True, "next"),
        ((1,), False, True, "mid"),
        ((1, 2, 62), False, True, "last"),
        ((20,), True, False, None),
        ((24, 62), True, False, "mid"),
        ((22, 64), True, False, "last"),
        ((0, 1), True, True, None),
        ((8, 50), True, True, "next"),
        ((0, 1, 8, 50), True, True, "mid"),
    ]
    n = 65
    assert n > solvers._WALK_MAX_N
    for flipped, polish, pair, where in cases:
        start = alternating_signs(n).astype(int)
        start[list(flipped)] *= -1
        k, _, _ = _walk_handover(start.tolist(), polish, pair)
        walked.clear()
        _one_pass(start.tolist(), polish, pair)
        last = n - 2 if pair else n - 1
        if where == "mid":
            assert len(walked) == 1 and k + 1 < walked[0][1] < last, (flipped, walked)
        else:
            escape = {None: [], "next": [(n, k + 1)], "last": [(n, last)]}[where]
            assert walked == escape, (flipped, polish, pair)
    # every start of up to 9 cells through the transducer
    monkeypatch.setattr(solvers, "_WALK_MAX_N", 0)
    for n in range(1, 10):
        for start in itertools.product((1, -1), repeat=n):
            for polish in (False, True):
                for pair in (False, True):
                    _one_pass(start, polish, pair)


def test_nested_levels_never_fall_back_to_the_walk(monkeypatch):
    # every moving pass on the nested levels of 128 to 2^16 cells stays
    # in its transducer's two states; only the all-plus base level walks
    walked = _recorded_walks(monkeypatch)
    transduced, transduce = [], solvers._transduce

    def recorded(s, *rest):
        transduced.append(len(s))
        return transduce(s, *rest)

    monkeypatch.setattr(solvers, "_transduce", recorded)
    sizes = [2**k for k in range(7, 17)]
    levels = solvers.bangbang_ladder(sizes, SolverOptions().max_iterations)
    assert [n for n, _, _, settled in levels if settled] == sizes
    assert walked and {n for n, _ in walked} == {64}
    assert set(transduced) == set(sizes)


def test_gain_scan_bound_and_the_walk_only_path(monkeypatch):
    # every integer the scan forms is below 18 n^2 in magnitude, and
    # int64 holds the integers below 2^63 exactly
    n_max = solvers._MAX_N
    assert n_max == 715_827_882
    assert 18 * n_max**2 < 2**63 <= 18 * (n_max + 1) ** 2
    cases = [(n, h) for n in (1, 2, 65, 257, 4096) for h in (0.1, 1.0)]

    def reports():
        out = []
        for n, h in cases:
            out.append(solve_with_canonical_start(h, Mesh(n), "bangbang").to_json())
            out.append(solve_bangbang(h, Mesh(n), np.ones(n)).to_json())
        return out

    transduced = reports()
    # with no level transduced every moving pass walks from its first
    # move on Python ints: random starts against the walk that carries a
    # running total, then the reports
    monkeypatch.setattr(solvers, "_WALK_MAX_N", math.inf)
    rng = np.random.default_rng(16)
    for n in [*range(1, 65), 257]:
        for cap in (1, 3, SolverOptions().max_iterations):
            expected = rng.choice([-1, 1], size=n).tolist()
            s = np.array(expected, np.int8)
            assert solvers._descend(s, cap) == oracles._descend(expected, cap), (n, cap)
            assert s.tolist() == expected, (n, cap)
    assert reports() == transduced


@pytest.mark.parametrize("n", [0, -3])
def test_every_method_refuses_a_size_below_one(monkeypatch, n):
    # as Mesh does, before any level is descended; with a valid size
    # listed too, so the refusal does not wait for the bad size's turn
    def no_descent(s, max_sweeps):
        raise AssertionError("a level was descended before the size check")

    monkeypatch.setattr(solvers, "_descend", no_descent)
    for method in solvers.METHODS:
        for tilts in ([0.1], [0.0, 0.1]):
            with pytest.raises(ValueError, match=f"cell count must be >= 1, got {n}$"):
                list(solvers.canonical_reports(tilts, [4, n], method))
    with pytest.raises(ValueError, match=f"cell count must be >= 1, got {n}$"):
        list(solvers.bangbang_ladder([4, n], 10))


def test_bangbang_refuses_sizes_past_the_int64_bound(monkeypatch):
    # refused on entry, before the start is read or a level is built
    class Unread:
        def __array__(self, *args, **kwargs):
            raise AssertionError("the start was read before the size check")

    def no_descent(s, max_sweeps):
        raise AssertionError("a level was built before the size check")

    monkeypatch.setattr(solvers, "_descend", no_descent)
    mesh = Mesh(solvers._MAX_N + 1)
    calls = [
        lambda: solve_bangbang(0.1, mesh, Unread()),
        lambda: solve_with_canonical_start(0.1, mesh, "bangbang"),
        lambda: list(solvers.bangbang_ladder([1, mesh.n], 1)),
    ]
    tracemalloc.start()
    try:
        for call in calls:
            with pytest.raises(ValueError, match=r"at most 715827882 cells \(18 n\^2 < 2\^63"):
                call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**16
    # the bound is the largest size descended, here lowered to 100 cells
    monkeypatch.undo()
    monkeypatch.setattr(solvers, "_MAX_N", 100)
    assert solve_bangbang(0.1, Mesh(100), np.ones(100)).converged
    assert [n for n, _, _, _ in solvers.bangbang_ladder([100], 100)] == [100]
    with pytest.raises(ValueError, match="at most 100 cells"):
        solve_bangbang(0.1, Mesh(101), np.ones(101))
    with pytest.raises(ValueError, match="at most 100 cells"):
        list(solvers.bangbang_ladder([101], 100))


def test_bangbang_refuses_sizes_past_the_int64_bound_at_every_tilt(monkeypatch):
    # the apex of h = 0 descends nothing, yet bang-bang refuses a size
    # past the bound there too, on every path, before any report; the
    # bound is lowered to 64 cells, as the real one would need gigabytes
    monkeypatch.setattr(solvers, "_MAX_N", 64)
    mesh = Mesh(65)
    calls = [
        lambda: solve_bangbang(0.0, mesh, np.ones(65)),
        lambda: solve_with_canonical_start(0.0, mesh, "bangbang"),
        lambda: solve_with_canonical_start(-0.0, mesh, "bangbang"),
        lambda: perturbation_sweep(SweepConfig((0.0,), (64, 65), "bangbang")),
        lambda: perturbation_sweep(SweepConfig((0.0, 0.1), (65, 1), "bangbang")),
        lambda: list(solvers.canonical_reports((0.0,), (1, 65), "bangbang")),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="at most 64 cells"):
            call()
    assert solve_with_canonical_start(0.0, Mesh(64), "bangbang").converged
    # the bound is bang-bang's alone
    for method in ("pgd", "brute"):
        rows = perturbation_sweep(SweepConfig((0.0,), (65,), method))
        assert [(row.n, row.t_star) for row in rows] == [(65, 0.0)]


def test_each_vertex_report_applies_SstarS_once(monkeypatch):
    # the gradient that the report's stationarity reads also serves its
    # Pontryagin check: one K6 u per report, at the apex and off it
    calls = []

    def counted(u):
        calls.append(u.size)
        return _k6_times(u)

    monkeypatch.setattr(operators, "_k6_times", counted)
    for n in (1, 2, 8, 65, 257):
        mesh = Mesh(n)
        for h in (0.0, 0.1, 1.0):
            solves = [
                lambda: solve_bangbang(h, mesh, np.ones(n)),
                lambda: solve_bruteforce(h, mesh),
                lambda: solve_with_canonical_start(h, mesh, "bangbang"),
            ]
            for solve in solves:
                calls.clear()
                report = solve()
                assert calls == [n], (report.method, n, h)


def test_each_vertex_report_builds_only_its_minimizer(monkeypatch):
    # the gradient, the unit step and its move stay bare arrays
    # (solvers._unit_step): the one grid function a report builds is its
    # minimizer's, at the apex and off it
    built = []

    def counting(self, original=GridFunction.__post_init__):
        built.append(self.mesh.n)
        original(self)

    monkeypatch.setattr(GridFunction, "__post_init__", counting)
    for n in (1, 8, 65):
        mesh = Mesh(n)
        for h in (0.0, 0.1):
            solves = [
                lambda: solve_bangbang(h, mesh, np.ones(n)),
                lambda: solve_bruteforce(h, mesh),
                lambda: solve_with_canonical_start(h, mesh, "bangbang"),
                lambda: solve_with_canonical_start(h, mesh, "brute"),
            ]
            for solve in solves:
                built.clear()
                report = solve()
                assert built == [n], (report.method, n, h)


def test_bangbang_leaves_its_start_untouched():
    # _descend flips an int8 level in place; a start of any form is
    # copied into one and gives the same report
    rng = np.random.default_rng(18)
    for n in (1, 2, 65, 257):
        signs = rng.choice([-1, 1], size=n)
        starts = [signs.tolist(), signs.astype(float), signs.astype(np.int8)]
        copies = [list(starts[0]), starts[1].copy(), starts[2].copy()]
        reports = [solve_bangbang(0.1, Mesh(n), start) for start in starts]
        assert len({report.to_json() for report in reports}) == 1, n
        assert starts[0] == copies[0], n
        for start, copy in zip(starts[1:], copies[1:]):
            assert start.dtype == copy.dtype and np.array_equal(start, copy), n
        if n > 2:
            assert not np.array_equal(np.sign(reports[0].minimizer.u.values), signs), n
    for n, level, _, _ in solvers.bangbang_ladder([1, 64, 65, 4096], 100):
        assert level.dtype == np.int8 and level.shape == (n,), n


def test_bangbang_two_and_four_cells():
    report = solve_bangbang(1.0, Mesh(2), np.ones(2))
    t = 6.0 / 7.0
    assert_allclose(report.objective, -3.0 / 7.0, atol=1e-14)
    assert_allclose(report.minimizer.u.values, [t, -t], atol=1e-14)
    assert report.converged
    report4 = solve_bangbang(1.0, Mesh(4), np.ones(4))
    assert_allclose(report4.objective, -12.0 / 25.0, atol=1e-13)
    assert_allclose(report4.minimizer.t, 24.0 / 25.0, atol=1e-13)
    assert report4.sign_changes == 3


def test_bangbang_untilted_returns_the_apex_immediately():
    report = solve_bangbang(0.0, Mesh(32), np.ones(32))
    assert report.minimizer.t == 0.0
    assert report.objective == 0.0
    assert report.iterations == 0
    assert report.converged


def test_bangbang_start_validation():
    mesh = Mesh(3)
    with pytest.raises(ValueError):
        solve_bangbang(1.0, mesh, np.ones(2))
    with pytest.raises(ValueError):
        solve_bangbang(1.0, mesh, np.array([1.0, 0.0, -1.0]))


@pytest.mark.parametrize("h", [math.nan, math.inf, -0.1])
def test_every_solver_checks_the_tilt_first(h, monkeypatch):
    # refused on entry, before any start is built or any sweep runs
    def no_descent(s, max_sweeps):
        raise AssertionError("a bang-bang level ran before the tilt check")

    monkeypatch.setattr(solvers, "_descend", no_descent)
    mesh = Mesh(100)
    calls = [
        lambda: solve_bangbang(h, mesh, np.ones(mesh.n)),
        lambda: solve_bruteforce(h, mesh),
        lambda: solve_pgd(h, mesh, ConePoint.apex(mesh)),
    ]
    calls += [
        lambda method=method: solve_with_canonical_start(h, mesh, method)
        for method in ("bangbang", "brute", "pgd")
    ]
    for call in calls:
        with pytest.raises(ValueError, match="tilt must be"):
            call()


def test_bangbang_matches_bruteforce_from_all_plus():
    for n in range(1, 11):
        for h in (0.1, 0.5, 1.0):
            bb = solve_bangbang(h, Mesh(n), np.ones(n))
            brute = solve_bruteforce(h, Mesh(n))
            assert abs(bb.objective - brute.objective) <= 1e-10
            assert bb.converged
            assert bb.stationarity <= 1e-10


def test_bangbang_reaches_the_global_pattern_from_adversarial_starts():
    # single flips alone stall on interior domain walls for n >= 5;
    # the pair moves and the plateau polish must dig out of them
    rng = np.random.default_rng(51)
    for n in (5, 7, 8, 11):
        brute = solve_bruteforce(1.0, Mesh(n))
        starts = [-np.ones(n), alternating_signs(n)]
        starts += [rng.choice([-1.0, 1.0], size=n) for _ in range(5)]
        for start in starts:
            bb = solve_bangbang(1.0, Mesh(n), start)
            assert abs(bb.objective - brute.objective) <= 1e-10
            # the plateau polish lands on the canonical alternating pattern
            assert np.array_equal(np.sign(bb.minimizer.u.values), alternating_signs(n))


def test_bangbang_canonicalizes_ties_to_alternating_from_plus():
    for n in (2, 3, 6, 9, 64, 255):
        report = solve_bangbang(0.3, Mesh(n), np.ones(n))
        assert report.sign_changes == n - 1
        assert report.minimizer.u.values[0] > 0.0
        assert report.converged


def test_pgd_stationary_start():
    report = solve_pgd(0.0, Mesh(4), ConePoint.apex(Mesh(4)))
    assert report.converged
    assert report.iterations == 0
    assert report.objective == 0.0


def test_pgd_untilted_runs_to_the_apex():
    mesh = Mesh(8)
    start = ConePoint(0.5, GridFunction(mesh, np.full(mesh.n, 0.3)))
    report = solve_pgd(0.0, mesh, start)
    assert report.converged
    assert np.sqrt(report.minimizer.t ** 2) <= 1e-6
    assert report.objective <= 1e-12


def test_pgd_reaches_the_global_minimum_on_two_cells():
    mesh = Mesh(2)
    start = ConePoint(1.0, GridFunction(mesh, np.array([0.9, -0.9])))
    report = solve_pgd(1.0, mesh, start)
    assert report.converged
    assert abs(report.objective - (-3.0 / 7.0)) <= 1e-8
    assert abs(report.minimizer.t - 6.0 / 7.0) <= 1e-6


def test_pgd_canonical_start_escapes_the_degenerate_interior_point():
    # from (h, 0) the first projected step lands on (h/2, 0), where the
    # gradient vanishes identically: a stationary point with every cell
    # strictly inside the box, a saddle.  The escape step moves each cell
    # to +t (g_i = 0) at fixed t, and the descent resumes from there to a
    # vertex local minimizer
    h, mesh = 1.0, Mesh(4)
    start = ConePoint(h, GridFunction.zeros(mesh))
    saddle = solve_pgd(h, mesh, start, SolverOptions(max_iterations=1))
    assert (saddle.iterations, saddle.converged) == (1, False)
    assert_allclose(saddle.minimizer.t, h / 2.0, rtol=1e-15)
    assert np.all(saddle.minimizer.u.values == 0.0)
    assert saddle.stationarity == 0.0
    assert saddle.pontryagin_residual == 0.0
    assert saddle.nonvertex_cells == mesh.n
    escaped = solve_pgd(h, mesh, start, SolverOptions(max_iterations=2))
    assert (escaped.iterations, escaped.converged) == (2, False)
    assert escaped.minimizer.t == saddle.minimizer.t
    assert np.all(escaped.minimizer.u.values == saddle.minimizer.t)
    assert escaped.objective < saddle.objective
    report = solve_pgd(h, mesh, start)
    assert report.converged
    assert report.stationarity <= 1e-10
    assert report.pontryagin_residual == 0.0
    assert report.nonvertex_cells == 0
    # the ray optimum of (-1, 1, 1, 1), where ||S sigma||^2 = 5/96: a local
    # minimizer above the global -h^2 / (2 + 4 / 48)
    assert np.array_equal(np.sign(report.minimizer.u.values), [-1.0, 1.0, 1.0, 1.0])
    assert_allclose(report.objective, -24.0 / 53.0, rtol=1e-12)
    assert report.objective > solve_bruteforce(h, mesh).objective


def test_pgd_declines_an_escape_whose_decrease_overflows():
    # at h = 1e150 on 1024 cells the escape step's change overflows, so
    # the decrease is not confirmed and the saddle is reported unconverged
    h, mesh = 1e150, Mesh(1024)
    with np.errstate(over="ignore", invalid="ignore"):
        report = solve_with_canonical_start(h, mesh, "pgd")
    assert (report.iterations, report.converged) == (1, False)
    assert report.minimizer.t == h / 2.0
    assert report.nonvertex_cells == mesh.n


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 13, 32, 64, 65, 128, 257])
def test_pgd_converges_only_at_vertex_points(n):
    # converged means a vertex point that meets the pointwise conditions,
    # from the canonical start (the saddle's escape) and from random ones
    mesh = Mesh(n)
    rng = np.random.default_rng(n)
    for h in (1e-3, 0.1, 0.5, 1.0, 3.0, 1e3):
        starts = [project(ConePoint(h, GridFunction.zeros(mesh)))]
        starts += [random_feasible_point(mesh, rng) for _ in range(5)]
        for k, start in enumerate(starts):
            report = solve_pgd(h, mesh, start)
            if report.converged:
                assert report.nonvertex_cells == 0, (h, k)
                assert report.pontryagin_residual == 0.0, (h, k)
            else:
                assert k > 0, h  # every canonical start converges


def test_pgd_start_validation():
    mesh = Mesh(3)
    with pytest.raises(InfeasiblePointError):
        solve_pgd(1.0, mesh, ConePoint(0.5, GridFunction(mesh, np.ones(mesh.n))))
    with pytest.raises(MeshMismatchError):
        solve_pgd(1.0, mesh, ConePoint.apex(Mesh(4)))


def test_pgd_monotone_descent():
    mesh = Mesh(4)
    rng = np.random.default_rng(52)
    start = random_feasible_point(mesh, rng)
    values = []
    for cap in range(1, 12):
        opts = SolverOptions(max_iterations=cap)
        report = solve_pgd(1.0, mesh, start, opts)
        values.append(report.objective)
        assert contains(report.minimizer)
    assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))


def _axpy(p, a, q):
    return ConePoint(p.t + a * q.t, GridFunction(p.mesh, p.u.values + a * q.u.values))


def _norm(p):
    return norm_X_values(p.t, p.u.values, p.mesh.width)


def _reference_pgd(h, mesh, start, opts):
    """PGD that projects the unit step twice and re-takes the gradient per trial.

    The residual's projection project(x - g) and the step-1 trial are
    computed separately, and every backtracking trial evaluates its
    decrease from a fresh gradient at x; the iterate path, the halving
    rule, the stall floor, the escape from a stationary point off the
    vertices and the face step are those documented for solve_pgd.  The
    face step's ray optimum is built from norm_S_sq of the pattern as a
    grid function, and at h = 0 it is ConePoint.apex.
    """
    x = start
    steps, reached, last, tried = 0, False, None, set()
    while True:
        g = gradient(h, x)
        target = project(_axpy(x, -1.0, g))
        t, u = x.t, x.u.values
        # the signs sigma = -sign(g_u) of the pass's own gradient, +1 on a
        # -0.0 entry and -1 on a +0.0 one, on a pass that does not stop
        face = tuple(-math.copysign(1.0, gi) for gi in g.u.values) if (
            _norm(_axpy(x, -1.0, target)) > opts.tolerance
            and steps < opts.max_iterations
        ) else None
        sigma, last = (face if face == last else None), face
        if sigma is not None and sigma not in tried:
            # two passes in a row gave this sigma: try its ray optimum
            # once, kept when f does not rise and it passes the tolerance
            tried.add(sigma)
            signs = GridFunction(mesh, sigma)
            ray_t = h / (1.0 + 2.0 * operators.norm_S_sq(signs))
            ray = ConePoint.apex(mesh)
            if h:
                ray = ConePoint(ray_t, GridFunction(mesh, ray_t * signs.values))
            move = _axpy(ray, -1.0, x)
            decrease = objective.quadratic_decrease_values(
                g.t, g.u.values, move.t, move.u.values, mesh.width
            )
            g_ray = gradient(h, ray)
            if decrease <= 0.0 and _norm(
                _axpy(ray, -1.0, project(_axpy(ray, -1.0, g_ray)))
            ) <= opts.tolerance:
                x, steps, reached = ray, steps + 1, True
                break
        if _norm(_axpy(x, -1.0, target)) <= opts.tolerance:
            reached = True
            if steps >= opts.max_iterations:
                break
            # each cell off both endpoints steps to the endpoint against
            # its gradient's sign, the upper one where that is zero
            gu = g.u.values
            inside = [abs(abs(ui) - t) > opts.tolerance for ui in u]
            corner = [-t if gi > 0.0 else t for gi in gu]
            escape = ConePoint(t, GridFunction(mesh, np.where(inside, corner, u)))
            move = _axpy(escape, -1.0, x)
            if not any(inside) or objective.quadratic_decrease_values(
                g.t, gu, move.t, move.u.values, mesh.width
            ) >= 0.0:
                break
            x, reached = escape, False
            steps += 1
            continue
        if steps >= opts.max_iterations:
            break
        step, accepted = 1.0, None
        while True:
            candidate = project(_axpy(x, -step, g))
            move = _axpy(candidate, -1.0, x)
            g_x = gradient(h, x)
            decrease = objective.quadratic_decrease_values(
                g_x.t, g_x.u.values, move.t, move.u.values, mesh.width
            )
            if decrease < 0.0:
                accepted = candidate
                break
            step *= 0.5
            if step < solvers.MIN_BACKTRACK_STEP:
                break
        if accepted is None:
            break
        x = accepted
        steps += 1
    # a zero cell is reported as +0.0, also where a projection onto the
    # apex clipped it to -0.0
    x = ConePoint(x.t, GridFunction(mesh, [0.0 if c == 0.0 else c for c in x.u.values]))
    return _report(h, "pgd", x, steps, reached, opts)


def test_pgd_matches_the_two_projection_reference():
    rng = np.random.default_rng(2025)
    for n in [*range(1, 65), 257, 1024]:
        mesh = Mesh(n)
        for h in (0.0, 0.1, 1.0):
            starts = [
                random_feasible_point(mesh, rng),
                project(ConePoint(h, GridFunction.zeros(mesh))),
            ]
            for start in starts:
                for cap in (1, 3, SolverOptions().max_iterations):
                    opts = SolverOptions(max_iterations=cap)
                    expected = _reference_pgd(h, mesh, start, opts).to_json()
                    assert solve_pgd(h, mesh, start, opts).to_json() == expected, (n, h, cap)
    # the benchmark's pgd workload: 8 uniform starts with t = 1 at each of
    # n = 1024 and 2048 for seeds 1-3, then one such start at n = 4096
    cells = []
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        cells += [rng.uniform(-1.0, 1.0, size=n) for n in (1024, 2048) for _ in range(8)]
    cells.append(np.random.default_rng(4096).uniform(-1.0, 1.0, size=4096))
    opts = SolverOptions()
    for u in cells:
        mesh = Mesh(u.size)
        start = ConePoint(1.0, GridFunction(mesh, u))
        expected = _reference_pgd(0.1, mesh, start, opts).to_json()
        assert solve_pgd(0.1, mesh, start, opts).to_json() == expected, mesh.n


def _workload_starts():
    # the benchmark's pgd workload: 8 uniform starts with t = 1 at each of
    # n = 1024 and 2048 for seeds 1-3
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        for n in (1024, 2048):
            mesh = Mesh(n)
            for _ in range(8):
                yield mesh, ConePoint(1.0, GridFunction(mesh, rng.uniform(-1.0, 1.0, size=n)))


def test_pgd_ends_at_the_ray_optimum_of_its_face():
    # the face step ends each run at its face's ray optimum, bit for bit
    # the point bang-bang and brute report for that pattern, after a few
    # iterations (30-32 halvings of the residual along the ray without it)
    for mesh, start in _workload_starts():
        report = solve_pgd(0.1, mesh, start)
        assert report.converged and report.iterations <= 4, mesh.n
        u = report.minimizer.u.values
        ray = solvers._ray_optimum(0.1, mesh, np.sign(u))
        assert report.minimizer.t == ray.t
        assert np.array_equal(u, ray.u.values)


@pytest.mark.parametrize("argv", [
    ["--n", "65", "--h", "1e150"],
    ["--n", "64", "--h", "0.3", "--tol", "1e-20"],
])
def test_pgd_declines_a_face_step_that_misses_the_tolerance(argv, monkeypatch, capsys):
    # the ray optimum's own float residual misses the tolerance here (about
    # 5e134 and 8e-17), while the iterates reach a float fixed point with
    # residual 0: the trial is declined, once per pattern, and the run goes
    # on as without it
    trials, real = [], solvers._face_step

    def face_step(h, t, u, gt, gu, sigma, *args):
        trials.append((sigma.tobytes(), real(h, t, u, gt, gu, sigma, *args)))
        return trials[-1][1]

    monkeypatch.setattr(solvers, "_face_step", face_step)
    assert cli.main(["solve", "--method", "pgd", *argv]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["converged"] is True and report["stationarity"] == 0.0
    patterns, results = zip(*trials)
    assert len(set(patterns)) == len(patterns) and set(results) == {None}
    options = dict(zip(argv[::2], argv[1::2]))
    h, mesh = float(options["--h"]), Mesh(int(options["--n"]))
    opts = SolverOptions(tolerance=float(options.get("--tol", SolverOptions().tolerance)))
    start = project(ConePoint(h, GridFunction.zeros(mesh)))
    assert _reference_pgd(h, mesh, start, opts).as_dict() == report


def test_pgd_tries_the_face_step_once_per_repeated_sigma(monkeypatch):
    # _face_step runs on a pass exactly when it and the pass before it,
    # neither of which stops, give one sigma = -sign(g) untried so far,
    # and is handed that sigma: only on a repeat, never twice for one sigma
    passes, faces, inner = [], {}, []
    unit_step, face_step = solvers._unit_step, solvers._face_step

    def recording_unit_step(mesh, h, t, u):
        out = unit_step(mesh, h, t, u)
        if not inner:  # a pass of solve_pgd, not the trial at r
            passes.append(((-np.copysign(1.0, out[1])).tobytes(), out[3]))
        return out

    def recording_face_step(h, t, u, gt, gu, sigma, *args):
        faces[len(passes) - 1] = sigma.tobytes()
        inner.append(True)
        try:
            return face_step(h, t, u, gt, gu, sigma, *args)
        finally:
            inner.pop()

    monkeypatch.setattr(solvers, "_unit_step", recording_unit_step)
    monkeypatch.setattr(solvers, "_face_step", recording_face_step)
    rng = np.random.default_rng(35)
    cases = [(1e150, 65, 1e-10), (0.3, 64, 1e-20), (1.0, 8, 1e-10), (0.0, 64, 1e-10)]
    cases += [(h, n, 1e-10) for n in (2, 13, 256) for h in (0.1, 1.0)]
    retried = 0
    for h, n, tol in cases:
        mesh = Mesh(n)
        starts = [project(ConePoint(h, GridFunction.zeros(mesh)))]
        starts += [random_feasible_point(mesh, rng) for _ in range(3)]
        for start in starts:
            passes.clear()
            faces.clear()
            with np.errstate(over="ignore", invalid="ignore"):
                solve_pgd(h, mesh, start, SolverOptions(tolerance=tol))
            tried, expected = set(), {}
            for k in range(1, len(passes)):
                (last, last_residual), (sigma, residual) = passes[k - 1], passes[k]
                if min(last_residual, residual) > tol and sigma == last:
                    retried += sigma in tried
                    if sigma not in tried:
                        tried.add(sigma)
                        expected[k] = sigma
            assert faces == expected, (h, n)
    # some declined sigma came back on two passes in a row
    assert retried


def test_untilted_pgd_ends_at_the_exact_apex():
    # criterion 7's seeded runs reach the apex by a projection onto it or
    # by the face step, whose ray optimum at h = 0 is the apex; either way
    # it is reported exactly, with +0.0 cells
    mesh = Mesh(64)
    for s in range(20):
        start = random_feasible_point(mesh, np.random.default_rng(7000 + s))
        report = solve_pgd(0.0, mesh, start)
        assert report.converged and (report.minimizer.t, report.objective) == (0.0, 0.0), s
        assert not np.any(report.minimizer.u.values), s
        assert not np.any(np.signbit(report.minimizer.u.values)), s


@pytest.mark.parametrize("m", [0.1, 0.3, 0.75])
def test_pgd_report_is_homogeneous_in_the_tilt(m):
    # f_h(h x) = h^2 f_1(x): from the canonical start, the report at
    # h = m 2^k is the one at m with t, u, the residuals scaled by 2^k
    # and the objective by 4^k, exactly
    for n in (1, 2, 3, 8, 64, 1024):
        mesh = Mesh(n)
        base = solve_with_canonical_start(m, mesh, "pgd").as_dict()
        for k in range(-8, 9):
            report = solve_with_canonical_start(math.ldexp(m, k), mesh, "pgd").as_dict()
            x = base["minimizer"]
            expected = dict(
                base,
                minimizer={"t": math.ldexp(x["t"], k), "u": [math.ldexp(c, k) for c in x["u"]]},
                objective=math.ldexp(base["objective"], 2 * k),
                stationarity=math.ldexp(base["stationarity"], k),
                pontryagin_residual=math.ldexp(base["pontryagin_residual"], k),
            )
            assert report == expected, (n, k)


def test_pgd_takes_one_gradient_and_one_unit_projection_per_iteration(monkeypatch):
    # the loop runs the array kernels: K6 u once per gradient, the
    # projection and the decrease on bare values
    counts = {"k6": 0, "project": 0, "quadratic_decrease": 0}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(operators, "_k6_times", counted("k6", operators._k6_times))
    monkeypatch.setattr(solvers, "project_values", counted("project", solvers.project_values))
    monkeypatch.setattr(
        solvers,
        "quadratic_decrease_values",
        counted("quadratic_decrease", solvers.quadratic_decrease_values),
    )
    rng = np.random.default_rng(7)
    for n in (1, 8, 64, 1024):
        mesh = Mesh(n)
        for cap in (3, SolverOptions().max_iterations):
            start = random_feasible_point(mesh, rng)
            for key in counts:
                counts[key] = 0
            opts = SolverOptions(max_iterations=cap)
            report = solve_pgd(0.1, mesh, start, opts)
            assert report.converged or report.iterations == cap
            assert report.iterations >= 1
            # one gradient per loop pass (iterations + 1), the last of
            # which also serves the report
            assert counts["k6"] == report.iterations + 1
            # one unit-step projection per pass (iterations + 1) plus one
            # per halving, and each halving follows a rejected trial
            assert counts["project"] == counts["quadratic_decrease"] + 1


def test_pgd_builds_a_fixed_number_of_objects_per_solve(monkeypatch):
    # the canonical start on 8 cells at h = 1 passes the saddle (h/2, 0)
    # and ends at its face step after 5 iterations
    h, mesh = 1.0, Mesh(8)
    start = project(ConePoint(h, GridFunction.zeros(mesh)))
    built = {GridFunction: 0, ConePoint: 0}
    for cls in built:
        def counting(self, original=cls.__post_init__, cls=cls):
            built[cls] += 1
            original(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    seen = {}
    for cap in (1, 2, 3, SolverOptions().max_iterations):
        built.update({cls: 0 for cls in built})
        report = solve_pgd(h, mesh, start, SolverOptions(max_iterations=cap))
        seen[report.iterations] = (built[GridFunction], built[ConePoint])
    # the minimizer alone, whatever the iteration count
    assert len(seen) >= 3
    assert set(seen.values()) == {(1, 1)}


def test_pgd_refuses_non_finite_values():
    def solve(n, h, t, u):
        mesh = Mesh(n)
        with np.errstate(over="ignore", invalid="ignore"):
            return solve_pgd(h, mesh, ConePoint(t, GridFunction(mesh, u)))

    for n, h, t, u in (
        (8, 0.1, 1e308, 1e308 * alternating_signs(8)),
        (8, 0.1, 1e307, 1e307 * alternating_signs(8)),
        (4, 1e308, 1e308, -1e308 * alternating_signs(4)),
    ):
        with pytest.raises(ValueError, match="^cell values must be finite$"):
            solve(n, h, t, u)
    # the gradient's t-part 2 t - h overflows
    with pytest.raises(ValueError, match="^scalar component must be finite, got inf$"):
        solve(4, 0.0, 1e308, np.zeros(4))
    # large but finite: no decrease is found, and the start is reported
    for n, h, t, u in ((8, 1e300, 1e300, 0.5e300 * alternating_signs(8)), (8, 1.7e308, 1.0, np.zeros(8))):
        report = solve(n, h, t, u)
        assert (report.iterations, report.converged) == (0, False)
        assert report.minimizer.t == t
        assert np.array_equal(report.minimizer.u.values, u)


def test_pgd_refuses_a_non_finite_gradient(monkeypatch):
    # refused before any projection; the step-1 trial's check would also
    # refuse there, so this pins the order of the checks, not which one
    mesh = Mesh(8)
    projections, real = [], solvers.project_values

    def project_values(*args):
        projections.append(args)
        return real(*args)

    monkeypatch.setattr(solvers, "project_values", project_values)
    for cell in (None, np.nan, np.inf, -np.inf):
        # every cell nan, or one nan, +inf or -inf cell among zeros
        def gradient(u, w, cell=cell):
            if cell is None:
                return np.full_like(u, np.nan)
            g = np.zeros_like(u)
            g[3] = cell
            return g

        monkeypatch.setattr(solvers, "gradient_values", gradient)
        with pytest.raises(ValueError, match="^cell values must be finite$"):
            solve_pgd(0.1, mesh, random_feasible_point(mesh, np.random.default_rng(3)))
        assert projections == [], cell


def test_converged_implies_stationarity_below_tolerance():
    rng = np.random.default_rng(54)
    for n in (2, 5, 9):
        mesh = Mesh(n)
        for h in (0.2, 1.0):
            reports = [
                solve_pgd(h, mesh, random_feasible_point(mesh, rng)),
                solve_bangbang(h, mesh, np.ones(n)),
                solve_bruteforce(h, mesh),
            ]
            for report in reports:
                assert report.converged
                assert report.stationarity <= 1e-10
                assert report.pontryagin_residual <= 1e-9
                assert contains(report.minimizer)


def test_unit_step_residual_is_the_exact_residual_rounded():
    # the one residual every report and verify-ssc print, against the
    # exact one in Fractions (oracles.exact_stationarity_sq), on random
    # feasible points and at the ray optimum of every sign pattern, where
    # it is 0 but for the rounding of t; inputs are O(1), so the bound
    # is absolute, a few ulps of 1
    rng = np.random.default_rng(56)
    checked = 0
    for n in range(1, 9):
        mesh = Mesh(n)
        points = [random_feasible_point(mesh, rng) for _ in range(8)]
        for h in (0.0, 0.1, 1.0):
            starts = [(p.t, p.u.values) for p in points]
            if h:
                for signs in itertools.product((1.0, -1.0), repeat=n):
                    starts.append(solvers._ray_point(h, np.array(signs), mesh.width))
            for t, u in starts:
                residual = solvers._unit_step(mesh, h, t, u)[3]
                exact = math.sqrt(oracles.exact_stationarity_sq(h, t, u))
                assert abs(residual - exact) <= 1e-15, (n, h, t, u)
                checked += 1
    assert checked == 8 * 8 * 3 + 2 * sum(2**n for n in range(1, 9))


@pytest.mark.parametrize("h", [1.0, 0.1, 1e-13, 1e-100, 1e-200])
def test_stationarity_is_homogeneous_in_the_tilt(h):
    # the minimizer scales with h, so its first-order residual must too
    for n in (1, 2, 3, 5, 8, 64, 257, 1000):
        mesh = Mesh(n)
        for report in (
            solve_bruteforce(h, mesh),
            solve_with_canonical_start(h, mesh, "bangbang"),
        ):
            assert report.stationarity <= 1e-14 * h, (n, report.method)


def test_ray_optimum_brackets_the_one_dimensional_minimum():
    rng = np.random.default_rng(55)
    mesh = Mesh(6)
    h = 0.8
    for _ in range(10):
        sigma = rng.choice([-1.0, 1.0], size=6)
        report = solve_bangbang(h, mesh, sigma)
        t = report.minimizer.t
        best = value(h, report.minimizer)
        for factor in (0.99, 1.01):
            nudged = ConePoint(factor * t, GridFunction(mesh, factor * t * np.sign(report.minimizer.u.values)))
            assert best < value(h, nudged)


def test_pontryagin_check_values():
    mesh = Mesh(2)
    assert pontryagin_residual(ConePoint.apex(mesh)) == 0.0
    # the brute minimizer satisfies the endpoint conditions
    best = solve_bruteforce(1.0, mesh).minimizer
    assert pontryagin_residual(best) <= 1e-12
    # every vertex whose cells oppose their own reduced derivative passes
    ones = ConePoint(1.0, GridFunction(mesh, np.ones(mesh.n)))
    check = pontryagin_check(ones)
    assert check.residual == 0.0
    assert check.nonvertex_cells == 0
    # interior cells with a live derivative are charged their full gap
    inside = ConePoint(1.0, GridFunction(mesh, np.array([0.5, 0.0])))
    check = pontryagin_check(inside)
    assert_allclose(check.residual, 1.0, rtol=1e-14)
    assert check.nonvertex_cells == 2


def test_pontryagin_check_errors():
    mesh = Mesh(2)
    with pytest.raises(InfeasiblePointError):
        pontryagin_check(ConePoint(0.1, GridFunction(mesh, np.ones(mesh.n))))
    # |u_i| = 30 t is outside the cone at every scale, tiny ones included
    with pytest.raises(InfeasiblePointError):
        pontryagin_check(ConePoint(1e-12, GridFunction(mesh, np.array([3e-11, -3e-11]))))


def test_count_sign_changes():
    assert count_sign_changes(np.array([1.0, -1.0, 1.0])) == 2
    assert count_sign_changes(np.array([1.0, 1.0])) == 0
    assert count_sign_changes(np.array([0.0, 0.0, 0.0])) == 0
    assert count_sign_changes(np.array([1.0, 0.0, -1.0])) == 0
    assert count_sign_changes(np.array([2.5])) == 0


@pytest.mark.parametrize("h", [1e-200, 1e-320])
def test_sign_changes_of_the_alternating_minimizer_at_tiny_tilts(h):
    # the products of adjacent cells (about h^2) underflow to -0.0 here;
    # the signs of the cells do not
    mesh = Mesh(6)
    for report in (
        solve_bruteforce(h, mesh),
        solve_with_canonical_start(h, mesh, "bangbang"),
    ):
        assert report.minimizer.u.values[0] > 0.0
        assert report.sign_changes == mesh.n - 1


def test_random_feasible_point_reproducibility():
    mesh = Mesh(12)
    a = random_feasible_point(mesh, np.random.default_rng(99))
    b = random_feasible_point(mesh, np.random.default_rng(99))
    assert a.t == b.t == 1.0
    assert np.array_equal(a.u.values, b.u.values)
    assert contains(a)


def test_report_serialization():
    report = solve_bangbang(1.0, Mesh(2), np.ones(2))
    parsed = json.loads(report.to_json())
    assert parsed["method"] == "bangbang"
    assert parsed["tie_count"] is None
    assert len(parsed["minimizer"]["u"]) == 2
    assert parsed["converged"] is True
    assert parsed["tie_count_log2"] is None
    brute = json.loads(solve_bruteforce(1.0, Mesh(2)).to_json())
    assert brute["tie_count"] == 2
    assert brute["tie_count_log2"] == 1.0


def test_report_tie_count_past_the_int_string_limit():
    # exact while its decimal form converts, null (with its log2) after
    report = solve_bruteforce(1.0, Mesh(2))
    digits = sys.get_int_max_str_digits()
    fits = dataclasses.replace(report, tie_count=10**digits - 1).as_dict()
    assert fits["tie_count"] == 10**digits - 1
    # 2^(3 digits), the least count past the cheap bit-length test, prints
    least = 2 ** (3 * digits)
    assert json.loads(dataclasses.replace(report, tie_count=least).to_json())["tie_count"] == least
    too_long = json.loads(dataclasses.replace(report, tie_count=10**digits).to_json())
    assert too_long["tie_count"] is None
    assert too_long["tie_count_log2"] == pytest.approx(digits * math.log2(10))
