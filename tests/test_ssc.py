"""Second-order certificates at the apex: coercivity chain and growth."""

import json
import math
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conelab import (
    BETA_CERTIFIED,
    ConePoint,
    GridFunction,
    InfeasiblePointError,
    Mesh,
    alternating_signs,
    coercivity_estimate,
    growth_estimate,
)
from conelab import ssc
from conelab.cone import norm_X_values
from conelab.solvers import _unit_step
from conelab.operators import walk_energy
from oracles import coercivity_certificate, rayleigh_ratio


def _norm(p):
    return norm_X_values(p.t, p.u.values, p.mesh.width)


def test_check_stationarity_at_the_apex():
    # the residual verify-ssc prints: _unit_step's at the apex
    zeros = np.zeros(16)
    assert _unit_step(Mesh(16), 0.0, 0.0, zeros)[3] == 0.0
    # a tilt pulls the apex along t with force exactly h
    assert_allclose(_unit_step(Mesh(16), 0.2, 0.0, zeros)[3], 0.2, rtol=1e-15)


def test_check_stationarity_away_from_the_apex():
    assert _unit_step(Mesh(4), 0.0, 1.0, np.ones(4))[3] > 0.1


def test_certificate_chain_tight_case():
    # u = t on every cell makes links (i) and (ii) equalities
    d = ConePoint(1.0, GridFunction(Mesh(8), np.ones(8)))
    links = coercivity_certificate(d)
    names = [link.name for link in links]
    assert names == [
        "image_energy_bound",
        "component_energy_bound",
        "form_lower_bound",
        "coercivity_bound",
    ]
    assert all(link.passed for link in links)
    assert abs(links[0].slack) <= 1e-14
    assert abs(links[1].slack) <= 1e-14
    assert_allclose(links[2].slack, 4.0 / 3.0, rtol=1e-14)
    assert_allclose(links[3].slack, 4.0 / 3.0, rtol=1e-14)


def test_certificate_chain_pure_scalar_direction():
    d = ConePoint(1.0, GridFunction.zeros(Mesh(4)))
    links = coercivity_certificate(d)
    assert all(link.passed for link in links)
    assert all(link.slack > 0.0 for link in links)
    assert_allclose(links[2].rhs, 2.0, rtol=1e-15)


def test_certificate_chain_alternating_direction():
    d = ConePoint(1.0, GridFunction(Mesh(4), alternating_signs(4)))
    links = coercivity_certificate(d)
    assert all(link.passed for link in links)
    assert_allclose(links[0].lhs, 1.0 / 48.0, rtol=1e-14)
    assert_allclose(links[2].rhs, 1.0 + 1.0 / 24.0, rtol=1e-14)


def test_certificate_errors():
    mesh = Mesh(3)
    with pytest.raises(InfeasiblePointError):
        coercivity_certificate(ConePoint(0.5, GridFunction(mesh, np.ones(mesh.n))))
    with pytest.raises(ValueError):
        coercivity_certificate(ConePoint.apex(mesh))


def test_certificate_first_two_links_imply_the_fourth():
    # 2t^2 - 2(t^2/3) - t^2 = t^2/3 >= (t^2 + ||u||^2)/6 when ||u||^2 <= t^2
    rng = np.random.default_rng(41)
    mesh = Mesh(6)
    for _ in range(100):
        d = ConePoint(1.0, GridFunction(mesh, rng.uniform(-1.0, 1.0, size=6)))
        links = coercivity_certificate(d)
        if links[0].passed and links[1].passed:
            assert links[3].passed


def test_coercivity_estimate_single_cell_closed_form():
    # min over |v| <= 1 of (2 - v^2/3) / (1 + v^2) sits at v = +-1: 5/6
    report = coercivity_estimate(Mesh(1), samples=10, seed=0)
    assert_allclose(report.beta_estimate, 5.0 / 6.0, rtol=1e-12)
    assert report.chain_checks_passed
    assert_allclose(abs(report.worst_direction.u.values[0]), 1.0, rtol=1e-12)


def test_coercivity_estimate_beats_certified_bound_across_meshes():
    for n in (4, 8, 64, 256):
        report = coercivity_estimate(Mesh(n), samples=2000, seed=0)
        assert report.beta_estimate >= BETA_CERTIFIED - 1e-9
        assert report.chain_checks_passed
        assert report.samples == 2000
        # the reported worst direction really achieves the estimate
        assert_allclose(
            rayleigh_ratio(report.worst_direction), report.beta_estimate, rtol=1e-12
        )


def test_coercivity_estimate_includes_the_vertex_patterns():
    # at n = 2 the least ratio over the box sits at a vertex, and the
    # alternating pattern, always sampled, attains it
    report = coercivity_estimate(Mesh(2), samples=1, seed=0)
    worst = report.worst_direction.u.values
    assert_allclose(np.abs(worst), [1.0, 1.0], rtol=1e-12)
    assert worst[0] * worst[1] < 0.0


def test_rayleigh_ratio_scale_invariance():
    rng = np.random.default_rng(42)
    mesh = Mesh(5)
    for _ in range(30):
        d = ConePoint(1.0, GridFunction(mesh, rng.uniform(-1.0, 1.0, size=5)))
        lam = float(rng.uniform(0.01, 100.0))
        scaled = ConePoint(lam * d.t, GridFunction(mesh, lam * d.u.values))
        assert_allclose(rayleigh_ratio(scaled), rayleigh_ratio(d), rtol=1e-12)


@pytest.mark.parametrize("samples", [True, False, 2.0, "8", np.int64(8), 0, -3])
def test_sampled_estimates_refuse_a_sample_count_that_is_not_a_positive_int(samples):
    # refused before any draw, by both estimates alike; a bool is not a count
    for estimate in (coercivity_estimate, growth_estimate):
        with pytest.raises(ValueError, match="^samples must be an integer >= 1, got "):
            estimate(Mesh(4), samples=samples, seed=0)


def test_coercivity_estimate_validation_and_determinism():
    with pytest.raises(ValueError):
        coercivity_estimate(Mesh(4), samples=0, seed=0)
    a = coercivity_estimate(Mesh(8), samples=200, seed=3)
    b = coercivity_estimate(Mesh(8), samples=200, seed=3)
    assert a.to_json() == b.to_json()
    parsed = json.loads(a.to_json())
    assert parsed["beta_certified"] == pytest.approx(1.0 / 6.0)
    assert len(parsed["worst_direction"]["u"]) == 8


def test_growth_estimate_certified_bound():
    for n in (16, 64):
        report = growth_estimate(Mesh(n), epsilon=1.0, samples=2000, seed=0)
        assert report.delta_estimate >= 0.5 - 1e-9
        assert report.epsilon == 1.0
        assert _norm(report.worst_point) <= 1.0 + 1e-12


def test_growth_estimate_known_ratios():
    # the all-plus vertex gives 2 f_0 / ||x||^2 = 2 (5/6) / 2 = 5/6, and
    # the always-sampled alternating vertex has less walk energy, so the
    # minimum cannot exceed it
    report = growth_estimate(Mesh(4), epsilon=0.5, samples=50, seed=1)
    assert 0.5 - 1e-9 <= report.delta_estimate <= 5.0 / 6.0 + 1e-12
    assert _norm(report.worst_point) <= 0.5 + 1e-12


def test_growth_estimate_validation_and_determinism():
    with pytest.raises(ValueError):
        growth_estimate(Mesh(4), epsilon=0.0, samples=10)
    for epsilon in (math.inf, math.nan):
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            growth_estimate(Mesh(8), epsilon=epsilon, samples=10)
    with pytest.raises(ValueError):
        growth_estimate(Mesh(4), epsilon=1.0, samples=0)
    a = growth_estimate(Mesh(8), epsilon=1.0, samples=300, seed=5)
    b = growth_estimate(Mesh(8), epsilon=1.0, samples=300, seed=5)
    assert a.to_json() == b.to_json()


def test_growth_estimate_refuses_an_epsilon_that_is_not_a_real():
    # as check_tilt: True is not the radius 1.0, a string is not parsed,
    # and None or a complex is refused with ValueError, not TypeError
    for bad in (True, np.bool_(True), "1.0", None, 1j, [1.0], 10**400):
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            growth_estimate(Mesh(4), epsilon=bad, samples=10)
    # a real of another type gives the report of its float
    expected = growth_estimate(Mesh(4), epsilon=0.5, samples=10).to_json()
    for good in (Fraction(1, 2), np.float32(0.5), np.float64(0.5)):
        assert growth_estimate(Mesh(4), epsilon=good, samples=10).to_json() == expected


def _one_shot(mesh, samples, rng, tol=1e-10):
    # the evaluation the streamed pass replaced: every row in one
    # (samples + extras, n) array, one vectorized evaluation
    n = mesh.n
    rows = [rng.uniform(-1.0, 1.0, size=(samples, n))]
    rows.append(np.zeros((1, n)))
    rows.append(alternating_signs(n)[None, :])
    if n <= 12:
        idx = np.arange(2**n)[:, None]
        rows.append(1 - 2 * ((idx >> np.arange(n - 1, -1, -1)) & 1))
    U = np.vstack(rows)
    width = mesh.width
    image = width**3 / 3.0 * walk_energy(U)
    comp = width * np.sum(U * U, axis=1)
    form = 2.0 + 2.0 * image - comp
    nsq = 1.0 + comp
    chain = (
        np.all(image <= 1.0 / 3.0 + tol)
        and np.all(comp <= 1.0 + tol)
        and np.all(1.0 / 3.0 <= form + tol)
        and np.all(nsq / 6.0 <= form + tol)
    )
    return U, form / nsq, nsq, bool(chain)


def _pass_cases():
    cases = [
        (n, (1, block - 1, block, block + 1, 1000))
        for n in (1, 2, 5, 12, 13, 64, 2048)
        for block in [max(1, ssc._BLOCK_CELLS // n)]
    ]
    # rows that np.einsum sums in pieces within a block of several rows
    cases.append((ssc._ROW_PIECE + 1, (1, 2, 5)))
    # one row per block whatever the number of ranges
    cases.append((ssc._BLOCK_CELLS + 1, (1, 2, 3)))
    return cases


def test_sampled_pass_matches_one_shot_reference():
    for n, sample_counts in _pass_cases():
        mesh = Mesh(n)
        for samples in sample_counts:
            for seed in (0, 7):
                U, ratios, _, chain = _one_shot(mesh, samples, np.random.default_rng(seed))
                worst = int(np.argmin(ratios))
                expected = ssc.CoercivityReport(
                    beta_estimate=float(ratios[worst]),
                    beta_certified=BETA_CERTIFIED,
                    samples=samples,
                    worst_direction=ConePoint(1.0, GridFunction(mesh, U[worst])),
                    chain_checks_passed=chain,
                ).to_json()
                got = coercivity_estimate(mesh, samples=samples, seed=seed).to_json()
                assert got == expected, (n, samples, seed)


def test_row_sums_do_not_depend_on_the_ranges(monkeypatch):
    # np.einsum sums a row of more than _ROW_PIECE cells in pieces when
    # the row shares its block, and in one piece alone, so such rows get
    # a block each; every row's sums are then the same bits whatever
    # block and range the row falls in, and the sums of the halved rows
    # times 4 are those of the rows, each taken alone; the extra rows
    # follow, a 1-row block each, as the pass scores them
    def row_sums(workers, n, samples):
        monkeypatch.setattr(ssc, "_workers", lambda n, samples: workers)
        mesh, rng, out = Mesh(n), np.random.default_rng(n), []
        for _, (_, blocks, (sums, _)) in ssc._ranges(mesh, samples, rng):
            for image, comp in ssc._row_sums(mesh, blocks, sums[:2]):
                out.append(np.stack([image, comp]))
        for index in (samples, samples + 1):
            extra = [ssc._sampled_row(n, samples, rng, index)[None] / 2]
            for image, comp in ssc._row_sums(mesh, extra, sums[:2]):
                out.append(np.stack([image, comp]))
        return np.concatenate(out, axis=1).view(np.int64)

    piece = ssc._ROW_PIECE
    for n, samples in ((1, 3000), (13, 700), (2048, 100), (piece, 20), (piece + 1, 20), (20000, 9)):
        serial = row_sums(1, n, samples)
        rows = np.random.default_rng(n).uniform(-1.0, 1.0, size=(samples, n))
        rows = np.vstack([rows, np.zeros(n), alternating_signs(n)])[:, None, :]
        width = Mesh(n).width
        image = [width**3 / 3.0 * walk_energy(row)[0] for row in rows]
        comp = [width * ssc._row_dots(row, row)[0] for row in rows]
        np.testing.assert_array_equal(serial, np.array([image, comp]).view(np.int64))
        for workers in (2, 3, 8):
            np.testing.assert_array_equal(row_sums(workers, n, samples), serial)


@pytest.mark.parametrize("extras", ["alternating", "zero"])
def test_worker_count_cannot_change_a_report(monkeypatch, extras):
    # each range of rows draws from a generator advanced past the rows
    # before it, and the ranges' minima merge by (ratio, index), so the
    # reports and the generator's end state are those of one range; 8
    # ranges are more than the rows at samples 1, 2, 3 and 5, and are cut
    # to one a row.  The alternating
    # extra row attains the least ratio, so with it replaced by zeros the
    # worst row is a sampled one, and the reports depend on the draws
    if extras == "zero":
        monkeypatch.setattr(ssc, "alternating_signs", np.zeros)

    def outputs(workers):
        monkeypatch.setattr(ssc, "_workers", lambda n, samples: workers)
        out = []
        for n, sample_counts in _pass_cases():
            mesh = Mesh(n)
            for samples in sample_counts:
                for seed in (0, 7):
                    rng = np.random.default_rng(seed)
                    ssc._sampled_pass(mesh, samples, rng)
                    out.append((
                        coercivity_estimate(mesh, samples=samples, seed=seed).to_json(),
                        growth_estimate(mesh, epsilon=0.5, samples=samples, seed=seed).to_json(),
                        rng.bit_generator.state,
                    ))
        return out

    serial = outputs(1)
    states = []
    for n, sample_counts in _pass_cases():
        for samples in sample_counts:
            for seed in (0, 7):
                reference = np.random.default_rng(seed)
                reference.uniform(-1.0, 1.0, size=(samples, n))
                states.append(reference.bit_generator.state)
    assert [state for _, _, state in serial] == states
    assert outputs(2) == serial
    assert outputs(3) == serial
    # more threads than CPUs, switching as often as the interpreter allows
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert outputs(8) == serial
    finally:
        sys.setswitchinterval(interval)


def test_a_sampled_worst_row_matches_one_uniform_draw(monkeypatch):
    # with both extra rows zero (ratio 2, above every nonzero row's) a
    # sampled row decides every field, so the reports check each range's
    # draws, sums and minimum, and the worst row's redraw and radius,
    # against one rng.uniform(-1, 1) draw; rows of more than _ROW_PIECE
    # cells are summed one at a time, as the pass sums them
    sampled_row = ssc._sampled_row

    def zero_extras(n, samples, rng, index):
        return np.zeros(n) if index >= samples else sampled_row(n, samples, rng, index)

    monkeypatch.setattr(ssc, "_sampled_row", zero_extras)
    for n, sample_counts in _pass_cases():
        mesh = Mesh(n)
        width = mesh.width
        for samples in sample_counts:
            for seed in (0, 7):
                rng = np.random.default_rng(seed)
                U = rng.uniform(-1.0, 1.0, size=(samples, n))
                rows = [U] if n <= ssc._ROW_PIECE else np.split(U, samples)
                image = np.concatenate([width**3 / 3.0 * walk_energy(R) for R in rows])
                comp = np.concatenate([width * ssc._row_dots(R, R) for R in rows])
                form, nsq = 2.0 + 2.0 * image - comp, 1.0 + comp
                worst = int(np.argmin(form / nsq))
                radius = 1.0 - rng.uniform(0.0, 1.0, size=samples)[worst]
                scale = 0.5 * radius / np.sqrt(nsq[worst])
                beta = ssc.CoercivityReport(
                    beta_estimate=float(form[worst] / nsq[worst]),
                    beta_certified=BETA_CERTIFIED,
                    samples=samples,
                    worst_direction=ConePoint(1.0, GridFunction(mesh, U[worst])),
                    chain_checks_passed=True,
                ).to_json()
                delta = ssc.GrowthReport(
                    delta_estimate=float(form[worst] / nsq[worst]),
                    epsilon=0.5,
                    samples=samples,
                    worst_point=ConePoint(float(scale), GridFunction(mesh, U[worst] * scale)),
                ).to_json()
                for workers in (1, 2, 3):
                    monkeypatch.setattr(ssc, "_workers", lambda n, samples: workers)
                    case = (n, samples, seed, workers)
                    got = coercivity_estimate(mesh, samples=samples, seed=seed)
                    assert got.to_json() == beta, case
                    got = growth_estimate(mesh, epsilon=0.5, samples=samples, seed=seed)
                    assert got.to_json() == delta, case


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_a_chain_failure_in_an_extra_row_fails_the_report(monkeypatch, workers):
    # with a slack of -1e-9 only the alternating extra row, scored after
    # the ranges, breaks a link: ||u||^2 = 1 > t^2 - 1e-9
    monkeypatch.setattr(ssc, "_workers", lambda n, samples: workers)
    mesh = Mesh(64)
    assert coercivity_estimate(mesh, samples=3000).chain_checks_passed
    monkeypatch.setattr(ssc, "_CHAIN_TOL", -1e-9)
    assert not coercivity_estimate(mesh, samples=3000).chain_checks_passed


@pytest.mark.parametrize("failing_range", [1, 2])
def test_no_thread_outlives_the_pass(monkeypatch, failing_range):
    # range 1 runs in the caller and range 2 in a thread; an error in
    # either is raised from the estimate once the thread has ended
    monkeypatch.setattr(ssc, "_workers", lambda n, samples: 2)
    mesh = Mesh(2048)
    baseline = threading.active_count()
    coercivity_estimate(mesh, samples=100)
    assert threading.active_count() == baseline
    row_dots, caller = ssc._row_dots, threading.current_thread()
    raised = []

    def faulty(x, y, out=None):
        if (threading.current_thread() is caller) == (failing_range == 1):
            raised.append(FloatingPointError(f"range {failing_range}"))
            raise raised[-1]
        return row_dots(x, y, out)

    monkeypatch.setattr(ssc, "_row_dots", faulty)
    for estimate in (coercivity_estimate, growth_estimate):
        with pytest.raises(FloatingPointError) as error:
            estimate(mesh, samples=100)
        assert error.value is raised[-1]
        assert threading.active_count() == baseline


def test_growth_estimate_is_the_coercivity_ratio():
    # 2 f_0(x) = f''(x, x), so the growth ratio is the Rayleigh ratio of
    # the same directions whatever radius each is scaled to
    for n, samples, seed, epsilon in (
        (5, 1000, 0, 1.0),
        (1, 10, 1, 0.5),
        (12, 200, 2, 2.0),
        (13, 300, 3, 1.0),
        (300, 1000, 0, 0.25),
    ):
        mesh = Mesh(n)
        beta = coercivity_estimate(mesh, samples=samples, seed=seed)
        delta = growth_estimate(mesh, epsilon=epsilon, samples=samples, seed=seed)
        assert delta.delta_estimate == beta.beta_estimate
        s = delta.worst_point.t
        assert 0.0 < s
        np.testing.assert_array_equal(
            delta.worst_point.u.values, beta.worst_direction.u.values * s
        )
        assert _norm(delta.worst_point) <= epsilon * (1.0 + 1e-12)
        # the radii are drawn after every row, one per row in row order
        rng = np.random.default_rng(seed)
        U, ratios, nsq, _ = _one_shot(mesh, samples, rng)
        worst = int(np.argmin(ratios))
        radius = 1.0 - rng.uniform(0.0, 1.0, size=U.shape[0])[worst]
        assert s == epsilon * radius / np.sqrt(nsq[worst])


def test_row_blocks_reproduce_one_uniform_draw(monkeypatch):
    # each range of the pass draws its blocks of halved rows into its own
    # reused buffer, so each block is copied before the next draw; the
    # ranges, each drawing from a copy of the generator advanced past the
    # rows before it, are together half of one rng.uniform(-1, 1) draw
    # bit for bit, with no extra row
    jumped, generators = ssc._jumped, []

    def recorded(rng, draws):
        generators.append(jumped(rng, draws))
        return generators[-1]

    monkeypatch.setattr(ssc, "_jumped", recorded)
    for workers in (1, 2, 3):
        monkeypatch.setattr(ssc, "_workers", lambda n, samples: workers)
        for n in (1, 13, 2048, ssc._ROW_PIECE + 1, 2**19):
            block = max(1, ssc._BLOCK_CELLS // workers // n) if n <= ssc._ROW_PIECE else 1
            for samples in (1, 2, block - 1, block, block + 1, 3 * block + 5):
                if samples < 1:
                    continue
                blocks = []
                ranges = ssc._ranges(Mesh(n), samples, np.random.default_rng(n + samples))
                for lo, (_, range_blocks, _) in ranges:
                    assert lo == sum(len(U) for U in blocks)
                    first = None
                    for U in range_blocks:
                        first = U if first is None else first
                        assert np.shares_memory(U, first) and len(U) <= block
                        blocks.append(U.copy())
                rows = 2 * np.concatenate([np.empty((0, n)), *blocks])
                reference = np.random.default_rng(n + samples)
                expected = reference.uniform(-1.0, 1.0, size=(samples, n))
                np.testing.assert_array_equal(rows.view(np.int64), expected.view(np.int64))
                # the last range's generator ends where the one draw does
                assert generators[-1].bit_generator.state == reference.bit_generator.state


def test_sampled_row_is_the_row_of_one_uniform_draw():
    # a row of the pass drawn again by its index, in the first, a middle
    # and the last block, equals that row of one rng.uniform(-1, 1) draw
    # bit for bit; the extra rows are rebuilt, and the generator is left
    # as it was
    for n in (1, 13, 2048, 2**16 + 1):
        block = max(1, ssc._BLOCK_CELLS // n)
        samples = 3 * block + 5
        seed = n + 1
        expected = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(samples, n))
        rng = np.random.default_rng(seed)
        state = rng.bit_generator.state
        for index in (0, block - 1, block + 1, 2 * block, samples - 1):
            row = ssc._sampled_row(n, samples, rng, index)
            np.testing.assert_array_equal(row.view(np.int64), expected[index].view(np.int64))
            assert rng.bit_generator.state == state, (n, index)
        np.testing.assert_array_equal(ssc._sampled_row(n, samples, rng, samples), np.zeros(n))
        np.testing.assert_array_equal(
            ssc._sampled_row(n, samples, rng, samples + 1), alternating_signs(n)
        )
        assert rng.bit_generator.state == state
        np.testing.assert_array_equal(
            rng.uniform(-1.0, 1.0, size=n).view(np.int64), expected[0].view(np.int64)
        )


def _traced_peak(estimate, mesh, samples):
    estimate(mesh, samples=samples)  # imports and caches are not the pass
    tracemalloc.start()
    try:
        estimate(mesh, samples=samples)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sampled_pass_holds_one_block_buffer():
    # the prefix sums overwrite the draws in the one buffer of
    # _BLOCK_CELLS cells (0.5 MiB); a second buffer for them peaked at
    # 1.04 MiB
    for estimate in (coercivity_estimate, growth_estimate):
        peak = _traced_peak(estimate, Mesh(2048), 10000)
        assert peak < 0.75 * 2**20, (estimate.__name__, peak)


def test_growth_memory_does_not_grow_with_samples():
    # growth reads the worst row's radius alone; one radius per row
    # took 15.3 MiB at these arguments, against 7.0 MiB for coercivity
    mesh = Mesh(1)
    beta = _traced_peak(coercivity_estimate, mesh, 2_000_000)
    delta = _traced_peak(growth_estimate, mesh, 2_000_000)
    assert delta <= beta + 64 * 2**10, (beta, delta)


def _vertex_minimum(n):
    # least f''(d, d) / ||d||^2 over d = (1, sigma), every sign pattern, in Fractions
    width = Fraction(1, n)
    best = None
    for bits in range(2**n):
        sigma = [1 - 2 * (bits >> k & 1) for k in range(n)]
        a = energy = 0
        for step in sigma:
            b = a + step
            energy += a * a + a * b + b * b
            a = b
        image = width**3 / 3 * energy
        comp = width * sum(step * step for step in sigma)
        ratio = (2 + 2 * image - comp) / (1 + comp)
        best = ratio if best is None else min(best, ratio)
    return best


def test_exact_constant_is_the_vertex_minimum_and_the_sampled_minimum():
    for n in range(1, 10):
        mesh = Mesh(n)
        exact = _vertex_minimum(n)
        assert exact == Fraction(1, 2) + Fraction(1, 3 * n * n)
        beta = coercivity_estimate(mesh, samples=500, seed=n)
        assert beta.beta_exact == float(exact)
        # the sampled directions never beat the exact constant, and the
        # alternating extra attains it up to rounding
        assert abs(beta.beta_estimate - beta.beta_exact) <= 2 * np.spacing(beta.beta_exact)
        delta = growth_estimate(mesh, epsilon=1.0, samples=500, seed=n)
        assert delta.delta_exact == beta.beta_exact
        assert json.loads(beta.to_json())["beta_exact"] == beta.beta_exact
        assert json.loads(delta.to_json())["delta_exact"] == delta.delta_exact
    for n in (64, 2048):
        beta = coercivity_estimate(Mesh(n), samples=300, seed=0)
        assert beta.beta_exact == float(Fraction(1, 2) + Fraction(1, 3 * n * n))
        assert abs(beta.beta_estimate - beta.beta_exact) <= 2 * np.spacing(beta.beta_exact)
