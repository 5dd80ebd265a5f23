"""Second-order analysis at the apex: coercivity and quadratic growth.

At the origin the untilted objective has zero gradient (verify-ssc reads
it from solvers._unit_step), and on the cone the Hessian form dominates:

    |u| <= t   =>   |(S u)(x)| <= t x
               =>   f''(d, d) >= (2 - 2/3 - 1) t^2 = t^2 / 3
               =>   f''(d, d) >= (1/6) ||d||^2,

since t^2 >= ||d||^2 / 2 on the cone.  _chain states its four links
once; the sampled estimates below check them on every sampled direction
and measure how much slack the bound leaves.  Since 2 f_0 = f'', both
come from one streamed pass over the sampled directions.

The same identity makes the chain's 1/6 three times looser than a bound
this module already certifies: f_0(x) >= t^2 - ||u||^2 / 2 >= ||x||^2 / 4
on the cone gives DELTA_CERTIFIED = 1/2, and f''(d, d) = 2 f_0(d) >=
||d||^2 / 2.  The exact constant is 1/2 + 1/(3 n^2) (_exact_constant);
BETA_CERTIFIED stays the chain's 1/6, which the acceptance criteria read.
"""

from __future__ import annotations

import copy
import math
import numbers
import os
import pickle
from dataclasses import dataclass, field

import numpy as np

from .cone import ConePoint, Report
from .grid import GridFunction, Mesh, _row_dots
from .objective import _real
from .operators import _walk_energy, alternating_signs

BETA_CERTIFIED = 1.0 / 6.0
DELTA_CERTIFIED = 0.5

# cells per block of sampled rows, over all the pass's W row ranges
# (_workers): each holds max(1, _BLOCK_CELLS // W // n) rows at a time
# (one above _ROW_PIECE cells a row) in a reused buffer that the process
# running it allocates, so the caller holds a W-th of the 0.5 MiB, inside
# a 2 MiB per-core L2, whatever the sample count.  The draws and every
# row's sums depend on neither the block size nor W, so no output does.
_BLOCK_CELLS = 2**16
# least sampled cells a range of its own runs: a child process costs 2-3
# ms to fork, exit and reap, and on 2 CPUs two ranges were no faster than
# one at 2^20 cells in all (medians +0.1-0.3 ms of about 8-11) and faster
# at 2^21 (13.0 against 16.2 ms at n = 2048)
_RANGE_CELLS = 2**20
# rows per group, over all workers: a range keeps each row's ||S u||^2
# and ||u||^2 in group arrays of its own, and checks the chain and takes
# the minimum once per group of _GROUP_ROWS // W rows (rounded up to
# whole blocks) and once at the end
_GROUP_ROWS = 1024
# cells of a row that np.einsum sums in one piece wherever the row is; a
# longer row in a block of several rows is summed in pieces of this many
# cells (the iterator's buffer), and alone in one, so such rows get a
# block each and every row's sums depend on that row only
_ROW_PIECE = 8192
_CHAIN_TOL = 1e-10  # absolute slack of each chain link on a sampled row


def _chain(t2, image, comp, out=(None, None, None)):
    """The form f''(d, d), the norm ||d||^2 and the four chain links.

    t2 = t^2, image = ||S u||^2 and comp = ||u||^2, as scalars or as
    arrays of directions; each link is (name, lhs, rhs) for lhs <= rhs.
    out may give three arrays shaped like image to hold the form, the
    norm and the norm / 6, so that arrays of directions allocate nothing.
    """
    form, nsq, sixth = out
    form = np.multiply(image, 2.0, out=form)
    form += 2.0 * t2
    form -= comp
    nsq = np.add(comp, t2, out=nsq)
    links = (
        ("image_energy_bound", image, t2 / 3.0),
        ("component_energy_bound", comp, t2),
        ("form_lower_bound", t2 / 3.0, form),
        ("coercivity_bound", np.divide(nsq, 6.0, out=sixth), form),
    )
    return form, nsq, links


def _exact_constant(n: int) -> float:
    """The least f''(d, d) / ||d||^2 over the cone on n cells: 1/2 + 1/(3 n^2).

    With d = (1, u), m = ||S u||^2 and c = ||u||^2 the ratio is
    (2 + 2m - c) / (1 + c).  By Dinkelbach's reduction rho is its minimum
    iff the least 2 - rho + 2m - (1 + rho) c over |u| <= 1 is 0; that
    function is concave in u (2 lambda_max < 1 <= 1 + rho, with lambda_max
    the closed form of operators.op_norm_SstarS), so it is least
    at a vertex u = sigma, where c = 1 and the ratio is 1/2 + m.  The least
    m is (width^3 / 3) n (the step-cost lemma of operators.walk_energy).
    Integer true division rounds the rational (3 n^2 + 2) / (6 n^2) to a
    float once.  Since 2 f_0 = f'', it is the exact growth constant too.
    """
    return (3 * n * n + 2) / (6 * n * n)


@dataclass(frozen=True)
class CoercivityReport(Report):
    beta_estimate: float
    beta_certified: float
    samples: int
    worst_direction: ConePoint = field(repr=False)
    chain_checks_passed: bool

    KEYS = (
        "beta_estimate", "beta_exact", "beta_certified", "samples",
        "worst_direction", "chain_checks_passed",
    )

    @property
    def beta_exact(self) -> float:
        return _exact_constant(self.worst_direction.u.mesh.n)


@dataclass(frozen=True)
class GrowthReport(Report):
    delta_estimate: float
    epsilon: float
    samples: int
    worst_point: ConePoint = field(repr=False)

    KEYS = ("delta_estimate", "delta_exact", "epsilon", "samples", "worst_point")

    @property
    def delta_exact(self) -> float:
        return _exact_constant(self.worst_point.u.mesh.n)


def _row_blocks(samples: int, rng: np.random.Generator, buffer):
    """Halved cell-value rows u / 2 of samples uniform draws u_i ~ U(-1, 1), in blocks.

    The rows are the next samples * n numbers of rng, as one
    (samples, n) draw.  Every block is a view of buffer (n cells a row,
    a block a buffer), refilled in place: a caller may overwrite a
    block, and one that keeps a row past the next block must copy it.
    x - 1/2 for x from rng.random is exact, and twice it is bit for bit
    what rng.uniform(-1.0, 1.0) returns, which consumes the generator
    the same way; so the rows do not depend on the block size.
    """
    block = len(buffer)
    for start in range(0, samples, block):
        U = buffer[: min(block, samples - start)]
        rng.random(out=U)
        U -= 0.5
        yield U


def _row_sums(mesh: Mesh, blocks, sums):
    """||S u||^2 and ||u||^2 of the halved rows u / 2 in blocks, in groups.

    Each block's sums of squares are taken first; its prefix sums then
    overwrite it (np.cumsum(U, out=U)), and each row's sum of
    squares serves both its walk energy (operators._walk_energy) and
    ||u||^2.  The rows are halved, and scaling by 2 commutes with every
    rounding (no value here nears the float range's ends), so both sums
    of u / 2 are those of u divided by 4, bit for bit, and are multiplied
    back with the width's factors: one pass over each block less than
    forming u.  The sums are written in place to the two rows of sums,
    which are reused for every group; every group but the last fills
    as many whole blocks as they hold.
    """
    width = mesh.width
    image, comp = sums
    filled = 0
    for U in blocks:
        k = U.shape[0]
        if filled + k > image.size:
            yield image[:filled], comp[:filled]
            filled = 0
        squares = _row_dots(U, U, comp[filled : filled + k])
        P = np.cumsum(U, axis=-1, out=U)
        energy = _walk_energy(P, squares, image[filled : filled + k])
        energy *= width**3 / 3.0 * 4.0
        squares *= width * 4.0
        filled += k
    yield image[:filled], comp[:filled]


def _range_minimum(mesh: Mesh, blocks, group: int):
    """(ratio, offset, nsq, chain_passed) over the halved rows in blocks.

    The least f''(d, d) / ||d||^2 of the rows d = (1, u), the offset
    among them and ||d||^2 of the first row attaining it, and whether
    every row passed the four chain links within _CHAIN_TOL.  The chain
    and the ratios are evaluated in place, in arrays of group rows made
    once, for each group of whole blocks, so no block or group allocates.
    """
    sums, mask = np.empty((6, group)), np.empty(group, dtype=bool)
    best, offset, passed = (np.inf, 0, 0.0), 0, True
    for image, comp in _row_sums(mesh, blocks, sums[:2]):
        k = image.size
        form, nsq, sixth, bound = sums[2:, :k]
        form, nsq, links = _chain(1.0, image, comp, (form, nsq, sixth))
        for _, lhs, rhs in links:
            np.add(rhs, _CHAIN_TOL, out=bound)
            passed &= bool(np.less_equal(lhs, bound, out=mask[:k]).all())
        ratios = np.divide(form, nsq, out=bound)
        i = int(np.argmin(ratios))
        if ratios[i] < best[0]:
            best = (float(ratios[i]), offset + i, float(nsq[i]))
        offset += k
    return (*best, passed)


def _workers(n: int, samples: int) -> int:
    """Row ranges of the sampled pass: one per CPU this process may run
    on, at most one per _RANGE_CELLS sampled cells, and at least one;
    one where there is no os.fork to run the others."""
    if not hasattr(os, "fork"):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # a platform with no CPU affinity
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, samples * n // _RANGE_CELLS))


def _jumped(rng: np.random.Generator, draws: int) -> np.random.Generator:
    """A copy of rng advanced past its next draws numbers; rng is left as it was."""
    bit_generator = copy.deepcopy(rng.bit_generator)
    bit_generator.advance(draws)
    return np.random.Generator(bit_generator)


def _sampled_row(n: int, samples: int, rng: np.random.Generator, index: int) -> np.ndarray:
    """Row index of the sampled pass from generator rng, drawn again.

    Sampled row i is the n numbers after the first i * n of rng's
    stream, so a copy of rng is advanced past those and draws it; rng is
    left as it was.  The extra rows samples and samples + 1 are u = 0
    and the alternating pattern, the vertex of least walk energy
    (operators.walk_energy) and so of least ratio.
    """
    if index >= samples:
        return np.zeros(n) if index == samples else alternating_signs(n)
    return _jumped(rng, index * n).uniform(-1.0, 1.0, size=n)


def _range(mesh: Mesh, rng: np.random.Generator, lo: int, hi: int, workers: int):
    """_range_minimum of sampled rows lo ... hi - 1, one of W = workers ranges,
    drawn from a copy of rng advanced past the rows before them into a
    buffer of the range's W-th share of _BLOCK_CELLS cells (a row a block
    above _ROW_PIECE cells a row), in groups of its share of _GROUP_ROWS."""
    n, rows = mesh.n, hi - lo
    block = min(rows, max(1, _BLOCK_CELLS // workers // n) if n <= _ROW_PIECE else 1)
    group = min(-(-max(1, _GROUP_ROWS // workers) // block) * block, rows)
    blocks = _row_blocks(rows, _jumped(rng, lo * n), np.empty((block, n)))
    return _range_minimum(mesh, blocks, group)


def _forked_range(args):
    """(pid, read end of its pipe) of a child that runs _range(*args).

    The child writes the pickled result, or the error the range raised,
    to the pipe and leaves by os._exit, so it runs none of the caller's
    exit handlers and flushes none of its buffers; if it cannot write
    them, it leaves with status 1 and writes nothing.
    """
    read, write = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:  # the child
        status = 1
        try:
            os.close(read)
            try:
                result = _range(*args)
            except BaseException as error:
                result = error
            data = pickle.dumps(result)
            with open(write, "wb") as pipe:
                pipe.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    return pid, read


def _forked_result(pid: int, read: int):
    """The result that child pid wrote to the pipe read, once the child has been reaped."""
    try:
        with open(read, "rb") as pipe:
            data = pipe.read()
    finally:
        _, status = os.waitpid(pid, 0)
    if not data:
        code = os.waitstatus_to_exitcode(status)
        return RuntimeError(f"range process {pid} ended with status {code} and no result")
    return pickle.loads(data)


def _sampled_pass(mesh: Mesh, samples: int, rng: np.random.Generator):
    """Stream the sampled directions once, keeping only the running minimum.

    Returns (ratio, index, row, nsq, chain_passed): the smallest
    f''(d, d) / ||d||^2, the global index, cell values and ||d||^2 of
    the first row attaining it, and whether every row passed the four
    chain links within _CHAIN_TOL; rng ends advanced past the
    samples * n numbers of the draws, as if it had drawn them itself.

    The sampled rows (no extra row) are split into W = _workers(n,
    samples) contiguous ranges of _range (at most one a row).  The caller
    runs the first range and a child made by os.fork runs each of the
    others, so the ranges' prefix sums, which hold the interpreter lock,
    run at once; each process allocates its own range's arrays.  A child
    calls no BLAS routine (np.einsum without optimize, np.cumsum and the
    generator), so it needs none of the caller's BLAS threads.  It sends
    its minimum, or its error, back through a pipe; the caller reads or
    closes every pipe and reaps every child before it returns or raises,
    and then raises the error of the first range that failed, if any:
    the same object for its own range, one of the same type and message
    for a child's.  Then the caller scores the two extra rows of
    _sampled_row, a 1-row block each.  All minima merge by (ratio,
    global index), which keeps the first row attaining the least ratio,
    so no output depends on the number of ranges.  The buffers are
    overwritten as the pass goes, so the worst row is drawn again by its
    index.
    """
    n = mesh.n
    workers = min(_workers(n, samples), samples)
    bounds = [samples * k // workers for k in range(workers + 1)]
    children = []
    try:
        for lo, hi in zip(bounds[1:], bounds[2:]):
            children.append(_forked_range((mesh, rng, lo, hi, workers)))
        first = _range(mesh, rng, 0, bounds[1], workers)
    except BaseException as error:  # a failed fork too; raised below, once every child is reaped
        first = error
    results = [first]
    try:
        for pid, read in children:
            results.append(_forked_result(pid, read))
    finally:  # the children after one whose result could not be read
        for pid, read in children[len(results):]:
            os.close(read)
            os.waitpid(pid, 0)
    for result in results:
        if isinstance(result, BaseException):
            raise result
    extras = (0.5 * _sampled_row(n, samples, rng, i)[None] for i in (samples, samples + 1))
    results.append(_range_minimum(mesh, extras, 1))
    ratio, index, nsq = min((r[0], lo + r[1], r[2]) for lo, r in zip(bounds, results))
    row = _sampled_row(n, samples, rng, index)
    rng.bit_generator.advance(samples * n)
    return ratio, index, row, nsq, all(r[3] for r in results)


def _sampling(samples, seed) -> tuple[int, np.random.Generator]:
    """(samples, the generator of seed), refused with ValueError unless
    each is a Python or numpy integer, not a bool, samples >= 1, seed >= 0."""
    for name, value, least in (("seed", seed, 0), ("samples", samples, 1)):
        if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < least:
            raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(samples), np.random.default_rng(int(seed))


def coercivity_estimate(
    mesh: Mesh, samples: int = 10000, seed: int = 0
) -> CoercivityReport:
    """Sampled lower estimate of the coercivity constant at the apex.

    beta_estimate is the smallest Rayleigh ratio f''(d, d) / ||d||^2
    over the sampled directions; chain_checks_passed records whether
    the certificate chain held on every one of them.
    """
    samples, rng = _sampling(samples, seed)
    beta, _, row, _, passed = _sampled_pass(mesh, samples, rng)
    return CoercivityReport(
        beta_estimate=beta,
        beta_certified=BETA_CERTIFIED,
        samples=samples,
        worst_direction=ConePoint(1.0, GridFunction(mesh, row)),
        chain_checks_passed=passed,
    )


def growth_estimate(
    mesh: Mesh, epsilon: float = 1.0, samples: int = 10000, seed: int = 0
) -> GrowthReport:
    """Sampled quadratic-growth constant of the untilted objective.

    2 f_0(x) = f''(x, x), so the smallest 2 f_0(x) / ||x||^2 is the
    beta_estimate of the same directions; worst_point is the worst one
    scaled to a random norm in (0, epsilon].  The certified lower bound
    is 1/2: on the cone f_0(x) >= t^2 - ||u||^2 / 2 >= ||x||^2 / 4.
    """
    eps = _real(epsilon)
    if not 0.0 < eps < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
    samples, rng = _sampling(samples, seed)
    delta, index, row, nsq, _ = _sampled_pass(mesh, samples, rng)
    # the radii follow the rows in the stream, one per row in row order
    rng.bit_generator.advance(index)
    radius = 1.0 - rng.uniform(0.0, 1.0)
    scale = eps * radius / np.sqrt(nsq)
    return GrowthReport(
        delta_estimate=delta,
        epsilon=eps,
        samples=samples,
        worst_point=ConePoint(float(scale), GridFunction(mesh, row * scale)),
    )
