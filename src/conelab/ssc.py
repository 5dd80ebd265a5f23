"""Second-order analysis at the apex: coercivity and quadratic growth.

At the origin the untilted objective has zero gradient, and on the cone
the Hessian form dominates a multiple of the squared norm:

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
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .cone import ConePoint, stationarity_residual
from .grid import GridFunction, Mesh
from .objective import gradient
from .operators import _row_dots, _walk_energy
from .solvers import alternating_signs

BETA_CERTIFIED = 1.0 / 6.0
DELTA_CERTIFIED = 0.5

# cells per block of sampled rows: the pass holds max(1, _BLOCK_CELLS // n)
# rows at a time in one reused buffer (0.5 MiB, inside a 2 MiB per-core
# L2), so its memory does not grow with the sample count.  The draws and
# every row's sums do not depend on it, so neither does any output.
_BLOCK_CELLS = 2**16
# rows per group: the pass keeps each row's ||S u||^2 and ||u||^2 and
# checks the chain and takes the minimum once per group of this many
# rows (rounded up to whole blocks) and once at the end
_GROUP_ROWS = 1024
_CHAIN_TOL = 1e-10  # absolute slack of each chain link on a sampled row


def check_stationarity(h: float, p: ConePoint) -> float:
    """Projected-gradient fixed-point residual of f_h at p (p must be in C)."""
    return stationarity_residual(p, gradient(h, p))


def _chain(t2, image, comp):
    """The form f''(d, d), the norm ||d||^2 and the four chain links.

    t2 = t^2, image = ||S u||^2 and comp = ||u||^2, as scalars or as
    arrays of directions; each link is (name, lhs, rhs) for lhs <= rhs.
    """
    form = 2.0 * t2 + 2.0 * image - comp
    nsq = t2 + comp
    links = (
        ("image_energy_bound", image, t2 / 3.0),
        ("component_energy_bound", comp, t2),
        ("form_lower_bound", t2 / 3.0, form),
        ("coercivity_bound", nsq / 6.0, form),
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
class CoercivityReport:
    beta_estimate: float
    beta_certified: float
    samples: int
    worst_direction: ConePoint = field(repr=False)
    chain_checks_passed: bool

    @property
    def beta_exact(self) -> float:
        return _exact_constant(self.worst_direction.u.mesh.n)

    def as_dict(self) -> dict:
        return {
            "beta_estimate": self.beta_estimate,
            "beta_exact": self.beta_exact,
            "beta_certified": self.beta_certified,
            "samples": self.samples,
            "worst_direction": {
                "t": self.worst_direction.t,
                "u": self.worst_direction.u.values.tolist(),
            },
            "chain_checks_passed": self.chain_checks_passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), allow_nan=False)


@dataclass(frozen=True)
class GrowthReport:
    delta_estimate: float
    epsilon: float
    samples: int
    worst_point: ConePoint = field(repr=False)

    @property
    def delta_exact(self) -> float:
        return _exact_constant(self.worst_point.u.mesh.n)

    def as_dict(self) -> dict:
        return {
            "delta_estimate": self.delta_estimate,
            "delta_exact": self.delta_exact,
            "epsilon": self.epsilon,
            "samples": self.samples,
            "worst_point": {
                "t": self.worst_point.t,
                "u": self.worst_point.u.values.tolist(),
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), allow_nan=False)


def _row_blocks(n: int, samples: int, rng: np.random.Generator):
    """Cell-value rows of sampled cone directions d = (1, u), in blocks.

    samples uniform rows u_i ~ U(-1, 1) (the numbers of one (samples, n)
    draw), then u = 0 and the alternating pattern.  Every vertex u = sigma
    has ||u||^2 = 1, and the alternating one has the least walk energy
    (operators.walk_energy), so it attains the least vertex ratio.

    Every block, the two extra rows included, is a view of one buffer of
    at most _BLOCK_CELLS cells (or one row, above that), refilled in
    place: a caller may overwrite a block, and one that keeps a row past
    the next block must copy it.  2x - 1 from rng.random is bit for bit
    what rng.uniform(-1.0, 1.0) returns, and consumes the generator the
    same way, so the rows do not depend on the block size.
    """
    block = max(1, _BLOCK_CELLS // n)
    buffer = np.empty((max(2, min(samples, block)), n))
    for start in range(0, samples, block):
        U = buffer[: min(block, samples - start)]
        rng.random(out=U)
        U *= 2.0
        U -= 1.0
        yield U
    U = buffer[:2]
    U[0] = 0.0
    U[1] = alternating_signs(n)
    yield U


def _row_sums(mesh: Mesh, samples: int, rng: np.random.Generator):
    """||S u||^2 and ||u||^2 of the rows of _row_blocks, in groups.

    Each block's sums of squares are taken first; its prefix sums then
    overwrite its draws (np.cumsum(U, out=U)), and each row's sum of
    squares serves both its walk energy (operators._walk_energy) and
    ||u||^2.  Every group but the last holds _GROUP_ROWS rows rounded up
    to whole blocks; both arrays are reused for every group.
    """
    n, width = mesh.n, mesh.width
    block = max(1, _BLOCK_CELLS // n)
    image, comp = np.empty((2, min(-(-_GROUP_ROWS // block) * block, samples + 2)))
    filled = 0
    for U in _row_blocks(n, samples, rng):
        k = U.shape[0]
        if filled + k > image.size:
            yield image[:filled], comp[:filled]
            filled = 0
        squares = _row_dots(U, U)
        P = np.cumsum(U, axis=-1, out=U)
        image[filled : filled + k] = width**3 / 3.0 * _walk_energy(P, squares)
        comp[filled : filled + k] = width * squares
        filled += k
    yield image[:filled], comp[:filled]


def _sampled_row(n: int, samples: int, rng: np.random.Generator, index: int) -> np.ndarray:
    """Row index of _row_blocks(n, samples, rng), drawn again.

    Sampled row i is the n numbers after the first i * n of rng's
    stream, so a copy of rng is advanced past those and draws it; rng is
    left as it was.  Rows samples and samples + 1 are the extra rows.
    """
    if index >= samples:
        return np.zeros(n) if index == samples else alternating_signs(n)
    bit_generator = copy.deepcopy(rng.bit_generator)
    bit_generator.advance(index * n)
    return np.random.Generator(bit_generator).uniform(-1.0, 1.0, size=n)


def _sampled_pass(mesh: Mesh, samples: int, rng: np.random.Generator):
    """Stream the sampled directions once, keeping only the running minimum.

    Returns (ratio, index, row, nsq, chain_passed): the smallest
    f''(d, d) / ||d||^2, the global index, cell values and ||d||^2 of
    the first row attaining it, and whether every row passed the four
    chain links within _CHAIN_TOL.

    The rows' sums come in groups (_row_sums); the chain, the ratios and
    their minimum are taken once per group.  The one block buffer is
    overwritten as the pass goes, so the worst row is drawn again by its
    index from the generator state the pass started at (_sampled_row).
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    start = copy.deepcopy(rng)
    best = (np.inf, 0, 0.0)
    rows, passed = 0, True
    for image, comp in _row_sums(mesh, samples, rng):
        form, nsq, links = _chain(1.0, image, comp)
        passed = passed and all(np.all(lhs <= rhs + _CHAIN_TOL) for _, lhs, rhs in links)
        ratios = form / nsq
        k = int(np.argmin(ratios))
        if ratios[k] < best[0]:
            best = (float(ratios[k]), rows + k, float(nsq[k]))
        rows += image.size
    ratio, index, nsq = best
    row = _sampled_row(mesh.n, samples, start, index)
    return ratio, index, row, nsq, bool(passed)


def coercivity_estimate(
    mesh: Mesh, samples: int = 10000, seed: int = 0
) -> CoercivityReport:
    """Sampled lower estimate of the coercivity constant at the apex.

    beta_estimate is the smallest Rayleigh ratio f''(d, d) / ||d||^2
    over the sampled directions; chain_checks_passed records whether
    the certificate chain held on every one of them.
    """
    rng = np.random.default_rng(seed)
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
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
    rng = np.random.default_rng(seed)
    delta, index, row, nsq, _ = _sampled_pass(mesh, samples, rng)
    # the radii follow the rows in the stream, one per row in row order
    rng.bit_generator.advance(index)
    radius = 1.0 - rng.uniform(0.0, 1.0)
    scale = epsilon * radius / np.sqrt(nsq)
    return GrowthReport(
        delta_estimate=delta,
        epsilon=float(epsilon),
        samples=samples,
        worst_point=ConePoint(float(scale), GridFunction(mesh, row * scale)),
    )
