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

import json
from dataclasses import dataclass, field

import numpy as np

from .cone import ConePoint, stationarity_residual
from .grid import GridFunction, Mesh
from .objective import gradient
from .operators import walk_energy
from .solvers import alternating_signs

BETA_CERTIFIED = 1.0 / 6.0
DELTA_CERTIFIED = 0.5

# cells per block of sampled rows: the pass holds max(1, _BLOCK_CELLS // n)
# rows at a time, so its memory does not grow with the sample count
_BLOCK_CELLS = 2**18


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

    The uniform blocks are views of one buffer, refilled in place: a
    caller that keeps a row past the next block must copy it.  2x - 1
    from rng.random is bit for bit what rng.uniform(-1.0, 1.0) returns,
    and consumes the generator the same way.
    """
    block = max(1, _BLOCK_CELLS // n)
    buffer = np.empty((min(block, samples), n))
    for start in range(0, samples, block):
        U = buffer[: min(block, samples - start)]
        rng.random(out=U)
        U *= 2.0
        U -= 1.0
        yield U
    yield np.vstack([np.zeros(n), alternating_signs(n)])


def _sampled_pass(mesh: Mesh, samples: int, rng: np.random.Generator, tol: float):
    """Stream the sampled directions once, keeping only the running minimum.

    Returns (ratio, index, row, nsq, rows, chain_passed): the smallest
    f''(d, d) / ||d||^2, the global index, cell values and ||d||^2 of
    the first row attaining it, the number of rows, and whether every
    row passed the four chain links within tol.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    width = mesh.width
    best = (np.inf, 0, None, 0.0)
    rows, passed = 0, True
    for U in _row_blocks(mesh.n, samples, rng):
        image = width**3 / 3.0 * walk_energy(U)
        comp = width * np.einsum("ij,ij->i", U, U)
        form, nsq, links = _chain(1.0, image, comp)
        passed = passed and all(np.all(lhs <= rhs + tol) for _, lhs, rhs in links)
        ratios = form / nsq
        k = int(np.argmin(ratios))
        if ratios[k] < best[0]:
            best = (float(ratios[k]), rows + k, U[k].copy(), float(nsq[k]))
        rows += U.shape[0]
    return (*best, rows, bool(passed))


def coercivity_estimate(
    mesh: Mesh, samples: int = 10000, seed: int = 0, tol: float = 1e-10
) -> CoercivityReport:
    """Sampled lower estimate of the coercivity constant at the apex.

    beta_estimate is the smallest Rayleigh ratio f''(d, d) / ||d||^2
    over the sampled directions; chain_checks_passed records whether
    the certificate chain held on every one of them.
    """
    rng = np.random.default_rng(seed)
    beta, _, row, _, _, passed = _sampled_pass(mesh, samples, rng, tol)
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
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    rng = np.random.default_rng(seed)
    delta, index, row, nsq, rows, _ = _sampled_pass(mesh, samples, rng, 1e-10)
    radius = 1.0 - rng.uniform(0.0, 1.0, size=rows)[index]
    scale = epsilon * radius / np.sqrt(nsq)
    return GrowthReport(
        delta_estimate=delta,
        epsilon=float(epsilon),
        samples=samples,
        worst_point=ConePoint(float(scale), GridFunction(mesh, row * scale)),
    )
