"""conelab: a numerical laboratory for a cone-constrained quadratic program.

The model problem minimizes

    f_h(t, u) = t^2 + ||S u||^2 - (1/2) ||u||^2 - h t

over the cone C = {(t, u) in R x L^2(0, 1) : |u| <= t a.e.}, where S
is the running integral (S u)(x) = integral of u over (0, x).  The
apex (0, 0) is the unique minimizer at h = 0 and satisfies a coercive
second-order condition, yet for every tilt h > 0 the minimizers run
off into faster and faster oscillation as the mesh refines: their weak
limit is not a minimizer.  The package discretizes the problem exactly
on piecewise-constant functions, solves it by three independent
methods, certifies the second-order analysis, and scripts the
refinement experiments that exhibit the degeneration.
"""

from .cone import (
    ConePoint,
    InfeasiblePointError,
    contains,
    project,
)
from .experiments import (
    CSV_HEADER,
    StabilityRecord,
    SweepConfig,
    SweepRow,
    perturbation_sweep,
    stability_report,
    write_rows,
)
from .grid import GridFunction, Mesh, MeshMismatchError
from .objective import check_tilt, gradient, value
from .operators import alternating_signs, apply_SstarS, norm_S_sq, op_norm_SstarS
from .solvers import (
    PontryaginCheck,
    SolveReport,
    SolverOptions,
    count_sign_changes,
    pontryagin_check,
    solve_bangbang,
    solve_bruteforce,
    solve_pgd,
    solve_with_canonical_start,
)
from .ssc import (
    BETA_CERTIFIED,
    DELTA_CERTIFIED,
    CoercivityReport,
    GrowthReport,
    coercivity_estimate,
    growth_estimate,
)

__version__ = "0.1.0"
