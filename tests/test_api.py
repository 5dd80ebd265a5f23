"""The public names of the conelab package, pinned.

A name stays public if the command line tool, a solver or another path of
the program, the benchmark in perfbench/, the README or an acceptance
criterion reads it.  A helper that only tests read is a test oracle and
lives in tests/oracles.py, written from the kernels the program runs.  A
change that adds a public name has to add it here, and say who reads it.
"""

import types

import conelab

PUBLIC = {
    # cone: report shape, membership and projection (solvers, perfbench)
    "ConePoint", "InfeasiblePointError", "contains", "project",
    # experiments: sweeps and the stability audit (cli)
    "CSV_HEADER", "StabilityRecord", "SweepConfig", "SweepRow",
    "perturbation_sweep", "stability_report", "write_rows",
    # grid (every path)
    "GridFunction", "Mesh", "MeshMismatchError",
    # objective (solvers; gradient is traced by perfbench)
    "check_tilt", "gradient", "value",
    # operators (solvers, ssc, experiments; the rest are traced by perfbench)
    "alternating_signs", "apply_SstarS", "norm_S_sq", "op_norm_SstarS",
    # solvers (cli, experiments, perfbench)
    "PontryaginCheck", "SolveReport", "SolverOptions", "count_sign_changes",
    "pontryagin_check", "solve_bangbang", "solve_bruteforce", "solve_pgd",
    "solve_with_canonical_start",
    # ssc (cli, acceptance criteria 1 and 6)
    "BETA_CERTIFIED", "DELTA_CERTIFIED", "CoercivityReport", "GrowthReport",
    "coercivity_estimate", "growth_estimate",
}


def test_public_names_are_the_keep_list():
    names = {
        name for name, obj in vars(conelab).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert names == PUBLIC
