"""The four workloads: inputs made from the seed, and the operations run.

Every operation calls a real entry point, `conelab.cli.main(argv)` or
`conelab.solvers.solve_pgd`, and hands its output to an oracle from
`oracle`.  The seed reaches the program only as generated inputs: the
random PGD starts and the `--seed` of `verify-ssc` and `growth`.

Probe operations reproduce known defects of the program (a saddle
reported as a converged minimizer, NaN in stdout).  They run and are
judged by the same oracles as every other operation, and are reported
apart from the workload's regular operations.
"""

from __future__ import annotations

import io
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracle
from conelab import cli, solvers
from conelab.cone import ConePoint
from conelab.grid import GridFunction, Mesh

WORKLOADS = ("refine", "exact", "pgd", "certify")

REFINE_H = 0.1
REFINE_N = (512, 1024, 2048, 4096)
EXACT_H = (0.1, 1.0)
EXACT_N = (16, 18, 20)
PGD_H = 0.1
# Not 4096: there every solve streams the 128 MiB Gram matrix from DRAM
# 63 times, and on a shared host its time follows the neighbours' memory
# traffic (0.4 to 1.2 s for the same solve) more than the program.
PGD_N = (1024, 2048)
PGD_STARTS_PER_N = 8
PGD_PROBE_N = 8
PGD_PROBE_H = ("1.0", "1e200")
CERTIFY_N = 2048
CERTIFY_SAMPLES = 10000


@dataclass(frozen=True)
class Op:
    """One operation: `call` runs the program (and is timed), `check`
    maps its output to the oracle's misses."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], list]
    probe: bool = False


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run `conelab.cli.main(argv)` in-process; return exit code and stdout."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects usage this way
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


def _refine(seed: int, workdir: str) -> list[Op]:
    path = os.path.join(workdir, "sweep.json")
    argv = [
        "sweep", "--method", "bangbang", "--format", "json", "--out", path,
        "--h-list", repr(REFINE_H), "--n-list", ",".join(map(str, REFINE_N)),
    ]

    def call():
        code, _ = run_cli(argv)
        text = ""
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
        return code, text

    return [Op("sweep", call, lambda out: oracle.check_sweep(*out, REFINE_H, REFINE_N))]


def _exact(seed: int, workdir: str) -> list[Op]:
    ops = []
    for n in EXACT_N:
        for h in EXACT_H:
            argv = ["solve", "--method", "brute", "--n", str(n), "--h", repr(h)]
            ops.append(Op(
                f"brute n={n} h={h}",
                lambda argv=argv: run_cli(argv),
                lambda out, h=h, n=n: oracle.check_exact(*out, h, n),
            ))
    return ops


def _pgd(seed: int, workdir: str) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = []
    for n in PGD_N:
        mesh = Mesh(n)
        for k in range(PGD_STARTS_PER_N):
            # t = 1 and |u_i| <= 1: a feasible start, uniform on the box.
            start = ConePoint(1.0, GridFunction(mesh, rng.uniform(-1.0, 1.0, size=n)))
            ops.append(Op(
                f"pgd n={n} start {k}",
                lambda mesh=mesh, start=start: solvers.solve_pgd(PGD_H, mesh, start),
                lambda report, n=n: oracle.pgd_report_certificate(report, PGD_H, n),
            ))
    for h in PGD_PROBE_H:
        argv = ["solve", "--method", "pgd", "--n", str(PGD_PROBE_N), "--h", h]
        ops.append(Op(
            f"probe solve pgd n={PGD_PROBE_N} h={h}",
            lambda argv=argv: run_cli(argv),
            lambda out, h=float(h): oracle.check_pgd_cli(*out, h, PGD_PROBE_N),
            probe=True,
        ))
    return ops


def _certify(seed: int, workdir: str) -> list[Op]:
    common = ["--n", str(CERTIFY_N), "--samples", str(CERTIFY_SAMPLES), "--seed", str(seed)]
    verify, growth = ["verify-ssc", *common], ["growth", *common]
    return [
        Op("verify-ssc", lambda: run_cli(verify), lambda out: oracle.check_verify_ssc(*out)),
        Op("growth", lambda: run_cli(growth), lambda out: oracle.check_growth(*out)),
    ]


_BUILDERS = {"refine": _refine, "exact": _exact, "pgd": _pgd, "certify": _certify}


def build(workload: str, seed: int, workdir: str) -> list[Op]:
    """The operations of one round of `workload`, with inputs from `seed`.

    `workdir` is an existing directory for files the program writes.
    """
    return _BUILDERS[workload](seed, workdir)
