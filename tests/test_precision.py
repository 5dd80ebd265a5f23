"""Printed numbers: the paper's gap at every size, and the same bytes under
every BLAS kernel.

The paper's effect is the gap objective + h^2/2 = 2 h^2 / (6 n^2 + 4) of
the vertex minimizers: positive, so no minimizer reaches the infimum
-h^2/2, and shrinking as n^-2, so the infimum is approached.  A report's
sums of squares must not swamp it as n grows, and their rounding must not
depend on the OpenBLAS kernel that the machine picks at run time.
"""

from __future__ import annotations

import contextlib
import io
import os
import platform
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import diffrun
from conelab.solvers import canonical_reports

REPO = Path(__file__).resolve().parents[1]

GAP_SIZES = [2**k + d for k in range(10, 21, 2) for d in (-1, 0, 1)]
GAP_TILTS = (0.1, 0.3, 1.0)


@pytest.mark.parametrize("method", ["brute", "bangbang"])
def test_printed_gap_is_positive_and_within_one_percent(method):
    worst = Fraction(0)
    for h, n, report in canonical_reports(GAP_TILTS, GAP_SIZES, method):
        half_h_sq = Fraction(h) ** 2 / 2
        gap = Fraction(report.objective) + half_h_sq
        exact = 4 * half_h_sq / (6 * n * n + 4)
        assert gap > 0, (method, h, n, report.objective)
        error = abs(gap - exact) / exact
        assert error <= Fraction(1, 100), (method, h, n, float(error))
        worst = max(worst, error)
    print(f"{method}: worst relative gap error {float(worst):.3g}")


# OpenBLAS kernels the test forces in its children, each with the
# /proc/cpuinfo flag it needs; a kernel the CPU lacks would crash the child
KERNELS = {
    "SkylakeX": "avx512f",
    "Haswell": "avx2",
    "Sandybridge": "avx",
    "Nehalem": "sse4_2",
    "Prescott": None,
}

# commands whose output must not depend on the kernel
GRID = [
    ["solve", "--method", "brute", "--n", "4097", "--h", "1"],
    ["solve", "--method", "brute", "--n", "65536", "--h", "1"],
    ["solve", "--method", "bangbang", "--n", "4097", "--h", "0.3"],
    ["solve", "--method", "pgd", "--n", "1024", "--h", "0.1"],
    ["stability", "--n", "65536", "--h", "1"],
    ["sweep", "--method", "bangbang", "--h-list", "0.1,1", "--n-list", "64,4097",
     "--format", "csv", "--out", "rows.csv"],
    ["sweep", "--method", "bangbang", "--h-list", "0.1,1", "--n-list", "64,4097",
     "--format", "json", "--out", "rows.json"],
]

# the positive control: the BLAS dot of a fixed 2^20-cell vector, which
# does depend on the kernel
CONTROL = """
import numpy as np
v = np.random.default_rng(0).uniform(-1.0, 1.0, 2**20)
print(float(np.dot(v, v)).hex())
"""


def _cpu_flags() -> set[str]:
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return set()
    for line in text.splitlines():
        if line.startswith("flags"):
            return set(line.split(":", 1)[1].split())
    return set()


def _numpy_uses_openblas() -> bool:
    shown = io.StringIO()
    with contextlib.redirect_stdout(shown):
        np.show_config()
    return "openblas" in shown.getvalue().lower()


def _blas_dot(kernel: str) -> str:
    env = dict(os.environ, OPENBLAS_CORETYPE=kernel)
    done = subprocess.run(
        [sys.executable, "-c", CONTROL], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout


def test_output_is_the_same_under_every_blas_kernel():
    if platform.machine() not in ("x86_64", "AMD64"):
        pytest.skip("OpenBLAS kernel names are x86_64 ones")
    if not _numpy_uses_openblas():
        pytest.skip("numpy reports no OpenBLAS")
    flags = _cpu_flags()
    kernels = [k for k, flag in KERNELS.items() if flag is None or flag in flags]
    controls = {_blas_dot(k) for k in kernels}
    if len(controls) < 2:
        pytest.skip(f"the BLAS dot gives one value under {kernels}: no kernel to tell apart")
    runs = {k: diffrun.run_tree(REPO, GRID, {"OPENBLAS_CORETYPE": k}) for k in kernels}
    first = kernels[0]
    differing = {}
    for i, argv in enumerate(GRID):
        for k in kernels[1:]:
            moved = diffrun.case_diff(runs[first][i], runs[k][i])
            if moved:
                differing.setdefault(" ".join(argv), {})[k] = moved
    assert not differing, (
        f"output under {first} and another kernel differs ({len(controls)} control "
        f"values under {kernels}): {differing}"
    )
