"""Differential run: one grid of `conelab` commands on two checkouts.

    python tests/diffrun.py PARENT CHILD

Each checkout runs the grid (CASES) in a child process of its own, with
that checkout's `src` first on the path, through `conelab.cli.main`.
Every case runs in a fresh directory and records its exit code, stdout,
stderr and the files it wrote.  Numpy's warnings are recorded as
"module: category: message" lines, so neither a line number nor a path
shows; in all other text the checkout's path and the run's temporary
directory are replaced by fixed text, as are the random names of the
temporary files a sweep writes before renaming them.

A case named in LIBRARY calls the library instead, for what the grid
of commands never reaches: "solve_pgd --seed S --n N --start K" prints
the to_json of solve_pgd(0.1, ...) from start K of N cells of the
benchmark's pgd workload for seed S, each of its 48 starts one case.

The two runs are then compared case by case.  A report or a written JSON
or CSV file is compared field by field (a sweep row's fields by name,
over all its rows), so the output lists each differing case under its
command and the fields that moved, and ends with one summary line.  The
exit status is 0 when no case differs, 1 when some case does, and 2 when
a checkout's run fails.

Both checkouts run under the same environment, so the same BLAS kernel
and the same CPU count.  Each `verify-ssc` and `growth` case also runs
with `conelab.ssc._workers` patched to each count of WORKERS: in each
checkout the run with one worker is the case's reference, the one
compared across checkouts, and every other run (2, 8 and the unpatched
default) must match it.  A field that moves there is reported as
"workers=W: field", prefixed "parent " in the parent checkout.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from collections import defaultdict
from pathlib import Path
from unittest import mock

METHODS = ("pgd", "bangbang", "brute")
SIZES = (1, 2, 3, 8, 64, 65, 1000, 4097, 65536)
TILTS = ("0", "0.1", "0.3", "1", "1e-13", "1e150", "1e200")
# tilts whose optimum or objective sits at the ends of the float range
TRAP_TILTS = ("1e308", "1.7e308", "5e-324")
SCALED_TILTS = (repr(0.3 * 2.0**20), repr(0.3 * 2.0**-20))
COMMANDS = ("verify-ssc", "solve", "sweep", "growth", "stability")
SSC_COMMANDS = ("verify-ssc", "growth")
# the worker counts an SSC case runs with; None leaves _workers unpatched
WORKERS = (1, 2, 8, None)
# the pgd workload: PGD_STARTS uniform starts with t = 1 at each size of
# PGD_N in turn, drawn from one generator per seed
PGD_SEEDS, PGD_N, PGD_STARTS, PGD_H = (1, 2, 3), (1024, 2048), 8, 0.1


def _grid() -> list[list[str]]:
    cases = [
        ["solve", "--method", method, "--n", str(n), "--h", h]
        for method in METHODS
        for n in SIZES
        for h in TILTS
    ]
    cases += [["stability", "--n", str(n), "--h", h] for n in (1, 8, 1000, 65536) for h in TILTS]
    for n in (1, 8, 1000):
        for h in TRAP_TILTS:
            cases += [["solve", "--method", method, "--n", str(n), "--h", h] for method in METHODS]
            cases.append(["stability", "--n", str(n), "--h", h])
    cases += [
        ["solve", "--method", method, "--n", str(n), "--h", "0.3", *controls]
        for method in METHODS
        for n in (8, 64)
        for controls in (["--tol", "1e-20"], ["--max-iter", "1"], ["--max-iter", "3", "--tol", "1e-3"])
    ]
    cases += [
        ["sweep", "--method", method, "--h-list", "0,0.1,1", "--n-list", "1,8,65,4097",
         "--format", fmt, "--out", f"rows.{fmt}"]
        for method in METHODS
        for fmt in ("csv", "json")
    ]
    # a write that fails names the sweep's temporary file
    cases.append(["sweep", "--method", "brute", "--h-list", "0.1", "--n-list", "8",
                  "--out", "missing/rows.csv"])
    for command in SSC_COMMANDS:
        cases += [
            [command, "--n", str(n), "--samples", str(samples), "--seed", "1"]
            for n, samples in ((1, 1000), (8, 1000), (2048, 1000), (8193, 64))
        ]
    # a tilt of -0, which needs the attached form "--h=-0"
    cases += [["solve", "--method", method, "--n", "8", "--h=-0"] for method in METHODS]
    cases.append(["stability", "--n", "8", "--h=-0"])
    cases += [
        ["sweep", "--method", method, "--h-list=-0,0.1", "--n-list", "1,8", "--out", "rows.csv"]
        for method in METHODS
    ]
    # PGD at the tilts 0.3 * 2^20 and 0.3 * 2^-20, whose reports are
    # the one at 0.3 scaled
    cases += [
        ["solve", "--method", "pgd", "--n", str(n), "--h", h]
        for n in (1, 8, 64, 1000)
        for h in SCALED_TILTS
    ]
    # help, and usage errors: an unknown flag, a missing --n, an unknown
    # method and a leftover argument
    cases.append(["--help"])
    cases += [[command, "--help"] for command in COMMANDS]
    cases += [
        ["solve", "--n", "8", "--h", "0.1", "--bogus", "1"],
        ["solve", "--h", "0.1"],
        ["solve", "--method", "newton", "--n", "8", "--h", "0.1"],
        ["solve", "--n", "8", "--h", "0.1", "extra"],
    ]
    cases += [
        ["solve_pgd", "--seed", str(seed), "--n", str(n), "--start", str(k)]
        for seed in PGD_SEEDS
        for n in PGD_N
        for k in range(PGD_STARTS)
    ]
    return cases


CASES = _grid()

_TEMP_NAME = re.compile(r"tmp[a-z0-9_]{8}\.tmp")


def _fixed(text: str, workdir: str, tree: str) -> str:
    text = text.replace(workdir, "<tmp>").replace(tree, "<tree>")
    return _TEMP_NAME.sub("<tempfile>", text)


def _solve_pgd(argv: list[str]) -> int:
    # the library case "solve_pgd --seed S --n N --start K" (LIBRARY)
    import numpy as np
    from conelab import ConePoint, GridFunction, Mesh, solve_pgd

    options = dict(zip(argv[1::2], argv[2::2]))
    n, k = int(options["--n"]), int(options["--start"])
    rng = np.random.default_rng(int(options["--seed"]))
    starts = [(size, i) for size in PGD_N for i in range(PGD_STARTS)]
    for size, _ in starts[: starts.index((n, k))]:
        rng.uniform(-1.0, 1.0, size=size)  # the starts drawn before it
    mesh = Mesh(n)
    start = ConePoint(1.0, GridFunction(mesh, rng.uniform(-1.0, 1.0, size=n)))
    print(solve_pgd(PGD_H, mesh, start).to_json())
    return 0


LIBRARY = {"solve_pgd": _solve_pgd}


def _run_case(argv: list[str], workdir: Path, tree: Path, workers: int | None) -> dict:
    from conelab import cli, ssc

    workdir.mkdir(parents=True)
    os.chdir(workdir)
    stdout, stderr = io.StringIO(), io.StringIO()
    count = (lambda n, samples: workers) if workers else ssc._workers
    with mock.patch.object(ssc, "_workers", count), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = LIBRARY.get(argv[0], cli.main)(list(argv))
            except SystemExit as exc:
                code = exc.code
    notes = "".join(
        f"{Path(w.filename).stem}: {w.category.__name__}: {w.message}\n" for w in caught
    )
    files = {
        path.relative_to(workdir).as_posix(): path.read_text(errors="replace")
        for path in sorted(workdir.rglob("*"))
        if path.is_file()
    }
    fixed = functools.partial(_fixed, workdir=str(workdir), tree=str(tree))
    return {
        "exit": code,
        "stdout": fixed(stdout.getvalue()),
        "stderr": fixed(stderr.getvalue() + notes),
        "files": {fixed(name): fixed(text) for name, text in files.items()},
    }


def _label(workers: int | None) -> str:
    return "default" if workers is None else str(workers)


def _run(argv: list[str], workdir: Path, tree: Path) -> dict:
    # a case's result; an SSC case's is its run with WORKERS[0], which
    # holds its runs with the other counts under "workers", by _label
    if argv[0] not in SSC_COMMANDS:
        return _run_case(argv, workdir, tree, None)
    first, *others = WORKERS
    result = _run_case(argv, workdir / _label(first), tree, first)
    result["workers"] = {_label(w): _run_case(argv, workdir / _label(w), tree, w) for w in others}
    return result


def _worker() -> None:
    # in the child: read the tree and the cases from stdin, print the results
    job = json.load(sys.stdin)
    tree = Path(job["tree"])
    import conelab

    if not Path(conelab.__file__).resolve().is_relative_to(tree / "src"):
        raise SystemExit(f"conelab was imported from {conelab.__file__}, not {tree}")
    root = Path(tempfile.mkdtemp(prefix="diffrun-"))
    try:
        results = [_run(argv, root / f"case{i}", tree) for i, argv in enumerate(job["cases"])]
    finally:
        os.chdir(tree)
        shutil.rmtree(root)
    json.dump(results, sys.stdout)


def run_tree(tree: Path, cases: list[list[str]], env: dict | None = None) -> list[dict]:
    """The results of cases on the checkout at tree, run in a child process.

    An SSC case's result is its run with one worker, and holds its runs
    with the other counts of WORKERS under "workers".  The child
    inherits this process's environment, with env added.
    """
    tree = Path(tree).resolve()
    env = dict(os.environ, **(env or {}), PYTHONPATH=str(tree / "src"))
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--worker"],
        input=json.dumps({"tree": str(tree), "cases": cases}),
        env=env, capture_output=True, text=True, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"the run of {tree} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def _leaves(value, path: str = ""):
    # (path, value) of every field; rows of a list of objects share paths
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list) and value and all(isinstance(v, dict) for v in value):
        for item in value:
            yield from _leaves(item, path)
    else:
        yield path, value


def _parsed(text: str, kind: str):
    # a JSON or CSV text as data, numbers kept as their text (so -0.0 is
    # not 0.0), or None where it does not parse
    try:
        if kind == "csv":
            return list(csv.DictReader(io.StringIO(text)))
        return json.loads(text, parse_float=str, parse_int=str)
    except ValueError:
        return None


def _field_diff(old: str, new: str, kind: str, whole: str, prefix: str = "") -> list[str]:
    """Names of the fields in which two texts differ ([] when equal).

    Where a text does not parse, or differs with equal fields (spacing,
    key order), the one name is whole.
    """
    if old == new:
        return []
    a, b = _parsed(old, kind), _parsed(new, kind)
    if a is None or b is None or type(a) is not type(b):
        return [whole]
    fields_a, fields_b = defaultdict(list), defaultdict(list)
    for path, value in _leaves(a):
        fields_a[path].append(value)
    for path, value in _leaves(b):
        fields_b[path].append(value)
    moved = sorted(p for p in fields_a.keys() | fields_b.keys() if fields_a[p] != fields_b[p])
    return [f"{prefix}{p}" for p in moved] or [whole]


def _workers_diff(result: dict, prefix: str) -> list[str]:
    # what moves from a case's result to its runs with other worker counts
    return [
        f"{prefix}workers={label}: {field}"
        for label, run in result.get("workers", {}).items()
        for field in case_diff(result, run)
    ]


def case_diff(old: dict, new: dict) -> list[str]:
    """What differs between two results of one case: exit, stderr, fields."""
    moved = []
    if old["exit"] != new["exit"]:
        moved.append("exit")
    if old["stderr"] != new["stderr"]:
        moved.append("stderr")
    moved += _field_diff(old["stdout"], new["stdout"], "json", "stdout")
    for name in sorted(old["files"].keys() | new["files"].keys()):
        a, b = old["files"].get(name), new["files"].get(name)
        if a is None or b is None:
            moved.append(f"file {name}")
        else:
            kind = Path(name).suffix.lstrip(".")
            moved += _field_diff(a, b, kind, f"file {name}", f"file {name}: ")
    return moved


def command_of(argv: list[str]) -> str:
    """The group a case is reported under: its command, and its method."""
    if "--method" in argv:
        return f"{argv[0]} {argv[argv.index('--method') + 1]}"
    return argv[0]


def compare(parent: Path, child: Path, cases: list[list[str]] = CASES) -> dict:
    """Run cases on both checkouts; {(command, field): [differing argv]} and a summary."""
    old, new = run_tree(parent, cases), run_tree(child, cases)
    groups = defaultdict(list)
    differing = 0
    for argv, a, b in zip(cases, old, new):
        moved = case_diff(a, b) + _workers_diff(b, "") + _workers_diff(a, "parent ")
        differing += bool(moved)
        for field in moved:
            groups[command_of(argv), field].append(argv)
    exits = sum(len(group) for (_, field), group in groups.items() if field == "exit")
    summary = (f"diffrun: {differing} of {len(cases)} cases differ "
               f"({exits} in exit code, {len(groups)} command/field groups)")
    return {"groups": dict(groups), "differing": differing, "summary": summary}


def main(argv: list[str]) -> int:
    if argv == ["--worker"]:
        _worker()
        return 0
    if len(argv) != 2:
        print("usage: python tests/diffrun.py PARENT CHILD", file=sys.stderr)
        return 2
    try:
        result = compare(Path(argv[0]), Path(argv[1]))
    except RuntimeError as error:
        print(error, file=sys.stderr)
        return 2
    for (command, field), cases in sorted(result["groups"].items()):
        print(f"{command}: {field}: {len(cases)} cases")
        for case in cases:
            print("    " + " ".join(case))
    print(result["summary"])
    return 1 if result["differing"] else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
