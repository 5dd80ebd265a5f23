"""Command-line interface.

Each command prints a single-line JSON report to standard output and a
short human summary to standard error, so output can be piped without
flags.  Identical invocations produce byte-identical output and files.

Exit codes: 0 when the command's success condition holds, 1 when the
run completed but the condition failed (or an output file could not be
written), 2 for invalid usage, a report holding a non-finite value,
which strict JSON cannot carry, or a run out of memory (nothing is
printed on stdout then).

Each command is declared once, in `_COMMANDS`.  A call builds only the
parser of the command it names; help and usage errors that concern the
whole tool (no command, top-level `--help`, an unknown command, leftover
arguments) are left to the full parser of `build_parser`, so their text
is the same as if it had parsed every call.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .grid import Mesh
from .experiments import (
    _FORMATS,
    SweepConfig,
    perturbation_sweep,
    stability_report,
    write_rows,
)
from .solvers import METHODS, SolverOptions, _unit_step, solve_with_canonical_start
from .ssc import DELTA_CERTIFIED, coercivity_estimate, growth_estimate

_STATIONARITY_LIMIT = 1e-12
_CERTIFIED_SLACK = 1e-9  # rounding allowance of a sampled constant


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return n


def _nonnegative_float(text: str) -> float:
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not 0 <= x < math.inf:
        raise argparse.ArgumentTypeError(
            f"expected a finite number >= 0, got {text!r}"
        )
    return x


def _positive_float(text: str) -> float:
    x = _nonnegative_float(text)
    if x == 0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")
    return x


def _int_list(text: str) -> list[int]:
    return [_positive_int(part) for part in text.split(",") if part != ""]


def _float_list(text: str) -> list[float]:
    return [_nonnegative_float(part) for part in text.split(",") if part != ""]


def _emit(payload: dict, summary: str) -> None:
    print(json.dumps(payload, allow_nan=False))
    print(summary, file=sys.stderr)


def _cmd_verify_ssc(args: argparse.Namespace) -> int:
    mesh = Mesh(args.n)
    stationarity = _unit_step(mesh, 0.0, 0.0, np.zeros(mesh.n))[3]
    report = coercivity_estimate(mesh, samples=args.samples, seed=args.seed)
    checks = {
        "apex stationarity": stationarity <= _STATIONARITY_LIMIT,
        "certified bound": report.beta_estimate >= report.beta_certified - _CERTIFIED_SLACK,
        "chain": report.chain_checks_passed,
    }
    failed = ", ".join(name for name, passed in checks.items() if not passed)
    _emit(
        {"stationarity": stationarity, **report.as_dict()},
        f"apex stationarity {stationarity:.3e}, beta_estimate "
        f"{report.beta_estimate:.9f} vs certified {report.beta_certified:.9f}: "
        f"{f'FAIL ({failed})' if failed else 'ok'}",
    )
    return 1 if failed else 0


def _cmd_solve(args: argparse.Namespace) -> int:
    mesh = Mesh(args.n)
    opts = SolverOptions(max_iterations=args.max_iter, tolerance=args.tol)
    report = solve_with_canonical_start(args.h, mesh, args.method, opts)
    _emit(
        report.as_dict(),
        f"{args.method} at n={args.n}, h={args.h:g}: f_star={report.objective:.12g} "
        f"t_star={report.minimizer.t:.12g} converged={report.converged}",
    )
    return 0 if report.converged else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = SweepConfig(
        h_list=tuple(args.h_list),
        n_list=tuple(args.n_list),
        method=args.method,
    )
    rows = perturbation_sweep(cfg)
    write_rows(rows, args.out, args.format)
    print(f"wrote {len(rows)} rows to {args.out}", file=sys.stderr)
    return 0


def _cmd_growth(args: argparse.Namespace) -> int:
    mesh = Mesh(args.n)
    report = growth_estimate(
        mesh, epsilon=args.epsilon, samples=args.samples, seed=args.seed
    )
    ok = report.delta_estimate >= DELTA_CERTIFIED - _CERTIFIED_SLACK
    _emit(
        report.as_dict(),
        f"delta_estimate {report.delta_estimate:.9f} vs certified {DELTA_CERTIFIED:g}: "
        f"{'ok' if ok else 'FAIL'}",
    )
    return 0 if ok else 1


def _cmd_stability(args: argparse.Namespace) -> int:
    record = stability_report(args.h, Mesh(args.n), args.delta)
    row = record.row
    _emit(
        record.as_dict(),
        f"norm {row.norm_x:.6g} vs bound {row.prop2_bound:.6g} "
        f"(slack {record.slack:.6g}): {'ok' if row.prop2_ok else 'FAIL'}",
    )
    return 0 if row.prop2_ok else 1


# each command once: name -> (help, handler, argument specs), in the
# order of the top-level help
_N = ("--n", {"type": _positive_int, "required": True, "help": "mesh cells"})
_H = ("--h", {"type": _nonnegative_float, "required": True, "help": "tilt"})
_METHOD = ("--method", {"choices": METHODS, "default": "bangbang"})
_SAMPLES = ("--samples", {"type": _positive_int, "default": 10000})
_SEED = ("--seed", {"type": int, "default": 0})
_COMMANDS = {
    "verify-ssc": (
        "check apex stationarity and the sampled coercivity bound",
        _cmd_verify_ssc,
        (_N, _SAMPLES, _SEED),
    ),
    "solve": (
        "minimize f_h on one mesh",
        _cmd_solve,
        (
            _N,
            _H,
            _METHOD,
            ("--tol", {"type": _positive_float, "default": SolverOptions().tolerance}),
            ("--max-iter", {"type": _positive_int, "default": SolverOptions().max_iterations}),
        ),
    ),
    "sweep": (
        "solve over a grid of (h, n) and write rows",
        _cmd_sweep,
        (
            ("--n-list", {"type": _int_list, "required": True,
                          "help": "comma-separated mesh sizes"}),
            ("--h-list", {"type": _float_list, "required": True,
                          "help": "comma-separated tilts"}),
            _METHOD,
            ("--out", {"required": True, "help": "output file path"}),
            ("--format", {"choices": _FORMATS, "default": "csv"}),
        ),
    ),
    "growth": (
        "sample the quadratic-growth constant at the apex",
        _cmd_growth,
        (_N, _SAMPLES, ("--epsilon", {"type": _positive_float, "default": 1.0}), _SEED),
    ),
    "stability": (
        "audit the bound ||minimizer|| <= 2 h / delta",
        _cmd_stability,
        (_N, _H, ("--delta", {"type": _positive_float, "default": DELTA_CERTIFIED})),
    ),
}


def _add_command(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    _, handler, specs = _COMMANDS[name]
    for flag, kwargs in specs:
        parser.add_argument(flag, **kwargs)
    parser.set_defaults(func=handler)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The full parser: every command as a subcommand of `conelab`."""
    parser = argparse.ArgumentParser(
        prog="conelab",
        description=(
            "Numerical laboratory for minimizing f_h(t, u) = t^2 + ||Su||^2 "
            "- ||u||^2/2 - h t over the cone |u| <= t."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _COMMANDS.items():
        _add_command(sub.add_parser(name, help=help_text), name)
    return parser


def _attach_values(argv: list[str]) -> list[str]:
    # argparse reads a value that starts with "-", such as "-1e-5" or
    # "-0,0.1", as a flag; every option here takes exactly one value, so
    # the token after "--name" is written "--name=VALUE" and is always
    # that option's value ("--", "--help" and "--name=VALUE" take none)
    out: list[str] = []
    for arg in argv:
        last = out[-1] if out else ""
        if last.startswith("--") and last not in ("--", "--help") and "=" not in last:
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    argv = _attach_values(sys.argv[1:] if argv is None else argv)
    # a command's own parser reads, and rejects, its arguments as the
    # full parser's subparser would; only leftovers name the whole tool
    name = argv[0] if argv else None
    if name in _COMMANDS:
        own = _add_command(argparse.ArgumentParser(prog=f"conelab {name}"), name)
        args, extra = own.parse_known_args(argv[1:], argparse.Namespace(command=name))
    if name not in _COMMANDS or extra:
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
