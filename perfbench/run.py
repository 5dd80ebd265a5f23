"""The conelab benchmark.

    python3 perfbench/run.py --workload refine --seed 1 --seconds 30 --trace 0

runs rounds of one workload, each in a fresh interpreter (worker.py),
one after another, until the next round would end after --seconds, and
at least MIN_ROUNDS of them.  The last line of stdout is one JSON
object with `correct`, `attempted`, `failed` and `metrics`; a summary
goes to stderr.  `--workload all` runs every workload in turn.

--trace 0 reports the end-to-end metrics of END_TO_END:

    wall_s        median over rounds of the operations' wall time
    setup_s       median over set-ups of interpreter start to ready
                  (SETUP_ONLY extra set-ups, plus one per round)
    peak_rss_mib  median over rounds of the round's ru_maxrss
    ok_ops_frac   operations, probes included, that met their oracle,
                  over operations attempted

--trace 1 alternates untraced and traced rounds and reports the
per-layer metrics of tracer.PER_LAYER, averaged over traced rounds;
`trace.overhead_frac` is the traced median wall time over the untraced
one, minus 1.  The spans of the last traced round are written to
perfbench/out/.

`attempted` and `failed` count the workload's regular operations;
`correct` is true when none of them missed its oracle.  Probes (the
known-defect reproducers of the pgd workload) are judged by the same
oracles and counted in `ok_ops_frac` and the stderr summary only.

BLAS runs on BLAS_THREADS threads in every round.  The benchmark reads
and writes only inside the checkout it is run from, and exits with 2
when that checkout holds no conelab sources.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "conelab")
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("refine", "exact", "pgd", "certify")
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
    "ok_ops_frac": ("frac", "higher"),
}
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
SETUP_ONLY = 4
RUN_LIMIT_S = 170.0
BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """A round could not be run or did not report."""


def _spawn(workload: str, seed: int, trace: bool, setup_only: bool, deadline: float) -> dict:
    env = dict(os.environ, **{var: str(BLAS_THREADS) for var in _THREAD_VARS})
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--trace", str(int(trace))]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--t0", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException as exc:  # timeout, interrupt, SIGTERM: stop the round first
        proc.kill()
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"{workload} round passed the {RUN_LIMIT_S:g} s limit") from exc
        raise
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{workload} round exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.splitlines()[-1])


def _rounds(workload: str, seed: int, seconds: float, trace: bool):
    begin = time.monotonic()
    deadline = begin + RUN_LIMIT_S
    setups = [_spawn(workload, seed, False, True, deadline)["setup_s"] for _ in range(SETUP_ONLY)]
    plain, traced, durations = [], [], []
    while True:
        tracing = trace and len(plain) > len(traced)
        start = time.monotonic()
        result = _spawn(workload, seed, tracing, False, deadline)
        durations.append(time.monotonic() - start)
        (traced if tracing else plain).append(result)
        enough = len(plain) >= (MIN_TRACED_ROUNDS if trace else MIN_ROUNDS)
        if trace:
            enough = enough and len(traced) >= MIN_TRACED_ROUNDS
        if enough and time.monotonic() - begin + statistics.median(durations) > seconds:
            return setups + [r["setup_s"] for r in plain + traced], plain, traced


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return the benchmark's result object."""
    setups, plain, traced = _rounds(workload, seed, seconds, trace)
    rounds = plain + traced
    total = {key: sum(r[key] for r in rounds)
             for key in ("attempted", "failed", "probes", "probes_failed")}
    ops = total["attempted"] + total["probes"]
    missed = total["failed"] + total["probes_failed"]
    summary = {
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in plain),
        "ok_ops_frac": (ops - missed) / ops,
    }
    if trace:
        layers = {name: statistics.fmean(r["layers"][name] for r in traced)
                  for name in tracer.PER_LAYER if name != "trace.overhead_frac"}
        layers["trace.overhead_frac"] = (
            statistics.median(r["wall_s"] for r in traced) / summary["wall_s"] - 1.0)
        metrics = {name: _metric(layers[name], unit)
                   for name, (unit, _) in tracer.PER_LAYER.items()}
        os.makedirs(OUT, exist_ok=True)
        with open(os.path.join(OUT, f"spans-{workload}-seed{seed}.json"), "w") as handle:
            json.dump({"columns": ["name", "start", "end", "parent"],
                       "spans": traced[-1]["spans"]}, handle)
    else:
        metrics = {name: _metric(summary[name], unit) for name, (unit, _) in END_TO_END.items()}

    print(f"{workload} seed={seed}: {len(plain)} untraced and {len(traced)} traced rounds, "
          f"{len(setups)} set-ups, BLAS threads {BLAS_THREADS}", file=sys.stderr)
    for name, (unit, _) in END_TO_END.items():
        print(f"  {name} = {summary[name]:.6g} {unit}", file=sys.stderr)
    print(f"  failed_ops_frac = {missed / ops:.6g} frac ({missed} of {ops} operations, "
          f"{total['probes_failed']} of {total['probes']} probes)", file=sys.stderr)
    for miss in sorted({m for r in rounds for m in r["misses"]}):
        print(f"  miss: {miss}", file=sys.stderr)
    return {"correct": total["failed"] == 0, "attempted": total["attempted"],
            "failed": total["failed"], "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Run the conelab benchmark.")
    p.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"error: no conelab sources at {PACKAGE}", file=sys.stderr)
        return 2
    # The build: byte-compile up front so that no round's set-up compiles.
    if not all(compileall.compile_dir(path, quiet=1) for path in (PACKAGE, HERE)):
        print(f"error: cannot compile {PACKAGE} or {HERE}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: measure(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
