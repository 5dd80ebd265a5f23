"""One round of one workload, in a fresh interpreter started by run.py.

A fresh process per round keeps its peak RSS apart from other rounds and
starts conelab's Gram cache cold, as every CLI invocation does.  The
round prints one JSON object as the last line of its stdout:

    setup_s       monotonic time from --t0 (taken by the parent just
                  before the spawn) to ready: interpreter start, numpy
                  and conelab imports, inputs generated from the seed
    wall_s        summed time of the operations' calls into the program
    cpu_s         process CPU time over those calls
    peak_rss_mib  ru_maxrss of this process
    attempted, failed, probes, probes_failed, misses
    layers, spans per-layer metrics and spans (traced rounds only)

With --setup-only the round stops after set-up and reports setup_s.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def run_ops(ops) -> dict:
    """Run each operation, time its call, and count oracle misses."""
    wall = cpu = 0.0
    counts = {"attempted": 0, "failed": 0, "probes": 0, "probes_failed": 0}
    misses = []
    for op in ops:
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # a crash fails the operation, not the round
            op_misses = [f"raised {exc!r}"]
        else:
            op_misses = None
        wall += time.perf_counter() - t0
        cpu += time.process_time() - c0
        if op_misses is None:
            op_misses = op.check(out)
        counts["probes" if op.probe else "attempted"] += 1
        if op_misses:
            counts["probes_failed" if op.probe else "failed"] += 1
            misses.append(f"{op.label}: {'; '.join(op_misses)}")
    return {**counts, "wall_s": wall, "cpu_s": cpu, "misses": misses}


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, SRC)
    import conelab

    if os.path.dirname(os.path.dirname(os.path.abspath(conelab.__file__))) != SRC:
        print(f"error: conelab imported from {conelab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracer
    import workloads

    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        result = {"setup_s": time.monotonic() - args.t0}
        if args.setup_only:
            print(json.dumps(result))
            return 0
        tr = tracer.Tracer() if args.trace else contextlib.nullcontext()
        with tr:
            result.update(run_ops(ops))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        result["layers"] = tracer.layer_metrics(tr, result["wall_s"], result["cpu_s"])
        result["spans"] = tr.spans()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
