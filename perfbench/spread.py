"""Run-to-run spread of the end-to-end metrics, and the recorded baseline.

    python3 perfbench/spread.py --seeds 1-10 [--workload pgd ...] [--write-baseline]

runs run.py once per workload and seed, untraced, and prints for each
end-to-end metric its median over the runs and the distance between its
first and third quartiles (statistics.quantiles(values, n=4)) as a share
of the median, next to a third of the metric's bound from BENCHMARK.json.
--write-baseline also records the medians and the machine in
perfbench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import run

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")
BASELINE = os.path.join(run.HERE, "baseline.json")


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError:
        return ""


def machine() -> dict:
    """CPU, memory hierarchy and software versions of this machine."""
    model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    probe = ("import json, numpy; c = numpy.show_config(mode='dicts'); "
             "print(json.dumps([numpy.__version__, c['Build Dependencies']['blas']]))")
    numpy_version, blas = json.loads(subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True).stdout)
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT,
                          capture_output=True, text=True)
    return {
        "commit": head.stdout.strip() or None,
        "cpu_model": model,
        "nproc": len(os.sched_getaffinity(0)),
        "l3_cache": _read("/sys/devices/system/cpu/cpu0/cache/index3/size").strip() or None,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": run.BLAS_THREADS},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Measure the benchmark's run-to-run spread.")
    p.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="e.g. 1-10")
    p.add_argument("--workload", action="append", choices=run.WORKLOADS)
    p.add_argument("--write-baseline", action="store_true")
    args = p.parse_args(argv)
    with open(BENCHMARK, encoding="utf-8") as handle:
        bench = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = str(bench["run_seconds"])
    table = {}
    for workload in args.workload or run.WORKLOADS:
        values = {name: [] for name in run.END_TO_END}
        for seed in args.seeds:
            out = subprocess.run(
                [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
                cwd=run.ROOT, capture_output=True, text=True)
            if out.returncode != 0:
                print(out.stderr, file=sys.stderr)
                return 1
            result = json.loads(out.stdout.splitlines()[-1])
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
        table[workload] = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            table[workload][name] = {"median": med, "iqr_share": spread, "values": vals}
            print(f"{workload:8s} {name:13s} median {med:12.6g}  spread {spread:8.4f}  "
                  f"bound/3 {bounds[name] / 3:.4f}{'' if spread < bounds[name] / 3 else '  WIDE'}")
    if args.write_baseline:
        with open(BASELINE, "w", encoding="utf-8") as handle:
            json.dump({"machine": machine(), "run_seconds": bench["run_seconds"],
                       "seeds": args.seeds, "workloads": table}, handle, indent=2)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
