"""Span tracing of conelab's layers from outside the program.

`Tracer` wraps the public functions listed in `TARGETS` and binds each
wrapper in every loaded conelab module that imported the name, so a
call is recorded whichever import path it took (`apply_SstarS` is bound
in `operators`, `objective`, `solvers` and the package itself).  Spans
(name, start, end, parent) are kept in memory; counters are taken at
the same boundaries.  `layer_metrics` turns one traced round into the
per-layer metrics of `PER_LAYER`.

Self time is a span's duration minus the durations of its child spans.
Every wrapped function reports its self time, so the self times plus
`trace.unattributed_s` add up to the traced wall time.

Byte counts are computed from array sizes, not measured.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import Counter, defaultdict

import oracle

# (module, attribute) of every traced callable; "Class.method" wraps a method.
TARGETS = (
    ("operators", "gram_matrix"),
    ("operators", "apply_SstarS"),
    ("operators", "norm_S_sq"),
    ("operators", "op_norm_SstarS"),
    ("solvers", "solve_bangbang"),
    ("solvers", "solve_bruteforce"),
    ("solvers", "solve_pgd"),
    ("solvers", "pontryagin_check"),
    ("cone", "project"),
    ("cone", "stationarity_residual"),
    ("objective", "value"),
    ("objective", "gradient"),
    ("objective", "quadratic_decrease"),
    ("grid", "GridFunction.__init__"),
    ("ssc", "coercivity_estimate"),
    ("ssc", "growth_estimate"),
    ("ssc", "check_stationarity"),
    ("experiments", "perturbation_sweep"),
    ("experiments", "write_rows"),
    ("cli", "main"),
)

# Span names drop the method part: "grid.GridFunction".
SPAN_NAMES = {f"{mod}.{attr}": f"{mod}.{attr.split('.__')[0]}" for mod, attr in TARGETS}

# name -> (unit, better).  Times are seconds per traced round.
PER_LAYER = {
    "operators.gram_matrix.calls": ("count", "lower"),
    "operators.gram_matrix.builds": ("count", "lower"),
    "operators.gram_matrix.self_s": ("s", "lower"),
    "operators.gram_bytes_computed": ("bytes", "lower"),
    "operators.apply_SstarS.calls": ("count", "lower"),
    "operators.apply_SstarS.self_s": ("s", "lower"),
    "operators.apply_SstarS.bytes_computed": ("bytes", "lower"),
    "operators.norm_S_sq.calls": ("count", "lower"),
    "operators.norm_S_sq.self_s": ("s", "lower"),
    "operators.op_norm_SstarS.calls": ("count", "lower"),
    "operators.op_norm_SstarS.self_s": ("s", "lower"),
    "solvers.solve_bangbang.self_s": ("s", "lower"),
    "solvers.solve_bangbang.sweeps": ("count", "lower"),
    "solvers.solve_bruteforce.self_s": ("s", "lower"),
    "solvers.solve_bruteforce.patterns": ("count", "lower"),
    "solvers.solve_bruteforce.patterns_per_s": ("1/s", "higher"),
    "solvers.solve_pgd.self_s": ("s", "lower"),
    "solvers.solve_pgd.iterations": ("count", "lower"),
    "solvers.pgd.steps_accepted_per_projection": ("ratio", "higher"),
    "solvers.pgd.certified_frac": ("frac", "higher"),
    "solvers.pontryagin_check.self_s": ("s", "lower"),
    "cone.project.calls": ("count", "lower"),
    "cone.project.self_s": ("s", "lower"),
    "cone.stationarity_residual.calls": ("count", "lower"),
    "cone.stationarity_residual.self_s": ("s", "lower"),
    "objective.value.calls": ("count", "lower"),
    "objective.value.self_s": ("s", "lower"),
    "objective.gradient.calls": ("count", "lower"),
    "objective.gradient.self_s": ("s", "lower"),
    "objective.quadratic_decrease.calls": ("count", "lower"),
    "objective.quadratic_decrease.self_s": ("s", "lower"),
    "grid.GridFunction.constructions": ("count", "lower"),
    "grid.GridFunction.self_s": ("s", "lower"),
    "ssc.coercivity_estimate.self_s": ("s", "lower"),
    "ssc.growth_estimate.self_s": ("s", "lower"),
    "ssc.check_stationarity.self_s": ("s", "lower"),
    "ssc.directions_per_s": ("1/s", "higher"),
    "experiments.perturbation_sweep.self_s": ("s", "lower"),
    "experiments.write_rows.self_s": ("s", "lower"),
    "experiments.write_rows.bytes": ("bytes", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "cli.stdout_bytes": ("bytes", "lower"),
    "process.cpu_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
    "trace.unattributed_s": ("s", "lower"),
}

_FLOAT_BYTES = 8


class Tracer:
    """Records spans and counters while installed (use as a context manager)."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: Counter = Counter()
        self.bindings: dict[str, list[str]] = defaultdict(list)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for mod, attr in TARGETS:
            self._install(mod, attr)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _install(self, mod: str, attr: str) -> None:
        module = importlib.import_module(f"conelab.{mod}")
        owner, _, method = attr.rpartition(".")
        if owner:
            cls = getattr(module, owner, None)
            original = getattr(cls, method, None)
            if original is None:
                return  # the program no longer has this layer
            self._bind(cls, method, original, self._wrap(f"{mod}.{attr}", original))
            self.bindings[f"{mod}.{attr}"].append(f"conelab.{mod}.{owner}")
            return
        original = getattr(module, attr, None)
        if original is None:
            return
        wrapper = self._wrap(f"{mod}.{attr}", original)
        for name, loaded in list(sys.modules.items()):
            if name != "conelab" and not name.startswith("conelab."):
                continue
            for key, val in list(vars(loaded).items()):
                if val is original:
                    self._bind(loaded, key, original, wrapper)
                    self.bindings[f"{mod}.{attr}"].append(name)

    def _bind(self, owner, attr: str, original, wrapper) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, target: str, fn):
        name = SPAN_NAMES[target]
        before, after = _HOOKS.get(name, (None, None))
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self._stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            state = before() if before else None
            stack.append(idx)
            starts[idx] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = time.perf_counter()
                stack.pop()
            self.counts[name] += 1
            if after:
                after(self, idx, state, args, kwargs, result)
            return result

        return traced

    def inside(self, idx: int, name: str) -> bool:
        """Whether span idx has an ancestor called name."""
        parent = self.parents[idx]
        while parent >= 0:
            if self.names[parent] == name:
                return True
            parent = self.parents[parent]
        return False

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.names)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[idx] - self.starts[idx]
        out: dict[str, float] = defaultdict(float)
        for idx, name in enumerate(self.names):
            out[name] += self.ends[idx] - self.starts[idx] - child[idx]
        return out

    def inclusive_time(self, name: str) -> float:
        """Time under spans called name, not counting nested ones twice."""
        return sum(
            self.ends[i] - self.starts[i]
            for i, n in enumerate(self.names)
            if n == name and not self.inside(i, name)
        )

    def spans(self) -> list[tuple[str, float, float, int]]:
        return list(zip(self.names, self.starts, self.ends, self.parents))


def _gram_cache():
    from conelab import operators

    return getattr(operators, "_gram", None)


def _gram_before():
    cache = _gram_cache()
    return cache.cache_info().misses if hasattr(cache, "cache_info") else None


def _gram_after(tr, idx, misses, args, kwargs, result):
    size = _FLOAT_BYTES * int(getattr(result, "size", 0))
    if misses is not None and _gram_cache().cache_info().misses > misses:
        tr.counts["gram_builds"] += 1
        tr.counts["gram_bytes"] += size
    parent = tr.parents[idx]
    if parent >= 0 and tr.names[parent] == "operators.apply_SstarS":
        tr.counts["apply_bytes"] += size


def _pgd_after(tr, idx, state, args, kwargs, report):
    h = args[0] if args else kwargs["h"]
    mesh = args[1] if len(args) > 1 else kwargs["mesh"]
    tr.counts["pgd_solves"] += 1
    tr.counts["pgd_iterations"] += report.iterations
    if not oracle.pgd_report_certificate(report, h, mesh.n):
        tr.counts["pgd_certified"] += 1


def _project_after(tr, idx, state, args, kwargs, result):
    if tr.inside(idx, "solvers.solve_pgd"):
        tr.counts["pgd_projections"] += 1


def _counter_after(key, attr):
    def after(tr, idx, state, args, kwargs, result):
        tr.counts[key] += getattr(result, attr)

    return after


def _write_rows_after(tr, idx, state, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tr.counts["rows_bytes"] += os.path.getsize(path)


def _stdout_pos():
    try:
        return sys.stdout.tell()
    except (AttributeError, OSError, ValueError):
        return None


def _main_after(tr, idx, pos, args, kwargs, result):
    end = _stdout_pos()
    if pos is not None and end is not None:
        tr.counts["stdout_bytes"] += end - pos


_HOOKS = {
    "operators.gram_matrix": (_gram_before, _gram_after),
    "solvers.solve_pgd": (None, _pgd_after),
    "solvers.solve_bangbang": (None, _counter_after("bangbang_sweeps", "iterations")),
    "solvers.solve_bruteforce": (None, _counter_after("patterns", "iterations")),
    "cone.project": (None, _project_after),
    "ssc.coercivity_estimate": (None, _counter_after("directions", "samples")),
    "ssc.growth_estimate": (None, _counter_after("directions", "samples")),
    "experiments.write_rows": (None, _write_rows_after),
    "cli.main": (_stdout_pos, _main_after),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, wall_s: float, cpu_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced round whose operations took wall_s.

    `trace.overhead_frac` needs an untraced round and is filled in by the
    caller.
    """
    self_s = tr.self_times()
    c = tr.counts
    out = {
        "operators.gram_matrix.builds": c["gram_builds"],
        "operators.gram_bytes_computed": c["gram_bytes"],
        "operators.apply_SstarS.bytes_computed": c["apply_bytes"],
        "solvers.solve_bangbang.sweeps": c["bangbang_sweeps"],
        "solvers.solve_bruteforce.patterns": c["patterns"],
        "solvers.solve_bruteforce.patterns_per_s": _ratio(
            c["patterns"], tr.inclusive_time("solvers.solve_bruteforce")),
        "solvers.solve_pgd.iterations": c["pgd_iterations"],
        "solvers.pgd.steps_accepted_per_projection": _ratio(
            c["pgd_iterations"], c["pgd_projections"]),
        "solvers.pgd.certified_frac": _ratio(c["pgd_certified"], c["pgd_solves"]),
        "grid.GridFunction.constructions": c["grid.GridFunction"],
        "ssc.directions_per_s": _ratio(
            c["directions"],
            tr.inclusive_time("ssc.coercivity_estimate")
            + tr.inclusive_time("ssc.growth_estimate")),
        "experiments.write_rows.bytes": c["rows_bytes"],
        "cli.stdout_bytes": c["stdout_bytes"],
        "process.cpu_s": cpu_s,
        "trace.wall_s": wall_s,
        "trace.unattributed_s": wall_s - sum(self_s.values()),
    }
    for metric in PER_LAYER:
        name, _, field = metric.rpartition(".")
        if field == "calls":
            out[metric] = c[name]
        elif field == "self_s":
            out[metric] = self_s.get(name, 0.0)
    return out
