"""Spans around sfhpoly's public functions, installed from outside the package.

`Tracer.install` replaces every public function and public method of the
six modules by a wrapper that records a span (name, start, end, parent).
A function is replaced wherever an sfhpoly module binds it, under any
name, so calls between modules are traced too.  `uninstall` puts the
originals back.  Spans stay in memory until `drain`; the layer metrics are
derived from them after the run.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import Counter
from time import perf_counter

MODULES = ("shdcli", "builders", "diagram", "floer", "exactalg", "polytope")

# Functions that only run while the inputs are built; their metrics count
# the traced set-up.  Every other metric counts one traced pass.
SETUP_FUNCTIONS = ("builders.build_tpqn", "builders.glue", "shdcli.emit_shd")

SELF_TIMES = (
    "shdcli.parse_shd", "shdcli.emit_shd",
    "builders.build_tpqn", "builders.glue",
    "diagram.validate", "diagram.h1_presentation", "diagram.periodic_lattice",
    "diagram.is_admissible",
    "floer.enumerate_generators", "floer.partition_spinc",
    "floer.connecting_domain", "floer.maslov_index", "floer.differential",
    "floer.homology",
    "exactalg.smith_normal_form", "exactalg.exact_det",
    "exactalg.gf2_rank_kernel", "exactalg.convex_hull",
    "exactalg.body_centroid",
    "polytope.build_polytope", "polytope.face_query", "polytope.seminorm_y",
)
CALL_COUNTS = (
    "diagram.h1_presentation", "diagram.periodic_lattice", "floer.epsilon",
    "floer.connecting_domain", "floer.maslov_index",
    "exactalg.smith_normal_form", "exactalg.exact_det",
    "exactalg.LinearSolver.solve",
)
# counts read off arguments and results: metric -> function it is read from
DERIVED_COUNTS = {
    "floer.generators": "floer.enumerate_generators",
    "floer.classes": "floer.partition_spinc",
    "floer.class_pairs": "floer.partition_spinc",
    "exactalg.smith_normal_form.max_cells": "exactalg.smith_normal_form",
}
MODULE_TOTALS = ("shdcli", "diagram", "floer", "exactalg", "polytope")


def _class_counts(args, result, counts: Counter) -> None:
    sizes = Counter(a.class_id for a in result)
    counts["floer.classes"] += len(sizes)
    counts["floer.class_pairs"] += sum(s * s for s in sizes.values())


def _snf_cells(args, result, counts: Counter) -> None:
    a = args[0]
    cells = len(a) * (len(a[0]) if len(a) else 0)
    key = "exactalg.smith_normal_form.max_cells"
    counts[key] = max(counts[key], cells)


def _generator_count(args, result, counts: Counter) -> None:
    counts["floer.generators"] += len(result)


HOOKS = {
    "floer.enumerate_generators": _generator_count,
    "floer.partition_spinc": _class_counts,
    "exactalg.smith_normal_form": _snf_cells,
}


def _is_function(obj) -> bool:
    """Plain functions and lru_cache-wrapped ones."""
    return inspect.isfunction(obj) or (callable(obj)
                                       and hasattr(obj, "cache_info"))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []       # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.absent: set[str] = set()     # functions missing from the code
        self._stack: list[int] = []
        self._sites: list[tuple[object, str, object, object]] = []
        self.names: set[str] = set()
        self._discover()

    def _discover(self) -> None:
        """Every (owner, attribute) that binds a public function."""
        modules = {m: importlib.import_module(f"sfhpoly.{m}") for m in MODULES}
        everywhere = [mod for name, mod in sorted(sys.modules.items())
                      if name == "sfhpoly" or name.startswith("sfhpoly.")]
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") \
                        or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if _is_function(obj):
                    name = f"{short}.{attr}"
                    wrapper = self._wrap(name, obj)
                    for owner in everywhere:
                        for alias, value in list(vars(owner).items()):
                            if value is obj:
                                self._sites.append((owner, alias, obj,
                                                    wrapper))
                    self.names.add(name)
                elif inspect.isclass(obj):
                    for mname, meth in vars(obj).items():
                        if mname.startswith("_") \
                                or not inspect.isfunction(meth):
                            continue
                        name = f"{short}.{attr}.{mname}"
                        self._sites.append((obj, mname, meth,
                                            self._wrap(name, meth)))
                        self.names.add(name)
        wanted = set(SELF_TIMES) | set(CALL_COUNTS) \
            | set(DERIVED_COUNTS.values())
        self.absent = wanted - self.names

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        hook = HOOKS.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                try:
                    hook(args, result, counts)
                except (AttributeError, TypeError, IndexError):
                    self.absent.add(name + " (its counts)")
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        for owner, attr, _, wrapper in self._sites:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._sites:
            setattr(owner, attr, original)

    def drain(self) -> tuple[list[list], Counter]:
        """Spans and counts recorded since the last drain."""
        spans, counts = self.spans[:], Counter(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def self_times(spans: list[list]) -> dict[str, list]:
    """name -> [self seconds, calls]; self time excludes nested spans."""
    nested = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            nested[parent] += end - start
    out: dict[str, list] = {}
    for (name, start, end, _), inner in zip(spans, nested):
        entry = out.setdefault(name, [0.0, 0])
        entry[0] += end - start - inner
        entry[1] += 1
    return out


def layer_metrics(tracer: Tracer, setup, chosen, run_s: float,
                  untraced_run_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the traced set-up and one traced pass."""
    setup_spans, _ = setup
    pass_spans, pass_counts = chosen
    in_setup, in_pass = self_times(setup_spans), self_times(pass_spans)
    absent = tracer.absent
    metrics: dict[str, tuple[float, str]] = {}

    def source(fn: str):
        return in_setup if fn in SETUP_FUNCTIONS else in_pass

    for fn in SELF_TIMES:
        if fn not in absent:
            metrics[f"{fn}.s"] = (source(fn).get(fn, [0.0, 0])[0], "s")
    for fn in CALL_COUNTS:
        if fn not in absent:
            metrics[f"{fn}.calls"] = (source(fn).get(fn, [0.0, 0])[1],
                                      "count")
    for metric, fn in DERIVED_COUNTS.items():
        if fn not in absent and fn + " (its counts)" not in absent:
            metrics[metric] = (pass_counts.get(metric, 0), "count")
    for module in MODULE_TOTALS:
        metrics[f"{module}.s"] = (sum(v[0] for k, v in in_pass.items()
                                      if k.split(".")[0] == module), "s")
    attributed = sum(v[0] for v in in_pass.values())
    metrics["trace.run_s"] = (run_s, "s")
    metrics["trace.overhead_s"] = (run_s - untraced_run_s, "s")
    metrics["trace.unattributed_s"] = (run_s - attributed, "s")
    metrics["trace.spans"] = (len(pass_spans), "count")
    return metrics
