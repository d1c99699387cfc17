"""Per-layer tracing for the benchmark, from outside the engine.

The engine is not instrumented.  Instead :class:`Tracer` swaps each traced
name for a wrapper in the module that looks the name up at call time: the
engine binds most helpers with ``from ... import``, so wrapping only the
defining module would miss the calls that matter.  Each wrapped call
records a span (name, start, end, parent, trial); spans stay in memory
until the run ends.  A layer's self time is its span's duration minus the
durations of its direct children, which tile part of the parent's interval
because the pipeline runs on one thread.
"""
from __future__ import annotations

import functools
import math
from collections import Counter, defaultdict
from time import perf_counter

from discrete_tverberg import (
    discrete_sets,
    exact_geometry,
    geom2d,
    harness,
    jsonio,
    linprog,
    oracles,
    tverberg,
)


def _box_points(args, result) -> dict:
    # Lattice points of the integer bounding box the enumeration scans.
    # Every workload runs on Z^d, so lattice and plain coordinates agree.
    verts = args[1].vertices
    total = 1
    for j in range(len(verts[0])):
        lo = math.ceil(min(v[j] for v in verts))
        hi = math.floor(max(v[j] for v in verts))
        total *= max(0, hi - lo + 1)
    return {"discrete_sets.box_points": total, "discrete_sets.hull_points": len(result)}


# (owner, attribute, span name, counts taken from (args, result)).  The span
# name is where the consumer looks the callable up.
BINDINGS = (
    (harness, "run_trial", "harness.run_trial", None),
    (harness, "generate_instance", "harness.generate_instance", None),
    (jsonio, "instance_digest", "jsonio.instance_digest", None),
    (harness, "tverberg_partition", "harness.tverberg_partition", None),
    (harness, "verify_partition", "harness.verify_partition", None),
    (harness, "brute_tverberg", "harness.brute_tverberg",
     lambda a, r: {"oracles.partitions_checked": r.partitions_checked}),
    (tverberg, "find_deep_witnesses", "tverberg.find_deep_witnesses",
     lambda a, r: {"tverberg.candidates_scanned": r.candidates_scanned,
                   "tverberg.witnesses": len(r.witnesses)}),
    (tverberg, "extract_part", "tverberg.extract_part",
     lambda a, r: {"tverberg.extract_fallbacks": int(r[1])}),
    (tverberg, "depth", "tverberg.depth", None),
    (tverberg, "membership", "tverberg.membership", None),
    (tverberg, "enumerate_in_polytope", "tverberg.enumerate_in_polytope", _box_points),
    (tverberg, "caratheodory_reduce", "tverberg.caratheodory_reduce", None),
    (tverberg, "anchored_reduce", "tverberg.anchored_reduce", None),
    (oracles, "membership", "oracles.membership", None),
    (oracles, "enumerate_in_polytope", "oracles.enumerate_in_polytope", _box_points),
    (discrete_sets, "membership", "discrete_sets.membership", None),
    (geom2d, "bulk_depth_values", "geom2d.bulk_depth_values",
     lambda a, r: {"geom2d.bulk_depth_queries": len(a[1])}),
    (exact_geometry, "solve_feasibility", "exact_geometry.solve_feasibility", None),
    (linprog.ExactSimplex, "solve", "linprog.ExactSimplex.solve", None),
)

# Self time of a span counts toward one layer metric.  Two names belong to
# whichever step called them.
LAYER_OF = {
    "tverberg.find_deep_witnesses": "tverberg.find_deep_witnesses_s",
    "geom2d.bulk_depth_values": "geom2d.bulk_depth_values_s",
    "tverberg.depth": "exact_geometry.depth_s",
    "tverberg.enumerate_in_polytope": "discrete_sets.enumerate_in_polytope_s",
    "oracles.enumerate_in_polytope": "discrete_sets.enumerate_in_polytope_s",
    "discrete_sets.membership": "discrete_sets.enumerate_in_polytope_s",
    "exact_geometry.solve_feasibility": "linprog.solve_s",
    "linprog.ExactSimplex.solve": "linprog.solve_s",
    "tverberg.extract_part": "tverberg.extract_part_s",
    "tverberg.anchored_reduce": "exact_geometry.anchored_reduce_s",
    "harness.verify_partition": "oracles.verify_partition_s",
    "harness.brute_tverberg": "oracles.brute_tverberg_s",
    "harness.generate_instance": "harness.generate_instance_s",
    "jsonio.instance_digest": "jsonio.instance_digest_s",
}
LAYER_BY_PARENT = {
    ("tverberg.caratheodory_reduce", "harness.tverberg_partition"): "tverberg.certify_s",
    ("tverberg.caratheodory_reduce", "tverberg.extract_part"): "tverberg.extract_part_s",
    ("tverberg.membership", "harness.tverberg_partition"): "tverberg.remainder_membership_s",
    ("tverberg.membership", "tverberg.extract_part"): "tverberg.extract_part_s",
    ("oracles.membership", "harness.verify_partition"): "oracles.verify_partition_s",
    ("oracles.membership", "harness.brute_tverberg"): "oracles.brute_tverberg_s",
}
TIME_METRICS = sorted(set(LAYER_OF.values()) | set(LAYER_BY_PARENT.values()))

# Per-trial means of these call counts are layer metrics.
CALL_METRICS = {
    "exact_geometry.depth_calls": ("tverberg.depth",),
    "discrete_sets.enumerate_calls": (
        "tverberg.enumerate_in_polytope", "oracles.enumerate_in_polytope"),
    "linprog.solves": ("linprog.ExactSimplex.solve",),
}
# Per-trial means of these counts, taken from arguments and results.
COUNT_METRICS = (
    "tverberg.candidates_scanned",
    "geom2d.bulk_depth_queries",
    "discrete_sets.box_points",
    "discrete_sets.hull_points",
    "linprog.pivots",
    "tverberg.extract_fallbacks",
    "oracles.partitions_checked",
)
CAPPED = "harness.brute_tverberg!CapExceededError"


class Tracer:
    """Records spans and counts around calls into the engine's layers.

    Use as a context manager: the wrappers are installed on entry and the
    original callables are put back on exit.
    """

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, trial or None]
        self.counts = defaultdict(Counter)  # trial -> name -> count
        self._stack = []
        self._trial = None
        self._trials_started = 0
        self._saved = []

    def __enter__(self):
        for owner, attr, name, counted in BINDINGS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counted))
        pivot = linprog.ExactSimplex._pivot
        self._saved.append((linprog.ExactSimplex, "_pivot", pivot))
        setattr(linprog.ExactSimplex, "_pivot", self._count_calls(pivot, "linprog.pivots"))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def _wrap(self, fn, name, counted):
        tracer = self
        is_trial = name == "harness.run_trial"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_trial:
                tracer._trial = tracer._trials_started
                tracer._trials_started += 1
            stack = tracer._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else None, tracer._trial]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.counts[tracer._trial][f"{name}!{type(exc).__name__}"] += 1
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
                if is_trial:
                    tracer._trial = None
            if counted is not None:
                tracer.counts[tracer._trial].update(counted(args, result))
            return result

        return traced

    def _count_calls(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.counts[tracer._trial][name] += 1
            return fn(*args, **kwargs)

        return counted

    def deterministic_counts(self) -> dict:
        """Call counts per span name plus every recorded count, over all trials."""
        total = Counter()
        for name, _, _, _, trial in self.spans:
            if trial is not None:
                total[name + ".calls"] += 1
        for trial, counts in self.counts.items():
            if trial is not None:
                total.update(counts)
        return dict(sorted(total.items()))


def self_times(spans) -> list:
    """Self time of each span: its duration minus its direct children's."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def layer_seconds(spans) -> dict:
    """Total self time per layer metric, over spans that belong to a trial."""
    totals = dict.fromkeys(TIME_METRICS, 0.0)
    for span, own in zip(spans, self_times(spans)):
        name, _, _, parent, trial = span
        if trial is None:
            continue
        layer = LAYER_OF.get(name)
        if layer is None and parent is not None:
            layer = LAYER_BY_PARENT.get((name, spans[parent][0]))
        if layer is not None:
            totals[layer] += own
    return totals


def layer_metrics(tracer: Tracer, trials: int) -> dict:
    """Per-trial layer metrics: self seconds, counts and yield ratios."""
    out = {name: (value / trials, "s/trial")
           for name, value in layer_seconds(tracer.spans).items()}
    counts = tracer.deterministic_counts()
    for metric, span_names in CALL_METRICS.items():
        calls = sum(counts.get(n + ".calls", 0) for n in span_names)
        out[metric] = (calls / trials, "count/trial")
    for metric in COUNT_METRICS:
        out[metric] = (counts.get(metric, 0) / trials, "count/trial")
    out["oracles.capped"] = (counts.get(CAPPED, 0) / trials, "count/trial")
    scanned = counts.get("tverberg.candidates_scanned", 0)
    box = counts.get("discrete_sets.box_points", 0)
    out["tverberg.witness_yield"] = (
        counts.get("tverberg.witnesses", 0) / scanned if scanned else 0.0, "ratio")
    out["discrete_sets.fill_ratio"] = (
        counts.get("discrete_sets.hull_points", 0) / box if box else 0.0, "ratio")
    return out


def write_spans(spans, path) -> None:
    """One CSV line per span, with its self time, in start order."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write("index,trial,name,parent,start_s,end_s,self_s\n")
        for i, (span, own) in enumerate(zip(spans, self_times(spans))):
            name, start, end, parent, trial = span
            fh.write(f"{i},{'' if trial is None else trial},{name},"
                     f"{'' if parent is None else parent},{start!r},{end!r},{own!r}\n")
