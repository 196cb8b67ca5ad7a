"""Spans and counts recorded around paircover's public functions.

The traced run rebinds module attributes such as ``paircover.sequential.solve``
or ``paircover.pipeline.InteractionUniverse`` to wrappers that record a span
(name, start, end, parent, model id) per call, then restores them.  Each
attribute is rebound in the module whose code calls it, because that is the
name the call looks up.  Per-module metrics are derived from the spans by
self time, so a layer's figure never includes the layers it calls.
"""

from __future__ import annotations

import math
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root
    model: str


class Tracer:
    """Keeps spans and counts in memory for one traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.model = ""
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        """``fn`` recording a span per call; ``count(counts, args, result)`` tallies."""

        def traced(*args, **kwargs):
            k = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(k)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[k] = Span(name, start, end, parent, self.model)
            if count is not None:
                count(self.counts, args, out)
            return out

        traced.__wrapped__ = fn
        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for k, s in enumerate(spans):
        covered, lo = 0.0, s.start
        for a, b in sorted(children[k]):
            a, b = max(a, lo), min(b, s.end)
            if b > a:
                covered += b - a
                lo = b
        out.append((s.end - s.start) - covered)
    return out


def _count_solve(kind):
    def count(counts, args, sol):
        counts[f"milp.{kind}_nodes"] += int(sol.stats.get("nodes", 0))
        counts[f"milp.{kind}_unproven"] += sol.status.name != "OPTIMAL"

    return count


def _count_minimize(counts, args, out):
    counts["pipeline.raw_size"] += len(args[0])
    counts["pipeline.final_size"] += len(out[0])


def _count_partition(counts, args, partition):
    counts["gcp.groups"] += partition.n_groups


def _count_greedy(counts, args, suite):
    counts["greedy.cases"] += len(suite)


def _targets():
    """(owner, attribute, span name, count hook) for every traced call site."""
    from paircover import cli, gcp, greedy, interactions, pipeline, sequential
    from paircover import io as pio

    out = [
        (pio, "load_model", "io.parse", None),
        (pio, "read_suite_csv", "io.parse", None),
        (pio, "suite_to_csv", "io.emit", None),
        (cli, "run_pipeline", "pipeline.run", None),
        (cli, "minimize_suite", "pipeline.minimize", _count_minimize),
        (pipeline, "minimize_suite", "pipeline.minimize", _count_minimize),
        (pipeline, "partition_musts", "gcp.partition", _count_partition),
        (pipeline, "generate_single_case", "sequential.step", None),
        (sequential, "generate_single_case", "sequential.step", None),
        (sequential, "build_step", "sequential.formulate", None),
        (sequential.StepModel, "decode", "sequential.decode", None),
        (sequential, "solve", "milp.step_solve", _count_solve("step")),
        (pipeline, "solve", "milp.cover_solve", _count_solve("cover")),
        (cli, "greedy_suite", "greedy.suite", _count_greedy),
        (cli, "verify_suite", "interactions.verify", None),
        (pipeline, "verify_suite", "interactions.verify", None),
        (cli, "coverage_curve", "interactions.curve", None),
        # run_pipeline imports coverage_curve from interactions when it runs
        (interactions, "coverage_curve", "interactions.curve", None),
    ]
    for mod in (interactions, gcp, greedy):
        out.append((mod, "find_extension", "interactions.extension", None))
    for mod in (interactions, cli, pipeline, greedy):
        out.append((mod, "InteractionUniverse", "interactions.universe", None))
    return out


@contextmanager
def installed(tracer: Tracer):
    """Rebind every traced call site to record into ``tracer``; undo on exit."""
    saved = []
    try:
        for owner, attr, name, count in _targets():
            orig = getattr(owner, attr)
            if isinstance(orig, type):
                traced = type(orig.__name__, (orig,), {"__init__": tracer.wrap(name, orig.__init__)})
            else:
                traced = tracer.wrap(name, orig, count)
            saved.append((owner, attr, orig))
            setattr(owner, attr, traced)
        yield tracer
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


def _quantile(values, q):
    """Nearest-rank quantile; 0 for no values."""
    if not values:
        return 0.0
    return sorted(values)[max(0, math.ceil(q * len(values)) - 1)]


LAYER_UNITS = {
    "milp.step_solve_s": "s",
    "milp.step_nodes": "count",
    "milp.step_nodes_per_s": "1/s",
    "milp.step_unproven": "count",
    "milp.cover_solve_s": "s",
    "milp.cover_nodes": "count",
    "milp.cover_unproven": "count",
    "sequential.steps": "count",
    "sequential.formulate_s": "s",
    "sequential.decode_s": "s",
    "sequential.step_ms_p50": "ms",
    "sequential.step_ms_p99": "ms",
    "interactions.universe_s": "s",
    "interactions.universe_builds": "count",
    "interactions.extension_calls": "count",
    "interactions.extension_s": "s",
    "interactions.verify_s": "s",
    "interactions.curve_s": "s",
    "greedy.suite_s": "s",
    "greedy.cases": "count",
    "gcp.partition_s": "s",
    "gcp.groups": "count",
    "pipeline.raw_size": "count",
    "pipeline.final_size": "count",
    "pipeline.cover_removed_ratio": "ratio",
    "io.parse_s": "s",
    "io.emit_s": "s",
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-module metrics of one traced pass, named as in LAYER_UNITS."""
    spans, counts = tracer.spans, tracer.counts
    selfs = self_times(spans)
    busy: Counter = Counter()
    calls: Counter = Counter()
    for s, t in zip(spans, selfs):
        busy[s.name] += t
        calls[s.name] += 1
    # a step is a generate_single_case call that formulated a program; the
    # call that finds nothing left to cover returns before that
    formulated = {s.parent for s in spans if s.name == "sequential.formulate"}
    step_ms = [
        (s.end - s.start) * 1e3 for k, s in enumerate(spans) if k in formulated and s.name == "sequential.step"
    ]
    m = {
        "milp.step_solve_s": busy["milp.step_solve"],
        "milp.step_nodes": counts["milp.step_nodes"],
        "milp.step_nodes_per_s": counts["milp.step_nodes"] / busy["milp.step_solve"]
        if busy["milp.step_solve"]
        else 0.0,
        "milp.step_unproven": counts["milp.step_unproven"],
        "milp.cover_solve_s": busy["milp.cover_solve"],
        "milp.cover_nodes": counts["milp.cover_nodes"],
        "milp.cover_unproven": counts["milp.cover_unproven"],
        "sequential.steps": len(step_ms),
        "sequential.formulate_s": busy["sequential.formulate"],
        "sequential.decode_s": busy["sequential.decode"],
        "sequential.step_ms_p50": _quantile(step_ms, 0.5),
        "sequential.step_ms_p99": _quantile(step_ms, 0.99),
        "interactions.universe_s": busy["interactions.universe"],
        "interactions.universe_builds": calls["interactions.universe"],
        "interactions.extension_calls": calls["interactions.extension"],
        "interactions.extension_s": busy["interactions.extension"],
        "interactions.verify_s": busy["interactions.verify"],
        "interactions.curve_s": busy["interactions.curve"],
        "greedy.suite_s": busy["greedy.suite"],
        "greedy.cases": counts["greedy.cases"],
        "gcp.partition_s": busy["gcp.partition"],
        "gcp.groups": counts["gcp.groups"],
        "pipeline.raw_size": counts["pipeline.raw_size"],
        "pipeline.final_size": counts["pipeline.final_size"],
        "pipeline.cover_removed_ratio": 1 - counts["pipeline.final_size"] / counts["pipeline.raw_size"]
        if counts["pipeline.raw_size"]
        else 0.0,
        "io.parse_s": busy["io.parse"],
        "io.emit_s": busy["io.emit"],
    }
    return {k: float(m[k]) for k in LAYER_UNITS}
