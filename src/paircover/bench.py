"""Benchmark harness: instance families, method matrix, summary metrics.

The instances (``make_system``, ``make_bbu``, ``random_instance`` and
``classic_instances``) are also the ones the tests and the golden suite
digests pin.  Sizes are compared with performance profiles (fraction of
instances on which a method stays within a factor tau of the best size) and
competition ranks (ties share the best rank).  Coverage curves get a tail
fraction: how much of the suite sits at or past the point where cumulative
coverage first reaches 90 percent; a fat tail means many late cases each
add little.
"""

from __future__ import annotations

import csv
import io as _io
import time
from dataclasses import dataclass

import numpy as np

from .core import ConstraintSet, Factor, FactorSystem, PartialAssignment
from .greedy import greedy_suite
from .interactions import InteractionUniverse, coverage_curve
from .pipeline import run_pipeline


def make_system(cards) -> FactorSystem:
    """Factors F0, F1, ... with levels v0, v1, ... of the given cardinalities."""
    return FactorSystem(
        tuple(
            Factor(f"F{i}", tuple(f"v{a}" for a in range(c)))
            for i, c in enumerate(cards)
        )
    )


def make_bbu() -> tuple[FactorSystem, ConstraintSet]:
    """The radio-unit configuration instance used throughout the docs."""
    system = FactorSystem(
        (
            Factor("Modulation", ("QPSK", "16-QAM", "64-QAM", "256-QAM")),
            Factor("Bandwidth", ("20 MHz", "50 MHz", "100 MHz", "200 MHz")),
            Factor("MIMO", ("SU-MIMO", "MU-MIMO", "Massive MIMO", "No MIMO")),
            Factor("Coding Rate", ("1/3", "1/2", "3/4", "5/6")),
        )
    )
    constraints = ConstraintSet(
        avoid=(PartialAssignment(((0, 0), (1, 3))),),
        must=(PartialAssignment(((0, 3), (1, 3), (2, 1))),),
    )
    return system, constraints


def random_avoids(
    system: FactorSystem, rng: np.random.Generator, count: int, size: int = 2
) -> tuple[PartialAssignment, ...]:
    out = []
    for _ in range(count):
        fs = sorted(rng.choice(system.n_factors, size=size, replace=False))
        out.append(
            PartialAssignment(
                tuple(
                    (int(f), int(rng.integers(system.cardinalities[int(f)])))
                    for f in fs
                )
            )
        )
    return tuple(out)


def random_instance(seed: int) -> tuple[FactorSystem, ConstraintSet]:
    """4-8 factors of 2-5 levels with 0-3 two-pick avoid tuples."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 9))
    cards = [int(rng.integers(2, 6)) for _ in range(n)]
    system = make_system(cards)
    avoid = random_avoids(system, rng, int(rng.integers(0, 4)))
    return system, ConstraintSet(avoid=avoid)


def classic_instances() -> dict[str, tuple[FactorSystem, ConstraintSet]]:
    return {
        "bbu-5g": make_bbu(),
        "ca-3^3": (make_system([3] * 3), ConstraintSet()),
        "ca-3^4": (make_system([3] * 4), ConstraintSet()),
        "mca-5.3^8.2^2": (make_system([5] + [3] * 8 + [2] * 2), ConstraintSet()),
        "mca-6.4^2.3^3.2^2": (
            make_system([6] + [4] * 2 + [3] * 3 + [2] * 2),
            ConstraintSet(),
        ),
        "mca-10..2": (make_system(list(range(10, 1, -1))), ConstraintSet()),
    }


@dataclass
class BenchRecord:
    instance: str
    method: str
    size: int
    wall_s: float
    degraded: bool
    tail: float


def _method_sequential(universe, seed):
    suite, report = run_pipeline(universe)
    return suite, report.degraded


def _method_greedy(universe, seed):
    return greedy_suite(universe, seed=seed), False


METHODS = {
    "sequential": _method_sequential,
    "greedy": _method_greedy,
}


def run_methods(
    instances: dict[str, tuple[FactorSystem, ConstraintSet]],
    methods: list[str],
    seed: int = 0,
) -> list[BenchRecord]:
    """One record per instance and method.  The methods of an instance share
    one universe; a record's ``wall_s`` counts its build."""
    records = []
    for name, (system, cs) in instances.items():
        t0 = time.perf_counter()
        universe = InteractionUniverse(system, cs)
        build_s = time.perf_counter() - t0
        for method in methods:
            t0 = time.perf_counter()
            suite, degraded = METHODS[method](universe, seed)
            wall = build_s + time.perf_counter() - t0
            # the curve counts pairs, whatever their weights
            curve = coverage_curve(suite, universe)
            records.append(
                BenchRecord(
                    instance=name,
                    method=method,
                    size=len(suite),
                    wall_s=wall,
                    degraded=degraded,
                    tail=tail_fraction(curve),
                )
            )
    return records


def tail_fraction(curve) -> float:
    """Fraction of cases at or past the first index reaching 90% coverage."""
    m = len(curve)
    for k, r in enumerate(curve, start=1):
        if r >= 0.9:
            return (m - k + 1) / m
    return 0.0


def _sizes_by_instance(records: list[BenchRecord]) -> dict[str, dict[str, int]]:
    """instance -> {method: suite size}."""
    by_instance: dict[str, dict[str, int]] = {}
    for r in records:
        by_instance.setdefault(r.instance, {})[r.method] = r.size
    return by_instance


def performance_profile(
    records: list[BenchRecord], taus
) -> dict[str, list[float]]:
    """Dolan-More profile on sizes: per method, fraction within tau of best."""
    by_instance = _sizes_by_instance(records)
    methods = sorted({r.method for r in records})
    out = {m: [] for m in methods}
    for tau in taus:
        for m in methods:
            hits = total = 0
            for sizes in by_instance.values():
                if m not in sizes:
                    continue
                total += 1
                if sizes[m] <= tau * min(sizes.values()):
                    hits += 1
            out[m].append(hits / total if total else 0.0)
    return out


def competition_ranks(records: list[BenchRecord]) -> dict[str, float]:
    """Mean rank per method; equal sizes share the best (smallest) rank."""
    totals: dict[str, list[int]] = {}
    for sizes in _sizes_by_instance(records).values():
        for m, s in sizes.items():
            rank = 1 + sum(1 for other in sizes.values() if other < s)
            totals.setdefault(m, []).append(rank)
    return {m: float(np.mean(v)) for m, v in totals.items()}


def records_to_csv(records: list[BenchRecord]) -> str:
    buf = _io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["instance", "method", "size", "wall_s", "degraded", "tail"])
    for r in records:
        w.writerow([r.instance, r.method, r.size, f"{r.wall_s:.4f}", int(r.degraded), f"{r.tail:.4f}"])
    return buf.getvalue()


def profile_to_csv(profile: dict[str, list[float]], taus) -> str:
    buf = _io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    methods = sorted(profile)
    w.writerow(["tau"] + methods)
    for k, tau in enumerate(taus):
        w.writerow([f"{tau:.3f}"] + [f"{profile[m][k]:.4f}" for m in methods])
    return buf.getvalue()
