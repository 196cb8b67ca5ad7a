"""The full generation pipeline and the closing set-cover pass.

Four phases: reuse what a warm-start suite already covers, spend one case
per group of compatible must tuples, generate cases one program at a time
until every achievable pair is covered, then solve a set cover over the
accumulated cases to drop the redundant ones.  The set cover keeps every
pair covered and keeps at least one carrier per must tuple, so minimizing
can never break a sound suite.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .core import (
    ConstraintSet,
    FactorSystem,
    PaircoverError,
    TestSuite,
    subsumes,
    validate_case,
)
from .gcp import partition_musts
from .interactions import CoverageState, InteractionUniverse, verify_suite
from .milp import MilpSolution, SolveStatus
from .sequential import (
    DEFAULT_STEP_TIME_LIMIT,
    generate_single_case,
    handle_must_include,
)


class PipelineStallError(PaircoverError):
    """A generation step made no progress; the run cannot terminate."""


@dataclass
class PipelineConfig:
    weighted: bool = True
    alpha: float = 0.9
    step_time_limit: float | None = DEFAULT_STEP_TIME_LIMIT
    minimize: bool = True


@dataclass
class RunReport:
    weighted: bool
    alpha: float
    universe_size: int
    warm_given: int = 0
    warm_valid: int = 0
    warm_retained: int = 0
    must_total: int = 0
    must_presatisfied: int = 0
    must_groups: int = 0
    phase1_cases: int = 0
    phase2_cases: int = 0
    raw_size: int = 0
    final_size: int = 0
    minimized: bool = False
    degraded: bool = False
    cover: dict = field(default_factory=dict)
    steps: list = field(default_factory=list)
    coverage_curve: list = field(default_factory=list)
    phase_wall_s: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def apply_warm_start(
    warm: TestSuite,
    system: FactorSystem,
    constraints: ConstraintSet,
    alpha: float,
) -> tuple[list, dict]:
    """Constraint-valid prefix of the warm rows, alpha-truncated.

    Rows violating an avoid tuple are dropped, then the first
    ceil(alpha * kept) survivors are retained in order.
    """
    if not 0.0 <= alpha <= 1.0:
        raise PaircoverError(f"alpha must be in [0, 1], got {alpha}")
    valid = [tc for tc in warm if validate_case(tc, system, constraints)]
    retained = valid[: math.ceil(alpha * len(valid))]
    return retained, {
        "warm_given": len(warm),
        "warm_valid": len(valid),
        "warm_retained": len(retained),
    }


def _bits(mask: int):
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def solve(cover: list[int], time_limit: float | None = None) -> MilpSolution:
    """Fewest rows of ``cover`` whose union is the union of all rows.

    ``cover[r]`` is the bitmask of the elements row r covers.  Depth-first
    over the rows in order, "drop" before "keep": a row is dropped only
    while every uncovered element keeps a carrier in a later row, and a row
    that covers nothing uncovered is never kept.  A node is cut once the
    rows kept plus a lower bound on the rows still needed reach the
    incumbent, and only a strictly smaller cover replaces it, so the result
    is the lexicographically smallest minimum keep vector.  The bound packs
    uncovered elements, fewest remaining carriers first, whose remaining
    carrier sets are pairwise disjoint: each needs a row of its own.  The
    search stops once the incumbent reaches the root bound, and it checks
    the deadline every 1024 nodes; on timeout the incumbent comes back as
    FEASIBLE.  ``values`` is the 0/1 keep vector, ``objective`` its size.
    """
    t0 = time.perf_counter()
    deadline = None if time_limit is None else t0 + float(time_limit)
    m = len(cover)
    everything = 0
    for mask in cover:
        everything |= mask
    carriers = dict.fromkeys(_bits(everything), 0)  # element -> rows holding it
    for r, mask in enumerate(cover):
        for e in _bits(mask):
            carriers[e] |= 1 << r
    last = [0] * m  # last[r]: the elements row r is the final carrier of
    for e, rows in carriers.items():
        last[rows.bit_length() - 1] |= 1 << e

    def bound(r: int, uncovered: int) -> int:
        left = sorted((carriers[e] >> r for e in _bits(uncovered)), key=int.bit_count)
        need, used = 0, 0
        for rows in left:
            if not rows & used:
                need += 1
                used |= rows
        return need

    root = bound(0, everything)
    best, best_keep = m + 1, None
    nodes = 0
    timed_out = False
    stack = [(0, everything, 0, 0)]  # row, uncovered elements, keep mask, rows kept
    while stack:
        r, uncovered, keep, kept = stack.pop()
        nodes += 1
        if nodes % 1024 == 0 and deadline is not None and time.perf_counter() >= deadline:
            timed_out = True
            break
        if not uncovered:  # every later row is dropped
            if kept < best:
                best, best_keep = kept, keep
                if best <= root:
                    break
            continue
        if best_keep is not None and kept + bound(r, uncovered) >= best:
            continue
        # pushed in reverse: "drop" is popped first
        if uncovered & cover[r]:
            stack.append((r + 1, uncovered & ~cover[r], keep | 1 << r, kept + 1))
        if not uncovered & last[r]:
            stack.append((r + 1, uncovered, keep, kept))

    stats = {"nodes": nodes, "root_bound": root, "wall_s": time.perf_counter() - t0}
    if best_keep is None:
        return MilpSolution(SolveStatus.TIMED_OUT, None, None, stats)
    values = np.array([best_keep >> r & 1 for r in range(m)], dtype=np.int8)
    status = SolveStatus.FEASIBLE if timed_out else SolveStatus.OPTIMAL
    return MilpSolution(status, best, values, stats)


def minimize_suite(
    suite: TestSuite,
    constraints: ConstraintSet,
    universe: InteractionUniverse | None = None,
    time_limit: float | None = 60.0,
) -> tuple[TestSuite, dict]:
    """Smallest sub-suite keeping all covered pairs and all musts carried.

    The elements to keep covered are the universe pairs the suite covers
    and each must tuple some row carries.  Falls back to the input suite
    when the solve finds no cover in time, so the result is never larger
    than what went in.  A universe built here is seeded with the suite's
    avoid-valid rows (``InteractionUniverse``'s ``witnesses``).
    """
    t0 = time.perf_counter()
    system = suite.system
    if universe is None:
        universe = InteractionUniverse(system, constraints, witnesses=suite)
    m = len(suite)
    if m == 0:
        return suite, {"status": "empty", "removed": 0, "proved_optimal": True}

    ids = [universe.case_pair_ids(tc.levels).tolist() for tc in suite]
    element = {u: e for e, u in enumerate(sorted(set().union(*ids)))}  # pair id -> element
    carried = [
        mu for mu in constraints.must if any(subsumes(tc, mu) for tc in suite)
    ]  # a must not carried by the input cannot be required here
    cover = []
    for tc, row in zip(suite, ids):
        mask = 0
        for u in row:
            mask |= 1 << element[u]
        for k, mu in enumerate(carried, start=len(element)):
            if subsumes(tc, mu):
                mask |= 1 << k
        cover.append(mask)

    sol = solve(cover, time_limit=time_limit)
    elements = len(element) + len(carried)
    out = suite  # no cover found in time: keep the input
    if sol.has_solution:
        union = 0
        for mask, z in zip(cover, sol.values.tolist()):
            if z == 1:
                union |= mask
        if union != (1 << elements) - 1:
            raise PaircoverError("set cover solve left an element uncovered")
        out = TestSuite(system, [tc for tc, z in zip(suite, sol.values) if z == 1])
    stats = {
        "status": sol.status.value,
        "rows": m,
        "elements": elements,
        "nodes": sol.stats.get("nodes"),
        "root_bound": sol.stats.get("root_bound"),
        "wall_s": time.perf_counter() - t0,
        "proved_optimal": sol.status == SolveStatus.OPTIMAL,
        "removed": m - len(out),
    }
    if not sol.has_solution:
        stats["fallback"] = True
    return out, stats


def run_pipeline(
    system: FactorSystem,
    constraints: ConstraintSet,
    warm_start: TestSuite | None = None,
    config: PipelineConfig | None = None,
) -> tuple[TestSuite, RunReport]:
    """Warm start, must groups, per-case generation, set-cover pruning."""
    cfg = config or PipelineConfig()
    constraints.validate_against(system)
    t = time.perf_counter()
    universe = InteractionUniverse(system, constraints, weighted=cfg.weighted)
    universe_s = time.perf_counter() - t
    coverage = CoverageState(universe)
    report = RunReport(
        weighted=cfg.weighted,
        alpha=cfg.alpha,
        universe_size=len(universe),
        must_total=len(constraints.must),
        phase_wall_s={"universe": universe_s},
    )
    suite = TestSuite(system)

    t0 = time.perf_counter()
    if warm_start is not None:
        retained, warm_stats = apply_warm_start(
            warm_start, system, constraints, cfg.alpha
        )
        for tc in retained:
            coverage.mark_case(tc)
            suite.append(tc)
        report.warm_given = warm_stats["warm_given"]
        report.warm_valid = warm_stats["warm_valid"]
        report.warm_retained = warm_stats["warm_retained"]
    report.phase_wall_s["warm"] = time.perf_counter() - t0

    t1 = time.perf_counter()
    open_musts = [
        mu
        for mu in constraints.must
        if not any(subsumes(tc, mu) for tc in suite)
    ]
    report.must_presatisfied = report.must_total - len(open_musts)
    if open_musts:
        partition = partition_musts(system, constraints, open_musts)
        report.must_groups = partition.n_groups
        cases, must_stats = handle_must_include(
            system,
            constraints,
            universe,
            coverage,
            partition.merged,
            time_limit=cfg.step_time_limit,
        )
        for tc in cases:
            suite.append(tc)
        report.phase1_cases = len(cases)
        report.steps.extend({"phase": 1, **st} for st in must_stats)
        report.degraded |= any(not st["proved_optimal"] for st in must_stats)
    report.phase_wall_s["must"] = time.perf_counter() - t1

    t2 = time.perf_counter()
    while True:
        tc, st = generate_single_case(
            system,
            constraints,
            universe,
            coverage,
            time_limit=cfg.step_time_limit,
        )
        if tc is None:
            break
        fresh = coverage.mark_case(tc)
        if fresh == 0:
            raise PipelineStallError(
                "generated case covers nothing new; solver returned a stale case"
            )
        suite.append(tc)
        st["fresh"] = fresh
        report.steps.append({"phase": 2, **st})
        report.phase2_cases += 1
        report.degraded |= not st["proved_optimal"]
    report.phase_wall_s["generate"] = time.perf_counter() - t2
    report.raw_size = len(suite)

    t3 = time.perf_counter()
    if cfg.minimize and len(suite):
        suite, min_stats = minimize_suite(suite, constraints, universe)
        report.minimized = True
        report.cover = min_stats
        report.degraded |= not min_stats["proved_optimal"]
        report.phase_wall_s["minimize"] = time.perf_counter() - t3

    report.final_size = len(suite)
    t4 = time.perf_counter()
    # imported at call time: perfbench's tracer rebinds interactions.coverage_curve
    from .interactions import coverage_curve

    report.coverage_curve = coverage_curve(suite, universe)
    ok, problems = verify_suite(suite, constraints, universe)
    if not ok:
        raise PaircoverError(
            "pipeline produced an unsound suite: " + "; ".join(problems[:3])
        )
    report.phase_wall_s["verify"] = time.perf_counter() - t4
    return suite, report
