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
    PaircoverError,
    TestSuite,
    subsumes,
    validate_case,
)
from .gcp import partition_musts
from .interactions import CoverageState, InteractionUniverse, verify_suite
from .milp import Budget, MilpSolution, SolveStatus
from .sequential import DEFAULT_STEP_TIME_LIMIT, generate_single_case


DEFAULT_MINIMIZE_TIME_LIMIT = 60.0


class PipelineStallError(PaircoverError):
    """A generation step made no progress; the run cannot terminate."""


@dataclass
class PipelineConfig:
    alpha: float = 0.9
    step_time_limit: float = DEFAULT_STEP_TIME_LIMIT
    minimize: bool = True


@dataclass
class RunReport:
    alpha: float
    warm_given: int = 0
    warm_valid: int = 0
    warm_retained: int = 0
    must_total: int = 0
    must_presatisfied: int = 0
    must_groups: int = 0
    phase2_cases: int = 0
    raw_size: int = 0
    final_size: int = 0
    degraded: bool = False
    cover: dict = field(default_factory=dict)
    steps: list = field(default_factory=list)
    phase_wall_s: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def _bits(mask: int):
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def solve(cover: list[int], time_limit: float = math.inf) -> MilpSolution:
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
    search stops once the incumbent reaches the root bound, or a ``Budget``
    stops it on timeout.  ``values`` is the 0/1 keep vector, ``objective``
    its size.
    """
    budget = Budget(time_limit)
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
    stack = [(0, everything, 0, 0)]  # row, uncovered elements, keep mask, rows kept
    while stack and not budget.spend():
        r, uncovered, keep, kept = stack.pop()
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

    values = None
    if best_keep is not None:
        values = np.array([best_keep >> r & 1 for r in range(m)], dtype=np.int8)
    return budget.solution(best, values, root_bound=root)


def minimize_suite(
    suite: TestSuite,
    constraints: ConstraintSet,
    universe: InteractionUniverse | None = None,
    time_limit: float = DEFAULT_MINIMIZE_TIME_LIMIT,
) -> tuple[TestSuite, dict]:
    """Smallest sub-suite keeping all covered pairs and all musts carried.

    The elements to keep covered are the universe pairs the suite covers
    and each must tuple some row carries: bit u of a row's mask is universe
    pair u, and bit len(universe) + g is must tuple g.  Falls back to the
    input suite when the solve finds no cover in time (status
    ``timed_out``), so the result is never larger than what went in.  A
    universe built here is seeded with the suite's avoid-valid rows
    (``InteractionUniverse``'s ``witnesses``).
    """
    t0 = time.perf_counter()
    system = suite.system
    if universe is None:
        universe = InteractionUniverse(system, constraints, witnesses=suite)
    m = len(suite)
    cover, everything = [], 0
    for tc in suite:
        mask = 0
        for u in universe.case_pair_ids(tc.levels).tolist():
            mask |= 1 << u
        # a must no row carries sets no bit, so it is not required
        for g, mu in enumerate(constraints.must, start=len(universe)):
            if subsumes(tc, mu):
                mask |= 1 << g
        cover.append(mask)
        everything |= mask

    sol = solve(cover, time_limit=time_limit)
    out = suite  # no cover found in time: keep the input
    if sol.has_solution:
        union = 0
        for mask, z in zip(cover, sol.values.tolist()):
            if z == 1:
                union |= mask
        if union != everything:
            raise PaircoverError("set cover solve left an element uncovered")
        out = TestSuite(system, [tc for tc, z in zip(suite, sol.values) if z == 1])
    stats = {
        "status": sol.status.value,
        "rows": m,
        "elements": everything.bit_count(),
        **sol.stats,  # nodes, root_bound
        "wall_s": time.perf_counter() - t0,
        "removed": m - len(out),
    }
    return out, stats


def run_pipeline(
    universe: InteractionUniverse,
    warm_start: TestSuite | None = None,
    config: PipelineConfig | None = None,
) -> tuple[TestSuite, RunReport]:
    """Warm start, must groups, per-case generation, set-cover pruning, all
    over the pairs and weights of ``universe``."""
    cfg = config or PipelineConfig()
    if not 0.0 <= cfg.alpha <= 1.0:
        raise PaircoverError(f"alpha must be in [0, 1], got {cfg.alpha}")
    system, constraints = universe.system, universe.constraints
    coverage = CoverageState(universe)
    report = RunReport(alpha=cfg.alpha, must_total=len(constraints.must))
    suite = TestSuite(system)

    t0 = time.perf_counter()
    if warm_start is not None:
        # drop the rows that violate an avoid tuple, keep the first
        # ceil(alpha * valid) of the rest, in order
        valid = [tc for tc in warm_start if validate_case(tc, system, constraints)]
        retained = valid[: math.ceil(cfg.alpha * len(valid))]
        for tc in retained:
            coverage.mark_case(tc)
            suite.append(tc)
        report.warm_given = len(warm_start)
        report.warm_valid = len(valid)
        report.warm_retained = len(retained)
    report.phase_wall_s["warm"] = time.perf_counter() - t0

    t1 = time.perf_counter()
    open_musts = [
        mu
        for mu in constraints.must
        if not any(subsumes(tc, mu) for tc in suite)
    ]
    report.must_presatisfied = report.must_total - len(open_musts)
    if open_musts:
        tp = time.perf_counter()
        partition = partition_musts(system, constraints, open_musts)
        report.phase_wall_s["partition"] = time.perf_counter() - tp  # a share of "must"
        report.must_groups = partition.n_groups
        for fixed in partition.merged:
            tc, st = generate_single_case(coverage, fixed, cfg.step_time_limit)
            coverage.mark_case(tc)
            suite.append(tc)
            report.steps.append({"phase": 1, **st, "fixed": fixed.picks})
    report.phase_wall_s["must"] = time.perf_counter() - t1

    t2 = time.perf_counter()
    upper = None  # the last phase-2 step's value once proven: no later step beats it
    while not coverage.is_full:
        tc, st = generate_single_case(coverage, time_limit=cfg.step_time_limit, upper=upper)
        upper = st["objective"] if st["status"] == SolveStatus.OPTIMAL.value else None
        fresh = coverage.mark_case(tc)
        if fresh == 0:
            raise PipelineStallError(
                "generated case covers nothing new; solver returned a stale case"
            )
        suite.append(tc)
        st["fresh"] = fresh
        report.steps.append({"phase": 2, **st})
        report.phase2_cases += 1
    report.phase_wall_s["generate"] = time.perf_counter() - t2
    report.raw_size = len(suite)

    t3 = time.perf_counter()
    if cfg.minimize:
        suite, report.cover = minimize_suite(suite, constraints, universe)
        report.phase_wall_s["minimize"] = time.perf_counter() - t3
    solves = [*report.steps, report.cover] if cfg.minimize else report.steps
    report.degraded = any(s["status"] != SolveStatus.OPTIMAL.value for s in solves)

    report.final_size = len(suite)
    t4 = time.perf_counter()
    ok, problems = verify_suite(suite, constraints, universe)
    if not ok:
        raise PaircoverError(
            "pipeline produced an unsound suite: " + "; ".join(problems[:3])
        )
    report.phase_wall_s["verify"] = time.perf_counter() - t4
    return suite, report
