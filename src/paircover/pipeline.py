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
    PartialAssignment,
    StructureError,
    TestSuite,
)
from .gcp import partition_musts
from .interactions import (
    CoverageState,
    InteractionUniverse,
    avoided,
    carried,
    case_levels,
    find_extension,
    verify_suite,
)
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


def _reduced(cover: list[int]) -> tuple[int, list[int], list[int]]:
    """The cover after three exact reductions (Beasley, EJOR 1987), as
    ``(forced, rows, carriers)``.

    ``forced`` is the bitmask of the rows that are some element's only
    carrier: every cover keeps them.  Of the elements they leave uncovered,
    one per minimal carrier set stays, the lowest, in element order: an
    element whose carrier rows include all those of another is covered
    whenever that one is.  ``rows`` lists, in order, the rows holding a
    remaining element, less each row whose remaining elements some later
    row all holds: swapping it for that row keeps a cover no larger and
    lexicographically smaller, so no result keeps it.  ``carriers[k]`` is
    remaining element k's carrier set, bit t standing for ``rows[t]``.
    Every cover keeps the forced rows and covers the remaining elements
    with ``rows``, so the lexicographically smallest minimum keep vector is
    unchanged.
    """
    carriers = {}  # element bit -> rows holding it
    for r, mask in enumerate(cover):
        row = 1 << r
        while mask:
            low = mask & -mask
            carriers[low] = carriers.get(low, 0) | row
            mask ^= low
    forced = 0
    for owners in carriers.values():
        if not owners & (owners - 1):
            forced |= owners
    done = 0  # the elements the forced rows cover
    for r in _bits(forced):
        done |= cover[r]
    first = {}  # carrier set -> its lowest element bit
    for e in sorted(carriers):
        if not e & done:
            first.setdefault(carriers[e], e)
    minimal = []  # a strict subset has fewer rows, so it comes first
    for owners in sorted(first, key=int.bit_count):
        outside = ~owners
        for smaller in minimal:
            if not smaller & outside:
                break
        else:
            minimal.append(owners)
    minimal.sort(key=first.__getitem__)

    sets = {}  # row -> the carrier sets of the remaining elements it holds
    for owners in minimal:
        for r in _bits(owners):
            sets.setdefault(r, []).append(owners)
    rows = []
    for r in sorted(sets):
        common = -1  # the rows holding every remaining element row r holds
        for owners in sets[r]:
            common &= owners
        if not common >> r + 1:
            rows.append(r)
    at = {r: 1 << t for t, r in enumerate(rows)}
    out = []
    for owners in minimal:
        mask = 0
        for r in _bits(owners):
            mask |= at.get(r, 0)
        out.append(mask)
    return forced, rows, out


def solve(cover: list[int], time_limit: float = math.inf) -> MilpSolution:
    """Fewest rows of ``cover`` whose union is the union of all rows.

    ``cover[r]`` is the bitmask of the elements row r covers.  The search
    runs on the reduced cover (``_reduced``): the forced rows are kept, and
    the remaining rows are walked depth-first in order, "drop" before
    "keep".  A row is dropped only while every uncovered element keeps a
    carrier in a later row, and a row that covers nothing uncovered is
    never kept.  A node is cut once the rows kept plus a lower bound on the
    rows still needed reach the incumbent, and only a strictly smaller
    cover replaces it, so the result is the lexicographically smallest
    minimum keep vector.  The bound packs uncovered elements, fewest
    remaining carriers first, whose remaining carrier sets are pairwise
    disjoint: each needs a row of its own.  That order is sorted once per
    row index.  The search stops once the incumbent reaches the root
    bound, or a ``Budget`` stops it on timeout.  ``values`` is the 0/1
    keep vector, ``objective`` its size, and ``root_bound`` counts the
    forced rows.
    """
    budget = Budget(time_limit)
    forced, rows, carriers = _reduced(cover)
    held = [0] * len(rows)  # held[t]: the elements row t covers
    last = [0] * len(rows)  # last[t]: the elements row t is the final carrier of
    for k, mask in enumerate(carriers):
        last[mask.bit_length() - 1] |= 1 << k
        for t in _bits(mask):
            held[t] |= 1 << k
    order = {}  # t -> (element bit, carriers from row t on), fewest carriers first

    def bound(t: int, uncovered: int) -> int:
        if t not in order:
            left = [mask >> t for mask in carriers]
            count = [mask.bit_count() for mask in left]
            ranked = sorted(range(len(left)), key=count.__getitem__)
            order[t] = [(1 << k, left[k]) for k in ranked if count[k]]
        need, used = 0, 0
        for bit, mask in order[t]:
            if uncovered & bit and not mask & used:
                need += 1
                used |= mask
        return need

    everything = (1 << len(carriers)) - 1
    root = bound(0, everything)
    best, best_keep = len(rows) + 1, None
    stack = [(0, everything, 0, 0)]  # row, uncovered elements, keep mask, rows kept
    while stack and not budget.spend():
        t, uncovered, keep, kept = stack.pop()
        if not uncovered:  # every later row is dropped
            if kept < best:
                best, best_keep = kept, keep
                if best <= root:
                    break
            continue
        if best_keep is not None and kept + bound(t, uncovered) >= best:
            continue
        # pushed in reverse: "drop" is popped first
        if uncovered & held[t]:
            stack.append((t + 1, uncovered & ~held[t], keep | 1 << t, kept + 1))
        if not uncovered & last[t]:
            stack.append((t + 1, uncovered, keep, kept))

    values = None
    if best_keep is not None:
        keep = forced
        for t in _bits(best_keep):
            keep |= 1 << rows[t]
        values = np.array([keep >> r & 1 for r in range(len(cover))], dtype=np.int8)
    n_forced = forced.bit_count()
    return budget.solution(n_forced + best, values, root_bound=n_forced + root)


def minimize_suite(
    suite: TestSuite,
    constraints: ConstraintSet,
    time_limit: float = DEFAULT_MINIMIZE_TIME_LIMIT,
) -> tuple[TestSuite, dict]:
    """Smallest sub-suite keeping all covered pairs and all musts carried.

    Raises PaircoverError at the first row that violates an avoid tuple
    (``avoided``), before any search.  The elements to keep covered are
    then the pairs the rows hold, all achievable, and each must tuple some
    row carries, with no universe built.  Bit k of a row's mask is the k-th
    of the held pairs in the universe's (i, j, a, b) order; the carried
    musts follow, in order.  Falls back to the input suite when the solve
    finds no cover in time (status ``timed_out``), so the result is never
    larger than what went in.  Raises StructureError, as a universe build
    does, when no case is valid; that is checked only for a suite with no
    rows.
    """
    t0 = time.perf_counter()
    system = suite.system
    constraints.validate_against(system)
    m, n = len(suite), system.n_factors
    levels = case_levels(suite, n)
    bad = avoided(levels, constraints)
    if bad.any():
        r = int(bad.argmax())
        raise PaircoverError(f"case {r} violates an avoid tuple: {suite.cases[r].levels}")
    if constraints.avoid and not m:
        starts = (PartialAssignment(((0, v),)) for v in range(system.cardinalities[0]))
        if not any(find_extension(pa, system, constraints) for pa in starts):
            raise StructureError("the avoid tuples rule out every test case")
    top = max(system.cardinalities)
    factors = np.arange(n)
    i, j = np.nonzero(factors[:, None] < factors)  # the factor pairs, in order
    # keys[p, r]: the pair row r holds on factor pair p; ascending keys
    # are the universe's (i, j, a, b) order
    keys = (np.arange(len(i))[:, None] * top + levels[i]) * top + levels[j]
    held = np.zeros(len(i) * top * top, dtype=bool)  # by key: an element
    held[keys] = True
    ids = np.cumsum(held, dtype=np.int32) - 1  # a held key's element
    member = np.zeros((m, int(ids[-1]) + 1), dtype=bool)
    member[np.arange(m), ids[keys]] = True
    musts = carried(levels, constraints)
    member = np.hstack([member, musts[musts.any(axis=1)].T])  # a must no row carries sets no bit
    cover = [
        int.from_bytes(row.tobytes(), "little")
        for row in np.packbits(member, axis=1, bitorder="little")
    ]
    everything = 0
    for mask in cover:
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
        "elements": member.shape[1],
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
        for tc in warm_start:  # the warm suite may be over another system
            tc.validate_against(system)
        bad = avoided(case_levels(warm_start, system.n_factors), constraints).tolist()
        valid = [tc for tc, b in zip(warm_start, bad) if not b]
        retained = valid[: math.ceil(cfg.alpha * len(valid))]
        for tc in retained:
            coverage.mark_case(tc)
            suite.append(tc)
        report.warm_given = len(warm_start)
        report.warm_valid = len(valid)
        report.warm_retained = len(retained)
    report.phase_wall_s["warm"] = time.perf_counter() - t0

    t1 = time.perf_counter()
    held = carried(case_levels(suite, system.n_factors), constraints).any(axis=1)
    open_musts = [mu for mu, h in zip(constraints.must, held.tolist()) if not h]
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
        suite, report.cover = minimize_suite(suite, constraints)
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
