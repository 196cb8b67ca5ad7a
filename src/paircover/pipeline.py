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
from .milp import MilpModel, SolveStatus, solve
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


def minimize_suite(
    suite: TestSuite,
    constraints: ConstraintSet,
    universe: InteractionUniverse | None = None,
    time_limit: float | None = 60.0,
) -> tuple[TestSuite, dict]:
    """Smallest sub-suite keeping all covered pairs and all musts carried.

    Falls back to the input suite when the solve cannot finish, so the
    result is never larger than what went in.
    """
    system = suite.system
    if universe is None:
        universe = InteractionUniverse(system, constraints)
    m = len(suite)
    if m == 0:
        return suite, {"status": "empty", "removed": 0}

    milp = MilpModel(sense="min")
    z = [milp.add_var(obj=1) for _ in range(m)]
    covers: dict[int, list[int]] = {}
    for r, tc in enumerate(suite):
        for u in universe.case_pair_ids(tc.levels):
            covers.setdefault(int(u), []).append(r)
    for _, rows in sorted(covers.items()):
        milp.add_constraint({z[r]: 1 for r in rows}, ">=", 1)
    for mu in constraints.must:
        carriers = [r for r, tc in enumerate(suite) if subsumes(tc, mu)]
        if carriers:  # a must not carried by the input cannot be required here
            milp.add_constraint({z[r]: 1 for r in carriers}, ">=", 1)

    # the reference kernel: its tie-break, the lexicographically smallest
    # optimal keep vector, decides which cases survive
    sol = solve(milp, time_limit=time_limit)
    stats = {
        "status": sol.status.value,
        "nvars": milp.nvars,
        "ncons": milp.ncons,
        "proved_optimal": sol.status == SolveStatus.OPTIMAL,
    }
    if not sol.has_solution:
        stats["removed"] = 0
        stats["fallback"] = True
        return suite, stats
    keep = [tc for r, tc in enumerate(suite) if sol.values[z[r]] == 1]
    out = TestSuite(system, keep)
    stats["removed"] = m - len(out)
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
        report.degraded |= bool(min_stats.get("fallback"))
        report.phase_wall_s["minimize"] = time.perf_counter() - t3

    report.final_size = len(suite)
    # imported at call time: perfbench's tracer rebinds interactions.coverage_curve
    from .interactions import coverage_curve

    report.coverage_curve = coverage_curve(suite, universe)
    ok, problems = verify_suite(suite, constraints, universe)
    if not ok:
        raise PaircoverError(
            "pipeline produced an unsound suite: " + "; ".join(problems[:3])
        )
    return suite, report
