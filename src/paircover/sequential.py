"""Per-case generation: one small integer program per new test case.

Each step picks one level per factor to maximize the weight of still
uncovered pairs the case would close, respecting the avoid tuples and any
picks fixed up front (the must-group phase fixes the group's picks this
way).  The weight of a pair is the product of its two factors'
cardinalities, so rarer combinations get priority; an unweighted universe
makes every pair count 1.

Coverage indicators only need the upper half of the usual AND coupling
(p <= x on each side): the objective already pushes every p up, and leaving
the lower bound out keeps the model smaller.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .core import (
    ConstraintSet,
    FactorSystem,
    PaircoverError,
    PartialAssignment,
    StructureError,
    TestCase,
    validate_case,
)
from .interactions import CoverageState, InteractionUniverse
from .milp import MilpModel, SolveStatus, solve

DEFAULT_STEP_TIME_LIMIT = 60.0


class StepTimeout(PaircoverError):
    """A per-case solve produced no usable case within its budget."""


def decode_case(
    values, start: int, system: FactorSystem, constraints: ConstraintSet, what: str
) -> TestCase:
    """The case held by one-hot x variables from var ``start`` on.

    The block has one variable per (factor, level), factors in index order
    and levels in index order within each factor.  ``what`` names the case
    in error messages.
    """
    levels = []
    k = start
    for i, card in enumerate(system.cardinalities):
        picks = [a for a in range(card) if values[k + a] == 1]
        if len(picks) > 1:
            raise StructureError(f"{what}: factor {i} has two levels set")
        if not picks:
            raise StructureError(f"{what}: factor {i} has no level set")
        levels.append(picks[0])
        k += card
    tc = TestCase(tuple(levels))
    if not validate_case(tc, system, constraints):
        raise StructureError(f"decoded {what} violates an avoid tuple")
    return tc


@dataclass
class StepModel:
    """The one-case program: x variables first, then one p per uncovered pair."""

    milp: MilpModel
    system: FactorSystem
    constraints: ConstraintSet

    def decode(self, values) -> TestCase:
        return decode_case(values, 0, self.system, self.constraints, "step case")


def build_step(
    system: FactorSystem,
    constraints: ConstraintSet,
    universe: InteractionUniverse,
    uncovered_ids,
    fixed: PartialAssignment | None = None,
) -> StepModel:
    """Assemble the one-case maximization over the given uncovered pairs."""
    card = system.cardinalities
    base = [sum(card[:i]) for i in range(len(card))]  # x var of (i, 0)
    milp = MilpModel(sense="max")
    for _ in range(sum(card)):
        milp.add_var()
    uncovered_ids = [int(u) for u in uncovered_ids]
    p_vars = [milp.add_var(obj=int(universe.weights[u])) for u in uncovered_ids]

    for i in range(len(card)):
        milp.add_constraint({base[i] + a: 1 for a in range(card[i])}, "==", 1)
    for p, u in zip(p_vars, uncovered_ids):
        xi = base[universe.f1[u]] + int(universe.v1[u])
        xj = base[universe.f2[u]] + int(universe.v2[u])
        milp.add_constraint({p: 1, xi: -1}, "<=", 0)
        milp.add_constraint({p: 1, xj: -1}, "<=", 0)
    for av in constraints.avoid:
        milp.add_constraint({base[f] + v: 1 for f, v in av.picks}, "<=", len(av) - 1)
    if fixed is not None:
        fixed.validate_against(system)  # an out-of-range pick would alias another var
        for f, v in fixed.picks:
            milp.add_constraint({base[f] + v: 1}, "==", 1)

    return StepModel(milp, system, constraints)


def generate_single_case(
    system: FactorSystem,
    constraints: ConstraintSet,
    universe: InteractionUniverse,
    coverage: CoverageState,
    fixed: PartialAssignment | None = None,
    backend: str = "reference",
    time_limit: float | None = DEFAULT_STEP_TIME_LIMIT,
) -> tuple[TestCase | None, dict]:
    """Best next case, or None when everything is already covered.

    A solve that times out with an incumbent still returns that case and
    flags the step as unproven; with no incumbent it raises StepTimeout.
    """
    uncovered = coverage.uncovered_indices()
    if len(uncovered) == 0 and fixed is None:
        return None, {"complete": True}
    t0 = time.perf_counter()
    step = build_step(system, constraints, universe, uncovered, fixed)
    sol = solve(step.milp, backend=backend, time_limit=time_limit)
    stats = {
        "uncovered_before": int(len(uncovered)),
        "status": sol.status.value,
        "objective": sol.objective,
        "nvars": step.milp.nvars,
        "ncons": step.milp.ncons,
        "wall_s": time.perf_counter() - t0,
        "proved_optimal": sol.status == SolveStatus.OPTIMAL,
    }
    stats.update({k: sol.stats.get(k) for k in ("nodes",) if k in sol.stats})
    if sol.status == SolveStatus.INFEASIBLE:
        raise StructureError(
            "step model infeasible: the fixed picks conflict with the avoid tuples"
        )
    if not sol.has_solution:
        raise StepTimeout(f"no case found within {time_limit}s")
    return step.decode(sol.values), stats


def handle_must_include(
    system: FactorSystem,
    constraints: ConstraintSet,
    universe: InteractionUniverse,
    coverage: CoverageState,
    merged_groups: list[PartialAssignment],
    backend: str = "reference",
    time_limit: float | None = DEFAULT_STEP_TIME_LIMIT,
) -> tuple[list[TestCase], list[dict]]:
    """One case per must group, each maximizing fresh coverage around it."""
    cases: list[TestCase] = []
    stats: list[dict] = []
    for merged in merged_groups:
        tc, st = generate_single_case(
            system,
            constraints,
            universe,
            coverage,
            fixed=merged,
            backend=backend,
            time_limit=time_limit,
        )
        if tc is None:  # coverage complete but the group still needs its case
            raise PaircoverError("must group produced no case")
        coverage.mark_case(tc)
        st["fixed"] = merged.picks
        cases.append(tc)
        stats.append(st)
    return cases, stats
