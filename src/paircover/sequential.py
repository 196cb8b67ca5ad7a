"""Per-case generation: one small integer program per new test case.

Each step picks one level per factor to maximize the weight of still
uncovered pairs the case would close, respecting the avoid tuples and any
picks fixed up front (the must-group phase fixes the group's picks this
way).  The weight of a pair is the product of its two factors'
cardinalities, so rarer combinations get priority; an unweighted universe
makes every pair count 1.

The program is a max-weight clique in a k-partite graph (one part per
factor), so it is solved by an exact depth-first search over factor levels
with a per-factor-pair bound, not as a generic binary MILP.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

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
from .milp import MilpSolution, SolveStatus

DEFAULT_STEP_TIME_LIMIT = 60.0
_UNREACHABLE = -(2**40)  # gain of a level the step does not allow


class StepTimeout(PaircoverError):
    """A per-case solve produced no usable case within its budget."""


@dataclass
class StepModel:
    """The one-case program in structured form.

    Pick one level per factor from ``allowed`` so that no avoid tuple is
    completed (``constraints.completes_avoid``), maximizing
    ``sum(gain[i, a_i, j, a_j] for i < j)``.  ``gain[i, a, j, b]`` is the
    weight of the pair (i, a), (j, b) while it is uncovered and 0 otherwise
    (also for i >= j and for padding levels): the universe's ``pair_id``
    table read through the uncovered weights.  ``tail[d]`` bounds what the
    pairs among factors d.. can add: the sum of each such factor pair's
    largest entry over the allowed levels.
    """

    system: FactorSystem
    constraints: ConstraintSet
    allowed: list[tuple[int, ...]]  # descending: the search order
    gain: np.ndarray  # int64 (n, L, n, L), L the largest cardinality
    tail: list[int]  # n + 1 entries, tail[n] == 0

    def decode(self, values) -> TestCase:
        """The case of the level per factor ``solve`` found."""
        tc = TestCase(tuple(values))
        if not validate_case(tc, self.system, self.constraints):
            raise StructureError("decoded step case violates an avoid tuple")
        return tc


def build_step(
    universe: InteractionUniverse,
    uncovered_ids,
    fixed: PartialAssignment | None = None,
) -> StepModel:
    """Assemble the one-case maximization over the given uncovered pairs."""
    system, constraints = universe.system, universe.constraints
    card = system.cardinalities
    n, top = len(card), max(card)
    allowed = [tuple(range(c - 1, -1, -1)) for c in card]
    if fixed is not None:
        fixed.validate_against(system)
        for f, v in fixed.picks:
            allowed[f] = (v,)

    ids = np.asarray(uncovered_ids, dtype=np.int64)
    w = np.zeros(len(universe) + 1, dtype=np.int64)  # pair_id -1 reads the last 0
    w[ids] = universe.weights[ids]
    gain = w[universe.pair_id]

    mask = np.zeros((n, top), dtype=bool)
    for i, levels in enumerate(allowed):
        mask[i, list(levels)] = True
    reachable = np.where(mask[:, :, None, None] & mask[None, None], gain, 0)
    per_factor = reachable.max(axis=(1, 3)).sum(axis=1)
    tail = np.concatenate([np.cumsum(per_factor[::-1])[::-1], [0]]).tolist()
    return StepModel(system, constraints, allowed, gain, tail)


class _Stop(Exception):
    """Unwinds the search: the root bound is reached or time ran out."""


def solve(step: StepModel, time_limit: float | None = None) -> MilpSolution:
    """Best case of ``step``, exact unless ``time_limit`` runs out.

    Depth-first over the factors in index order, levels in descending
    order.  A child is entered only while its bound (picks so far, plus
    each later factor's best level against them, plus ``tail``) beats the
    incumbent, and only a strictly better leaf replaces the incumbent, so
    the result is the lexicographically largest optimal case.  The search
    stops as soon as the incumbent reaches the root bound.  The deadline is
    checked every 1024 nodes; on timeout the incumbent comes back as
    FEASIBLE.  ``values`` is the level per factor, which
    ``StepModel.decode`` turns into the case.
    """
    t0 = time.perf_counter()
    deadline = None if time_limit is None else t0 + float(time_limit)
    allowed, gain, tail = step.allowed, step.gain, step.tail
    completes_avoid = step.constraints.completes_avoid
    card = step.system.cardinalities
    n = len(card)
    levels = [-1] * n  # factors at or past the current depth stay -1
    best, best_levels = -1, None
    nodes = 0
    timed_out = False

    def visit(d: int, cur: int, reach: np.ndarray) -> None:
        # reach[j, b]: what level b of factor j adds to the picks on factors < d
        nonlocal best, best_levels, nodes, timed_out
        here = reach[d].tolist()
        last = d == n - 1
        if not last:
            child = reach + gain[d]
            rest = (child[:, d + 1 :].max(axis=2).sum(axis=1) + tail[d + 1]).tolist()
        for a in allowed[d]:
            value = cur + here[a]
            if value + (0 if last else rest[a]) <= best or completes_avoid(d, a, levels):
                continue
            nodes += 1
            if nodes % 1024 == 0 and deadline is not None and time.perf_counter() >= deadline:
                timed_out = True
                raise _Stop
            levels[d] = a
            if not last:
                visit(d + 1, value, child[a])
                continue
            best, best_levels = value, levels[:]
            if best >= tail[0]:
                raise _Stop
        levels[d] = -1

    root = np.full((n, max(card)), _UNREACHABLE, dtype=np.int64)
    for i, lv in enumerate(allowed):
        root[i, list(lv)] = 0
    try:
        visit(0, 0, root)
    except _Stop:
        pass

    stats = {"nodes": nodes, "wall_s": time.perf_counter() - t0}
    if best_levels is None:
        status = SolveStatus.TIMED_OUT if timed_out else SolveStatus.INFEASIBLE
        return MilpSolution(status, None, None, stats)
    status = SolveStatus.FEASIBLE if timed_out else SolveStatus.OPTIMAL
    return MilpSolution(status, best, best_levels, stats)


def generate_single_case(
    coverage: CoverageState,
    fixed: PartialAssignment | None = None,
    time_limit: float | None = DEFAULT_STEP_TIME_LIMIT,
) -> tuple[TestCase | None, dict]:
    """Best next case over ``coverage.universe``, or None when everything is
    already covered and no picks are fixed.

    A solve that times out with an incumbent still returns that case and
    flags the step as unproven; with no incumbent it raises StepTimeout.
    """
    uncovered = coverage.uncovered_indices()
    if len(uncovered) == 0 and fixed is None:
        return None, {"complete": True}
    t0 = time.perf_counter()
    step = build_step(coverage.universe, uncovered, fixed)
    sol = solve(step, time_limit=time_limit)
    stats = {
        "uncovered_before": int(len(uncovered)),
        "status": sol.status.value,
        "objective": sol.objective,
        "nodes": sol.stats["nodes"],
        "wall_s": time.perf_counter() - t0,
        "proved_optimal": sol.status == SolveStatus.OPTIMAL,
    }
    if sol.status == SolveStatus.INFEASIBLE:
        raise StructureError(
            "step model infeasible: the fixed picks conflict with the avoid tuples"
        )
    if not sol.has_solution:
        raise StepTimeout(f"no case found within {time_limit}s")
    return step.decode(sol.values), stats
