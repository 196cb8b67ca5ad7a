"""Pairwise interactions: the coverage universe and coverage bookkeeping.

An interaction is a value pair ((i, a), (j, b)) with i < j.  The universe
holds every *achievable* interaction: one that some constraint-valid full
test case contains.  Interactions ruled out by the avoid tuples are dropped
up front so coverage ratios are measured against what is actually coverable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import (
    ConstraintSet,
    FactorSystem,
    PartialAssignment,
    StructureError,
    TestCase,
    TestSuite,
    subsumes,
    validate_case,
)


@dataclass(frozen=True)
class Interaction:
    """A pair of (factor, level) picks on two distinct factors, i < j."""

    i: int
    a: int
    j: int
    b: int

    def __post_init__(self):
        if self.i >= self.j:
            raise StructureError("interaction factors must satisfy i < j")

    def as_assignment(self) -> PartialAssignment:
        return PartialAssignment(((self.i, self.a), (self.j, self.b)))


def find_extension(
    assignment: PartialAssignment,
    system: FactorSystem,
    constraints: ConstraintSet,
) -> TestCase | None:
    """Find a constraint-valid full case extending ``assignment``.

    Depth-first over the unassigned factors in index order, trying levels in
    index order and pruning any level that completes an avoid tuple.  Returns
    None when no valid extension exists.
    """
    assignment.validate_against(system)
    n = system.n_factors
    fixed = dict(assignment.picks)
    if not constraints.avoid:
        levels = [fixed.get(f, 0) for f in range(n)]
        return TestCase(tuple(levels))

    # avoid tuples as dicts for quick "completed by current partial" checks
    avoids = [dict(a.picks) for a in constraints.avoid]
    current: dict[int, int] = dict(fixed)

    def violated() -> bool:
        for av in avoids:
            if all(current.get(f) == v for f, v in av.items()):
                return True
        return False

    if violated():
        return None

    free = [f for f in range(n) if f not in fixed]

    def search(k: int) -> bool:
        if k == len(free):
            return True
        f = free[k]
        for v in range(system.cardinality(f)):
            current[f] = v
            # only avoid tuples naming f can newly trigger
            ok = True
            for av in avoids:
                if f in av and all(current.get(g) == w for g, w in av.items()):
                    ok = False
                    break
            if ok and search(k + 1):
                return True
            del current[f]
        return False

    if not search(0):
        return None
    return TestCase(tuple(current[f] for f in range(n)))


class InteractionUniverse:
    """All achievable interactions of a system, in a fixed canonical order.

    Interactions are ordered lexicographically by (i, j, a, b).  The level
    data lives in flat numpy arrays so coverage marking is a single gather
    per case.
    """

    def __init__(
        self,
        system: FactorSystem,
        constraints: ConstraintSet,
        weighted: bool = True,
    ):
        constraints.validate_against(system)
        self.system = system
        self.constraints = constraints
        self.weighted = weighted

        card = system.cardinalities
        n = system.n_factors
        rows: list[tuple[int, int, int, int]] = []
        weights: list[int] = []
        no_avoid = not constraints.avoid
        for i in range(n):
            for j in range(i + 1, n):
                w = card[i] * card[j] if weighted else 1
                for a in range(card[i]):
                    for b in range(card[j]):
                        if no_avoid:
                            rows.append((i, a, j, b))
                            weights.append(w)
                            continue
                        pa = PartialAssignment(((i, a), (j, b)))
                        if find_extension(pa, system, constraints) is not None:
                            rows.append((i, a, j, b))
                            weights.append(w)

        arr = (
            np.array(rows, dtype=np.int32)
            if rows
            else np.empty((0, 4), dtype=np.int32)
        )
        self.f1 = arr[:, 0].copy()
        self.v1 = arr[:, 1].copy()
        self.f2 = arr[:, 2].copy()
        self.v2 = arr[:, 3].copy()
        self.weights = np.array(weights, dtype=np.int64)

        # per factor pair (i, j): base offset into a dense pair-id table of
        # size card[i] * card[j]; entries are universe indices or -1
        slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
        self.slot_i = np.array([s[0] for s in slots], dtype=np.int32)
        self.slot_j = np.array([s[1] for s in slots], dtype=np.int32)
        self.slot_lj = np.array([card[s[1]] for s in slots], dtype=np.int64)
        sizes = [card[i] * card[j] for i, j in slots]
        self.slot_base = np.zeros(len(slots), dtype=np.int64)
        np.cumsum(sizes[:-1], out=self.slot_base[1:])
        self.pair_id = np.full(int(sum(sizes)), -1, dtype=np.int64)
        slot_of = {s: k for k, s in enumerate(slots)}
        for k, (i, a, j, b) in enumerate(rows):
            s = slot_of[(i, j)]
            self.pair_id[self.slot_base[s] + a * card[j] + b] = k

    def __len__(self) -> int:
        return int(self.f1.shape[0])

    def interaction(self, k: int) -> Interaction:
        return Interaction(
            int(self.f1[k]), int(self.v1[k]), int(self.f2[k]), int(self.v2[k])
        )

    def interactions(self) -> list[Interaction]:
        return [self.interaction(k) for k in range(len(self))]

    def case_pair_ids(self, levels: Iterable[int]) -> np.ndarray:
        """Universe indices of the achievable pairs a case contains."""
        arr = np.asarray(tuple(levels), dtype=np.int64)
        pos = self.slot_base + arr[self.slot_i] * self.slot_lj + arr[self.slot_j]
        ids = self.pair_id[pos]
        return ids[ids >= 0]


class CoverageState:
    """Mutable covered/uncovered bookkeeping over one universe."""

    def __init__(self, universe: InteractionUniverse):
        self.universe = universe
        self.mask = np.zeros(len(universe), dtype=bool)

    @property
    def covered_count(self) -> int:
        return int(self.mask.sum())

    @property
    def ratio(self) -> float:
        if len(self.universe) == 0:
            return 1.0
        return self.covered_count / len(self.universe)

    @property
    def is_full(self) -> bool:
        return bool(self.mask.all())

    def uncovered_indices(self) -> np.ndarray:
        return np.flatnonzero(~self.mask)

    def mark_case(self, case: TestCase) -> int:
        """Mark the case's pairs covered; returns how many were new."""
        ids = self.universe.case_pair_ids(case.levels)
        fresh = int((~self.mask[ids]).sum())
        self.mask[ids] = True
        return fresh

    def would_cover(self, case: TestCase) -> int:
        ids = self.universe.case_pair_ids(case.levels)
        return int((~self.mask[ids]).sum())

    def copy(self) -> "CoverageState":
        out = CoverageState(self.universe)
        out.mask = self.mask.copy()
        return out


def coverage_curve(suite: TestSuite, universe: InteractionUniverse) -> list[float]:
    """Cumulative coverage ratio after each case of the suite, in order."""
    state = CoverageState(universe)
    out: list[float] = []
    for tc in suite:
        state.mark_case(tc)
        out.append(state.ratio)
    return out


def verify_suite(
    suite: TestSuite,
    constraints: ConstraintSet,
    universe: InteractionUniverse | None = None,
) -> tuple[bool, list[str]]:
    """Full-suite check: validity, must satisfaction, complete coverage.

    Returns (ok, problems); problems lists one message per violation.
    """
    system = suite.system
    constraints.validate_against(system)
    if universe is None:
        universe = InteractionUniverse(system, constraints)
    problems: list[str] = []
    for r, tc in enumerate(suite):
        if not validate_case(tc, system, constraints):
            problems.append(f"case {r} violates an avoid tuple: {tc.levels}")
    for m in constraints.must:
        if not any(subsumes(tc, m) for tc in suite):
            problems.append(f"no case contains the must tuple {m.picks}")
    state = CoverageState(universe)
    for tc in suite:
        state.mark_case(tc)
    if not state.is_full:
        missing = state.uncovered_indices()
        for k in missing[:20]:
            it = universe.interaction(int(k))
            problems.append(
                f"uncovered pair: factor {it.i}={it.a}, factor {it.j}={it.b}"
            )
        if len(missing) > 20:
            problems.append(f"... and {len(missing) - 20} more uncovered pairs")
    return (not problems, problems)
