"""Pairwise interactions: the coverage universe and coverage bookkeeping.

An interaction is a value pair ((i, a), (j, b)) with i < j.  The universe
holds every *achievable* interaction: one that some constraint-valid full
test case contains.  Interactions ruled out by the avoid tuples are dropped
up front so coverage ratios are measured against what is actually coverable.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Iterable, Sequence

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
    start: Sequence[int] | None = None,
) -> TestCase | None:
    """The first constraint-valid case extending ``assignment``.

    Depth-first over the unassigned factors in index order, skipping any
    level that completes an avoid tuple (``ConstraintSet.completes_avoid``).
    Each factor f tries ``start[f]`` first, then the levels after it in
    index order, wrapping around to 0; with ``start=None`` every factor
    starts at 0, so the first leaf reached is the lexicographically smallest
    valid extension.  Returns None when no valid extension exists,
    including when the fixed picks already complete an avoid tuple.

    Forward checking: after the fixed picks and after each pick, every
    unassigned factor sharing an avoid tuple with a new pick must keep a
    level that is not blocked, or the subtree is abandoned.  Blocks only
    grow as picks are added, so such a subtree holds no valid leaf and the
    result is unchanged; the search just learns of a dead end at a late
    factor without walking every partial case before it.
    """
    assignment.validate_against(system)
    card = system.cardinalities
    levels = [-1] * system.n_factors
    for f, v in assignment.picks:
        levels[f] = v
    if any(constraints.completes_avoid(f, v, levels) for f, v in assignment.picks):
        return None

    def wipes_out(f: int, v: int) -> bool:
        """Pick (f, v) leaves some unassigned neighbour with no level."""
        return any(
            levels[g] < 0
            and all(constraints.completes_avoid(g, w, levels) for w in range(card[g]))
            for g in constraints.avoid_neighbours(f, v)
        )

    if any(wipes_out(f, v) for f, v in assignment.picks):
        return None
    free = [f for f in range(system.n_factors) if levels[f] < 0]
    if start is None:
        order = [range(card[f]) for f in free]
    else:
        order = [(*range(start[f], card[f]), *range(start[f])) for f in free]

    def search(k: int) -> bool:
        if k == len(free):
            return True
        f = free[k]
        for v in order[k]:
            if not constraints.completes_avoid(f, v, levels):
                levels[f] = v
                if not wipes_out(f, v) and search(k + 1):
                    return True
        levels[f] = -1
        return False

    return TestCase(tuple(levels)) if search(0) else None


class InteractionUniverse:
    """All achievable interactions of a system, in a fixed canonical order.

    Interactions are ordered lexicographically by (i, j, a, b).  The level
    data lives in flat numpy arrays ``f1, v1, f2, v2`` with ``weights``.
    ``pair_id[i, a, j, b]`` (shape (n, L, n, L), L the largest cardinality)
    is the universe index of the pair (i, a), (j, b), or -1 when i >= j,
    when a level is padding or when the pair is not achievable, so coverage
    marking is a single gather per case.

    ``witnesses`` are cases the caller already has, such as the suite being
    verified: the avoid-valid ones prove their pairs achievable before any
    extension search, so they save searches and change nothing else.
    """

    def __init__(
        self,
        system: FactorSystem,
        constraints: ConstraintSet,
        weighted: bool = True,
        witnesses: Iterable[TestCase] = (),
    ):
        constraints.validate_against(system)
        self.system = system
        self.constraints = constraints
        self.weighted = weighted

        card = np.array(system.cardinalities, dtype=np.int64)
        n, top = len(card), int(card.max())
        real = np.arange(top) < card[:, None]  # (factor, level) exists
        # ok[i, j, a, b]: the pair is achievable; C order is the canonical order
        ok = (
            np.triu(np.ones((n, n), dtype=bool), 1)[:, :, None, None]
            & real[:, None, :, None]
            & real[None, :, None, :]
        )
        self._tri = np.triu_indices(n, 1)
        if constraints.avoid:
            ok = self._witnessed(ok, witnesses)

        i, j, a, b = np.nonzero(ok)
        self.f1 = i.astype(np.int32)
        self.v1 = a.astype(np.int32)
        self.f2 = j.astype(np.int32)
        self.v2 = b.astype(np.int32)
        self.weights = card[i] * card[j] if weighted else np.ones(len(i), dtype=np.int64)
        self.pair_id = np.full((n, top, n, top), -1, dtype=np.int64)
        self.pair_id[i, a, j, b] = np.arange(len(i))

    def _witnessed(self, candidates: np.ndarray, witnesses: Iterable[TestCase]) -> np.ndarray:
        """Which candidate pairs ``[i, j, a, b]`` some valid case holds.

        Every valid case witnesses all of its pairs: first the avoid-valid
        ``witnesses`` (the others are skipped), then each case an extension
        search returns, so a pair is searched only while no witness holds
        it.  A single level is searched only while no witness holds it: its
        case witnesses many pairs at once, and a level with no valid case
        rules out all of its pairs.  A pair whose two picks complete an
        avoid tuple is dropped without a search.  Successive searches start
        each factor at a different level (``find_extension``'s ``start``), so
        their cases spread over the levels instead of crowding near level 0.
        """
        system, constraints = self.system, self.constraints
        card = system.cardinalities
        n = system.n_factors
        i, j = self._tri
        seen = np.zeros_like(candidates)
        held = np.zeros((n, candidates.shape[-1]), dtype=bool)  # [f, v]: a witness picks it
        searches = count()

        def mark(levels) -> None:
            lv = np.array(levels, dtype=np.int64)  # one case or a stack of them
            seen[i, j, lv[..., i], lv[..., j]] = True
            held[np.arange(n), lv] = True

        def witness(*picks) -> bool:
            w = next(searches)
            # each factor steps through its levels at its own stride, shifted
            # once per lap, so successive cases share few pairs
            start = [(w * (f + 1) + w // c) % c for f, c in enumerate(card)]
            # through the module attribute, which perfbench's tracer rebinds
            tc = find_extension(PartialAssignment(picks), system, constraints, start)
            if tc is not None:
                mark(tc.levels)
            return tc is not None

        valid = [tc.levels for tc in witnesses if validate_case(tc, system, constraints)]
        if valid:
            mark(valid)
        dead = [
            (f, v)
            for f in range(n)
            for v in range(card[f])
            if not held[f, v] and not witness((f, v))
        ]
        todo = candidates & ~seen
        for f, v in dead:
            todo[f, :, v, :] = False
            todo[:, f, :, v] = False
        levels = [-1] * n
        for p, q, a, b in zip(*(x.tolist() for x in np.nonzero(todo))):
            if seen[p, q, a, b]:
                continue
            levels[p] = a
            if not constraints.completes_avoid(q, b, levels):
                witness((p, a), (q, b))
            levels[p] = -1
        return seen

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
        i, j = self._tri
        ids = self.pair_id[i, arr[i], j, arr[j]]
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

    Returns (ok, problems); problems lists one message per violation.  A
    universe built here is seeded with the suite's avoid-valid rows, so only
    the pairs the suite leaves uncovered need an extension search.
    """
    system = suite.system
    constraints.validate_against(system)
    if universe is None:
        universe = InteractionUniverse(system, constraints, witnesses=suite)
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
