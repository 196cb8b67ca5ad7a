"""Pairwise interactions: the coverage universe and coverage bookkeeping.

An interaction is a value pair ((i, a), (j, b)) with i < j.  The universe
holds every *achievable* interaction: one that some constraint-valid full
test case contains.  Interactions ruled out by the avoid tuples are dropped
up front so coverage ratios are measured against what is actually coverable.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .core import (
    ConstraintSet,
    FactorSystem,
    PartialAssignment,
    StructureError,
    TestCase,
    TestSuite,
)

# models with at most this many full cases list them all to build their
# universe; listing beats the witness search up to here (README, "Universe build")
_ENUMERATE_CASES = 4096
# random valid cases a searched build marks before its first search
# (README, "Universe build")
_SAMPLED_CASES = 128


def wipes_out(
    constraints: ConstraintSet, cardinalities: Sequence[int], factor: int, level: int, levels
) -> bool:
    """Forward check: the pick (factor, level), already written into
    ``levels``, leaves some unassigned factor of its avoid tuples with no
    level that completes no avoid tuple (``levels[g]`` is -1 while factor g
    is unassigned).  Then no valid case extends ``levels``."""
    for g in constraints.avoid_neighbours(factor, level):
        if levels[g] < 0:
            for w in range(cardinalities[g]):
                if not constraints.completes_avoid(g, w, levels):
                    break
            else:
                return True
    return False


def find_extension(
    assignment: PartialAssignment,
    system: FactorSystem,
    constraints: ConstraintSet,
) -> TestCase | None:
    """The first constraint-valid case extending ``assignment``.

    Depth-first over the unassigned factors in index order, each trying its
    levels in index order and skipping any level that completes an avoid
    tuple (``ConstraintSet.completes_avoid``), so the first leaf reached is
    the lexicographically smallest valid extension.  Returns None when no
    valid extension exists, including when the fixed picks already complete
    an avoid tuple.

    Forward checking (:func:`wipes_out`, the rule greedy's walk shares):
    after the fixed picks and after each pick, every unassigned factor
    sharing an avoid tuple with a new pick must keep a level that is not
    blocked, or the subtree is abandoned.  Blocks only grow as picks are
    added, so such a subtree holds no valid leaf and the result is
    unchanged; the search just learns of a dead end at a late factor
    without walking every partial case before it.
    """
    assignment.validate_against(system)
    card = system.cardinalities
    levels = [-1] * system.n_factors
    for f, v in assignment.picks:
        levels[f] = v
    if any(constraints.completes_avoid(f, v, levels) for f, v in assignment.picks):
        return None

    if any(wipes_out(constraints, card, f, v, levels) for f, v in assignment.picks):
        return None
    free = [f for f in range(system.n_factors) if levels[f] < 0]
    # per free factor, the levels left to try: a loop, not a frame per
    # factor, so a wide model needs no deep recursion
    untried = [iter(range(card[f])) for f in free]
    k = 0
    while 0 <= k < len(free):
        f = free[k]
        for v in untried[k]:
            if not constraints.completes_avoid(f, v, levels):
                levels[f] = v
                if not wipes_out(constraints, card, f, v, levels):
                    k += 1
                    break
        else:
            levels[f] = -1
            untried[k] = iter(range(card[f]))
            k -= 1
    return TestCase(tuple(levels)) if k == len(free) else None


def case_levels(cases: Sequence[TestCase], n_factors: int) -> np.ndarray:
    """The cases as an (n_factors, len(cases)) level array, one column per
    case."""
    return np.array([tc.levels for tc in cases], dtype=np.int64).reshape(-1, n_factors).T


def _holding(cases: np.ndarray, factors: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """(t, k): which columns of ``cases`` hold each tuple of the (t, s) picks."""
    hit = cases[factors[:, 0]] == levels[:, :1]
    for p in range(1, factors.shape[1]):
        hit &= cases[factors[:, p]] == levels[:, p : p + 1]
    return hit


def avoided(cases: np.ndarray, constraints: ConstraintSet, start: int = 0) -> np.ndarray:
    """Which columns of ``cases``, a level array whose rows are factors
    ``start..n-1``, hold an avoid tuple lying wholly among those factors:
    the tuples of one size (``ConstraintSet.avoid_by_size``) are compared
    together, one pick position at a time."""
    bad = np.zeros(cases.shape[1], dtype=bool)
    for f, v in constraints.avoid_by_size:
        among = f[:, 0] >= start  # picks are sorted by factor
        bad |= _holding(cases, f[among] - start, v[among]).any(axis=0)
    return bad


def carried(cases: np.ndarray, constraints: ConstraintSet) -> np.ndarray:
    """A (len(must), k) table of which columns of ``cases``, an (n, k) level
    array, hold each must tuple, all compared together as in :func:`avoided`."""
    width = max(map(len, constraints.must), default=1)
    # a shorter tuple repeats its last pick, which changes no comparison
    picks = [mu.picks + mu.picks[-1:] * (width - len(mu)) for mu in constraints.must]
    picks = np.array(picks, dtype=np.int64).reshape(-1, width, 2)
    return _holding(cases, picks[..., 0], picks[..., 1])


def valid_cases(system: FactorSystem, constraints: ConstraintSet, start: int = 0) -> np.ndarray:
    """Every assignment of factors ``start..n-1`` that completes no avoid
    tuple lying wholly among them, as an (n - start, K) level array, one
    column per case, in descending lexicographic order."""
    sizes = system.cardinalities[start:]
    cases = np.array(sizes)[:, None] - 1 - np.indices(sizes).reshape(len(sizes), -1)
    return cases[:, ~avoided(cases, constraints, start)]


def sampled_cases(system: FactorSystem, constraints: ConstraintSet, count: int) -> np.ndarray:
    """Up to ``count`` random avoid-valid full cases, as an (n, k) level
    array with one column per case and k <= count.

    Forward sampling with its own generator, so two calls return the same
    cases: the factors are filled in index order, each with a random level
    that completes no avoid tuple whose last pick is on that factor.  Picks
    are sorted by factor, so every tuple is checked once, when all of its
    picks are set.  A case left with no allowed level at some factor is
    dropped.  A level is drawn with weight one over the number of cases
    that allow it, so the levels the avoids often block still turn up about
    as often as the others (exponential keys, largest wins).
    """
    n, card = system.n_factors, system.cardinalities
    # one draw for the whole batch: draws[f, v, c] ranks level v of f in case c
    draws = np.random.default_rng(0).standard_exponential((n, max(card), count))
    by_last: list[list] = [[] for _ in range(n)]
    for av in constraints.avoid:
        by_last[av.picks[-1][0]].append(av.picks)
    cases = np.zeros((n, count), dtype=np.int64)
    alive = np.ones(count, dtype=bool)
    for f, c in enumerate(card):
        allowed = np.ones((c, count), dtype=bool)
        for *rest, (_, v) in by_last[f]:
            hit = np.True_  # a 1-pick tuple blocks its level in every case
            for g, w in rest:
                hit = hit & (cases[g] == w)
            allowed[v] &= ~hit
        keys = draws[f, :c] * -allowed.sum(axis=1, keepdims=True)
        cases[f] = np.where(allowed, keys, -np.inf).argmax(axis=0)
        alive &= allowed.any(axis=0)
    return cases[:, alive]


class InteractionUniverse:
    """All achievable interactions of a system, in a fixed canonical order.

    Interactions are ordered lexicographically by (i, j, a, b).  The level
    data lives in flat numpy arrays ``f1, v1, f2, v2`` with ``weights``, the
    product of each pair's two factor cardinalities.
    ``pair_id[i, a, j, b]`` (shape (n, L, n, L), L the largest cardinality)
    is the universe index of the pair (i, a), (j, b), or -1 when i >= j,
    when a level is padding or when the pair is not achievable, so reading
    the pairs of one case or of a whole suite (``pair_ids``) is one gather.

    A model with avoids and at most _ENUMERATE_CASES full cases marks the
    pairs of its ``valid_cases``; a larger one marks the pairs of a random
    batch of valid cases (``sampled_cases``) and searches for a witness
    only for each pair left (``_witnessed``).  Both mark exactly the pairs
    some valid case holds.  Raises StructureError when no case is valid:
    every model has two factors of two levels or more, so that is exactly
    when the universe would be empty.

    ``witnesses`` are cases of ``system`` the caller already has, such as
    the suite being verified: on the search path the avoid-valid ones
    (``avoided``) prove their pairs achievable before any extension search,
    in place of the random batch, so they save searches and change nothing
    else; the listed path needs none.
    """

    def __init__(
        self,
        system: FactorSystem,
        constraints: ConstraintSet,
        witnesses: Iterable[TestCase] = (),
    ):
        constraints.validate_against(system)
        self.system = system
        self.constraints = constraints

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
            if math.prod(system.cardinalities) <= _ENUMERATE_CASES:
                i, j = self._tri
                cases = valid_cases(system, constraints)
                ok = np.zeros_like(ok)
                ok[i[:, None], j[:, None], cases[i], cases[j]] = True
            else:
                ok = self._witnessed(ok, case_levels(witnesses, n))

        i, j, a, b = np.nonzero(ok)
        if len(i) == 0:
            raise StructureError("the avoid tuples rule out every test case")
        self.f1 = i.astype(np.int32)
        self.v1 = a.astype(np.int32)
        self.f2 = j.astype(np.int32)
        self.v2 = b.astype(np.int32)
        self.weights = card[i] * card[j]
        self.pair_id = np.full((n, top, n, top), -1, dtype=np.int64)
        self.pair_id[i, a, j, b] = np.arange(len(i))

    def _witnessed(self, candidates: np.ndarray, witnesses: np.ndarray) -> np.ndarray:
        """Which candidate pairs ``[i, j, a, b]`` some valid case holds.

        Every valid case witnesses all of its pairs: first the avoid-valid
        ``witnesses`` (an (n, k) level array), or with none of them
        _SAMPLED_CASES random valid cases (``sampled_cases``), then each
        case an extension search returns, so a pair is searched only while
        no witness holds it.  A single level is searched only while no
        witness holds it: its case witnesses many pairs at once, and a
        level with no valid case rules out all of its pairs.  A pair whose
        two picks complete an avoid tuple is dropped without a search.
        """
        system, constraints = self.system, self.constraints
        card = system.cardinalities
        n = system.n_factors
        i, j = self._tri
        seen = np.zeros_like(candidates)
        held = np.zeros((n, candidates.shape[-1]), dtype=bool)  # [f, v]: a witness picks it

        def mark(levels) -> None:
            lv = np.array(levels, dtype=np.int64)  # one case or a stack of them
            seen[i, j, lv[..., i], lv[..., j]] = True
            held[np.arange(n), lv] = True

        def witness(*picks) -> bool:
            # through the module attribute, which perfbench's tracer rebinds
            tc = find_extension(PartialAssignment(picks), system, constraints)
            if tc is not None:
                mark(tc.levels)
            return tc is not None

        valid = witnesses[:, ~avoided(witnesses, constraints)]
        mark((valid if valid.shape[1] else sampled_cases(system, constraints, _SAMPLED_CASES)).T)
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

    def interaction(self, k: int) -> PartialAssignment:
        """Pair ``k`` as its two picks ((i, a), (j, b))."""
        return PartialAssignment(
            ((int(self.f1[k]), int(self.v1[k])), (int(self.f2[k]), int(self.v2[k])))
        )

    def pair_ids(self, levels) -> np.ndarray:
        """Per factor pair (i, j), i < j, in order, the universe id of its pair
        or -1: (P,) for one case's levels, (P, k) for an (n, k) level array."""
        lv = np.asarray(levels, dtype=np.int64)
        i, j = self._tri
        # transposed, so the factor-pair axis is last and broadcasts
        return self.pair_id[i, lv[i].T, j, lv[j].T].T


class CoverageState:
    """Mutable coverage bookkeeping over one universe: ``weights[u]`` is pair
    u's weight (at least 1) while u is uncovered and 0 once a marked case
    holds it; one last entry, always 0, is what pair id -1 reads."""

    def __init__(self, universe: InteractionUniverse):
        self.universe = universe
        self.weights = np.append(universe.weights, 0)

    @property
    def is_full(self) -> bool:
        return not self.weights.any()

    def uncovered_indices(self) -> np.ndarray:
        return np.flatnonzero(self.weights)

    def mark_case(self, case: TestCase) -> int:
        """Mark the case's pairs covered; returns how many were new."""
        ids = self.universe.pair_ids(case.levels)  # id -1 reads, and writes, the trailing 0
        fresh = int(np.count_nonzero(self.weights[ids]))
        self.weights[ids] = 0
        return fresh


def coverage_curve(suite: TestSuite, universe: InteractionUniverse) -> list[float]:
    """Cumulative coverage ratio after each case of the suite, in order."""
    m = len(suite)
    ids = universe.pair_ids(case_levels(suite, universe.system.n_factors))
    first = np.full(len(universe) + 1, m)  # [u]: the first row holding pair u
    # broadcast by hand: numpy's ufunc.at can get an unbroadcast operand wrong
    np.minimum.at(first, ids, np.broadcast_to(np.arange(m), ids.shape))
    gained = np.bincount(first[:-1], minlength=m + 1)[:m]  # [r]: the pairs row r adds
    return (np.cumsum(gained) / len(universe)).tolist()


def verify_suite(
    suite: TestSuite,
    constraints: ConstraintSet,
    universe: InteractionUniverse | None = None,
) -> tuple[bool, list[str]]:
    """Full-suite check: validity, must satisfaction, complete coverage.

    Returns (ok, problems); problems lists one message per violation.  A
    universe built here is seeded with the suite, whose avoid-valid rows
    prove their pairs, so only the pairs the suite leaves uncovered need an
    extension search.
    """
    system = suite.system
    constraints.validate_against(system)
    levels = case_levels(suite, system.n_factors)
    bad = avoided(levels, constraints)
    problems = [
        f"case {r} violates an avoid tuple: {suite.cases[r].levels}"
        for r in np.flatnonzero(bad).tolist()
    ]
    if universe is None:
        universe = InteractionUniverse(system, constraints, witnesses=suite)
    for m, held in zip(constraints.must, carried(levels, constraints).any(axis=1).tolist()):
        if not held:
            problems.append(f"no case contains the must tuple {m.picks}")
    covered = np.zeros(len(universe) + 1, dtype=bool)
    covered[universe.pair_ids(levels)] = True
    missing = np.flatnonzero(~covered[:-1])
    for k in missing[:20]:
        (i, a), (j, b) = universe.interaction(int(k)).picks
        problems.append(f"uncovered pair: factor {i}={a}, factor {j}={b}")
    if len(missing) > 20:
        problems.append(f"... and {len(missing) - 20} more uncovered pairs")
    return (not problems, problems)
