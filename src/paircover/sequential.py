"""Per-case generation: one small integer program per new test case.

Each step picks one level per factor to maximize the weight of still
uncovered pairs the case would close, respecting the avoid tuples and any
picks fixed up front (the must-group phase fixes the group's picks this
way).  The weight of a pair is the product of its two factors'
cardinalities, so rarer combinations get priority.

The program is a max-weight clique in a k-partite graph (one part per
factor), so it is solved by an exact depth-first search over the levels of
the leading factors with a per-factor-pair bound, not as a generic binary
MILP.  The last factors form a suffix block whose cases are all scored in
one numpy pass at each leaf of that search, the way AETG scores candidate
rows.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    PartialAssignment,
    StructureError,
    TestCase,
    validate_case,
)
from .interactions import CoverageState, InteractionUniverse, valid_cases
from .milp import Budget, MilpSolution, SolveStatus

DEFAULT_STEP_TIME_LIMIT = 60.0
BLOCK_CASES = 1024  # most cases the suffix block scores in one pass
_UNREACHABLE = -(2**40)  # gain of a level or case the step does not allow


class _SuffixBlock:
    """Every valid case of a universe's last factors ``start..n-1``, as tables.

    ``start`` is the lowest factor such that the cardinalities from it on
    multiply to at most BLOCK_CASES, but the block always holds the last
    factor.  Its cases are ``valid_cases`` from ``start``: those completing
    no avoid tuple all of whose picks lie in the block; there is at least
    one, since a universe with no valid case is never built.  The tables
    depend only on the universe, so each universe builds them once
    (``_suffix_block``).  Each has one column per valid block case, in
    descending lexicographic order, the order the search tries them in:

    - ``cases``: (m, K), the level of each block factor;
    - ``cells``: (m, K), the flat index of each pick (start + j, level) into
      an (n, L) table, so one ``take`` reads such a table per case;
    - ``pair_ids``: (m(m-1)/2, K), the universe pair id of each pair inside
      each case, -1 for a pair that is not in the universe;
    - ``straddling``: (prefix picks, cases) per avoid tuple with picks on
      both sides: once the search has made those prefix picks, those cases
      are invalid.  Tuples with the same prefix picks share one entry.

    ``root`` (n, L) is what each level adds before any pick: 0, or
    _UNREACHABLE for a padding level.
    """

    def __init__(self, universe: InteractionUniverse):
        card = universe.system.cardinalities
        n, top = len(card), universe.pair_id.shape[1]
        start = n - 1
        while start > 0 and math.prod(card[start - 1 :]) <= BLOCK_CASES:
            start -= 1
        self.start = start
        self.cases = cases = valid_cases(universe.system, universe.constraints, start)
        m = len(cases)
        straddling: dict[tuple, np.ndarray] = {}
        for av in universe.constraints.avoid:
            outer = tuple((f, v) for f, v in av.picks if f < start)
            inner = [cases[f - start] == v for f, v in av.picks if f >= start]
            if outer and inner:
                straddling[outer] = straddling.get(outer, False) | np.logical_and.reduce(inner)
        self.cells = cells = (start + np.arange(m))[:, None] * top + cases
        p, q = np.triu_indices(m, 1)
        self.pair_ids = universe.pair_id.reshape(n * top, n * top)[cells[p], cells[q]]
        self.straddling = list(straddling.items())
        self.root = np.where(np.arange(top) < np.array(card)[:, None], 0, _UNREACHABLE)


def _suffix_block(universe: InteractionUniverse) -> _SuffixBlock:
    """The universe's block tables, built on its first step.

    They are kept on the universe itself, not in a module-level cache, so
    they are freed with it.
    """
    block = universe.__dict__.get("_suffix_block")
    if block is None:
        block = universe.__dict__["_suffix_block"] = _SuffixBlock(universe)
    return block


@dataclass
class StepModel:
    """The one-case program in structured form.

    Pick one level per factor of ``universe.system`` so that no avoid tuple
    is completed (``universe.constraints.completes_avoid``), maximizing
    ``sum(gain[i, a_i, j, a_j] for i < j)`` over the levels ``root``
    allows.  ``gain[i, a, j, b]`` is the weight of the pair (i, a), (j, b)
    while it is uncovered and 0 otherwise (also for i >= j and for padding
    levels): the universe's ``pair_id`` table read through ``weights``, the
    coverage state's uncovered weights copied when the step was built
    (``CoverageState.weights``), so marking a case later leaves the step
    as it was.  ``root[i, a]`` is 0 when level a of factor i is allowed and
    _UNREACHABLE when it is padding or a fixed pick excludes it.
    ``tail[d]`` bounds what the pairs among factors d.. can add: the sum of
    each such factor pair's largest entry over the allowed levels.

    ``block`` holds the universe's suffix block, and ``block_score[k]`` is
    what the pairs inside its valid case k add.  ``gain`` and ``tail`` are
    built on first read: ``solve`` needs them only when the block does not
    start at factor 0.
    """

    universe: InteractionUniverse
    root: np.ndarray  # int64 (n, L)
    block: _SuffixBlock
    block_score: np.ndarray  # int64 (K,)
    weights: np.ndarray  # int64, len(universe) + 1

    @cached_property
    def gain(self) -> np.ndarray:
        """int64 (n, L, n, L), L the largest cardinality."""
        return self.weights[self.universe.pair_id]

    @cached_property
    def tail(self) -> list[int]:
        """n + 1 entries, tail[n] == 0."""
        ok = self.root == 0
        reachable = np.where(ok[:, :, None, None] & ok[None, None], self.gain, 0)
        per_factor = reachable.max(axis=(1, 3)).sum(axis=1)
        return np.concatenate([np.cumsum(per_factor[::-1])[::-1], [0]]).tolist()

    def decode(self, values) -> TestCase:
        """The case of the level per factor ``solve`` found."""
        tc = TestCase(tuple(values))
        if not validate_case(tc, self.universe.system, self.universe.constraints):
            raise StructureError("decoded step case violates an avoid tuple")
        return tc


def build_step(coverage: CoverageState, fixed: PartialAssignment | None = None) -> StepModel:
    """Assemble the one-case maximization over the pairs ``coverage`` has
    left uncovered, with the ``fixed`` picks."""
    universe = coverage.universe
    block = _suffix_block(universe)
    root = block.root
    if fixed is not None:
        fixed.validate_against(universe.system)
        root = root.copy()
        for f, v in fixed.picks:
            root[f] = _UNREACHABLE
            root[f, v] = 0

    w = coverage.weights.copy()
    return StepModel(universe, root, block, w.take(block.pair_ids).sum(axis=0), w)


def solve(
    step: StepModel, time_limit: float = math.inf, upper: int | None = None
) -> MilpSolution:
    """Best case of ``step``, exact unless ``time_limit`` runs out.

    Depth-first over the factors before the suffix block (``step.block``)
    in index order, levels in descending order.  A child is entered only
    while its bound (picks so far, plus each later factor's best level
    against them, plus ``tail``) beats the incumbent; a level ``root``
    excludes starts at _UNREACHABLE, so it never does.  Each leaf, or the
    root when the block starts at factor 0, scores all the block's valid
    cases at once: the picks so far, plus ``block_score``, plus what each
    block pick adds against the picks so far; cases that complete an avoid
    tuple across the block's start are masked.  The first best case, in
    descending order, replaces the incumbent only when strictly better, so
    the result is the lexicographically largest optimal case.  The search
    stops as soon as the incumbent reaches ``tail[0]``, or ``upper`` when
    that is lower: the caller's proof that no case of ``step`` is worth
    more (a proven earlier step's value over the same feasible cases, whose
    uncovered weights can only have fallen since).  The first case in
    search order worth the optimum is still the one returned.

    The search is one loop over a stack of frames, one per factor picked so
    far.  Each pass scores a leaf or pushes a frame, then pops the frames
    with no level left worth entering and enters the deepest one's next.

    ``nodes`` counts the search's nodes plus one per block scoring, and
    ``last_improved_node`` is that count when the incumbent last improved
    (None with no incumbent).  ``root_bound`` is ``tail[0]``, or with no
    prefix the objective itself, since the one block scoring is exhaustive.
    A ``Budget`` counts the nodes and stops the search on timeout.
    ``values`` is the level per factor, which ``StepModel.decode`` turns
    into the case.
    """
    budget = Budget(time_limit)
    block, block_score = step.block, step.block_score
    s, cases, cells, straddling = block.start, block.cases, block.cells, block.straddling
    card = step.universe.system.cardinalities
    completes_avoid = step.universe.constraints.completes_avoid
    levels = [-1] * len(card)  # factors at or past the current depth stay -1
    best, best_levels, improved = -1, None, None
    if s:
        gain, tail = step.gain, step.tail
        cap = tail[0] if upper is None else min(tail[0], upper)
    frames = []  # per factor picked: (value before it, here, rest, child, untried levels)
    cur, reach = 0, step.root  # reach[j, b]: what level b of factor j adds to the picks
    while True:
        d = len(frames)
        if d == s:
            if budget.spend():
                break
            score = block_score
            if reach is not block.root:  # picks made, or fixed picks exclude levels
                score = score + reach.take(cells).sum(axis=0)
            for picks, rows in straddling:
                if all(levels[g] == v for g, v in picks):
                    score[rows] = _UNREACHABLE
            k = int(score.argmax())
            value = cur + int(score[k])
            if value > best:
                best, best_levels = value, levels[:s] + cases[:, k].tolist()
                improved = budget.nodes
                if s and best >= cap:
                    break
        else:
            child = reach + gain[d]
            rest = (child[:, d + 1 :].max(axis=2).sum(axis=1) + tail[d + 1]).tolist()
            frames.append((cur, reach[d].tolist(), rest, child, iter(range(card[d] - 1, -1, -1))))
        while frames:  # back up to the deepest factor with a level worth entering
            d = len(frames) - 1
            base, here, rest, child, untried = frames[d]
            for a in untried:
                if base + here[a] + rest[a] > best and not completes_avoid(d, a, levels):
                    break
            else:
                frames.pop()
                levels[d] = -1
                continue
            break
        if not frames or budget.spend():
            break
        levels[d] = a
        cur, reach = base + here[a], child[a]

    root_bound = tail[0] if s else (best if best_levels is not None else None)
    return budget.solution(best, best_levels, last_improved_node=improved, root_bound=root_bound)


def generate_single_case(
    coverage: CoverageState,
    fixed: PartialAssignment | None = None,
    time_limit: float = DEFAULT_STEP_TIME_LIMIT,
    upper: int | None = None,
) -> tuple[TestCase, dict]:
    """Best next case over ``coverage.universe`` and the step's stats.

    The step is formulated even when every pair is covered, as a must
    group still needs its case.  ``upper``, when given, is a proven bound
    on the step's value that ``solve`` may stop at (see there).  A solve
    that times out with an incumbent still returns that case, with status
    ``feasible``; with none it returns ``coverage.witness(fixed)``, and
    the stats stay the search's own (status ``timed_out``, objective None).
    """
    t0 = time.perf_counter()
    step = build_step(coverage, fixed)
    sol = solve(step, time_limit, upper)
    stats = {
        "uncovered_before": int(np.count_nonzero(step.weights)),
        "status": sol.status.value,
        "objective": sol.objective,
        **sol.stats,  # nodes, last_improved_node, root_bound
        "wall_s": time.perf_counter() - t0,
    }
    if sol.status == SolveStatus.INFEASIBLE:
        raise StructureError(
            "step model infeasible: the fixed picks conflict with the avoid tuples"
        )
    if not sol.has_solution:
        return coverage.witness(fixed), stats
    return step.decode(sol.values), stats
