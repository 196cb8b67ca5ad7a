"""Greedy one-pass suite construction, the non-optimizing baseline.

Cases are built factor by factor: factors ordered by how many uncovered
pairs they still touch, each factor assigned the level that closes the most
uncovered pairs against the picks made so far.  Levels that would complete
an avoid tuple are skipped, with chronological backtracking when a factor
runs out of levels.  Ties rotate from one draw per factor at the start of
each case, so different seeds give different (still valid) suites.

The walk never enters a subtree that holds no valid case: it never tries a
level that no universe pair holds (no valid case holds it), and after each
pick it runs the forward check ``find_extension`` uses
(``interactions.wipes_out``).  Such a subtree, walked to its end, would
hand back the same picks and scores it was entered with, and the rotations
do not depend on how far the walk went, so skipping it changes no case: a
suite depends on the ranking rule and the seed alone.

Scores are kept, not recomputed: each case starts from one table of which
pairs are still uncovered, and a running score per (factor, level) gains
that table's row for each placed level and loses it again when the walk
backs up, so ranking a factor's levels reads a row of small ints.

Must tuples are ignored here: this generator exists as a fast baseline and
a warm-start source, and the pipeline's must phase takes care of them.
"""

from __future__ import annotations

import numpy as np

from .core import PaircoverError, TestCase, TestSuite
# find_extension is not called here: perfbench's tracer rebinds it on this module
from .interactions import CoverageState, InteractionUniverse, find_extension, wipes_out

MAX_BACKTRACKS_PER_CASE = 10_000


def greedy_suite(universe: InteractionUniverse, seed: int = 0) -> TestSuite:
    """Cover every pair of ``universe`` with one greedy case after another."""
    system, constraints = universe.system, universe.constraints
    n = system.n_factors
    card = system.cardinalities
    # sym[f, a, g, b]: the pair (f, a), (g, b) in either order, -1 for no pair
    pid = universe.pair_id
    sym = np.maximum(pid, pid.transpose(2, 3, 0, 1))
    live = _live_levels(sym, card)
    rng = np.random.default_rng(seed)
    state = CoverageState(universe)
    suite = TestSuite(system)
    limit = len(universe) + 1

    while not state.is_full:
        if len(suite) >= limit:
            raise PaircoverError(f"greedy did not converge within {limit} cases")
        open_ = state.weights != 0  # per pair id; id -1 reads the last, False
        # factor order: most uncovered pairs touched first
        touch = np.bincount(universe.f1[open_[:-1]], minlength=n)
        touch += np.bincount(universe.f2[open_[:-1]], minlength=n)
        factor_order = np.argsort(-touch, kind="stable").tolist()
        rots = rng.integers(0, card).tolist()  # tie rotation per factor
        # gain[g, b, f, a] is 1 while the pair (g, b), (f, a) is uncovered;
        # score[f, a] sums gain[g, assigned[g], f, a] over the placed
        # factors, kept as levels are placed and taken back
        gain = open_[sym].astype(np.int64)
        potential = gain.sum(axis=(2, 3))
        score = np.zeros_like(potential)

        assigned = [-1] * n
        # per position, the levels left to try, ranked at first visit.  Only
        # placed factors hold a level; backing up to a position takes its
        # level back before the next one is tried
        ranked: list = [None] * n
        pos = 0
        backtracks = 0
        while 0 <= pos < n:
            f = factor_order[pos]
            if ranked[pos] is None:
                scores = score[f, : card[f]].tolist()
                if not any(scores):
                    # nothing assigned connects yet: rank by uncovered potential
                    scores = potential[f, : card[f]].tolist()
                rot, c = rots[f], card[f]
                ranked[pos] = iter(sorted(live[f], key=lambda v: (-scores[v], (v - rot) % c)))
            for v in ranked[pos]:
                if not constraints.completes_avoid(f, v, assigned):
                    assigned[f] = v
                    if wipes_out(constraints, card, f, v, assigned):
                        assigned[f] = -1
                        continue
                    score += gain[f, v]
                    pos += 1
                    break
            else:
                ranked[pos] = None
                pos -= 1
                if pos >= 0:
                    g = factor_order[pos]
                    score -= gain[g, assigned[g]]
                    assigned[g] = -1
                backtracks += 1
                if backtracks > MAX_BACKTRACKS_PER_CASE:
                    break

        tc = TestCase(tuple(assigned)) if pos == n else None
        if tc is None or state.mark_case(tc) == 0:
            # constraints cornered the walk, or its case marked nothing new:
            # fall back to a witness of an uncovered pair
            tc = state.witness()
            state.mark_case(tc)
        suite.append(tc)
    return suite


def _live_levels(sym: np.ndarray, card) -> list[list[int]]:
    """Per factor, the levels some universe pair holds, in index order."""
    held = (sym >= 0).any(axis=(2, 3))
    return [np.flatnonzero(held[f, :c]).tolist() for f, c in enumerate(card)]

