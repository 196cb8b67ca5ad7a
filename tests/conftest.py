"""Shared fixtures and independent oracles.

The brute-force oracles deliberately avoid the package's solver and
universe machinery: valid cases come from enumerating the full product
space, achievable pairs from scanning those cases, minimum suite sizes
from a depth-limited set-cover search over them, and the must tuples a
suite carries (``satisfied_musts``) from a plain scan of its rows.  Slow but trustworthy at
the scales the tests use.  ``brute_force_step`` scores every valid case
against a universe's pair list, and ``step_milp`` states a per-case step
as a generic binary MILP, so the step search can be checked against
enumeration and against the MILP solvers.  ``cover_milp`` and
``covered_by_some`` do the same for the set-cover search.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np
import pytest

from paircover.bench import random_avoids
from paircover.core import ConstraintSet, PartialAssignment, TestCase
from paircover.milp import MilpModel


def random_constraints(system, rng, n_avoid=0, n_must=0, max_tries=200, avoid=()):
    """Random avoid pairs (``bench.random_avoids``) after the given
    ``avoid`` tuples, plus musts that do not contain any avoid."""
    avoid = tuple(avoid) + random_avoids(system, rng, n_avoid)
    musts = []
    tries = 0
    while len(musts) < n_must and tries < max_tries:
        tries += 1
        k = int(rng.integers(1, min(system.n_factors, 3) + 1))
        fs = sorted(rng.choice(system.n_factors, size=k, replace=False))
        mu = PartialAssignment(
            tuple((int(f), int(rng.integers(system.cardinalities[int(f)]))) for f in fs)
        )
        if any(mu.extends(av) for av in avoid):
            continue
        musts.append(mu)
    return ConstraintSet(avoid=avoid, must=tuple(musts))


def mixed_avoids(system, rng):
    """0-1 one-pick, 0-2 two-pick and, with three factors or more, 0-2
    three-pick random avoid tuples."""
    avoid = random_avoids(system, rng, int(rng.integers(0, 2)), size=1)
    avoid += random_avoids(system, rng, int(rng.integers(0, 3)))
    if system.n_factors >= 3:
        avoid += random_avoids(system, rng, int(rng.integers(0, 3)), size=3)
    return avoid


# ---------------------------------------------------------------- oracles


def enumerate_valid_cases(system, constraints):
    """Every full assignment that violates no avoid tuple."""
    out = []
    for levels in itertools.product(*(range(c) for c in system.cardinalities)):
        ok = True
        for av in constraints.avoid:
            if all(levels[f] == v for f, v in av.picks):
                ok = False
                break
        if ok:
            out.append(TestCase(levels))
    return out


def subsumes(case, assignment):
    """True when ``case`` agrees with every pick of ``assignment``."""
    return all(case.levels[f] == v for f, v in assignment.picks)


def satisfied_musts(suite, constraints):
    """Per must tuple, whether some row of ``suite`` holds all its picks."""
    return [
        any(all(tc.levels[f] == v for f, v in mu.picks) for tc in suite)
        for mu in constraints.must
    ]


class Pair(NamedTuple):
    """A universe pair: level a of factor i with level b of factor j, i < j."""

    i: int
    a: int
    j: int
    b: int


def uniform_weights(universe):
    """``universe`` with every pair weighing 1 in place of the product of
    its factors' cardinalities, so the steps count uncovered pairs.  Call
    it before any ``CoverageState`` copies the weights."""
    universe.weights = np.ones(len(universe), dtype=np.int64)
    return universe


def universe_pairs(universe):
    """Every pair of ``universe`` as a ``Pair``, in its canonical order."""
    columns = (universe.f1, universe.v1, universe.f2, universe.v2)
    return [Pair(*p) for p in zip(*(c.tolist() for c in columns))]


def achievable_pairs(system, valid_cases):
    """All (i, a, j, b) with i < j present in at least one valid case."""
    pairs = set()
    n = system.n_factors
    for tc in valid_cases:
        for i in range(n):
            for j in range(i + 1, n):
                pairs.add((i, tc.levels[i], j, tc.levels[j]))
    return pairs


def _case_items(tc, pairs, musts):
    items = set()
    n = len(tc.levels)
    for i in range(n):
        for j in range(i + 1, n):
            key = (i, tc.levels[i], j, tc.levels[j])
            if key in pairs:
                items.add(key)
    for g, mu in enumerate(musts):
        if all(tc.levels[f] == v for f, v in mu.picks):
            items.add(("must", g))
    return frozenset(items)


def oracle_min_suite_size(system, constraints):
    """Exact minimum suite size by iterative-deepening set cover.

    Items to cover: every achievable pair plus one pseudo-item per must
    tuple.  Only intended for tiny spaces (a few dozen valid cases).
    """
    valid = enumerate_valid_cases(system, constraints)
    pairs = achievable_pairs(system, valid)
    musts = list(constraints.must)
    for mu in musts:
        if not any(all(tc.levels[f] == v for f, v in mu.picks) for tc in valid):
            raise ValueError("must tuple unsatisfiable; bad instance")
    all_items = set().union(*(_case_items(tc, pairs, musts) for tc in valid)) if valid else set()
    covers = [_case_items(tc, pairs, musts) for tc in valid]
    if not all_items:
        return 0
    biggest = max(len(c) for c in covers)

    def exists(uncovered, budget):
        if not uncovered:
            return True
        if budget <= 0 or math.ceil(len(uncovered) / biggest) > budget:
            return False
        target = min(uncovered, key=str)  # deterministic pivot
        for c in covers:
            if target in c:
                if exists(uncovered - c, budget - 1):
                    return True
        return False

    k = 1
    while True:
        if exists(frozenset(all_items), k):
            return k
        k += 1


def brute_force_step(cases, universe, uncovered_ids, fixed=None):
    """Best step weight and the lexicographically largest case reaching it.

    ``cases`` holds the constraint-valid cases (at least one) as rows in
    ascending lexicographic order (``enumerate_valid_cases``).  Each case
    extending ``fixed`` is scored by the summed weight of the uncovered
    pairs it contains, read from the universe's pair list.  Returns
    (None, None) when no valid case extends ``fixed``.
    """
    u = np.asarray(uncovered_ids, dtype=np.int64)
    n = cases.shape[1]
    top = int(cases.max()) + 1
    table = np.zeros((n, top, n, top), dtype=np.int64)
    np.add.at(table, (universe.f1[u], universe.v1[u], universe.f2[u], universe.v2[u]), universe.weights[u])
    score = np.zeros(len(cases), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            score += table[i, cases[:, i], j, cases[:, j]]
    keep = np.ones(len(cases), dtype=bool)
    for f, v in fixed.picks if fixed is not None else ():
        keep &= cases[:, f] == v
    if not keep.any():
        return None, None
    best = int(score[keep].max())
    last = np.flatnonzero(keep & (score == best))[-1]
    return best, TestCase(tuple(int(a) for a in cases[last]))


def brute_force_milp(model):
    """Exhaustively enumerate a binary program; returns (feasible, best).

    All 2^nvars assignments at once as a bit matrix, exact int64 math.
    Fine up to ~20 variables.
    """
    arr = model.to_arrays()
    nv, nc = model.nvars, model.ncons
    X = (np.arange(1 << nv, dtype=np.int64)[:, None] >> np.arange(nv)) & 1
    dense = np.zeros((nc, nv), dtype=np.int64)
    for c in range(nc):
        lo, hi = arr["indptr"][c], arr["indptr"][c + 1]
        dense[c, arr["vidx"][lo:hi]] = arr["coef"][lo:hi]
    act = X @ dense.T
    ok = np.ones(X.shape[0], dtype=bool)
    for c in range(nc):
        code = int(arr["rel"][c])
        r = int(arr["rhs"][c])
        if code == 0:
            ok &= act[:, c] <= r
        elif code == 1:
            ok &= act[:, c] >= r
        else:
            ok &= act[:, c] == r
    if not ok.any():
        return False, None
    vals = X[ok] @ arr["obj"]
    best = int(vals.max() if model.sense == "max" else vals.min())
    return True, best


def step_milp(system, constraints, universe, uncovered_ids, fixed=None):
    """The per-case step as a binary MILP: x per (factor, level), p per pair.

    x variables come first (factors in index order, levels in index order),
    so the solution's leading block is the one-hot of the chosen case.  A p only
    needs the upper half of the AND coupling (p <= x on each side): the
    objective already pushes every p up.
    """
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
    for f, v in fixed.picks if fixed is not None else ():
        milp.add_constraint({base[f] + v: 1}, "==", 1)
    return milp


def cover_milp(member):
    """The set cover over a (rows, elements) bool table as a binary MILP.

    One variable per row with objective 1 (minimize), and one ">= 1" row
    per column some row holds, in column order: the program
    ``minimize_suite`` handed the reference kernel before the search
    replaced it.
    """
    milp = MilpModel(sense="min")
    z = [milp.add_var(obj=1) for _ in range(len(member))]
    for column in member.T:
        if column.any():
            milp.add_constraint({z[r]: 1 for r in np.flatnonzero(column).tolist()}, ">=", 1)
    return milp


def covered_by_some(member, k):
    """Whether some k rows of ``member`` hold every column some row holds.

    Plain subset enumeration.  Covering is monotone in the subset, so a
    cover of size k is minimum exactly when this holds for k and not k - 1.
    """
    need = member.any(axis=0)
    for rows in itertools.combinations(range(len(member)), k):
        if (member[list(rows)].any(axis=0) == need).all():
            return True
    return False


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
