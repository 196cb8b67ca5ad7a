"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the package's solver and universe
machinery: valid cases come from enumerating the full product space,
achievable pairs from scanning those cases, and minimum suite sizes from a
depth-limited set-cover search over them.  Slow but trustworthy at the
scales the tests use.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from paircover.core import ConstraintSet, PartialAssignment, TestCase


def random_constraints(system, rng, n_avoid=0, n_must=0, max_tries=200):
    """Random avoid pairs plus musts that do not contain any avoid."""
    avoid = []
    for _ in range(n_avoid):
        fs = sorted(rng.choice(system.n_factors, size=2, replace=False))
        avoid.append(
            PartialAssignment(
                tuple((int(f), int(rng.integers(system.cardinality(int(f))))) for f in fs)
            )
        )
    musts = []
    tries = 0
    while len(musts) < n_must and tries < max_tries:
        tries += 1
        k = int(rng.integers(1, min(system.n_factors, 3) + 1))
        fs = sorted(rng.choice(system.n_factors, size=k, replace=False))
        mu = PartialAssignment(
            tuple((int(f), int(rng.integers(system.cardinality(int(f))))) for f in fs)
        )
        if any(mu.extends(av) for av in avoid):
            continue
        musts.append(mu)
    return ConstraintSet(avoid=tuple(avoid), must=tuple(musts))


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


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
