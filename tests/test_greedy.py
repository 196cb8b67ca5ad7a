from paircover import bench, greedy, io
from paircover.bench import make_bbu, make_system, random_avoids
from paircover.core import ConstraintSet, StructureError, validate_case
from paircover.greedy import greedy_suite
from paircover.interactions import InteractionUniverse, verify_suite

from conftest import random_constraints
from test_golden import WIDE_SEEDS, _wide_instance


def full_and_valid(suite, system, constraints):
    uni = InteractionUniverse(system, constraints)
    for tc in suite:
        assert validate_case(tc, system, constraints)
    ok, problems = verify_suite(suite, ConstraintSet(avoid=constraints.avoid), uni)
    return ok, problems


class TestGreedySuite:
    def test_unconstrained_full_coverage(self):
        sys_ = make_system([3, 3, 3])
        suite = greedy_suite(InteractionUniverse(sys_, ConstraintSet()))
        ok, problems = full_and_valid(suite, sys_, ConstraintSet())
        assert ok, problems
        assert 9 <= len(suite) <= 15

    def test_respects_avoids(self):
        sys_, cs = make_bbu()
        suite = greedy_suite(InteractionUniverse(sys_, cs))
        for tc in suite:
            assert validate_case(tc, sys_, cs)
        ok, problems = full_and_valid(suite, sys_, cs)
        assert ok, problems

    def test_deterministic_per_seed(self):
        sys_, cs = make_bbu()
        a = greedy_suite(InteractionUniverse(sys_, cs), seed=7)
        b = greedy_suite(InteractionUniverse(sys_, cs), seed=7)
        assert a.cases == b.cases

    def test_seeds_vary_output(self):
        sys_ = make_system([4, 4, 4, 4])
        universe = InteractionUniverse(sys_, ConstraintSet())
        suites = {tuple(greedy_suite(universe, seed=s).cases) for s in range(6)}
        assert len(suites) > 1

    def test_mixed_cardinalities(self):
        sys_ = make_system([5, 3, 3, 2, 2])
        suite = greedy_suite(InteractionUniverse(sys_, ConstraintSet()))
        ok, problems = full_and_valid(suite, sys_, ConstraintSet())
        assert ok, problems
        assert len(suite) >= 15  # no fewer than the largest slot

    def test_random_constrained_instances(self, rng):
        for _ in range(10):
            cards = [int(rng.integers(2, 5)) for _ in range(int(rng.integers(3, 6)))]
            sys_ = make_system(cards)
            cs = random_constraints(sys_, rng, n_avoid=int(rng.integers(0, 4)))
            suite = greedy_suite(InteractionUniverse(sys_, cs), seed=int(rng.integers(1000)))
            ok, problems = full_and_valid(suite, sys_, cs)
            assert ok, problems

    def test_walk_is_iterative(self):
        # a thousand factors: a walk that recursed once per factor would
        # overflow Python's default recursion limit
        sys_ = make_system([2] * 1000)
        suite = greedy_suite(InteractionUniverse(sys_, ConstraintSet()))
        ok, problems = verify_suite(suite, ConstraintSet())
        assert ok, problems


def _dense_models(rng, count):
    """``count`` models of 5-9 factors with n to 3n two-pick and up to n
    three-pick avoids, each with at least one valid case."""
    out = []
    while len(out) < count:
        n = int(rng.integers(5, 10))
        system = make_system([int(c) for c in rng.integers(2, 5, size=n)])
        avoid = random_avoids(system, rng, int(rng.integers(n, 3 * n)))
        avoid += random_avoids(system, rng, int(rng.integers(0, n)), size=3)
        cs = ConstraintSet(avoid=avoid)
        try:
            InteractionUniverse(system, cs)
        except StructureError:
            continue
        out.append((system, cs))
    return out


def test_skipping_dead_subtrees_changes_no_suite(monkeypatch, rng):
    # the oracle is the plain walk: every level tried, no forward check and
    # no backtrack cap.  A skipped subtree would have handed back the picks
    # and scores it was entered with, so every suite is the same
    models = list(bench.classic_instances().values())
    models += [bench.random_instance(s) for s in range(25)]
    models += [_wide_instance(s) for s in WIDE_SEEDS]
    models += _dense_models(rng, 200)
    check = greedy.wipes_out
    cuts = []

    def counted(*args):
        cut = check(*args)
        cuts.append(cut)
        return cut

    with monkeypatch.context() as m:
        m.setattr(greedy, "wipes_out", counted)
        pruned = [
            io.suite_to_csv(greedy_suite(InteractionUniverse(*model), seed=k))
            for k, model in enumerate(models)
        ]
    monkeypatch.setattr(greedy, "wipes_out", lambda *args: False)
    monkeypatch.setattr(greedy, "_live_levels", lambda sym, card: [list(range(c)) for c in card])
    monkeypatch.setattr(greedy, "MAX_BACKTRACKS_PER_CASE", float("inf"))
    plain = [
        io.suite_to_csv(greedy_suite(InteractionUniverse(*model), seed=k))
        for k, model in enumerate(models)
    ]
    assert sum(cuts) > 1000  # the forward check cut subtrees
    assert [k for k in range(len(models)) if pruned[k] != plain[k]] == []
