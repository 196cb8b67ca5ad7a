from paircover.bench import make_bbu, make_system
from paircover.core import ConstraintSet, validate_case
from paircover.greedy import greedy_suite
from paircover.interactions import InteractionUniverse, verify_suite

from conftest import random_constraints


def full_and_valid(suite, system, constraints):
    uni = InteractionUniverse(system, constraints)
    for tc in suite:
        assert validate_case(tc, system, constraints)
    ok, problems = verify_suite(suite, ConstraintSet(avoid=constraints.avoid), uni)
    return ok, problems


class TestGreedySuite:
    def test_unconstrained_full_coverage(self):
        sys_ = make_system([3, 3, 3])
        suite = greedy_suite(sys_, ConstraintSet())
        ok, problems = full_and_valid(suite, sys_, ConstraintSet())
        assert ok, problems
        assert 9 <= len(suite) <= 15

    def test_respects_avoids(self):
        sys_, cs = make_bbu()
        suite = greedy_suite(sys_, cs)
        for tc in suite:
            assert validate_case(tc, sys_, cs)
        ok, problems = full_and_valid(suite, sys_, cs)
        assert ok, problems

    def test_deterministic_per_seed(self):
        sys_, cs = make_bbu()
        a = greedy_suite(sys_, cs, seed=7)
        b = greedy_suite(sys_, cs, seed=7)
        assert a.cases == b.cases

    def test_seeds_vary_output(self):
        sys_ = make_system([4, 4, 4, 4])
        suites = {tuple(greedy_suite(sys_, ConstraintSet(), seed=s).cases) for s in range(6)}
        assert len(suites) > 1

    def test_mixed_cardinalities(self):
        sys_ = make_system([5, 3, 3, 2, 2])
        suite = greedy_suite(sys_, ConstraintSet())
        ok, problems = full_and_valid(suite, sys_, ConstraintSet())
        assert ok, problems
        assert len(suite) >= 15  # no fewer than the largest slot

    def test_random_constrained_instances(self, rng):
        for _ in range(10):
            cards = [int(rng.integers(2, 5)) for _ in range(int(rng.integers(3, 6)))]
            sys_ = make_system(cards)
            cs = random_constraints(sys_, rng, n_avoid=int(rng.integers(0, 4)))
            suite = greedy_suite(sys_, cs, seed=int(rng.integers(1000)))
            ok, problems = full_and_valid(suite, sys_, cs)
            assert ok, problems

    def test_walk_is_iterative(self):
        # a thousand factors: a walk that recursed once per factor would
        # overflow Python's default recursion limit
        sys_ = make_system([2] * 1000)
        suite = greedy_suite(sys_, ConstraintSet())
        ok, problems = verify_suite(suite, ConstraintSet())
        assert ok, problems
