import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paircover.bench import make_bbu, make_system
from paircover.core import (
    ConstraintSet,
    PartialAssignment,
    StructureError,
    TestCase,
    TestSuite,
    validate_case,
)
from paircover.interactions import (
    CoverageState,
    Interaction,
    InteractionUniverse,
    coverage_curve,
    find_extension,
    verify_suite,
)

from conftest import (
    achievable_pairs,
    enumerate_valid_cases,
    random_constraints,
)


def test_interaction_orders_factors():
    with pytest.raises(StructureError):
        Interaction(2, 0, 1, 0)


class TestFindExtension:
    def test_unconstrained_fills_zero(self):
        sys_ = make_system([3, 3, 3])
        tc = find_extension(PartialAssignment(((1, 2),)), sys_, ConstraintSet())
        assert tc == TestCase((0, 2, 0))

    def test_respects_avoids(self):
        sys_ = make_system([2, 2])
        cs = ConstraintSet(
            avoid=(
                PartialAssignment(((0, 0), (1, 0))),
                PartialAssignment(((0, 0), (1, 1))),
            )
        )
        assert find_extension(PartialAssignment(((0, 0),)), sys_, cs) is None
        tc = find_extension(PartialAssignment(((0, 1),)), sys_, cs)
        assert tc is not None and validate_case(tc, sys_, cs)

    def test_blocked_assignment(self):
        sys_ = make_system([2, 2])
        cs = ConstraintSet(avoid=(PartialAssignment(((0, 1), (1, 1))),))
        assert find_extension(PartialAssignment(((0, 1), (1, 1))), sys_, cs) is None


class TestUniverse:
    def test_unconstrained_counts(self):
        sys_ = make_system([2, 3, 4])
        uni = InteractionUniverse(sys_, ConstraintSet())
        assert len(uni) == sys_.total_pairs == 26

    def test_matches_enumeration_oracle(self, rng):
        for _ in range(10):
            cards = [int(rng.integers(2, 4)) for _ in range(int(rng.integers(2, 5)))]
            sys_ = make_system(cards)
            cs = random_constraints(sys_, rng, n_avoid=int(rng.integers(0, 3)))
            uni = InteractionUniverse(sys_, cs)
            want = achievable_pairs(sys_, enumerate_valid_cases(sys_, cs))
            got = {(it.i, it.a, it.j, it.b) for it in uni.interactions()}
            assert got == want

    def test_bbu_drops_one_blocked_level_pair(self):
        sys_, cs = make_bbu()
        uni = InteractionUniverse(sys_, cs)
        assert sys_.total_pairs == 96
        assert len(uni) == 95
        missing = Interaction(0, 0, 1, 3)  # the avoided combination itself
        assert missing not in uni.interactions()

    def test_weights(self):
        sys_ = make_system([2, 3, 4])
        w = InteractionUniverse(sys_, ConstraintSet(), weighted=True)
        it = w.interaction(0)
        assert it.i == 0 and it.j == 1
        assert w.weights[0] == 6  # 2 * 3
        u = InteractionUniverse(sys_, ConstraintSet(), weighted=False)
        assert set(np.unique(u.weights)) == {1}

    def test_case_pair_ids(self):
        sys_ = make_system([2, 2, 2])
        uni = InteractionUniverse(sys_, ConstraintSet())
        ids = uni.case_pair_ids((0, 1, 0))
        assert len(ids) == 3
        got = {tuple(map(int, (uni.f1[k], uni.v1[k], uni.f2[k], uni.v2[k]))) for k in ids}
        assert got == {(0, 0, 1, 1), (0, 0, 2, 0), (1, 1, 2, 0)}

    def test_covered_by(self):
        sys_, cs = make_bbu()
        uni = InteractionUniverse(sys_, cs)
        pairs = [uni.interaction(int(k)) for k in uni.case_pair_ids((3, 3, 1, 0))]
        assert len(pairs) == 6
        assert Interaction(0, 3, 1, 3) in pairs


class TestCoverageState:
    def test_marking(self):
        sys_ = make_system([2, 2])
        uni = InteractionUniverse(sys_, ConstraintSet())
        state = CoverageState(uni)
        assert state.ratio == 0.0 and not state.is_full
        assert state.mark_case(TestCase((0, 0))) == 1
        assert state.mark_case(TestCase((0, 0))) == 0
        assert state.would_cover(TestCase((1, 1))) == 1
        state.mark_case(TestCase((0, 1)))
        state.mark_case(TestCase((1, 0)))
        state.mark_case(TestCase((1, 1)))
        assert state.is_full and state.ratio == 1.0

    def test_copy_isolated(self):
        sys_ = make_system([2, 2])
        uni = InteractionUniverse(sys_, ConstraintSet())
        a = CoverageState(uni)
        b = a.copy()
        b.mark_case(TestCase((0, 0)))
        assert a.covered_count == 0 and b.covered_count == 1


def test_coverage_curve_monotone_and_complete():
    sys_ = make_system([3, 3])
    uni = InteractionUniverse(sys_, ConstraintSet())
    cases = [TestCase((a, b)) for a in range(3) for b in range(3)]
    curve = coverage_curve(TestSuite(sys_, cases), uni)
    assert curve == sorted(curve)
    assert curve[-1] == 1.0
    assert len(curve) == 9


class TestVerifySuite:
    def test_full_pass(self):
        sys_ = make_system([2, 2])
        suite = TestSuite(sys_, [TestCase((a, b)) for a in range(2) for b in range(2)])
        ok, problems = verify_suite(suite, ConstraintSet())
        assert ok and problems == []

    def test_detects_each_failure_kind(self):
        sys_, cs = make_bbu()
        uni = InteractionUniverse(sys_, cs)
        # invalid case
        bad = TestSuite(sys_, [TestCase((0, 3, 0, 0))])
        ok, problems = verify_suite(bad, cs, uni)
        assert not ok
        assert any("avoid" in p for p in problems)
        # missing must and missing coverage
        partial = TestSuite(sys_, [TestCase((1, 1, 1, 1))])
        ok, problems = verify_suite(partial, cs, uni)
        assert not ok
        assert any("must" in p for p in problems)
        assert any("uncovered" in p for p in problems)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_every_universe_pair_has_valid_witness(seed):
    rng = np.random.default_rng(seed)
    cards = [int(rng.integers(2, 4)) for _ in range(int(rng.integers(2, 5)))]
    sys_ = make_system(cards)
    cs = random_constraints(sys_, rng, n_avoid=int(rng.integers(0, 3)))
    uni = InteractionUniverse(sys_, cs)
    for it in uni.interactions():
        tc = find_extension(it.as_assignment(), sys_, cs)
        assert tc is not None
        assert validate_case(tc, sys_, cs)
        assert tc.levels[it.i] == it.a and tc.levels[it.j] == it.b
