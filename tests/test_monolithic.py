import pytest

from paircover.bench import make_system
from paircover.core import ConstraintSet, PartialAssignment, StructureError
from paircover.interactions import CoverageState, InteractionUniverse
from paircover.monolithic import (
    ModelSizeError,
    build_monolithic,
    coverage_lower_bound,
    max_coverage_suite,
    minimal_suite,
)

from conftest import oracle_min_suite_size, random_constraints


class TestBuildMonolithic:
    def test_variable_counts(self):
        # 2x2 system, 4 slots: 4 levels per slot, 4 achievable pairs
        sys_ = make_system([2, 2])
        mono = build_monolithic(sys_, ConstraintSet(), m=4)
        n_x = 4 * 4
        n_q = 4 * 4
        n_p = 4
        assert n_x == 16
        assert mono.milp.nvars == n_x + n_q + n_p

    def test_must_adds_indicators(self):
        sys_ = make_system([2, 2])
        cs = ConstraintSet(must=(PartialAssignment(((0, 1),)),))
        plain = build_monolithic(sys_, ConstraintSet(), m=3).milp
        milp = build_monolithic(sys_, cs, m=3).milp
        # one y per slot, appended last
        assert milp.nvars == plain.nvars + 3
        # per slot: y <= x and the containment row; then one "some slot" row
        assert milp.ncons == plain.ncons + 3 * 2 + 1
        arr = milp.to_arrays()
        last = arr["vidx"][arr["indptr"][-2] :].tolist()
        assert last == [plain.nvars, plain.nvars + 1, plain.nvars + 2]
        assert (arr["rel"][-1], arr["rhs"][-1]) == (1, 1)  # sum of y >= 1

    def test_rejects_zero_slots(self):
        sys_ = make_system([2, 2])
        with pytest.raises(StructureError):
            build_monolithic(sys_, ConstraintSet(), m=0)

    def test_size_cap(self):
        sys_ = make_system([4, 4, 4, 4])
        with pytest.raises(ModelSizeError):
            build_monolithic(sys_, ConstraintSet(), m=30, max_vars=1000)


class TestCoverageObjective:
    def test_three_slots_cover_three_pairs(self):
        # 2x2 has 4 pairs but 3 slots can cover at most 3 of them
        sys_ = make_system([2, 2])
        suite, info = max_coverage_suite(sys_, ConstraintSet(), m=3)
        assert info["covered"] == 3
        assert info["proved_optimal"]
        assert len(suite) == 3

    def test_four_slots_cover_all(self):
        sys_ = make_system([2, 2])
        suite, info = max_coverage_suite(sys_, ConstraintSet(), m=4)
        assert info["covered"] == 4 == info["universe"]
        uni = InteractionUniverse(sys_, ConstraintSet())
        state = CoverageState(uni)
        for tc in suite:
            state.mark_case(tc)
        assert state.is_full

    def test_must_forces_carrier(self):
        sys_ = make_system([2, 2, 2])
        cs = ConstraintSet(must=(PartialAssignment(((0, 1), (1, 1), (2, 1))),))
        suite, _ = max_coverage_suite(sys_, cs, m=4)
        assert any(tc.levels == (1, 1, 1) for tc in suite)

    def test_infeasible_when_musts_exceed_slots(self):
        sys_ = make_system([2, 2])
        cs = ConstraintSet(
            must=(
                PartialAssignment(((0, 0), (1, 0))),
                PartialAssignment(((0, 1), (1, 1))),
            )
        )
        with pytest.raises(StructureError):
            max_coverage_suite(sys_, cs, m=1)


def test_coverage_lower_bound():
    sys_ = make_system([2, 3, 4])
    uni = InteractionUniverse(sys_, ConstraintSet())
    assert coverage_lower_bound(uni) == 12  # the 3x4 factor pair


class TestMinimalSuite:
    def test_2x2_needs_four(self):
        sys_ = make_system([2, 2])
        suite, report = minimal_suite(sys_, ConstraintSet())
        assert len(suite) == 4
        assert report["m"] == 4

    def test_matches_set_cover_oracle(self, rng):
        for _ in range(6):
            cards = [int(rng.integers(2, 4)) for _ in range(int(rng.integers(2, 4)))]
            sys_ = make_system(cards)
            cs = random_constraints(
                sys_,
                rng,
                n_avoid=int(rng.integers(0, 2)),
                n_must=int(rng.integers(0, 2)),
            )
            want = oracle_min_suite_size(sys_, cs)
            suite, _ = minimal_suite(sys_, cs)
            assert len(suite) == want

    def test_avoid_can_force_extra_case(self):
        # 2x3: unconstrained minimum is 6; forbidding one combination keeps
        # it at 6 minus nothing here, but the suite must dodge the avoid
        sys_ = make_system([2, 3])
        cs = ConstraintSet(avoid=(PartialAssignment(((0, 0), (1, 0))),))
        suite, _ = minimal_suite(sys_, cs)
        assert len(suite) == oracle_min_suite_size(sys_, cs)
        assert all(tc.levels != (0, 0) for tc in suite)

    def test_empty_universe_gives_empty_suite(self):
        # with every combination avoided nothing is achievable, so the
        # minimum suite is the empty one
        sys_ = make_system([2, 2])
        cs = ConstraintSet(
            avoid=tuple(
                PartialAssignment(((0, a), (1, b))) for a in range(2) for b in range(2)
            )
        )
        suite, report = minimal_suite(sys_, cs)
        assert len(suite) == 0
        assert report["universe"] == 0
