import pytest

from paircover.bench import make_bbu, make_system
from paircover.core import (
    ConstraintSet,
    PartialAssignment,
    StructureError,
    validate_case,
)
from paircover.interactions import CoverageState, InteractionUniverse
from paircover.sequential import (
    StepTimeout,
    build_step,
    generate_single_case,
    handle_must_include,
)


def fresh_state(system, constraints, weighted=True):
    uni = InteractionUniverse(system, constraints, weighted=weighted)
    return uni, CoverageState(uni)


class TestBuildStep:
    def test_variable_and_row_counts(self):
        sys_ = make_system([2, 3])
        cs = ConstraintSet(avoid=(PartialAssignment(((0, 0), (1, 0))),))
        uni, cov = fresh_state(sys_, cs)
        uncovered = cov.uncovered_indices()
        step = build_step(sys_, cs, uni, uncovered)
        # one x per level, one p per uncovered pair
        assert step.milp.nvars == (2 + 3) + len(uncovered)
        # one ==1 row per factor, two p<=x rows per pair, one avoid row
        assert step.milp.ncons == 2 + 2 * len(uncovered) + 1

    def test_fixed_picks_add_equalities(self):
        sys_ = make_system([2, 3])
        uni, cov = fresh_state(sys_, ConstraintSet())
        fixed = PartialAssignment(((1, 2),))
        plain = build_step(sys_, ConstraintSet(), uni, cov.uncovered_indices())
        step = build_step(sys_, ConstraintSet(), uni, cov.uncovered_indices(), fixed)
        assert step.milp.ncons == plain.milp.ncons + 1
        arr = step.milp.to_arrays()
        # x of (factor 1, level 2) is var 2 + 2: factor 0 has two levels
        assert arr["vidx"][arr["indptr"][-2] :].tolist() == [4]
        assert (arr["rel"][-1], arr["rhs"][-1]) == (2, 1)  # == 1

    def test_out_of_range_fix_rejected(self):
        sys_ = make_system([2, 3])
        uni, cov = fresh_state(sys_, ConstraintSet())
        fixed = PartialAssignment(((0, 2),))  # factor 0 has levels 0 and 1
        with pytest.raises(StructureError):
            build_step(sys_, ConstraintSet(), uni, cov.uncovered_indices(), fixed)

    def test_objective_uses_weights(self):
        sys_ = make_system([2, 4])
        uni, cov = fresh_state(sys_, ConstraintSet(), weighted=True)
        step = build_step(sys_, ConstraintSet(), uni, cov.uncovered_indices())
        # six x variables (2 + 4 levels) first, then one p per pair
        assert set(step.milp.objective[:6]) == {0}
        assert set(step.milp.objective[6:]) == {8}  # 2 * 4


class TestGenerateSingleCase:
    def test_first_case_maximal(self):
        sys_ = make_system([3, 3, 3])
        uni, cov = fresh_state(sys_, ConstraintSet())
        tc, stats = generate_single_case(sys_, ConstraintSet(), uni, cov)
        assert tc is not None
        assert stats["objective"] == 3 * 9  # 3 pairs, weight 9 each
        assert stats["proved_optimal"]

    def test_none_when_complete(self):
        sys_ = make_system([2, 2])
        uni, cov = fresh_state(sys_, ConstraintSet())
        from paircover.core import TestCase

        for a in range(2):
            for b in range(2):
                cov.mark_case(TestCase((a, b)))
        tc, stats = generate_single_case(sys_, ConstraintSet(), uni, cov)
        assert tc is None and stats["complete"]

    def test_respects_avoids(self):
        sys_, cs = make_bbu()
        uni, cov = fresh_state(sys_, cs)
        for _ in range(5):
            tc, _ = generate_single_case(sys_, cs, uni, cov)
            assert validate_case(tc, sys_, cs)
            cov.mark_case(tc)

    def test_fixed_picks_honored(self):
        sys_, cs = make_bbu()
        uni, cov = fresh_state(sys_, cs)
        fixed = PartialAssignment(((0, 3), (1, 3), (2, 1)))
        tc, _ = generate_single_case(sys_, cs, uni, cov, fixed=fixed)
        assert tc.levels[0] == 3 and tc.levels[1] == 3 and tc.levels[2] == 1

    def test_conflicting_fix_is_infeasible(self):
        sys_ = make_system([2, 2])
        cs = ConstraintSet(avoid=(PartialAssignment(((0, 0), (1, 0))),))
        uni, cov = fresh_state(sys_, cs)
        fixed = PartialAssignment(((0, 0), (1, 0)))
        with pytest.raises(StructureError):
            generate_single_case(sys_, cs, uni, cov, fixed=fixed)

    def test_progress_until_full(self):
        # each step must close at least one uncovered pair, so the loop
        # terminates with everything covered
        sys_ = make_system([3, 2, 3])
        cs = ConstraintSet(avoid=(PartialAssignment(((0, 0), (2, 0))),))
        uni, cov = fresh_state(sys_, cs)
        steps = 0
        while True:
            tc, _ = generate_single_case(sys_, cs, uni, cov)
            if tc is None:
                break
            fresh = cov.mark_case(tc)
            assert fresh > 0
            steps += 1
            assert steps <= len(uni)
        assert cov.is_full

    def test_no_incumbent_raises_step_timeout(self, monkeypatch):
        import paircover.sequential as seq
        from paircover.milp import MilpSolution, SolveStatus

        def starved(model, backend="reference", time_limit=None):
            return MilpSolution(SolveStatus.TIMED_OUT, None, None, {})

        monkeypatch.setattr(seq, "solve", starved)
        sys_ = make_system([2, 2])
        uni, cov = fresh_state(sys_, ConstraintSet())
        with pytest.raises(StepTimeout):
            generate_single_case(sys_, ConstraintSet(), uni, cov)


class TestHandleMustInclude:
    def test_one_case_per_group(self):
        sys_, cs = make_bbu()
        uni, cov = fresh_state(sys_, cs)
        merged = [PartialAssignment(((0, 3), (1, 3), (2, 1)))]
        cases, stats = handle_must_include(sys_, cs, uni, cov, merged)
        assert len(cases) == 1 and len(stats) == 1
        tc = cases[0]
        for f, v in merged[0].picks:
            assert tc.levels[f] == v
        assert cov.covered_count > 0
        assert stats[0]["fixed"] == merged[0].picks

    def test_groups_get_cases_even_after_full_coverage(self):
        sys_ = make_system([2, 2])
        uni, cov = fresh_state(sys_, ConstraintSet())
        from paircover.core import TestCase

        for a in range(2):
            for b in range(2):
                cov.mark_case(TestCase((a, b)))
        merged = [PartialAssignment(((0, 1),))]
        cases, _ = handle_must_include(sys_, ConstraintSet(), uni, cov, merged)
        assert len(cases) == 1 and cases[0].levels[0] == 1
