import time

import numpy as np
import pytest

from paircover import sequential
from paircover.bench import make_bbu, make_system, random_avoids, random_instance
from paircover.core import (
    ConstraintSet,
    PartialAssignment,
    StructureError,
    TestCase,
    validate_case,
)
from paircover.interactions import CoverageState, InteractionUniverse
from paircover.milp import MilpSolution, SolveStatus, solve_highs
from paircover.sequential import (
    StepTimeout,
    build_step,
    decode_case,
    generate_single_case,
    handle_must_include,
)

from conftest import brute_force_step, enumerate_valid_cases, step_milp
from reference_kernel import solve_reference


def fresh_state(system, constraints, weighted=True):
    uni = InteractionUniverse(system, constraints, weighted=weighted)
    return uni, CoverageState(uni)


class TestBuildStep:
    def test_uncovered_weights_present(self):
        sys_ = make_system([2, 3])
        cs = ConstraintSet(avoid=(PartialAssignment(((0, 0), (1, 0))),))
        uni, cov = fresh_state(sys_, cs)
        cov.mark_case(TestCase((1, 2)))
        step = build_step(sys_, cs, uni, cov.uncovered_indices())
        for k, it in enumerate(uni.interactions()):
            want = 0 if cov.mask[k] else int(uni.weights[k])
            assert step.gain[it.i, it.a, it.j, it.b] == want
        assert step.gain.sum() == uni.weights[~cov.mask].sum()
        assert step.gain[0, 0, 1, 0] == 0  # avoided, so not in the universe
        assert step.constraints.completes_avoid(1, 0, [0, -1])
        assert not step.constraints.completes_avoid(1, 0, [1, -1])
        assert not step.constraints.completes_avoid(0, 0, [-1, -1])
        assert step.allowed == [(1, 0), (2, 1, 0)]
        assert step.tail[0] == step.gain.max() and step.tail[1:] == [0, 0]

    def test_fixed_pick_narrows_factor(self):
        sys_ = make_system([2, 3])
        uni, cov = fresh_state(sys_, ConstraintSet())
        fixed = PartialAssignment(((1, 2),))
        step = build_step(sys_, ConstraintSet(), uni, cov.uncovered_indices(), fixed)
        assert step.allowed == [(1, 0), (2,)]
        tc, _ = generate_single_case(sys_, ConstraintSet(), uni, cov, fixed=fixed)
        assert tc.levels == (1, 2)

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
        assert set(step.gain[0, :2, 1, :4].ravel().tolist()) == {8}  # 2 * 4
        assert step.gain.sum() == 8 * 8


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
        sys_ = make_system([2, 2, 2])
        two = PartialAssignment(((0, 0), (1, 0)))
        three = PartialAssignment(((0, 1), (1, 0), (2, 1)))
        cs = ConstraintSet(avoid=(two, three, PartialAssignment(((1, 1), (2, 1)))))
        uni, cov = fresh_state(sys_, cs)
        # the last fix leaves factor 1 free, but each of its levels completes an avoid
        for fixed in (two, three, PartialAssignment(((0, 1), (2, 1)))):
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
        def starved(step, time_limit=None):
            return MilpSolution(SolveStatus.TIMED_OUT, None, None, {"nodes": 0})

        monkeypatch.setattr(sequential, "solve", starved)
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
        for a in range(2):
            for b in range(2):
                cov.mark_case(TestCase((a, b)))
        merged = [PartialAssignment(((0, 1),))]
        cases, _ = handle_must_include(sys_, ConstraintSet(), uni, cov, merged)
        assert len(cases) == 1 and cases[0].levels[0] == 1


def pipeline_states(system, constraints, weighted, fixed=None):
    """(universe, uncovered ids, fixed picks) before each step of a pipeline run."""
    uni, cov = fresh_state(system, constraints, weighted)
    while True:
        uncovered = cov.uncovered_indices()
        if len(uncovered) == 0 and fixed is None:
            return
        yield uni, uncovered, fixed
        tc, _ = generate_single_case(system, constraints, uni, cov, fixed=fixed)
        cov.mark_case(tc)
        fixed = None


def search(system, constraints, uni, uncovered, fixed):
    step = build_step(system, constraints, uni, uncovered, fixed)
    sol = sequential.solve(step)
    return sol, (step.decode(sol.values) if sol.has_solution else None)


class TestSearchOracle:
    """The step search against enumeration and the step MILP's solvers."""

    CORPUS = [(random_instance(seed), None) for seed in range(25)] + [
        (make_bbu(), make_bbu()[1].must[0])
    ]
    # solve_reference is plain Python and needs up to 23 s for an
    # early state of a larger model, so it sees every state of the small
    # universes and the states with few uncovered pairs elsewhere
    REF_SMALL_UNIVERSE = 100
    REF_FEW_UNCOVERED = 10

    def test_corpus_matches_enumeration_and_reference(self):
        checked = ref_checked = 0
        for (sys_, cs), fixed in self.CORPUS:
            cases = np.array([tc.levels for tc in enumerate_valid_cases(sys_, cs)])
            for weighted in (True, False):
                for uni, uncovered, fix in pipeline_states(sys_, cs, weighted, fixed):
                    sol, tc = search(sys_, cs, uni, uncovered, fix)
                    assert sol.status is SolveStatus.OPTIMAL
                    assert (sol.objective, tc) == brute_force_step(cases, uni, uncovered, fix)
                    checked += 1
                    if len(uni) > self.REF_SMALL_UNIVERSE and len(uncovered) > self.REF_FEW_UNCOVERED:
                        continue
                    ref = solve_reference(step_milp(sys_, cs, uni, uncovered, fix))
                    assert ref.status is SolveStatus.OPTIMAL
                    assert ref.objective == sol.objective
                    assert decode_case(ref.values, 0, sys_, cs, "reference case") == tc
                    ref_checked += 1
        print(f"{checked} states match enumeration, {ref_checked} the reference")
        assert checked > 1200 and ref_checked > 300

    def test_bbu_matches_scipy_objective(self):
        sys_, cs = make_bbu()
        for weighted in (True, False):
            for uni, uncovered, fix in pipeline_states(sys_, cs, weighted, cs.must[0]):
                sol, _ = search(sys_, cs, uni, uncovered, fix)
                ref = solve_highs(step_milp(sys_, cs, uni, uncovered, fix))
                assert ref.status is SolveStatus.OPTIMAL
                assert ref.objective == sol.objective

    def test_tiny_systems_match_enumeration(self, rng):
        for _ in range(300):
            cards = [int(rng.integers(2, 4)) for _ in range(int(rng.integers(2, 5)))]
            sys_ = make_system(cards)
            avoid = random_avoids(sys_, rng, int(rng.integers(0, 3)))
            if len(cards) >= 3:
                avoid += random_avoids(sys_, rng, int(rng.integers(0, 2)), size=3)
            cs = ConstraintSet(avoid=avoid)
            cases = np.array([tc.levels for tc in enumerate_valid_cases(sys_, cs)])
            if len(cases) == 0:
                continue
            uni, cov = fresh_state(sys_, cs, weighted=bool(rng.integers(2)))
            cov.mask[:] = rng.random(len(uni)) < 0.4
            fixed = None
            if rng.integers(2):
                f = int(rng.integers(len(cards)))
                fixed = PartialAssignment(((f, int(rng.integers(cards[f]))),))
            want = brute_force_step(cases, uni, cov.uncovered_indices(), fixed)
            sol, tc = search(sys_, cs, uni, cov.uncovered_indices(), fixed)
            if want == (None, None):
                assert sol.status is SolveStatus.INFEASIBLE
                continue
            assert sol.status is SolveStatus.OPTIMAL
            assert (sol.objective, tc) == want
            ref = solve_highs(step_milp(sys_, cs, uni, cov.uncovered_indices(), fixed))
            assert ref.objective == sol.objective


def test_time_limit_overshoot_is_bounded():
    # on 4^20 the first four cases are perfect and proven at once; the fifth
    # search runs far past half a second
    sys_ = make_system([4] * 20)
    uni, cov = fresh_state(sys_, ConstraintSet())
    for _ in range(4):
        tc, st = generate_single_case(sys_, ConstraintSet(), uni, cov)
        assert st["proved_optimal"]
        cov.mark_case(tc)
    t0 = time.perf_counter()
    tc, st = generate_single_case(sys_, ConstraintSet(), uni, cov, time_limit=0.5)
    assert time.perf_counter() - t0 < 2.0
    assert not st["proved_optimal"] and st["status"] == "feasible"
    assert validate_case(tc, sys_, ConstraintSet()) and cov.would_cover(tc) > 0
