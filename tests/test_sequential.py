import copy
import gc
import math
import time
import weakref

import numpy as np
import pytest

from paircover import sequential
from paircover.bench import make_bbu, make_system, random_avoids, random_instance
from paircover.core import (
    ConstraintSet,
    PartialAssignment,
    StructureError,
    TestCase,
    TestSuite,
    validate_case,
)
from paircover.greedy import greedy_suite
from paircover.interactions import CoverageState, InteractionUniverse, verify_suite
from paircover.milp import MilpSolution, SolveStatus, solve_highs
from paircover.pipeline import minimize_suite, run_pipeline
from paircover.sequential import build_step, generate_single_case

from conftest import (
    brute_force_step,
    enumerate_valid_cases,
    step_milp,
    uniform_weights,
    universe_pairs,
)
from reference_kernel import solve_reference


def fresh_state(system, constraints, weighted=True):
    uni = InteractionUniverse(system, constraints)
    if not weighted:
        uniform_weights(uni)
    return uni, CoverageState(uni)


class TestBuildStep:
    def test_uncovered_weights_present(self):
        sys_ = make_system([2, 3])
        cs = ConstraintSet(avoid=(PartialAssignment(((0, 0), (1, 0))),))
        uni, cov = fresh_state(sys_, cs)
        cov.mark_case(TestCase((1, 2)))
        step = build_step(cov)
        open_weight = 0
        for k, it in enumerate(universe_pairs(uni)):
            want = 0 if (it.a, it.b) == (1, 2) else int(uni.weights[k])
            assert step.gain[it.i, it.a, it.j, it.b] == want
            open_weight += want
        assert step.gain.sum() == open_weight
        assert step.gain[0, 0, 1, 0] == 0  # avoided, so not in the universe
        assert step.universe.constraints.completes_avoid(1, 0, [0, -1])
        assert not step.universe.constraints.completes_avoid(1, 0, [1, -1])
        assert not step.universe.constraints.completes_avoid(0, 0, [-1, -1])
        no = sequential._UNREACHABLE  # factor 0's third level is padding
        assert step.root.tolist() == [[0, 0, no], [0, 0, 0]]
        assert step.tail[0] == step.gain.max() and step.tail[1:] == [0, 0]

    def test_fixed_pick_narrows_factor(self):
        sys_ = make_system([2, 3])
        _, cov = fresh_state(sys_, ConstraintSet())
        fixed = PartialAssignment(((1, 2),))
        step = build_step(cov, fixed)
        no = sequential._UNREACHABLE
        assert step.root.tolist() == [[0, 0, no], [no, no, 0]]
        tc, _ = generate_single_case(cov, fixed=fixed)
        assert tc.levels == (1, 2)

    def test_out_of_range_fix_rejected(self):
        sys_ = make_system([2, 3])
        _, cov = fresh_state(sys_, ConstraintSet())
        fixed = PartialAssignment(((0, 2),))  # factor 0 has levels 0 and 1
        with pytest.raises(StructureError):
            build_step(cov, fixed)

    def test_objective_uses_weights(self):
        sys_ = make_system([2, 4])
        _, cov = fresh_state(sys_, ConstraintSet())
        step = build_step(cov)
        assert set(step.gain[0, :2, 1, :4].ravel().tolist()) == {8}  # 2 * 4
        assert step.gain.sum() == 8 * 8


class TestStepDecode:
    def test_levels_become_the_case(self):
        sys_, cs = make_bbu()
        _, cov = fresh_state(sys_, cs)
        step = build_step(cov)
        sol = sequential.solve(step)
        assert sol.values == list(step.decode(sol.values).levels)
        assert step.decode([1, 1, 1, 1]) == TestCase((1, 1, 1, 1))

    def test_avoid_violation_raises(self):
        sys_, cs = make_bbu()  # avoids F0=0 with F1=3
        _, cov = fresh_state(sys_, cs)
        step = build_step(cov)
        with pytest.raises(StructureError, match="avoid"):
            step.decode([0, 3, 0, 0])


class TestGenerateSingleCase:
    def test_first_case_maximal(self):
        sys_ = make_system([3, 3, 3])
        _, cov = fresh_state(sys_, ConstraintSet())
        tc, stats = generate_single_case(cov)
        assert tc is not None
        assert stats["objective"] == 3 * 9  # 3 pairs, weight 9 each
        assert stats["status"] == "optimal"

    def test_respects_avoids(self):
        sys_, cs = make_bbu()
        _, cov = fresh_state(sys_, cs)
        for _ in range(5):
            tc, _ = generate_single_case(cov)
            assert validate_case(tc, sys_, cs)
            cov.mark_case(tc)

    def test_fixed_picks_honored(self):
        sys_, cs = make_bbu()
        _, cov = fresh_state(sys_, cs)
        fixed = PartialAssignment(((0, 3), (1, 3), (2, 1)))
        tc, _ = generate_single_case(cov, fixed=fixed)
        assert tc.levels[0] == 3 and tc.levels[1] == 3 and tc.levels[2] == 1

    def test_conflicting_fix_is_infeasible(self):
        sys_ = make_system([2, 2, 2])
        two = PartialAssignment(((0, 0), (1, 0)))
        three = PartialAssignment(((0, 1), (1, 0), (2, 1)))
        cs = ConstraintSet(avoid=(two, three, PartialAssignment(((1, 1), (2, 1)))))
        _, cov = fresh_state(sys_, cs)
        # the last fix leaves factor 1 free, but each of its levels completes an avoid
        for fixed in (two, three, PartialAssignment(((0, 1), (2, 1)))):
            with pytest.raises(StructureError):
                generate_single_case(cov, fixed=fixed)

    def test_progress_until_full(self):
        # each step must close at least one uncovered pair, so the loop
        # terminates with everything covered
        sys_ = make_system([3, 2, 3])
        cs = ConstraintSet(avoid=(PartialAssignment(((0, 0), (2, 0))),))
        uni, cov = fresh_state(sys_, cs)
        steps = 0
        while not cov.is_full:
            tc, _ = generate_single_case(cov)
            fresh = cov.mark_case(tc)
            assert fresh > 0
            steps += 1
            assert steps <= len(uni)
        assert cov.is_full

    def test_no_incumbent_returns_the_witness(self, monkeypatch):
        def starved(step, time_limit=math.inf, upper=None):
            return MilpSolution(SolveStatus.TIMED_OUT, None, None, {"nodes": 0})

        monkeypatch.setattr(sequential, "solve", starved)
        sys_ = make_system([2, 2])
        _, cov = fresh_state(sys_, ConstraintSet())
        tc, st = generate_single_case(cov)
        assert tc.levels == (0, 0)  # the first uncovered pair's witness
        assert st["status"] == "timed_out" and st["objective"] is None
        # a must step's witness holds the group's picks
        tc, _ = generate_single_case(cov, PartialAssignment(((1, 1),)))
        assert tc.levels == (0, 1)


def snapshot(cov):
    """A coverage state of the same universe with a copy of ``cov``'s weights."""
    out = copy.copy(cov)
    out.weights = cov.weights.copy()
    return out


def pipeline_states(system, constraints, weighted, fixed=None):
    """(coverage, fixed picks) before each step of a pipeline run; each
    coverage is a snapshot, so the states may be collected first."""
    _, cov = fresh_state(system, constraints, weighted)
    while fixed is not None or not cov.is_full:
        yield snapshot(cov), fixed
        tc, _ = generate_single_case(cov, fixed=fixed)
        cov.mark_case(tc)
        fixed = None


def one_hot(system, tc):
    """The x block ``step_milp`` gives case ``tc``: one 0/1 per (factor, level)."""
    return [int(a == v) for card, v in zip(system.cardinalities, tc.levels) for a in range(card)]


def search(cov, fixed):
    step = build_step(cov, fixed)
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
                for cov, fix in pipeline_states(sys_, cs, weighted, fixed):
                    uni, uncovered = cov.universe, cov.uncovered_indices()
                    sol, tc = search(cov, fix)
                    assert sol.status is SolveStatus.OPTIMAL
                    assert (sol.objective, tc) == brute_force_step(cases, uni, uncovered, fix)
                    checked += 1
                    if len(uni) > self.REF_SMALL_UNIVERSE and len(uncovered) > self.REF_FEW_UNCOVERED:
                        continue
                    ref = solve_reference(step_milp(sys_, cs, uni, uncovered, fix))
                    assert ref.status is SolveStatus.OPTIMAL
                    assert ref.objective == sol.objective
                    x = ref.values[: sum(sys_.cardinalities)].tolist()
                    assert x == one_hot(sys_, tc)
                    ref_checked += 1
        print(f"{checked} states match enumeration, {ref_checked} the reference")
        assert checked > 1200 and ref_checked > 300

    def test_bbu_matches_scipy_objective(self):
        sys_, cs = make_bbu()
        for weighted in (True, False):
            for cov, fix in pipeline_states(sys_, cs, weighted, cs.must[0]):
                sol, _ = search(cov, fix)
                ref = solve_highs(step_milp(sys_, cs, cov.universe, cov.uncovered_indices(), fix))
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
            cov.weights[:-1][rng.random(len(uni)) < 0.4] = 0
            fixed = None
            if rng.integers(2):
                f = int(rng.integers(len(cards)))
                fixed = PartialAssignment(((f, int(rng.integers(cards[f]))),))
            want = brute_force_step(cases, uni, cov.uncovered_indices(), fixed)
            sol, tc = search(cov, fixed)
            if want == (None, None):
                assert sol.status is SolveStatus.INFEASIBLE
                continue
            assert sol.status is SolveStatus.OPTIMAL
            assert (sol.objective, tc) == want
            ref = solve_highs(step_milp(sys_, cs, uni, cov.uncovered_indices(), fixed))
            assert ref.objective == sol.objective


def test_steps_report_their_root_bound_and_last_improvement():
    # root_bound is the sum, over factor pairs, of the heaviest uncovered
    # pair the allowed levels reach, or the objective when the block spans
    # every factor; the incumbent last improved within the step's nodes
    prefixed = whole = 0
    for (sys_, cs), fixed in TestSearchOracle.CORPUS + [((make_system([4] * 4), ConstraintSet()), None)]:
        for cov, fix in pipeline_states(sys_, cs, True, fixed):
            step = build_step(cov, fix)
            sol = sequential.solve(step)
            assert 1 <= sol.stats["last_improved_node"] <= sol.stats["nodes"]
            if step.block.start == 0:
                assert sol.stats["root_bound"] == sol.objective
                whole += 1
                continue
            allowed = dict(fix.picks) if fix is not None else {}
            uni = cov.universe
            pairs = universe_pairs(uni)
            heaviest = {}
            for k in cov.uncovered_indices().tolist():
                it = pairs[k]
                if allowed.get(it.i, it.a) == it.a and allowed.get(it.j, it.b) == it.b:
                    w = int(uni.weights[k])
                    heaviest[it.i, it.j] = max(heaviest.get((it.i, it.j), 0), w)
            assert sol.stats["root_bound"] == sum(heaviest.values()) >= sol.objective
            prefixed += 1
    assert prefixed > 100 and whole > 5
    _, cov = fresh_state(*make_bbu())
    _, stats = generate_single_case(cov)
    assert stats["root_bound"] >= stats["objective"] and stats["last_improved_node"] >= 1


@pytest.mark.parametrize("avoid", [0, 10], ids=["3^13", "3^13+10 avoids"])
def test_proven_step_value_caps_the_next_step(avoid):
    # uncovered weights only fall, so a proven phase-2 step's value bounds
    # the next step; stopping there must return the same case, and
    # run_pipeline must pass that cap and no other
    sys_ = make_system([3] * 13)
    cs = ConstraintSet(avoid=random_avoids(sys_, np.random.default_rng(0), avoid))
    _, cov = fresh_state(sys_, cs)
    upper, free_nodes, capped_nodes = None, [], []
    while not cov.is_full:
        step = build_step(cov)
        assert step.block.start > 0
        free = sequential.solve(step)
        capped = sequential.solve(step, upper=upper)
        assert free.status is capped.status is SolveStatus.OPTIMAL
        assert (capped.objective, capped.values) == (free.objective, free.values)
        assert capped.stats["nodes"] <= free.stats["nodes"]
        free_nodes.append(free.stats["nodes"])
        capped_nodes.append(capped.stats["nodes"])
        upper = free.objective
        assert cov.mark_case(step.decode(free.values)) > 0
    assert sum(capped_nodes) < sum(free_nodes)
    _, report = run_pipeline(InteractionUniverse(sys_, cs))
    assert [st["nodes"] for st in report.steps] == capped_nodes


def test_time_limit_overshoot_is_bounded():
    # on 4^20 the first four cases are perfect and proven at once; the fifth
    # search runs far past half a second
    sys_ = make_system([4] * 20)
    _, cov = fresh_state(sys_, ConstraintSet())
    for _ in range(4):
        tc, st = generate_single_case(cov)
        assert st["status"] == "optimal"
        cov.mark_case(tc)
    t0 = time.perf_counter()
    tc, st = generate_single_case(cov, time_limit=0.5)
    assert time.perf_counter() - t0 < 2.0
    assert st["status"] == "feasible"
    assert validate_case(tc, sys_, ConstraintSet()) and cov.mark_case(tc) > 0


class TestSuffixBlock:
    """The suffix block's one-pass scoring against enumeration."""

    @staticmethod
    def avoids(*tuples):
        return tuple(PartialAssignment(t) for t in tuples)

    # (cardinalities, avoid tuples, fixed picks of the first step).  At 256
    # block cases the block starts at factor 3 of 2^11 and factor 1 of 3^6,
    # and takes all of 4^4; at 1,024 it starts at factor 1 of 2^11 and
    # factor 3 of 2^13, and takes all of 3^6 and 4^4.  Each model has
    # three-pick avoids across the block's start at the size it runs at,
    # and fixes a pick before the block and one inside it.
    MODELS = [
        (
            [2] * 11,
            avoids(
                ((0, 1), (4, 1), (9, 1)),
                ((2, 1), (3, 1), (10, 0)),
                ((1, 0), (2, 0), (5, 1)),
                ((0, 0), (1, 1)),
                ((6, 1), (7, 1), (8, 0)),
            ),
            ((1, 1), (6, 1)),
        ),
        (
            [3] * 6,
            avoids(
                ((0, 2), (1, 2), (4, 0)),
                ((0, 1), (3, 2), (5, 2)),
                ((2, 0), (4, 2)),
            ),
            ((0, 2), (3, 0)),
        ),
        ([4] * 4, avoids(((0, 3), (1, 3), (3, 0)), ((1, 2), (2, 1))), ((0, 1), (2, 3))),
    ]
    WIDE = (
        [2] * 13,
        avoids(
            ((0, 1), (3, 1), (12, 0)),
            ((1, 1), (2, 1), (4, 0)),
            ((2, 0), (5, 1)),
            ((0, 0), (1, 1)),
            ((6, 1), (7, 1), (8, 0)),
            ((9, 0), (10, 0)),
        ),
        ((1, 1), (7, 1)),
    )

    @staticmethod
    def check(rng, models):
        """Block starts seen over the models' states; every state's search
        must match enumeration."""
        starts = set()
        checked = 0
        for cards, avoid, picks in models:
            sys_, cs = make_system(cards), ConstraintSet(avoid=avoid)
            cases = np.array([tc.levels for tc in enumerate_valid_cases(sys_, cs)])
            states = []
            for weighted in (True, False):
                states += pipeline_states(sys_, cs, weighted, PartialAssignment(picks))
                uni, _ = fresh_state(sys_, cs, weighted)
                for _ in range(8):  # random coverage, with and without fixed picks
                    cov = CoverageState(uni)
                    cov.weights[:-1][rng.random(len(uni)) >= 0.5] = 0
                    states += [(cov, None), (cov, PartialAssignment(picks))]
            for cov, fixed in states:
                step = build_step(cov, fixed)
                starts.add(step.block.start)
                sol = sequential.solve(step)
                assert sol.status is SolveStatus.OPTIMAL
                tc = step.decode(sol.values)
                want = brute_force_step(cases, cov.universe, cov.uncovered_indices(), fixed)
                assert (sol.objective, tc) == want
                checked += 1
        assert checked > 100
        return starts

    def test_matches_enumeration(self, rng):
        assert self.check(rng, self.MODELS + [self.WIDE]) == {0, 1, 3}

    def test_matches_enumeration_at_256_cases(self, rng, monkeypatch):
        monkeypatch.setattr(sequential, "BLOCK_CASES", 256)
        assert self.check(rng, self.MODELS) == {0, 1, 3}


@pytest.mark.parametrize("cards", [[2] * 30, [4] * 20])
def test_deadline_is_checked_within_1024_nodes(cards):
    sys_ = make_system(cards)
    _, cov = fresh_state(sys_, ConstraintSet())
    for _ in range(4):
        tc, _ = generate_single_case(cov, time_limit=0.0)
        cov.mark_case(tc)
    tc, st = generate_single_case(cov, time_limit=0.0)
    assert st["status"] == "feasible" and st["nodes"] == 1024
    assert cov.mark_case(tc) > 0


def test_cover_deadline_is_checked_within_1024_nodes():
    # the step's rule, from the same Budget: a cover search that starts
    # past its deadline counts 1024 nodes and keeps its incumbent
    sys_, cs = make_system([4] * 6), ConstraintSet()
    suite = TestSuite(
        sys_, [tc for s in range(3) for tc in greedy_suite(InteractionUniverse(sys_, cs), seed=s)]
    )
    assert len(suite) == 72
    out, st = minimize_suite(suite, cs, time_limit=0)
    assert st["status"] == "feasible" and st["nodes"] == 1024
    assert len(out) < 72 and verify_suite(out, cs)[0]


@pytest.mark.parametrize("cards", [[3] * 4, [3] * 13], ids=["no prefix", "prefix"])
def test_a_step_is_a_snapshot_of_its_coverage(cards):
    # marking a case after the step is built leaves the step, its block
    # scores and its solution as they were; ``step`` is first solved (and
    # its lazy gain table built) only after the mark
    _, cov = fresh_state(make_system(cards), ConstraintSet())
    step = build_step(cov)
    weights, block_score = step.weights.copy(), step.block_score.copy()
    sol = sequential.solve(build_step(cov))
    assert cov.mark_case(step.decode(sol.values)) > 0
    assert (step.weights == weights).all() and (step.block_score == block_score).all()
    again = sequential.solve(step)
    assert (again.objective, again.values, again.stats) == (sol.objective, sol.values, sol.stats)
    assert (build_step(cov).weights != weights).any()


def test_block_tables_are_freed_with_their_universe():
    sys_ = make_system([3] * 6)
    uni, cov = fresh_state(sys_, ConstraintSet())
    tc, _ = generate_single_case(cov)
    cov.mark_case(tc)
    ref = weakref.ref(uni)
    del uni, cov
    gc.collect()
    assert ref() is None


def _wide_binary():
    # 1,100 factors search deeper than Python's default recursion limit
    _, cov = fresh_state(make_system([2] * 1100), ConstraintSet())
    return cov


def test_a_wide_model_is_searched_without_recursion():
    n = 1100
    tc, st = generate_single_case(_wide_binary())
    assert st["status"] == "optimal"
    assert st["objective"] == 4 * n * (n - 1) // 2
    assert st["nodes"] == 1091
    assert tc.levels == (1,) * n  # the lexicographically largest optimum


def test_a_wide_search_stops_partway_down_its_first_dive():
    # the budget stops it at 1,024 nodes, before the first leaf, so the
    # step falls back to the witness of the first uncovered pair
    tc, st = generate_single_case(_wide_binary(), time_limit=0.0)
    assert st["status"] == "timed_out"
    assert st["nodes"] == 1024
    assert tc.levels == (0,) * 1100
