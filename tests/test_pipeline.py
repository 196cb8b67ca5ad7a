import time

import numpy as np
import pytest

from paircover.bench import classic_instances, make_bbu, make_system, random_instance
from paircover.core import (
    ConstraintSet,
    PaircoverError,
    PartialAssignment,
    TestCase,
    TestSuite,
)
from paircover.greedy import greedy_suite
from paircover.interactions import InteractionUniverse, verify_suite
from paircover.milp import MilpSolution, SolveStatus
from paircover.pipeline import (
    PipelineConfig,
    apply_warm_start,
    minimize_suite,
    run_pipeline,
)
from paircover.pipeline import solve as cover_search

from conftest import (
    cover_milp,
    covered_by_some,
    oracle_min_suite_size,
    random_constraints,
)
from reference_kernel import solve_reference


class TestApplyWarmStart:
    def test_filters_invalid_rows(self):
        sys_, cs = make_bbu()
        warm = TestSuite(
            sys_,
            [
                TestCase((0, 3, 0, 0)),  # hits the avoid, dropped
                TestCase((1, 1, 1, 1)),
                TestCase((2, 2, 2, 2)),
            ],
        )
        retained, stats = apply_warm_start(warm, sys_, cs, alpha=1.0)
        assert stats == {"warm_given": 3, "warm_valid": 2, "warm_retained": 2}
        assert all(tc.levels != (0, 3, 0, 0) for tc in retained)

    def test_alpha_keeps_prefix(self):
        sys_ = make_system([2, 2])
        warm = TestSuite(sys_, [TestCase((a, b)) for a in range(2) for b in range(2)])
        retained, stats = apply_warm_start(warm, sys_, ConstraintSet(), alpha=0.5)
        assert stats["warm_retained"] == 2  # ceil(0.5 * 4)
        assert [tc.levels for tc in retained] == [(0, 0), (0, 1)]

    def test_alpha_zero_discards_everything(self):
        sys_ = make_system([2, 2])
        warm = TestSuite(sys_, [TestCase((0, 0))])
        retained, stats = apply_warm_start(warm, sys_, ConstraintSet(), alpha=0.0)
        assert retained == [] and stats["warm_retained"] == 0

    def test_alpha_out_of_range(self):
        sys_ = make_system([2, 2])
        with pytest.raises(PaircoverError):
            apply_warm_start(TestSuite(sys_), sys_, ConstraintSet(), alpha=1.5)


class TestMinimizeSuite:
    def test_drops_redundant_rows(self):
        sys_ = make_system([2, 2])
        cases = [TestCase((a, b)) for a in range(2) for b in range(2)]
        bloated = TestSuite(sys_, cases + cases)  # every row duplicated
        out, stats = minimize_suite(bloated, ConstraintSet())
        assert len(out) == 4
        assert stats["removed"] == 4
        ok, problems = verify_suite(out, ConstraintSet())
        assert ok, problems

    def test_never_larger_and_preserves_musts(self):
        sys_, cs = make_bbu()
        raw = greedy_suite(sys_, cs, seed=3)
        carrier = TestCase((3, 3, 1, 0))
        raw.append(carrier)
        out, _ = minimize_suite(raw, cs)
        assert len(out) <= len(raw)
        assert all(out.satisfied_musts(cs))
        ok, problems = verify_suite(out, cs)
        assert ok, problems

    def test_avoid_violating_row_seeds_nothing(self):
        # the row avoided in bbu holds the one unachievable pair; a universe
        # seeded with the suite skips it, so problems and output match those
        # of an unseeded build
        sys_, cs = make_bbu()
        bad = TestCase((0, 3, 0, 0))
        full = greedy_suite(sys_, cs)
        for rows in ([bad, *full], [*list(full)[:3], bad]):
            suite = TestSuite(sys_, rows)
            plain = InteractionUniverse(sys_, cs)
            ok, problems = verify_suite(suite, cs)
            assert not ok and (ok, problems) == verify_suite(suite, cs, plain)
            assert f"case {rows.index(bad)} violates an avoid tuple: {bad.levels}" in problems
            out, stats = minimize_suite(suite, cs)
            want, want_stats = minimize_suite(suite, cs, plain)
            assert list(out) == list(want)
            assert {**stats, "wall_s": 0} == {**want_stats, "wall_s": 0}

    def test_preserves_only_covered_pairs(self):
        # a suite covering a strict subset of the universe stays a cover of
        # that subset; minimize must not demand the rest
        sys_ = make_system([2, 2])
        partial = TestSuite(sys_, [TestCase((0, 0)), TestCase((0, 0))])
        out, _ = minimize_suite(partial, ConstraintSet())
        assert len(out) == 1

    def test_empty_input(self):
        sys_ = make_system([2, 2])
        out, stats = minimize_suite(TestSuite(sys_), ConstraintSet())
        assert len(out) == 0 and stats["status"] == "empty"

    def test_fallback_when_solver_starved(self, monkeypatch):
        import paircover.pipeline as pl
        from paircover.milp import MilpSolution, SolveStatus

        def starved(model, time_limit=None):
            return MilpSolution(SolveStatus.TIMED_OUT, None, None, {})

        monkeypatch.setattr(pl, "solve", starved)
        sys_ = make_system([2, 2])
        cases = [TestCase((a, b)) for a in range(2) for b in range(2)]
        bloated = TestSuite(sys_, cases + cases)
        out, stats = minimize_suite(bloated, ConstraintSet())
        assert len(out) == len(bloated)
        assert stats["fallback"] and stats["removed"] == 0

    def test_reports_the_cover_solve(self):
        sys_ = make_system([2, 2])
        cases = [TestCase((a, b)) for a in range(2) for b in range(2)]
        _, stats = minimize_suite(TestSuite(sys_, cases + cases), ConstraintSet())
        assert stats["rows"] == 8 and stats["elements"] == 4
        assert stats["root_bound"] == 4 and stats["nodes"] > 0
        assert stats["wall_s"] >= 0 and stats["proved_optimal"]
        assert "nvars" not in stats and "ncons" not in stats

    def test_long_suite_needs_no_recursion(self):
        # one search frame per row would pass Python's recursion limit
        sys_ = make_system([2, 2])
        cases = [TestCase((a, b)) for a in range(2) for b in range(2)]
        out, stats = minimize_suite(TestSuite(sys_, cases * 375), ConstraintSet())
        assert len(out) == 4 and stats["rows"] == 1500
        assert stats["proved_optimal"]
        assert verify_suite(out, ConstraintSet())[0]

    def test_time_limit_overshoot_is_bounded(self):
        # three joined greedy suites of 4^6: the cover does not prove within
        # 0.5 s, and a 250k-node slice in pure Python used to run for ~40 s
        sys_, cs = make_system([4] * 6), ConstraintSet()
        suite = TestSuite(
            sys_, [tc for s in range(3) for tc in greedy_suite(sys_, cs, seed=s)]
        )
        assert len(suite) == 73
        t0 = time.perf_counter()
        out, stats = minimize_suite(suite, cs, time_limit=0.5)
        assert time.perf_counter() - t0 < 3.0
        assert not stats["proved_optimal"]
        assert len(out) <= 73 and verify_suite(out, cs)[0]


class TestCoverSearch:
    """The bitset search against the reference kernel and enumeration.

    The kernel on ``cover_milp`` is the set cover as it was solved before
    the search replaced it: its keep vector is the lexicographically
    smallest minimum one, which decides the bytes of every minimized suite.
    """

    @staticmethod
    def _recording(monkeypatch):
        import paircover.pipeline as pl

        seen = []

        def recording(cover, time_limit=None):
            seen.append(cover)
            return cover_search(cover, time_limit=time_limit)

        monkeypatch.setattr(pl, "solve", recording)
        return seen

    @staticmethod
    def _check(cover):
        sol = cover_search(cover)
        assert sol.status == SolveStatus.OPTIMAL
        assert sol.values.tolist() == solve_reference(cover_milp(cover)).values.tolist()
        k = sol.objective
        assert k == int(sol.values.sum())
        assert covered_by_some(cover, k)
        assert k == 0 or not covered_by_some(cover, k - 1)
        return k

    def test_matches_oracles_along_pipeline_runs(self, monkeypatch):
        seen = self._recording(monkeypatch)
        instances = list(classic_instances().values())
        instances += [random_instance(s) for s in range(25)]
        for system, cs in instances:
            for weighted in (True, False):
                run_pipeline(system, cs, config=PipelineConfig(weighted=weighted))
        assert len(seen) == 2 * len(instances)
        dropped = sum(self._check(cover) < len(cover) for cover in seen)
        assert dropped > 0  # some covers leave a choice of rows to drop

    def test_matches_oracles_on_tiny_suites(self, monkeypatch):
        # rows come from the whole product space: an avoided row of a
        # 2-factor system holds no achievable pair and covers nothing
        rng = np.random.default_rng(8)
        seen = self._recording(monkeypatch)
        shapes = dict.fromkeys(("duplicate", "empty row", "must", "sole carrier"), 0)
        for _ in range(300):
            n = int(rng.integers(2, 4))
            system = make_system([int(rng.integers(2, 4)) for _ in range(n)])
            cs = random_constraints(
                system, rng, n_avoid=int(rng.integers(0, 3)), n_must=int(rng.integers(0, 4))
            )
            levels = [rng.integers(c, size=int(rng.integers(1, 9))) for c in system.cardinalities]
            suite = TestSuite(system, [TestCase(tuple(map(int, lv))) for lv in zip(*levels)])
            out, _ = minimize_suite(suite, cs)
            cover = seen[-1]
            assert len(out) == self._check(cover)

            universe = InteractionUniverse(system, cs)
            pairs = [set(universe.case_pair_ids(tc.levels).tolist()) for tc in suite]
            kept = [set(universe.case_pair_ids(tc.levels).tolist()) for tc in out]
            assert set().union(*pairs) == set().union(*kept)
            assert suite.satisfied_musts(cs) == out.satisfied_musts(cs)

            carriers = [sum(mask >> e & 1 for mask in cover) for e in range(max(cover).bit_length())]
            shapes["duplicate"] += len(set(cover)) < len(cover)
            shapes["empty row"] += 0 in cover
            shapes["must"] += any(suite.satisfied_musts(cs))
            shapes["sole carrier"] += 1 in carriers
        assert min(shapes.values()) >= 20, shapes

    def test_matches_oracles_on_random_covers(self):
        # wider than the tiny suites, so the first dive is often not minimum
        # and an overstated bound shows; each cover gets one duplicated row
        rng = np.random.default_rng(9)
        shapes = dict.fromkeys(("empty row", "sole carrier"), 0)
        for _ in range(300):
            n = int(rng.integers(0, 9))
            cover = [
                sum(1 << e for e in range(n) if rng.random() < 0.35)
                for _ in range(int(rng.integers(1, 11)))
            ]
            cover.insert(int(rng.integers(len(cover))), cover[int(rng.integers(len(cover)))])
            self._check(cover)
            carriers = [sum(mask >> e & 1 for mask in cover) for e in range(n)]
            shapes["empty row"] += 0 in cover
            shapes["sole carrier"] += 1 in carriers
        assert min(shapes.values()) >= 20, shapes

    def test_no_elements_keeps_no_rows(self):
        sol = cover_search([0, 0, 0])
        assert sol.status == SolveStatus.OPTIMAL and sol.values.tolist() == [0, 0, 0]
        # the one pair these rows hold is avoided, so no row covers anything
        sys_ = make_system([2, 2])
        cs = ConstraintSet(avoid=(PartialAssignment(((0, 0), (1, 0))),))
        suite = TestSuite(sys_, [TestCase((0, 0))] * 3)
        out, stats = minimize_suite(suite, cs)
        assert len(out) == 0 and stats["elements"] == 0


class TestRunPipeline:
    def test_unproven_cover_marks_run_degraded(self, monkeypatch):
        import paircover.pipeline as pl

        sys_, cs = make_bbu()
        _, report = run_pipeline(sys_, cs)
        assert report.cover["proved_optimal"] and not report.degraded
        assert report.cover["rows"] == report.raw_size

        def unproven(cover, time_limit=None):
            sol = cover_search(cover, time_limit=time_limit)
            return MilpSolution(SolveStatus.FEASIBLE, sol.objective, sol.values, sol.stats)

        monkeypatch.setattr(pl, "solve", unproven)
        suite, report = run_pipeline(sys_, cs)
        assert report.degraded and not report.cover["proved_optimal"]
        assert "fallback" not in report.cover
        assert verify_suite(suite, cs)[0]

    def test_end_to_end_reference_instance(self):
        sys_, cs = make_bbu()
        suite, report = run_pipeline(sys_, cs)
        ok, problems = verify_suite(suite, cs)
        assert ok, problems
        assert report.final_size == len(suite)
        assert report.final_size <= report.raw_size
        assert not report.degraded
        assert report.must_groups == 1 and report.phase1_cases == 1
        assert report.coverage_curve[-1] == 1.0

    def test_unconstrained_small(self):
        sys_ = make_system([3, 3, 3])
        suite, report = run_pipeline(sys_, ConstraintSet())
        ok, problems = verify_suite(suite, ConstraintSet())
        assert ok, problems
        assert len(suite) >= 9

    def test_warm_start_reduces_generation(self):
        sys_, cs = make_bbu()
        warm = greedy_suite(sys_, cs, seed=11)
        cold_suite, cold = run_pipeline(sys_, cs, config=PipelineConfig())
        warm_suite, hot = run_pipeline(sys_, cs, warm_start=warm)
        assert hot.warm_retained > 0
        assert hot.phase2_cases <= cold.phase2_cases
        ok, problems = verify_suite(warm_suite, cs)
        assert ok, problems

    def test_presatisfied_musts_skip_phase1(self):
        sys_, cs = make_bbu()
        warm = TestSuite(sys_, [TestCase((3, 3, 1, 0))])  # carries the must
        _, report = run_pipeline(sys_, cs, warm_start=warm, config=PipelineConfig(alpha=1.0))
        assert report.must_presatisfied == 1
        assert report.phase1_cases == 0

    def test_unweighted_config(self):
        sys_, cs = make_bbu()
        suite, report = run_pipeline(sys_, cs, config=PipelineConfig(weighted=False))
        assert not report.weighted
        ok, problems = verify_suite(suite, cs)
        assert ok, problems

    def test_no_minimize_keeps_raw(self):
        sys_ = make_system([3, 3])
        suite, report = run_pipeline(
            sys_, ConstraintSet(), config=PipelineConfig(minimize=False)
        )
        assert not report.minimized
        assert report.final_size == report.raw_size

    def test_curve_monotone(self):
        sys_, cs = make_bbu()
        _, report = run_pipeline(sys_, cs)
        curve = report.coverage_curve
        assert curve == sorted(curve)
        assert curve[-1] == 1.0

    def test_random_instances_all_sound(self, rng):
        for _ in range(5):
            cards = [int(rng.integers(2, 4)) for _ in range(int(rng.integers(3, 5)))]
            sys_ = make_system(cards)
            cs = random_constraints(
                sys_,
                rng,
                n_avoid=int(rng.integers(0, 3)),
                n_must=int(rng.integers(0, 3)),
            )
            suite, report = run_pipeline(sys_, cs)
            ok, problems = verify_suite(suite, cs)
            assert ok, problems
            assert report.final_size <= report.raw_size

    def test_close_to_exact_minimum(self, rng):
        # on tiny instances the pipeline should land within one case of the
        # true optimum
        for cards in ([2, 2, 2], [3, 3]):
            sys_ = make_system(cards)
            cs = ConstraintSet()
            want = oracle_min_suite_size(sys_, cs)
            suite, _ = run_pipeline(sys_, cs)
            assert len(suite) <= want + 1
