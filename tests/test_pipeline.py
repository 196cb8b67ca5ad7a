import pytest

from paircover.bench import make_bbu, make_system
from paircover.core import (
    ConstraintSet,
    PaircoverError,
    PartialAssignment,
    TestCase,
    TestSuite,
)
from paircover.greedy import greedy_suite
from paircover.interactions import InteractionUniverse, verify_suite
from paircover.pipeline import (
    PipelineConfig,
    apply_warm_start,
    minimize_suite,
    run_pipeline,
)

from conftest import oracle_min_suite_size, random_constraints


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

        def starved(model, backend="reference", time_limit=None):
            return MilpSolution(SolveStatus.TIMED_OUT, None, None, {})

        monkeypatch.setattr(pl, "solve", starved)
        sys_ = make_system([2, 2])
        cases = [TestCase((a, b)) for a in range(2) for b in range(2)]
        bloated = TestSuite(sys_, cases + cases)
        out, stats = minimize_suite(bloated, ConstraintSet())
        assert len(out) == len(bloated)
        assert stats["fallback"] and stats["removed"] == 0


class TestRunPipeline:
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

    def test_scipy_backend(self):
        sys_ = make_system([3, 3, 2])
        suite, report = run_pipeline(
            sys_, ConstraintSet(), config=PipelineConfig(backend="scipy")
        )
        ok, problems = verify_suite(suite, ConstraintSet())
        assert ok, problems

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
