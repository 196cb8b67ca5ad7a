import json
import math
import re
import time
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from paircover import cli
from paircover.bench import classic_instances, make_bbu, make_system, random_instance
from paircover.core import (
    ConstraintSet,
    PaircoverError,
    PartialAssignment,
    TestCase,
    TestSuite,
)
from paircover.greedy import greedy_suite
from paircover.interactions import InteractionUniverse, coverage_curve, verify_suite
from paircover.io import load_model, write_suite_csv
from paircover.milp import MilpSolution, SolveStatus, solve_highs
from paircover.monolithic import build_monolithic, minimal_suite
from paircover.pipeline import (
    PipelineConfig,
    minimize_suite,
    run_pipeline,
)
from paircover.pipeline import solve as cover_search

from conftest import (
    Pair,
    cover_milp,
    covered_by_some,
    enumerate_valid_cases,
    mixed_avoids,
    oracle_min_suite_size,
    random_constraints,
    satisfied_musts,
    subsumes,
    uniform_weights,
    universe_pairs,
)
from reference_kernel import solve_reference

MODELS = Path(__file__).resolve().parent.parent / "models"


def held_pairs(universe, suite):
    """The universe pairs some row of ``suite`` holds."""
    return {u for tc in suite for u in universe.pair_ids(tc.levels).tolist() if u >= 0}


def held_elements(universe, suite, cs):
    """The set cover's element count: held universe pairs plus carried musts."""
    return len(held_pairs(universe, suite)) + sum(satisfied_musts(suite, cs))


class TestApplyWarmStart:
    @staticmethod
    def run(warm, cs, alpha):
        return run_pipeline(
            InteractionUniverse(warm.system, cs), warm, PipelineConfig(alpha=alpha, minimize=False)
        )

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
        suite, report = self.run(warm, cs, alpha=1.0)
        assert (report.warm_given, report.warm_valid, report.warm_retained) == (3, 2, 2)
        assert [tc.levels for tc in suite.cases[:2]] == [(1, 1, 1, 1), (2, 2, 2, 2)]

    def test_alpha_keeps_prefix(self):
        sys_ = make_system([2, 2])
        warm = TestSuite(sys_, [TestCase((a, b)) for a in range(2) for b in range(2)])
        suite, report = self.run(warm, ConstraintSet(), alpha=0.5)
        assert report.warm_retained == 2  # ceil(0.5 * 4)
        assert [tc.levels for tc in suite.cases[:2]] == [(0, 0), (0, 1)]
        assert report.phase2_cases == 2

    def test_alpha_zero_discards_everything(self):
        sys_ = make_system([2, 2])
        warm = TestSuite(sys_, [TestCase((0, 0))])
        _, report = self.run(warm, ConstraintSet(), alpha=0.0)
        assert (report.warm_given, report.warm_valid, report.warm_retained) == (1, 1, 0)

    def test_alpha_out_of_range(self):
        sys_ = make_system([2, 2])
        with pytest.raises(PaircoverError):
            self.run(TestSuite(sys_), ConstraintSet(), alpha=1.5)

    def test_alpha_out_of_range_without_warm_start(self):
        sys_ = make_system([2, 2])
        with pytest.raises(PaircoverError, match="alpha"):
            run_pipeline(
                InteractionUniverse(sys_, ConstraintSet()), config=PipelineConfig(alpha=1.5)
            )


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
        raw = greedy_suite(InteractionUniverse(sys_, cs), seed=3)
        carrier = TestCase((3, 3, 1, 0))
        raw.append(carrier)
        out, _ = minimize_suite(raw, cs)
        assert len(out) <= len(raw)
        assert all(satisfied_musts(out, cs))
        ok, problems = verify_suite(out, cs)
        assert ok, problems

    def test_avoid_violating_row_seeds_nothing(self, monkeypatch):
        # the row avoided in bbu holds the one unachievable pair; a universe
        # seeded with the suite skips it, so problems match those of an
        # unseeded build, and minimize refuses the row before any search
        import paircover.pipeline as pl

        def refused(*args, **kwargs):
            raise AssertionError("searched")

        monkeypatch.setattr(pl, "solve", refused)
        monkeypatch.setattr(pl, "find_extension", refused)
        sys_, cs = make_bbu()
        bad = TestCase((0, 3, 0, 0))
        full = greedy_suite(InteractionUniverse(sys_, cs))
        for rows in ([bad, *full], [*list(full)[:3], bad]):
            suite = TestSuite(sys_, rows)
            plain = InteractionUniverse(sys_, cs)
            ok, problems = verify_suite(suite, cs)
            assert not ok and (ok, problems) == verify_suite(suite, cs, plain)
            message = f"case {rows.index(bad)} violates an avoid tuple: {bad.levels}"
            assert message in problems
            with pytest.raises(PaircoverError, match=re.escape(message)):
                minimize_suite(suite, cs)

    def test_builds_no_universe(self, monkeypatch, tmp_path, capsys):
        # the rows prove their own pairs achievable; bbu's bad row is
        # refused before any search
        model, path = MODELS / "bbu_5g.model", tmp_path / "suite.csv"
        sys_, cs = load_model(model)
        rows = list(greedy_suite(InteractionUniverse(sys_, cs), seed=2))
        suite = TestSuite(sys_, rows + rows[:5])
        write_suite_csv(path, suite)
        bad = TestSuite(sys_, [TestCase((0, 3, 0, 0)), *rows])
        plain = InteractionUniverse(sys_, cs)

        def refused(self, *args, **kwargs):
            raise AssertionError("InteractionUniverse built")

        monkeypatch.setattr(InteractionUniverse, "__init__", refused)
        out, stats = minimize_suite(suite, cs)
        assert len(out) <= len(rows) and stats["removed"] >= 5
        assert held_pairs(plain, out) == held_pairs(plain, suite)
        with pytest.raises(PaircoverError, match=r"case 0 violates an avoid tuple"):
            minimize_suite(bad, cs)
        assert cli.main(["minimize", "--model", str(model), "--suite", str(path)]) == 0
        assert capsys.readouterr().err == f"{len(suite)} -> {len(out)} cases\n"

    def test_one_row_policy_for_every_caller(self):
        # the warm start drops, verify reports and minimize refuses (at the
        # first) exactly the rows that hold an avoid tuple
        rng = np.random.default_rng(21)
        shapes = dict.fromkeys(("bad rows", "clean"), 0)
        for _ in range(60):
            cards = [int(rng.integers(2, 4)) for _ in range(int(rng.integers(2, 6)))]
            sys_ = make_system(cards)
            cs = random_constraints(sys_, rng, avoid=mixed_avoids(sys_, rng))
            rows = [
                TestCase(tuple(int(rng.integers(c)) for c in cards))
                for _ in range(int(rng.integers(1, 9)))
            ]
            warm = TestSuite(sys_, rows)
            bad = [r for r, tc in enumerate(rows) if any(subsumes(tc, av) for av in cs.avoid)]
            shapes["bad rows" if bad else "clean"] += 1

            suite, report = run_pipeline(
                InteractionUniverse(sys_, cs), warm, PipelineConfig(alpha=1.0, minimize=False)
            )
            kept = suite.cases[: report.warm_retained]
            assert report.warm_valid == len(kept) == len(rows) - len(bad)
            assert [r for r, tc in enumerate(rows) if tc not in kept] == bad
            problems = verify_suite(warm, cs)[1]
            assert [int(p.split()[1]) for p in problems if "violates an avoid" in p] == bad
            if bad:
                with pytest.raises(PaircoverError, match=rf"^case {bad[0]} violates an avoid tuple"):
                    minimize_suite(warm, cs)
            else:
                minimize_suite(warm, cs)
        assert min(shapes.values()) >= 15, shapes

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
        assert len(out) == 0 and stats["status"] == "optimal" and stats["removed"] == 0

    def test_fallback_when_solver_starved(self, monkeypatch):
        import paircover.pipeline as pl
        from paircover.milp import MilpSolution, SolveStatus

        def starved(model, time_limit=math.inf):
            return MilpSolution(SolveStatus.TIMED_OUT, None, None, {})

        monkeypatch.setattr(pl, "solve", starved)
        sys_ = make_system([2, 2])
        cases = [TestCase((a, b)) for a in range(2) for b in range(2)]
        bloated = TestSuite(sys_, cases + cases)
        out, stats = minimize_suite(bloated, ConstraintSet())
        assert len(out) == len(bloated)
        assert stats["status"] == "timed_out" and stats["removed"] == 0

    def test_reports_the_cover_solve(self):
        sys_ = make_system([2, 2])
        cases = [TestCase((a, b)) for a in range(2) for b in range(2)]
        _, stats = minimize_suite(TestSuite(sys_, cases + cases), ConstraintSet())
        assert stats["rows"] == 8 and stats["elements"] == 4
        assert stats["root_bound"] == 4 and stats["nodes"] > 0
        assert stats["wall_s"] >= 0 and stats["status"] == "optimal"
        assert "nvars" not in stats and "ncons" not in stats

    def test_long_suite_needs_no_recursion(self):
        # one search frame per row would pass Python's recursion limit
        sys_ = make_system([2, 2])
        cases = [TestCase((a, b)) for a in range(2) for b in range(2)]
        out, stats = minimize_suite(TestSuite(sys_, cases * 375), ConstraintSet())
        assert len(out) == 4 and stats["rows"] == 1500
        assert stats["status"] == "optimal"
        assert verify_suite(out, ConstraintSet())[0]

    def test_time_limit_overshoot_is_bounded(self):
        # three joined greedy suites of 4^6: the cover does not prove within
        # 0.5 s, and a 250k-node slice in pure Python used to run for ~40 s
        sys_, cs = make_system([4] * 6), ConstraintSet()
        suite = TestSuite(
            sys_,
            [tc for s in range(3) for tc in greedy_suite(InteractionUniverse(sys_, cs), seed=s)],
        )
        assert len(suite) == 72
        t0 = time.perf_counter()
        out, stats = minimize_suite(suite, cs, time_limit=0.5)
        assert time.perf_counter() - t0 < 3.0
        assert stats["status"] != "optimal"
        assert len(out) <= 72 and verify_suite(out, cs)[0]


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

        def recording(cover, time_limit=math.inf):
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
        union = everything = 0
        for mask, z in zip(cover, sol.values.tolist()):
            union |= mask * z
            everything |= mask
        assert union == everything
        assert covered_by_some(cover, k)
        assert k == 0 or not covered_by_some(cover, k - 1)
        return k

    def test_matches_oracles_along_pipeline_runs(self, monkeypatch):
        seen = self._recording(monkeypatch)
        instances = list(classic_instances().values())
        instances += [random_instance(s) for s in range(25)]
        for system, cs in instances:
            run_pipeline(InteractionUniverse(system, cs))
            run_pipeline(uniform_weights(InteractionUniverse(system, cs)))
        assert len(seen) == 2 * len(instances)
        dropped = sum(self._check(cover) < len(cover) for cover in seen)
        assert dropped > 0  # some covers leave a choice of rows to drop

    def test_matches_oracles_on_tiny_suites(self, monkeypatch):
        # rows are drawn from the valid cases: minimize refuses any other
        rng = np.random.default_rng(8)
        seen = self._recording(monkeypatch)
        shapes = dict.fromkeys(("duplicate", "must", "sole carrier"), 0)
        for _ in range(300):
            n = int(rng.integers(2, 4))
            system = make_system([int(rng.integers(2, 4)) for _ in range(n)])
            cs = random_constraints(
                system, rng, n_avoid=int(rng.integers(0, 3)), n_must=int(rng.integers(0, 4))
            )
            valid = enumerate_valid_cases(system, cs)
            picks = rng.integers(len(valid), size=int(rng.integers(1, 9)))
            suite = TestSuite(system, [valid[k] for k in picks.tolist()])
            out, stats = minimize_suite(suite, cs)
            cover = seen[-1]
            assert len(out) == self._check(cover)

            universe = InteractionUniverse(system, cs)
            assert stats["elements"] == held_elements(universe, suite, cs)
            assert held_pairs(universe, suite) == held_pairs(universe, out)
            assert satisfied_musts(suite, cs) == satisfied_musts(out, cs)

            carriers = [sum(mask >> e & 1 for mask in cover) for e in range(max(cover).bit_length())]
            shapes["duplicate"] += len(set(cover)) < len(cover)
            shapes["must"] += any(satisfied_musts(suite, cs))
            shapes["sole carrier"] += 1 in carriers
        assert min(shapes.values()) >= 20, shapes

    def test_matches_oracles_on_random_covers(self):
        # wider than the tiny suites, so the first dive is often not minimum
        # and an overstated bound shows; each cover gets one duplicated row
        rng = np.random.default_rng(9)
        shapes = dict.fromkeys(
            ("empty row", "sole carrier", "sole-carrier row", "dominated element", "dominated row"), 0
        )
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
            # the reductions' shapes: a row some element needs that also
            # holds an element other rows carry, an element whose carriers
            # strictly include another's, a row whose elements a later row holds
            rows_of = [sum(1 << r for r, mask in enumerate(cover) if mask >> e & 1) for e in range(n)]
            sole = {rows.bit_length() - 1 for rows in rows_of if rows.bit_count() == 1}
            shapes["sole-carrier row"] += any(
                cover[r] >> e & 1 and rows_of[e].bit_count() > 1 for r in sole for e in range(n)
            )
            shapes["dominated element"] += any(
                0 < low != high and low & high == low for low in rows_of for high in rows_of
            )
            shapes["dominated row"] += any(
                cover[r] and cover[r] & cover[s] == cover[r]
                for r in range(len(cover))
                for s in range(r + 1, len(cover))
            )
        assert min(shapes.values()) >= 20, shapes

    def test_no_elements_keeps_no_rows(self):
        sol = cover_search([0, 0, 0])
        assert sol.status == SolveStatus.OPTIMAL and sol.values.tolist() == [0, 0, 0]
        # the one pair these rows hold is avoided: minimize refuses the rows
        sys_ = make_system([2, 2])
        cs = ConstraintSet(avoid=(PartialAssignment(((0, 0), (1, 0))),))
        suite = TestSuite(sys_, [TestCase((0, 0))] * 3)
        with pytest.raises(PaircoverError, match=re.escape("case 0 violates an avoid tuple: (0, 0)")):
            minimize_suite(suite, cs)


class TestRunPipeline:
    def test_unproven_cover_marks_run_degraded(self, monkeypatch):
        import paircover.pipeline as pl

        sys_, cs = make_bbu()
        _, report = run_pipeline(InteractionUniverse(sys_, cs))
        assert report.cover["status"] == "optimal" and not report.degraded
        assert report.cover["rows"] == report.raw_size

        def unproven(cover, time_limit=math.inf):
            sol = cover_search(cover, time_limit=time_limit)
            return MilpSolution(SolveStatus.FEASIBLE, sol.objective, sol.values, sol.stats)

        monkeypatch.setattr(pl, "solve", unproven)
        suite, report = run_pipeline(InteractionUniverse(sys_, cs))
        assert report.degraded and report.cover["status"] == "feasible"
        assert verify_suite(suite, cs)[0]

    def test_end_to_end_reference_instance(self):
        sys_, cs = make_bbu()
        suite, report = run_pipeline(InteractionUniverse(sys_, cs))
        ok, problems = verify_suite(suite, cs)
        assert ok, problems
        assert report.final_size == len(suite)
        assert report.final_size <= report.raw_size
        assert not report.degraded
        assert report.must_groups == 1 and len(report.steps) == report.phase2_cases + 1
        assert coverage_curve(suite, InteractionUniverse(sys_, cs))[-1] == 1.0

    def test_partition_is_timed_inside_the_must_phase(self):
        sys_, cs = make_bbu()
        _, report = run_pipeline(InteractionUniverse(sys_, cs))
        wall = report.phase_wall_s
        assert 0 <= wall["partition"] <= wall["must"]
        # a run whose must phase partitions nothing writes no partition time
        _, report = run_pipeline(InteractionUniverse(sys_, ConstraintSet(avoid=cs.avoid)))
        assert "partition" not in report.phase_wall_s and "must" in report.phase_wall_s

    def test_unconstrained_small(self):
        sys_ = make_system([3, 3, 3])
        suite, report = run_pipeline(InteractionUniverse(sys_, ConstraintSet()))
        ok, problems = verify_suite(suite, ConstraintSet())
        assert ok, problems
        assert len(suite) >= 9

    def test_warm_start_reduces_generation(self):
        sys_, cs = make_bbu()
        warm = greedy_suite(InteractionUniverse(sys_, cs), seed=11)
        cold_suite, cold = run_pipeline(InteractionUniverse(sys_, cs), config=PipelineConfig())
        warm_suite, hot = run_pipeline(InteractionUniverse(sys_, cs), warm_start=warm)
        assert hot.warm_retained > 0
        assert hot.phase2_cases <= cold.phase2_cases
        ok, problems = verify_suite(warm_suite, cs)
        assert ok, problems

    def test_must_group_case_holds_its_picks(self):
        sys_, cs = make_bbu()
        picks = ((0, 3), (1, 3), (2, 1))  # bbu's one must group
        suite, report = run_pipeline(
            InteractionUniverse(sys_, cs), config=PipelineConfig(minimize=False)
        )
        assert report.must_groups == 1
        step = report.steps[0]
        assert step["phase"] == 1 and step["fixed"] == picks
        assert step["objective"] > 0 and "fresh" not in step
        assert all(suite.cases[0].levels[f] == v for f, v in picks)

    def test_must_group_gets_a_case_after_full_coverage(self):
        # the warm rows cover every pair, so the group's step finds no
        # uncovered pair left but must still place the case
        sys_ = make_system([2, 2, 2])
        cs = ConstraintSet(must=(PartialAssignment(((0, 0), (1, 0), (2, 1))),))
        warm = TestSuite(sys_, [TestCase(lv) for lv in ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0))])
        suite, report = run_pipeline(
            InteractionUniverse(sys_, cs), warm_start=warm, config=PipelineConfig(alpha=1.0)
        )
        assert report.warm_retained == 4 and report.must_groups == 1
        assert report.steps[0]["uncovered_before"] == 0 and report.phase2_cases == 0
        assert TestCase((0, 0, 1)) in suite.cases

    def test_presatisfied_musts_skip_phase1(self):
        sys_, cs = make_bbu()
        warm = TestSuite(sys_, [TestCase((3, 3, 1, 0))])  # carries the must
        _, report = run_pipeline(
            InteractionUniverse(sys_, cs), warm_start=warm, config=PipelineConfig(alpha=1.0)
        )
        assert report.must_presatisfied == 1
        assert report.must_groups == 0

    def test_unweighted_config(self):
        sys_, cs = make_bbu()
        suite, report = run_pipeline(uniform_weights(InteractionUniverse(sys_, cs)))
        ok, problems = verify_suite(suite, cs)
        assert ok, problems

    def test_no_minimize_keeps_raw(self):
        sys_ = make_system([3, 3])
        suite, report = run_pipeline(
            InteractionUniverse(sys_, ConstraintSet()), config=PipelineConfig(minimize=False)
        )
        assert report.cover == {}
        assert report.final_size == report.raw_size

    def test_curve_monotone(self):
        sys_, cs = make_bbu()
        suite, _ = run_pipeline(InteractionUniverse(sys_, cs))
        curve = coverage_curve(suite, InteractionUniverse(sys_, cs))
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
            suite, report = run_pipeline(InteractionUniverse(sys_, cs))
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
            suite, _ = run_pipeline(InteractionUniverse(sys_, cs))
            assert len(suite) <= want + 1


def test_infinite_time_limits_match_the_defaults():
    # math.inf means no limit everywhere a time limit is taken
    sys_, cs = make_bbu()
    suite, report = run_pipeline(InteractionUniverse(sys_, cs))
    unlimited, _ = run_pipeline(
        InteractionUniverse(sys_, cs), config=PipelineConfig(step_time_limit=math.inf)
    )
    assert unlimited.cases == suite.cases and not report.degraded

    raw = TestSuite(
        sys_, [tc for s in range(2) for tc in greedy_suite(InteractionUniverse(sys_, cs), seed=s)]
    )
    kept, stats = minimize_suite(raw, cs)
    assert minimize_suite(raw, cs, time_limit=math.inf)[0].cases == kept.cases
    assert stats["status"] == "optimal"

    exact, report = minimal_suite(InteractionUniverse(sys_, cs))
    assert minimal_suite(InteractionUniverse(sys_, cs), time_limit=math.inf)[0].cases == exact.cases
    mono = build_monolithic(InteractionUniverse(sys_, cs), report["m"])
    sol = solve_highs(mono.milp, math.inf)
    assert sol.status == SolveStatus.OPTIMAL and mono.decode(sol.values).cases == exact.cases


@pytest.mark.parametrize(
    "name", [*classic_instances(), *(f"rand-{seed}" for seed in range(25))]
)
def test_coverage_bookkeeping_matches_a_recount(name):
    # each step's uncovered_before and fresh, and the coverage curve,
    # against a plain recount of the universe pairs the rows placed so far hold
    sys_, cs = classic_instances().get(name) or random_instance(int(name[5:]))
    suite, report = run_pipeline(
        InteractionUniverse(sys_, cs), config=PipelineConfig(minimize=False)
    )
    uni = InteractionUniverse(sys_, cs)
    pairs = set(universe_pairs(uni))
    covered, curve = set(), []
    assert len(report.steps) == len(suite)
    for st, tc in zip(report.steps, suite):
        lv = tc.levels
        held = {Pair(i, lv[i], j, lv[j]) for i, j in combinations(range(len(lv)), 2)} & pairs
        assert type(st["uncovered_before"]) is int
        assert st["uncovered_before"] == len(pairs) - len(covered)
        if st["phase"] == 2:
            assert type(st["fresh"]) is int and st["fresh"] == len(held - covered)
        covered |= held
        curve.append(len(covered) / len(pairs))
    assert covered == pairs
    got = coverage_curve(suite, uni)
    assert all(type(r) is float for r in got) and got == curve
    json.dumps(report.to_dict())
