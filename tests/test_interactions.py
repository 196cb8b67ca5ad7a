import inspect
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import paircover
from paircover import interactions
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
from paircover.interactions import (
    CoverageState,
    InteractionUniverse,
    carried,
    case_levels,
    coverage_curve,
    find_extension,
    sampled_cases,
    valid_cases,
    verify_suite,
)

from conftest import (
    Pair,
    achievable_pairs,
    enumerate_valid_cases,
    mixed_avoids,
    random_constraints,
    satisfied_musts,
    subsumes,
    universe_pairs,
)


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

    def test_first_valid_extension_oracle(self):
        # the lexicographically first valid case agreeing with the picks, or
        # None; greedy's fallback case and so its suites depend on which one.
        rng = np.random.default_rng(20)
        found = missing = 0
        for _ in range(300):
            cards = [int(rng.integers(2, 4)) for _ in range(int(rng.integers(2, 6)))]
            sys_ = make_system(cards)
            n = len(cards)
            avoid = random_avoids(sys_, rng, int(rng.integers(1, 5)))
            if n >= 3:
                avoid += random_avoids(sys_, rng, int(rng.integers(0, 4)), size=3)
            cs = ConstraintSet(avoid=avoid)
            valid = enumerate_valid_cases(sys_, cs)  # in lexicographic order
            for k in (1, 2) if n > 2 else (1,):
                fs = sorted(rng.choice(n, size=k, replace=False).tolist())
                pa = PartialAssignment(tuple((f, int(rng.integers(cards[f]))) for f in fs))
                fits = [tc for tc in valid if subsumes(tc, pa)]
                want = fits[0] if fits else None
                assert find_extension(pa, sys_, cs) == want
                found += want is not None
                missing += want is None
        assert found > 200 and missing > 20

    def test_wide_model_needs_no_recursion(self):
        # one frame per free factor would pass Python's recursion limit
        sys_ = make_system([2] * 1200)
        cs = ConstraintSet(avoid=(PartialAssignment(((0, 1), (1, 0))),))
        tc = find_extension(PartialAssignment(((0, 1),)), sys_, cs)
        assert tc == TestCase((1, 1) + (0,) * 1198)
        tc = find_extension(PartialAssignment(((1199, 1),)), sys_, cs)
        assert tc == TestCase((0,) * 1199 + (1,))


def late_dead_end_model():
    """20 factors of 2-6 levels, 20 two-pick avoids.

    Each level of factor 19 is avoided with (4, 1) or with (9, 1), so the
    pair of those two picks dies only at the last factor.
    """
    rng = np.random.default_rng(100)
    system = make_system([int(rng.integers(2, 7)) for _ in range(int(rng.integers(20, 21)))])
    return system, ConstraintSet(avoid=random_avoids(system, rng, int(rng.integers(20, 21))))


def planted_instance(rng):
    """A tiny system with 2- and 3-pick avoids plus one planted shape."""
    cards = [int(rng.integers(2, 4)) for _ in range(int(rng.integers(2, 6)))]
    n = len(cards)
    sys_ = make_system(cards)
    avoid = list(random_avoids(sys_, rng, int(rng.integers(0, 4))))
    if n >= 3:
        avoid += random_avoids(sys_, rng, int(rng.integers(0, 3)), size=3)
        i, j, k = (int(f) for f in rng.choice(n, size=3, replace=False))
        a, b = int(rng.integers(cards[i])), int(rng.integers(cards[j]))
        if rng.random() < 0.5:  # (i, a) avoided with every level of k
            avoid += [PartialAssignment(((i, a), (k, w))) for w in range(cards[k])]
        else:  # each level of k avoided with (i, a) or with (j, b)
            avoid += [
                PartialAssignment(((j, b) if w % 2 else (i, a), (k, w)))
                for w in range(cards[k])
            ]
    return sys_, ConstraintSet(avoid=tuple(avoid))


def test_valid_cases_match_enumeration(rng):
    """Every start's valid cases against itertools.product: the avoids lying
    wholly in factors start.. filter, those with a pick before start do not."""
    straddling = 0
    for _ in range(80):
        n = int(rng.integers(2, 7))
        cards = [int(rng.integers(2, 5)) for _ in range(n)]
        sys_ = make_system(cards)
        avoid = []
        for _ in range(int(rng.integers(1, 5))):
            fs = sorted(rng.choice(n, size=int(rng.integers(1, min(3, n) + 1)), replace=False))
            picks = tuple((int(f), int(rng.integers(cards[f]))) for f in fs)
            avoid.append(PartialAssignment(picks))
        cs = ConstraintSet(avoid=tuple(avoid))
        for start in range(n):
            # picks are sorted by factor
            inside = [av for av in avoid if av.picks[0][0] >= start]
            straddling += sum(av.picks[0][0] < start <= av.picks[-1][0] for av in avoid)
            want = [
                levels
                for levels in itertools.product(*(range(c) for c in cards[start:]))
                if not any(all(levels[f - start] == v for f, v in av.picks) for av in inside)
            ]
            got = valid_cases(sys_, cs, start)
            assert got.shape == (n - start, len(want))
            cols = [tuple(c) for c in got.T.tolist()]
            # product lists each assignment once, ascending: reversed, it is
            # strictly descending with no duplicates
            assert cols == want[::-1]
            if start == 0:
                assert sorted(cols) == [tc.levels for tc in enumerate_valid_cases(sys_, cs)]
    assert straddling > 50


def test_sampled_cases_are_valid(rng):
    """Random models with 1-, 2- and 3-pick avoids: every sampled case is
    avoid-valid, a model with no valid case samples none, and two calls
    draw the same cases whatever ``np.random``'s global state does between
    them."""
    kept = dead = 0
    for t in range(240):
        cards = [int(rng.integers(2, 5)) for _ in range(int(rng.integers(3, 10)))]
        n = len(cards)
        sys_ = make_system(cards)
        avoid = random_avoids(sys_, rng, int(rng.integers(0, 2)), size=1)
        avoid += random_avoids(sys_, rng, int(rng.integers(0, 6)))
        avoid += random_avoids(sys_, rng, int(rng.integers(0, 10)), size=3)
        if t % 4 == 0:  # every level pair of two factors avoided
            f, g = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
            avoid += tuple(
                PartialAssignment(((f, a), (g, b))) for a in range(cards[f]) for b in range(cards[g])
            )
        cs = ConstraintSet(avoid=avoid)
        count = int(rng.integers(1, 65))
        got = sampled_cases(sys_, cs, count)
        np.random.random(3)
        assert np.array_equal(sampled_cases(sys_, cs, count), got)
        assert got.shape[0] == n and got.shape[1] <= count
        for col in got.T:
            assert validate_case(TestCase(tuple(col.tolist())), sys_, cs)
        if t % 4 == 0:
            assert got.shape == (n, 0)
            dead += 1
        kept += got.shape[1]
    assert dead == 60 and kept > 3000


class TestUniverse:
    def test_unconstrained_counts(self):
        sys_ = make_system([2, 3, 4])
        uni = InteractionUniverse(sys_, ConstraintSet())
        assert len(uni) == 2 * 3 + 2 * 4 + 3 * 4

    def test_matches_enumeration_oracle(self, rng):
        self.check_enumeration_oracle(rng)

    def test_search_path_matches_enumeration_oracle(self, rng, monkeypatch):
        monkeypatch.setattr(interactions, "_ENUMERATE_CASES", 0)
        self.check_enumeration_oracle(rng)

    @staticmethod
    def check_enumeration_oracle(rng):
        # every shortcut of the search is taken: a level with no valid case,
        # and a pair that neither pick kills but a third factor does
        dead_levels = third_factor_kills = 0
        for _ in range(200):
            sys_, cs = planted_instance(rng)
            n, cards = sys_.n_factors, sys_.cardinalities
            uni = InteractionUniverse(sys_, cs)
            valid = enumerate_valid_cases(sys_, cs)
            want = achievable_pairs(sys_, valid)
            got = {(it.i, it.a, it.j, it.b) for it in universe_pairs(uni)}
            assert got == want

            alive = {(f, tc.levels[f]) for tc in valid for f in range(n)}
            avoided = {av.picks for av in cs.avoid if len(av) == 2}
            dead_levels += len(alive) < sum(cards)
            third_factor_kills += any(
                (p, x) in alive
                and (q, y) in alive
                and ((p, x), (q, y)) not in avoided
                and (p, x, q, y) not in want
                for p in range(n)
                for q in range(p + 1, n)
                for x in range(cards[p])
                for y in range(cards[q])
            )
        assert dead_levels > 50 and third_factor_kills > 50

    def test_seeded_build_matches_unseeded(self, rng):
        self.check_seeded_build(rng)

    def test_search_path_seeded_build_matches_unseeded(self, rng, monkeypatch):
        monkeypatch.setattr(interactions, "_ENUMERATE_CASES", 0)
        self.check_seeded_build(rng)

    @staticmethod
    def check_seeded_build(rng):
        # witnesses only save searches: random suites, avoid-violating rows
        # among them, leave every array of the universe as it was
        instances = [planted_instance(rng) for _ in range(200)]
        instances += [random_instance(k) for k in range(25)]
        violating = 0
        for sys_, cs in instances:
            rows = rng.integers(sys_.cardinalities, size=(int(rng.integers(1, 12)), sys_.n_factors))
            suite = TestSuite(sys_, [TestCase(tuple(map(int, r))) for r in rows])
            violating += not all(validate_case(tc, sys_, cs) for tc in suite)
            plain = InteractionUniverse(sys_, cs)
            seeded = InteractionUniverse(sys_, cs, witnesses=suite)
            for name in ("f1", "v1", "f2", "v2", "weights", "pair_id"):
                assert np.array_equal(getattr(seeded, name), getattr(plain, name))
        assert violating > 50

    @pytest.mark.parametrize("n", [12, 13])
    def test_listing_threshold_boundary(self, n, monkeypatch):
        # 2^12 has exactly _ENUMERATE_CASES cases and lists them without a
        # search; 2^13 is just above and searches.  Both match enumeration.
        calls = []
        search = interactions.find_extension
        monkeypatch.setattr(
            interactions, "find_extension", lambda *args: calls.append(1) or search(*args)
        )
        rng = np.random.default_rng(n)
        sys_ = make_system([2] * n)
        assert (2**n <= interactions._ENUMERATE_CASES) == (n == 12)
        for _ in range(3):
            avoid = random_avoids(sys_, rng, 1, size=1)
            avoid += random_avoids(sys_, rng, int(rng.integers(1, 5)))
            avoid += random_avoids(sys_, rng, int(rng.integers(1, 4)), size=3)
            cs = ConstraintSet(avoid=avoid)
            valid = enumerate_valid_cases(sys_, cs)
            before = len(calls)
            uni = InteractionUniverse(sys_, cs)
            assert set(universe_pairs(uni)) == achievable_pairs(sys_, valid)
            assert (len(calls) == before) == (n == 12)

    @pytest.mark.parametrize("cards", [[2, 2], [2] * 13])
    def test_no_valid_case_is_an_error(self, cards, monkeypatch):
        # both levels of factor 0 avoided: listed for 2x2, searched for 2^13
        calls = []
        search = interactions.find_extension
        monkeypatch.setattr(
            interactions, "find_extension", lambda *args: calls.append(1) or search(*args)
        )
        sys_ = make_system(cards)
        cs = ConstraintSet(avoid=(PartialAssignment(((0, 0),)), PartialAssignment(((0, 1),))))
        with pytest.raises(StructureError, match="the avoid tuples rule out every test case"):
            InteractionUniverse(sys_, cs)
        assert (len(calls) > 0) == (len(cards) == 13)

    def test_trap_level_dies_without_a_search_per_pair(self, monkeypatch):
        # the greedy-wide trap: level 2 of factor 0 is avoided with both
        # levels of factor 8, behind seven three-level factors
        cards = [3] * 8 + [2, 2, 3, 4]
        sys_ = make_system(cards)
        cs = ConstraintSet(
            avoid=(PartialAssignment(((0, 2), (8, 0))), PartialAssignment(((0, 2), (8, 1))))
        )
        calls = []
        search = interactions.find_extension
        monkeypatch.setattr(
            interactions, "find_extension", lambda *args: calls.append(1) or search(*args)
        )
        uni = InteractionUniverse(sys_, cs)
        candidates = sum(cards[i] * cards[j] for i in range(12) for j in range(i + 1, 12))
        assert not any((it.i, it.a) == (0, 2) for it in universe_pairs(uni))
        assert len(uni) == candidates - sum(cards[1:])  # every other pair stays
        assert 0 < len(calls) < candidates

    def test_wide_model_with_late_dead_ends_builds_fast(self):
        # once took minutes: a search in factor order without lookahead met
        # each pair's dead end only at the last factor.  Built in a child
        # process so a regression fails after 10 s instead of hanging.
        src = str(Path(paircover.__file__).resolve().parents[1])
        path = [src, os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        code = "\n".join(
            [
                "import json",
                "import numpy as np",
                "from paircover.bench import make_system, random_avoids",
                "from paircover.core import ConstraintSet",
                "from paircover.interactions import InteractionUniverse",
                inspect.getsource(late_dead_end_model),
                "uni = InteractionUniverse(*late_dead_end_model())",
                "print(json.dumps([a.tolist() for a in (uni.f1, uni.v1, uni.f2, uni.v2)]))",
            ]
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=10
        )
        assert out.returncode == 0, out.stderr
        pairs = list(zip(*json.loads(out.stdout)))
        assert len(pairs) > 0 and (4, 1, 9, 1) not in pairs
        sys_, cs = late_dead_end_model()
        for i, a, j, b in pairs:
            tc = find_extension(PartialAssignment(((i, a), (j, b))), sys_, cs)
            assert tc is not None and validate_case(tc, sys_, cs)
            assert tc.levels[i] == a and tc.levels[j] == b

    def test_bbu_drops_one_blocked_level_pair(self):
        sys_, cs = make_bbu()
        uni = InteractionUniverse(sys_, cs)
        assert len(uni) == 6 * 4 * 4 - 1  # 6 factor pairs of 4x4 level pairs
        missing = Pair(0, 0, 1, 3)  # the avoided combination itself
        assert missing not in universe_pairs(uni)

    def test_weights(self):
        sys_ = make_system([2, 3, 4])
        w = InteractionUniverse(sys_, ConstraintSet())
        assert w.interaction(0) == PartialAssignment(((0, 0), (1, 0)))
        assert w.weights[0] == 6  # 2 * 3

    def test_case_pair_ids(self):
        sys_ = make_system([2, 2, 2])
        uni = InteractionUniverse(sys_, ConstraintSet())
        ids = uni.pair_ids((0, 1, 0))
        ids = ids[ids >= 0]
        assert len(ids) == 3
        got = {tuple(map(int, (uni.f1[k], uni.v1[k], uni.f2[k], uni.v2[k]))) for k in ids}
        assert got == {(0, 0, 1, 1), (0, 0, 2, 0), (1, 1, 2, 0)}

    def test_pair_table_matches_universe(self, rng):
        for _ in range(20):
            cards = [int(rng.integers(2, 5)) for _ in range(int(rng.integers(2, 6)))]
            sys_ = make_system(cards)
            cs = ConstraintSet(avoid=random_avoids(sys_, rng, int(rng.integers(0, 6))))
            uni = InteractionUniverse(sys_, cs)
            n, top = len(cards), max(cards)
            assert uni.pair_id.shape == (n, top, n, top)
            want = np.full(uni.pair_id.shape, -1)
            for k, it in enumerate(universe_pairs(uni)):
                want[it.i, it.a, it.j, it.b] = k
            assert (uni.pair_id == want).all()
            for tc in enumerate_valid_cases(sys_, cs):
                ids = uni.pair_ids(tc.levels)
                ids = ids[ids >= 0]
                assert ids.tolist() == sorted(ids.tolist())
                assert set(ids.tolist()) == {
                    k
                    for k, it in enumerate(universe_pairs(uni))
                    if tc.levels[it.i] == it.a and tc.levels[it.j] == it.b
                }

    def test_covered_by(self):
        sys_, cs = make_bbu()
        uni = InteractionUniverse(sys_, cs)
        pairs = [uni.interaction(int(k)) for k in uni.pair_ids((3, 3, 1, 0)) if k >= 0]
        assert len(pairs) == 6
        assert PartialAssignment(((0, 3), (1, 3))) in pairs


class TestCoverageState:
    def test_marking(self):
        sys_ = make_system([2, 2])
        uni = InteractionUniverse(sys_, ConstraintSet())
        state = CoverageState(uni)
        assert state.weights.tolist() == [4, 4, 4, 4, 0] and not state.is_full
        assert state.mark_case(TestCase((0, 0))) == 1
        assert state.mark_case(TestCase((0, 0))) == 0
        assert state.mark_case(TestCase((1, 1))) == 1
        assert state.weights.tolist() == [0, 4, 4, 0, 0] and not state.is_full
        state.mark_case(TestCase((0, 1)))
        state.mark_case(TestCase((1, 0)))
        assert state.is_full and not state.weights.any()


def test_coverage_curve_monotone_and_complete():
    sys_ = make_system([3, 3])
    uni = InteractionUniverse(sys_, ConstraintSet())
    cases = [TestCase((a, b)) for a in range(3) for b in range(3)]
    curve = coverage_curve(TestSuite(sys_, cases), uni)
    assert curve == sorted(curve)
    assert curve[-1] == 1.0
    assert len(curve) == 9


class TestRowReads:
    """The one-call reads of a suite's rows against per-row enumeration."""

    @pytest.mark.parametrize("listed", [True, False])
    def test_pair_ids_match_per_case_gather(self, listed, monkeypatch):
        if not listed:
            monkeypatch.setattr(interactions, "_ENUMERATE_CASES", 0)
        rng = np.random.default_rng(45)
        absent = 0  # row pairs the universe does not hold
        for _ in range(80):
            cards = [int(rng.integers(2, 5)) for _ in range(int(rng.integers(2, 7)))]
            sys_ = make_system(cards)
            cs = ConstraintSet(avoid=mixed_avoids(sys_, rng))
            uni = InteractionUniverse(sys_, cs)
            rows = [
                TestCase(tuple(int(rng.integers(c)) for c in cards))
                for _ in range(int(rng.integers(0, 9)))
            ]
            n = len(cards)
            factor_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            got = uni.pair_ids(case_levels(rows, n))
            assert got.shape == (len(factor_pairs), len(rows))
            for r, tc in enumerate(rows):
                lv = tc.levels
                want = [int(uni.pair_id[i, lv[i], j, lv[j]]) for i, j in factor_pairs]
                assert got[:, r].tolist() == want
                assert uni.pair_ids(lv).tolist() == want
                absent += want.count(-1)
        assert absent >= 20

    def test_coverage_curve_matches_row_loop(self, rng):
        def row_loop(suite, universe):
            # the per-row loop coverage_curve ran before its single pass
            state = CoverageState(universe)
            out = []
            for tc in suite:
                state.mark_case(tc)
                out.append(int((state.weights[:-1] == 0).sum()) / len(universe))
            return out

        shapes = dict.fromkeys(("repeated row", "idle row", "uncovered pair", "shared pair"), 0)
        for _ in range(120):
            cards = [int(rng.integers(2, 4)) for _ in range(int(rng.integers(2, 6)))]
            sys_ = make_system(cards)
            cs = ConstraintSet(avoid=mixed_avoids(sys_, rng))
            uni = InteractionUniverse(sys_, cs)
            rows = [
                TestCase(tuple(int(rng.integers(c)) for c in cards))
                for _ in range(int(rng.integers(0, 10)))
            ]
            if rows and rng.random() < 0.5:
                rows.insert(int(rng.integers(len(rows) + 1)), rows[int(rng.integers(len(rows)))])
            suite = TestSuite(sys_, rows)
            want = row_loop(suite, uni)
            assert coverage_curve(suite, uni) == want
            shapes["repeated row"] += len(set(rows)) < len(rows)
            shapes["idle row"] += any(a == b for a, b in zip([0.0] + want, want))
            shapes["uncovered pair"] += not want or want[-1] < 1.0
            held = [
                {(i, tc.levels[i], j, tc.levels[j]) for j in range(len(cards)) for i in range(j)}
                & set(universe_pairs(uni))
                for tc in dict.fromkeys(rows)
            ]
            shapes["shared pair"] += any(a & b for k, a in enumerate(held) for b in held[:k])
        assert min(shapes.values()) >= 10, shapes

    def test_carried_matches_enumeration(self, rng):
        shapes = dict.fromkeys(("uncarried must", "carried must", "no rows"), 0)
        for _ in range(120):
            cards = [int(rng.integers(2, 4)) for _ in range(int(rng.integers(2, 6)))]
            sys_ = make_system(cards)
            cs = random_constraints(
                sys_, rng, n_must=int(rng.integers(0, 5)), avoid=mixed_avoids(sys_, rng)
            )
            rows = [
                TestCase(tuple(int(rng.integers(c)) for c in cards))
                for _ in range(int(rng.integers(0, 6)))
            ]
            got = carried(case_levels(rows, len(cards)), cs)
            want = [
                [all(tc.levels[f] == v for f, v in mu.picks) for tc in rows] for mu in cs.must
            ]
            assert got.shape == (len(cs.must), len(rows))
            assert got.tolist() == want
            shapes["uncarried must"] += any(not any(row) for row in want)
            shapes["carried must"] += any(any(row) for row in want)
            shapes["no rows"] += not rows
        assert min(shapes.values()) >= 5, shapes


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

    @pytest.mark.parametrize("listed", [True, False])
    def test_problems_match_enumeration(self, listed, monkeypatch):
        # the exact problem list, built from the valid cases: the rows that
        # hold an avoid tuple, the musts no row carries, then the first 20
        # uncovered achievable pairs in (i, j, a, b) order and a count of the rest
        if not listed:
            monkeypatch.setattr(interactions, "_ENUMERATE_CASES", 0)
        rng = np.random.default_rng(44)
        shapes = dict.fromkeys(("ok", "bad row", "must", "more pairs"), 0)
        for _ in range(200):
            cards = [int(rng.integers(2, 5)) for _ in range(int(rng.integers(2, 7)))]
            sys_ = make_system(cards)
            cs = random_constraints(
                sys_, rng, n_must=int(rng.integers(0, 4)), avoid=mixed_avoids(sys_, rng)
            )
            valid = enumerate_valid_cases(sys_, cs)
            rows = [
                TestCase(tuple(int(rng.integers(c)) for c in cards))
                for _ in range(int(rng.integers(0, 9)))
            ]
            if rng.random() < 0.3:
                rows = valid + rows[:1]
            suite = TestSuite(sys_, rows)
            problems = [
                f"case {r} violates an avoid tuple: {tc.levels}"
                for r, tc in enumerate(rows)
                if any(subsumes(tc, av) for av in cs.avoid)
            ]
            shapes["bad row"] += bool(problems)
            carried = satisfied_musts(suite, cs)
            problems += [
                f"no case contains the must tuple {mu.picks}"
                for mu, held in zip(cs.must, carried)
                if not held
            ]
            shapes["must"] += not all(carried)
            missing = sorted(
                achievable_pairs(sys_, valid) - achievable_pairs(sys_, rows),
                key=lambda p: (p[0], p[2], p[1], p[3]),
            )
            problems += [f"uncovered pair: factor {i}={a}, factor {j}={b}" for i, a, j, b in missing[:20]]
            if len(missing) > 20:
                problems.append(f"... and {len(missing) - 20} more uncovered pairs")
                shapes["more pairs"] += 1
            shapes["ok"] += not problems
            want = (not problems, problems)
            assert verify_suite(suite, cs) == want
            assert verify_suite(suite, cs, InteractionUniverse(sys_, cs)) == want
        assert min(shapes.values()) >= 20, shapes

    def test_complete_suite_searches_only_uncovered_pairs(self, monkeypatch):
        # a greedy-wide trap model: level 2 of factor 0 is avoided with both
        # levels of factor 8, behind seven three-level factors, and two-pick
        # avoids that spare level 0 join the factors after it
        rng = np.random.default_rng(31)
        cards = [3] * 8 + [2, 2, 3, 4, 2, 3]
        sys_ = make_system(cards)
        avoid = [PartialAssignment(((0, 2), (8, w))) for w in range(2)]
        for _ in range(12):
            f, g = (int(x) for x in rng.choice(range(9, 14), size=2, replace=False))
            avoid.append(
                PartialAssignment(
                    ((f, int(rng.integers(1, cards[f]))), (g, int(rng.integers(1, cards[g]))))
                )
            )
        cs = ConstraintSet(avoid=tuple(avoid))
        suite = greedy_suite(InteractionUniverse(sys_, cs))
        calls = []
        search = interactions.find_extension
        monkeypatch.setattr(
            interactions, "find_extension", lambda *args: calls.append(1) or search(*args)
        )
        assert verify_suite(suite, cs) == (True, [])
        n = len(cards)
        # pairs the suite covers or a single avoid tuple rules out
        settled = {
            (i, tc.levels[i], j, tc.levels[j]) for tc in suite for i in range(n) for j in range(i + 1, n)
        }
        settled |= {(i, a, j, b) for (i, a), (j, b) in (av.picks for av in avoid)}
        searchable = sum(
            (i, a, j, b) not in settled
            for i in range(n)
            for j in range(i + 1, n)
            for a in range(cards[i])
            for b in range(cards[j])
        )
        assert 0 < len(calls) <= searchable


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_every_universe_pair_has_valid_witness(seed):
    rng = np.random.default_rng(seed)
    cards = [int(rng.integers(2, 4)) for _ in range(int(rng.integers(2, 5)))]
    sys_ = make_system(cards)
    cs = random_constraints(sys_, rng, n_avoid=int(rng.integers(0, 3)))
    # hypothesis allows no function-scoped fixture, so no monkeypatch: the
    # listed build, then the search path, then the constant restored
    listed = interactions._ENUMERATE_CASES
    builds = []
    try:
        for limit in (listed, 0):
            interactions._ENUMERATE_CASES = limit
            uni = InteractionUniverse(sys_, cs)
            for k, it in enumerate(universe_pairs(uni)):
                tc = find_extension(uni.interaction(k), sys_, cs)
                assert tc is not None
                assert validate_case(tc, sys_, cs)
                assert tc.levels[it.i] == it.a and tc.levels[it.j] == it.b
            builds.append(uni)
    finally:
        interactions._ENUMERATE_CASES = listed
    for name in ("f1", "v1", "f2", "v2", "weights", "pair_id"):
        assert np.array_equal(getattr(builds[0], name), getattr(builds[1], name))
