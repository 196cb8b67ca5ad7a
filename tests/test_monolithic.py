import pytest

from paircover import monolithic
from paircover.bench import classic_instances, make_bbu, make_system
from paircover.core import ConstraintSet, PartialAssignment, StructureError, TestCase
from paircover.interactions import InteractionUniverse, verify_suite
from paircover.monolithic import (
    ModelSizeError,
    MonolithicTimeout,
    build_monolithic,
    minimal_suite,
    widest_pairs,
)

from conftest import oracle_min_suite_size, random_constraints


class TestBuildMonolithic:
    def test_variable_counts(self):
        # 2x3 system, 4 slots, one must: per slot 5 levels, 6 pair
        # indicators and 1 must indicator
        sys_ = make_system([2, 3])
        cs = ConstraintSet(must=(PartialAssignment(((0, 1), (1, 2))),))
        mono = build_monolithic(InteractionUniverse(sys_, cs), m=4)
        nx, nu, n_must = 5, 6, 1
        assert mono.milp.nvars == 4 * (nx + nu + n_must)

    def test_must_adds_indicators(self):
        sys_ = make_system([2, 2])
        cs = ConstraintSet(must=(PartialAssignment(((0, 1),)),))
        plain = build_monolithic(InteractionUniverse(sys_, ConstraintSet()), m=3).milp
        milp = build_monolithic(InteractionUniverse(sys_, cs), m=3).milp
        # one indicator per slot, appended last
        assert milp.nvars == plain.nvars + 3
        # per slot one z <= x row for the must's one pick; then one "some slot" row
        assert milp.ncons == plain.ncons + 3 * 1 + 1
        arr = milp.to_arrays()
        last = arr["vidx"][arr["indptr"][-2] :].tolist()
        assert last == [plain.nvars, plain.nvars + 1, plain.nvars + 2]
        assert (arr["rel"][-1], arr["rhs"][-1]) == (1, 1)  # sum of z >= 1

    def test_rejects_zero_slots(self):
        sys_ = make_system([2, 2])
        with pytest.raises(StructureError):
            build_monolithic(InteractionUniverse(sys_, ConstraintSet()), m=0)

    def test_size_cap(self):
        sys_ = make_system([4, 4, 4, 4])
        with pytest.raises(ModelSizeError):
            # 16 x and 96 pair indicators per slot: 224,000 variables at m=2000
            build_monolithic(InteractionUniverse(sys_, ConstraintSet()), m=2000)

    def test_slot_k_holds_widest_pair_k(self):
        # 2x3x2: the widest pair is (F0, F1) with 6 pairs; slots 0-5 are
        # fixed to them and slot 6 is free
        sys_ = make_system([2, 3, 2])
        uni = InteractionUniverse(sys_, ConstraintSet())
        mono = build_monolithic(uni, m=7)
        arr = mono.milp.to_arrays()
        fixed = set()
        for r in range(mono.milp.ncons):
            lo, hi = arr["indptr"][r], arr["indptr"][r + 1]
            if hi - lo == 1 and arr["rel"][r] == 2:
                assert (arr["coef"][lo], arr["rhs"][r]) == (1, 1)
                fixed.add(int(arr["vidx"][lo]))
        base = (0, 2, 5)  # x var of (factor, level 0) within a slot
        want = {
            k * 7 + base[f] + v
            for k, u in enumerate(widest_pairs(uni))
            for f, v in uni.interaction(u).picks
        }
        assert len(want) == 12
        assert fixed == want


class TestDecode:
    """The one-hot slot blocks of a HiGHS solution, read back with their checks."""

    @staticmethod
    def _model():
        # 2x3 with F0=0, F1=0 avoided; two slots of 5 x variables each
        sys_ = make_system([2, 3])
        cs = ConstraintSet(avoid=(PartialAssignment(((0, 0), (1, 0))),))
        return build_monolithic(InteractionUniverse(sys_, cs), m=2)

    @staticmethod
    def _values(mono, *slots):
        values = [0] * mono.milp.nvars
        for c, ones in enumerate(slots):
            for k in ones:
                values[c * 5 + k] = 1
        return values

    def test_slots_become_cases(self):
        mono = self._model()
        suite = mono.decode(self._values(mono, (1, 4), (0, 3)))
        assert suite.cases == [TestCase((1, 2)), TestCase((0, 1))]

    @pytest.mark.parametrize(
        "slot1, message",
        [
            ((0, 1, 3), "slot 1: factor 0 has two levels set"),
            ((0,), "slot 1: factor 1 has no level set"),
            ((0, 2), "decoded slot 1 violates an avoid tuple"),
        ],
    )
    def test_bad_slot_raises(self, slot1, message):
        mono = self._model()
        with pytest.raises(StructureError, match=message):
            mono.decode(self._values(mono, (1, 4), slot1))


def test_widest_pairs():
    sys_ = make_system([2, 3, 4])
    uni = InteractionUniverse(sys_, ConstraintSet())
    want = [u for u in range(len(uni)) if (uni.f1[u], uni.f2[u]) == (1, 2)]
    assert len(want) == 12  # the 3x4 factor pair
    assert widest_pairs(uni) == want


class TestMinimalSuite:
    def test_2x2_needs_four(self):
        sys_ = make_system([2, 2])
        suite, report = minimal_suite(InteractionUniverse(sys_, ConstraintSet()))
        assert len(suite) == 4
        assert report["m"] == 4

    def test_matches_set_cover_oracle(self, rng):
        # the exhaustive oracle is what checks the slot symmetry rows
        checked = 0
        while checked < 100:
            cards = [int(rng.integers(2, 4)) for _ in range(int(rng.integers(2, 4)))]
            sys_ = make_system(cards)
            cs = random_constraints(
                sys_,
                rng,
                n_avoid=int(rng.integers(0, 4)),
                n_must=int(rng.integers(0, 3)),
            )
            try:
                want = oracle_min_suite_size(sys_, cs)
            except ValueError:  # an unsatisfiable must: draw again
                continue
            suite, _ = minimal_suite(InteractionUniverse(sys_, cs))
            assert len(suite) == want, (cards, cs)
            checked += 1

    def test_bbu_case_study(self):
        # the paper's case study: m=16 is proven too small, 17 is reached
        sys_, cs = make_bbu()
        suite, report = minimal_suite(InteractionUniverse(sys_, cs), time_limit=60)
        assert len(suite) == 17 == report["m"]
        assert [a["m"] for a in report["attempts"]] == [16, 17]
        assert report["attempts"][0]["status"] == "infeasible"
        ok, problems = verify_suite(suite, cs)
        assert ok, problems

    def test_3x3x3_needs_nine(self):
        # the built-in kernel could not decide m=9 within a minute here
        sys_ = make_system([3, 3, 3])
        suite, report = minimal_suite(InteractionUniverse(sys_, ConstraintSet()), time_limit=30)
        assert len(suite) == 9 == report["m"]
        ok, problems = verify_suite(suite, ConstraintSet())
        assert ok, problems

    def test_undecided_slot_count_times_out(self):
        # the first slot count of mca-5.3^8.2^2, 15, stays undecided well
        # past half a second: no suite is given, since it might not be minimal
        universe = InteractionUniverse(*classic_instances()["mca-5.3^8.2^2"])
        with pytest.raises(MonolithicTimeout, match=r"^could not decide coverage at m=15 within 0\.5s$"):
            minimal_suite(universe, time_limit=0.5)

    def test_avoid_can_force_extra_case(self):
        # 2x3: unconstrained minimum is 6; forbidding one combination keeps
        # it at 6 minus nothing here, but the suite must dodge the avoid
        sys_ = make_system([2, 3])
        cs = ConstraintSet(avoid=(PartialAssignment(((0, 0), (1, 0))),))
        suite, _ = minimal_suite(InteractionUniverse(sys_, cs))
        assert len(suite) == oracle_min_suite_size(sys_, cs)
        assert all(tc.levels != (0, 0) for tc in suite)

    def test_no_valid_case_is_an_error(self):
        # with every combination avoided no case exists, so there is no
        # suite to minimize: the model is rejected, not given an empty one
        sys_ = make_system([2, 2])
        cs = ConstraintSet(
            avoid=tuple(
                PartialAssignment(((0, a), (1, b))) for a in range(2) for b in range(2)
            )
        )
        with pytest.raises(StructureError, match="the avoid tuples rule out every test case"):
            minimal_suite(InteractionUniverse(sys_, cs))

    def test_must_with_no_valid_case_fails_before_any_solve(self, monkeypatch):
        # a0 is avoided with every level of B, so no case holds the must
        sys_ = make_system([2, 2, 2])
        cs = ConstraintSet(
            avoid=(PartialAssignment(((0, 0), (1, 0))), PartialAssignment(((0, 0), (1, 1)))),
            must=(PartialAssignment(((0, 0), (2, 0))),),
        )

        def no_solve(*args):
            raise AssertionError("solve_highs ran")

        monkeypatch.setattr(monolithic, "solve_highs", no_solve)
        with pytest.raises(
            StructureError, match=r"must tuple \(\(0, 0\), \(2, 0\)\) has no constraint-valid"
        ):
            minimal_suite(InteractionUniverse(sys_, cs))
