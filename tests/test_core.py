import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from paircover.bench import make_system
from paircover.core import (
    ConstraintSet,
    Factor,
    FactorSystem,
    PartialAssignment,
    StructureError,
    TestCase,
    TestSuite,
    validate_case,
)
from paircover.interactions import carried, case_levels

from conftest import satisfied_musts, subsumes


class TestFactor:
    def test_needs_two_levels(self):
        with pytest.raises(StructureError):
            Factor("A", ("only",))

    def test_rejects_duplicate_levels(self):
        with pytest.raises(StructureError):
            Factor("A", ("x", "x"))

    def test_cardinality(self):
        assert Factor("A", ("x", "y", "z")).cardinality == 3


class TestFactorSystem:
    def test_needs_two_factors(self):
        with pytest.raises(StructureError):
            FactorSystem((Factor("A", ("x", "y")),))

    def test_rejects_duplicate_names(self):
        f = Factor("A", ("x", "y"))
        with pytest.raises(StructureError):
            FactorSystem((f, f))

    def test_lookups(self):
        sys_ = make_system([2, 3])
        assert sys_.factor_index("F1") == 1
        assert sys_.level_index(1, "v2") == 2
        with pytest.raises(StructureError):
            sys_.factor_index("nope")
        with pytest.raises(StructureError):
            sys_.level_index(0, "v9")

    def test_counts(self):
        sys_ = make_system([2, 3, 4])
        assert sys_.n_factors == 3
        assert sys_.cardinalities == (2, 3, 4)
        assert sys_.cardinalities[2] == 4


class TestPartialAssignment:
    def test_sorted_and_equal(self):
        a = PartialAssignment(((2, 1), (0, 3)))
        b = PartialAssignment(((0, 3), (2, 1)))
        assert a == b
        assert a.picks == ((0, 3), (2, 1))

    def test_rejects_duplicate_factor(self):
        with pytest.raises(StructureError):
            PartialAssignment(((1, 0), (1, 1)))

    def test_compatible_and_extends(self):
        a = PartialAssignment(((0, 1), (1, 2)))
        b = PartialAssignment(((1, 2), (2, 0)))
        c = PartialAssignment(((1, 3),))
        assert a.compatible(b)
        assert not a.compatible(c)
        merged = a.merged(b)
        assert merged.extends(a) and merged.extends(b)
        with pytest.raises(StructureError):
            a.merged(c)

    def test_requires_in_range_picks(self):
        sys_ = make_system([2, 2])
        with pytest.raises(StructureError):
            PartialAssignment(((0, 5),)).validate_against(sys_)
        with pytest.raises(StructureError):
            PartialAssignment(()).validate_against(sys_)


class TestTestCase:
    def test_validate_and_decode(self):
        sys_ = make_system([2, 3])
        tc = TestCase((1, 2))
        tc.validate_against(sys_)
        assert tc.decode(sys_) == ("v1", "v2")
        with pytest.raises(StructureError):
            TestCase((1,)).validate_against(sys_)
        with pytest.raises(StructureError):
            TestCase((1, 9)).validate_against(sys_)

    def test_subsumes(self):
        tc = TestCase((1, 0, 2))
        musts = (PartialAssignment(((0, 1), (2, 2))), PartialAssignment(((1, 1),)))
        held = carried(case_levels([tc], 3), ConstraintSet(must=musts))
        assert held.tolist() == [[True], [False]]


class TestConstraintSet:
    def test_must_containing_avoid_rejected(self):
        sys_ = make_system([2, 2, 2])
        avoid = PartialAssignment(((0, 0), (1, 0)))
        must = PartialAssignment(((0, 0), (1, 0), (2, 1)))
        cs = ConstraintSet(avoid=(avoid,), must=(must,))
        with pytest.raises(StructureError):
            cs.validate_against(sys_)

    def test_valid_case(self):
        sys_ = make_system([2, 2])
        cs = ConstraintSet(avoid=(PartialAssignment(((0, 0), (1, 1))),))
        assert validate_case(TestCase((0, 0)), sys_, cs)
        assert not validate_case(TestCase((0, 1)), sys_, cs)

    def test_completes_avoid(self):
        cs = ConstraintSet(
            avoid=(
                PartialAssignment(((0, 1), (2, 0))),
                PartialAssignment(((0, 0), (1, 1), (3, 1))),
                PartialAssignment(((1, 0),)),
            )
        )
        # any one pick of an avoid tuple completes it once the others are down
        assert cs.completes_avoid(2, 0, [1, -1, -1, -1])
        assert cs.completes_avoid(0, 1, [-1, -1, 0, -1])
        assert cs.completes_avoid(1, 1, [0, -1, -1, 1])
        assert cs.completes_avoid(3, 1, [0, 1, -1, -1])
        assert cs.completes_avoid(1, 0, [-1, -1, -1, -1])  # a one-pick avoid
        # the picked factor's own entry is not read
        assert cs.completes_avoid(2, 0, [1, -1, 1, -1])
        assert not cs.completes_avoid(2, 1, [1, -1, -1, -1])
        assert not cs.completes_avoid(3, 1, [0, 0, -1, -1])
        assert not ConstraintSet().completes_avoid(0, 0, [0, 0])

    def test_unassigned_never_matches(self):
        cs = ConstraintSet(
            avoid=(
                PartialAssignment(((0, 0), (1, 0))),
                PartialAssignment(((0, 0), (1, 1), (2, 0))),
            )
        )
        # -1 marks an unassigned factor: an avoid naming it stays incomplete
        assert not cs.completes_avoid(0, 0, [-1, -1, -1])
        assert not cs.completes_avoid(1, 1, [0, -1, -1])
        assert not cs.completes_avoid(2, 0, [0, -1, -1])
        assert not cs.completes_avoid(2, 0, [-1, 1, -1])
        assert cs.completes_avoid(2, 0, [0, 1, -1])


class TestTestSuite:
    def test_append_validates(self):
        sys_ = make_system([2, 2])
        suite = TestSuite(sys_)
        suite.append(TestCase((1, 1)))
        with pytest.raises(StructureError):
            suite.append(TestCase((1, 5)))
        assert len(suite) == 1

    def test_satisfied_musts(self):
        # the tests' carrier check, which acceptance criterion 1 reads
        sys_ = make_system([2, 2])
        cs = ConstraintSet(must=(PartialAssignment(((0, 1),)), PartialAssignment(((1, 0),))))
        suite = TestSuite(sys_, [TestCase((1, 1))])
        assert satisfied_musts(suite, cs) == [True, False]


@given(
    picks=st.dictionaries(
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=3),
        min_size=1,
        max_size=4,
    )
)
def test_partial_assignment_order_free(picks):
    items = list(picks.items())
    fwd = PartialAssignment(tuple(items))
    rev = PartialAssignment(tuple(reversed(items)))
    assert fwd == rev
    assert fwd.picks == tuple(sorted(items))


@given(
    base=st.lists(st.integers(0, 2), min_size=3, max_size=3),
    sub=st.sets(st.integers(0, 2), min_size=1, max_size=3),
)
def test_case_always_subsumes_its_projection(base, sub):
    tc = TestCase(tuple(base))
    pa = PartialAssignment(tuple((f, base[f]) for f in sorted(sub)))
    assert carried(case_levels([tc], 3), ConstraintSet(must=(pa,))).tolist() == [[True]]


@st.composite
def _avoid_system(draw):
    """Cardinalities, avoid tuples of 1-3 picks, and levels with -1 holes."""
    cards = draw(st.lists(st.integers(2, 4), min_size=2, max_size=6))
    pick = st.integers(0, len(cards) - 1).flatmap(
        lambda f: st.tuples(st.just(f), st.integers(0, cards[f] - 1))
    )
    tuples = draw(
        st.lists(st.lists(pick, min_size=1, max_size=3, unique_by=lambda p: p[0]), max_size=8)
    )
    levels = [draw(st.integers(-1, c - 1)) for c in cards]
    return cards, ConstraintSet(avoid=tuple(PartialAssignment(tuple(t)) for t in tuples)), levels


@given(_avoid_system())
def test_avoid_checks_match_tuple_scan(drawn):
    # the indexed checks against their definition: scan every avoid tuple
    cards, cs, levels = drawn
    sys_ = make_system(cards)
    for f, c in enumerate(cards):
        for v in range(c):
            trial = [*levels[:f], v, *levels[f + 1 :]]
            expect = any(
                dict(a.picks).get(f) == v and all(trial[g] == w for g, w in a.picks)
                for a in cs.avoid
            )
            assert cs.completes_avoid(f, v, levels) == expect
            assert cs.completes_avoid(f, v, np.array(levels)) == expect
    tc = TestCase(tuple(max(v, 0) for v in levels))
    assert validate_case(tc, sys_, cs) == (not any(subsumes(tc, a) for a in cs.avoid))
