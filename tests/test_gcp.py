import numpy as np
import pytest

from paircover.bench import make_bbu, make_system
from paircover.core import ConstraintSet, PartialAssignment, StructureError
from paircover.gcp import incompatibility_edges, partition_musts
from paircover.interactions import find_extension

from conftest import random_constraints


def pa(*picks):
    return PartialAssignment(tuple(picks))


class TestIncompatibilityEdges:
    def test_factor_clash(self):
        sys_ = make_system([3, 3, 3])
        musts = [pa((0, 0)), pa((0, 1)), pa((1, 2))]
        edges = incompatibility_edges(musts, sys_, ConstraintSet())
        assert edges == {(0, 1)}

    def test_avoid_blocks_merged_pair(self):
        sys_ = make_system([2, 2, 2])
        # compatible picks whose union completes an avoided tuple
        cs = ConstraintSet(avoid=(pa((0, 0), (1, 0)),))
        musts = [pa((0, 0)), pa((1, 0))]
        edges = incompatibility_edges(musts, sys_, cs)
        assert edges == {(0, 1)}

    def test_no_edges_when_independent(self):
        sys_ = make_system([3, 3, 3])
        musts = [pa((0, 0)), pa((1, 1)), pa((2, 2))]
        assert incompatibility_edges(musts, sys_, ConstraintSet()) == set()


class TestPartitionMusts:
    def test_empty(self):
        sys_ = make_system([2, 2])
        part = partition_musts(sys_, ConstraintSet())
        assert part.n_groups == 0

    def test_groups_collapse_compatible_tuples(self):
        sys_ = make_system([3, 3, 3])
        cs = ConstraintSet(must=(pa((0, 0)), pa((1, 1)), pa((0, 1))))
        part = partition_musts(sys_, cs)
        assert part.n_groups == 2
        covered = sorted(g for grp in part.groups for g in grp)
        assert covered == [0, 1, 2]
        # merged assignments contain exactly their members' picks
        for grp, mg in zip(part.groups, part.merged):
            want = {}
            for g in grp:
                want.update(dict(cs.must[g].picks))
            assert dict(mg.picks) == want

    def test_unreachable_must_rejected(self):
        sys_ = make_system([2, 2])
        cs = ConstraintSet(
            avoid=(pa((0, 0), (1, 0)), pa((0, 0), (1, 1))),
        )
        with pytest.raises(StructureError):
            partition_musts(sys_, cs, musts=[pa((0, 0))])

    def test_admission_needs_joint_extension(self):
        # three pairwise-compatible tuples whose 3-way merge is avoided:
        # the third cannot join the first two even with no direct edges
        sys_ = make_system([2, 2, 2, 2])
        cs = ConstraintSet(
            avoid=(pa((0, 1), (1, 1), (2, 1)),),
            must=(pa((0, 1)), pa((1, 1)), pa((2, 1))),
        )
        edges = incompatibility_edges(list(cs.must), sys_, cs)
        assert edges == set()
        part = partition_musts(sys_, cs)
        assert part.n_groups == 2
        for mg in part.merged:
            assert find_extension(mg, sys_, cs) is not None

    def test_deterministic(self):
        sys_ = make_system([3, 3, 3, 3])
        cs = ConstraintSet(
            must=(pa((0, 0)), pa((0, 1)), pa((1, 0)), pa((2, 2)), pa((0, 2)))
        )
        a = partition_musts(sys_, cs)
        b = partition_musts(sys_, cs)
        assert a.groups == b.groups
        assert a.merged == b.merged

    def test_subset_argument(self):
        sys_ = make_system([3, 3])
        cs = ConstraintSet(must=(pa((0, 0)), pa((0, 1)), pa((1, 2))))
        part = partition_musts(sys_, cs, musts=[cs.must[2]])
        assert part.n_groups == 1
        assert part.groups == [[0]]  # indices are into the subset

    def test_bbu_musts_fit_one_case(self):
        sys_, cs = make_bbu()
        part = partition_musts(sys_, cs)
        assert part.n_groups == 1
        assert find_extension(part.merged[0], sys_, cs) is not None


def test_random_partitions_are_sound(rng):
    for _ in range(20):
        cards = [int(rng.integers(2, 4)) for _ in range(int(rng.integers(3, 6)))]
        sys_ = make_system(cards)
        cs = random_constraints(
            sys_, rng, n_avoid=int(rng.integers(0, 3)), n_must=int(rng.integers(1, 5))
        )
        try:
            part = partition_musts(sys_, cs)
        except StructureError:
            # a generated must may have no valid extension; that rejection
            # is itself the contract
            assert any(
                find_extension(mu, sys_, cs) is None for mu in cs.must
            )
            continue
        seen = sorted(g for grp in part.groups for g in grp)
        assert seen == list(range(len(cs.must)))
        for grp, mg in zip(part.groups, part.merged):
            assert find_extension(mg, sys_, cs) is not None
            for g in grp:
                assert mg.extends(cs.must[g])
