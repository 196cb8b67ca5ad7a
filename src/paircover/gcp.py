"""Grouping of must tuples into co-occupiable sets.

Two must tuples cannot share a test case when they pick different levels of
the same factor, or when their merged picks have no constraint-valid
extension.  Building that incompatibility graph and greedy-coloring it
yields groups whose members can all sit in one case, so the must phase
spends one generated case per group instead of one per tuple.

Coloring order is descending vertex degree with ties broken by ascending
tuple index.  A tuple only joins a group if the whole merged assignment
(group plus candidate) still extends to a valid case; pairwise
compatibility alone is not enough once avoid tuples get involved.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import ConstraintSet, FactorSystem, PartialAssignment, StructureError
from .interactions import find_extension


@dataclass
class Partition:
    """Groups of indices into the partitioned must tuples, in creation order."""

    groups: list[list[int]]
    merged: list[PartialAssignment]

    @property
    def n_groups(self) -> int:
        return len(self.groups)


def incompatibility_edges(
    musts: list[PartialAssignment],
    system: FactorSystem,
    constraints: ConstraintSet,
) -> set[tuple[int, int]]:
    """Pairs (g, h), g < h, that cannot share a case."""
    edges: set[tuple[int, int]] = set()
    for g in range(len(musts)):
        for h in range(g + 1, len(musts)):
            if not musts[g].compatible(musts[h]):
                edges.add((g, h))
                continue
            if find_extension(musts[g].merged(musts[h]), system, constraints) is None:
                edges.add((g, h))
    return edges


def _check_musts(system: FactorSystem, constraints: ConstraintSet, musts) -> None:
    """Raise StructureError for a must tuple with no valid extension at
    all, since no suite could ever satisfy it."""
    for mu in musts:
        mu.validate_against(system)
        if find_extension(mu, system, constraints) is None:
            raise StructureError(f"must tuple {mu.picks} has no constraint-valid extension")


def partition_musts(
    system: FactorSystem,
    constraints: ConstraintSet,
    musts: list[PartialAssignment],
) -> Partition:
    """Greedy-color the incompatibility graph of ``musts``.

    The pipeline passes the must tuples of ``constraints`` that a warm
    start left unsatisfied.  Raises StructureError for a must tuple with no
    valid extension at all (``_check_musts``).
    """
    _check_musts(system, constraints, musts)
    if not musts:
        return Partition([], [])

    edges = incompatibility_edges(musts, system, constraints)
    degree = [0] * len(musts)
    for g, h in edges:
        degree[g] += 1
        degree[h] += 1
    order = sorted(range(len(musts)), key=lambda g: (-degree[g], g))

    groups: list[list[int]] = []
    merged: list[PartialAssignment] = []
    for g in order:
        placed = False
        for k, members in enumerate(groups):
            if any((min(g, h), max(g, h)) in edges for h in members):
                continue
            candidate = merged[k].merged(musts[g])
            if find_extension(candidate, system, constraints) is None:
                continue
            members.append(g)
            merged[k] = candidate
            placed = True
            break
        if not placed:
            groups.append([g])
            merged.append(musts[g])
    return Partition(groups, merged)
