"""Core data model: factors, assignments, test cases, constraints.

Factors are indexed 0..n-1 and levels within factor i are indexed
0..cardinalities[i]-1.  All other modules work on these integer indices;
names only matter at the I/O boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

import numpy as np


class PaircoverError(Exception):
    """Base class for errors raised by this package."""


class StructureError(PaircoverError):
    """A value violates the structural rules of the data model."""


class ParseError(PaircoverError):
    """A model or suite file is malformed.

    ``line`` is the 1-based line number when known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Factor:
    """A named factor with an ordered tuple of level names."""

    name: str
    level_names: tuple[str, ...]

    def __post_init__(self):
        if not self.name:
            raise StructureError("factor name must be non-empty")
        if len(self.level_names) < 2:
            raise StructureError(
                f"factor {self.name!r} needs at least 2 levels, got {len(self.level_names)}"
            )
        if len(set(self.level_names)) != len(self.level_names):
            raise StructureError(f"factor {self.name!r} has duplicate level names")

    @property
    def cardinality(self) -> int:
        return len(self.level_names)


@dataclass(frozen=True)
class FactorSystem:
    """An ordered collection of factors defining the test space."""

    factors: tuple[Factor, ...]

    def __post_init__(self):
        if len(self.factors) < 2:
            raise StructureError("a factor system needs at least 2 factors")
        names = [f.name for f in self.factors]
        if len(set(names)) != len(names):
            raise StructureError("duplicate factor names")

    @property
    def n_factors(self) -> int:
        return len(self.factors)

    @cached_property
    def cardinalities(self) -> tuple[int, ...]:
        return tuple(f.cardinality for f in self.factors)

    def factor_index(self, name: str) -> int:
        for i, f in enumerate(self.factors):
            if f.name == name:
                return i
        raise StructureError(f"unknown factor {name!r}")

    def level_index(self, factor: int, name: str) -> int:
        f = self.factors[factor]
        try:
            return f.level_names.index(name)
        except ValueError:
            raise StructureError(
                f"factor {f.name!r} has no level {name!r}"
            ) from None

    def check_pick(self, factor: int, level: int) -> None:
        if not 0 <= factor < self.n_factors:
            raise StructureError(f"factor index {factor} out of range")
        if not 0 <= level < self.cardinalities[factor]:
            raise StructureError(
                f"level index {level} out of range for factor {self.factors[factor].name!r}"
            )


@dataclass(frozen=True)
class PartialAssignment:
    """A set of (factor, level) picks with distinct factors.

    Stored sorted by factor index so equal assignments compare and hash
    equal regardless of construction order.
    """

    picks: tuple[tuple[int, int], ...]

    def __post_init__(self):
        ordered = tuple(sorted(self.picks))
        factors = [f for f, _ in ordered]
        if len(set(factors)) != len(factors):
            raise StructureError("partial assignment picks the same factor twice")
        object.__setattr__(self, "picks", ordered)

    def __len__(self) -> int:
        return len(self.picks)

    def validate_against(self, system: FactorSystem) -> None:
        if not self.picks:
            raise StructureError("partial assignment must pick at least one factor")
        for f, v in self.picks:
            system.check_pick(f, v)

    def compatible(self, other: "PartialAssignment") -> bool:
        """True when the two assignments agree on every shared factor."""
        mine = dict(self.picks)
        return all(mine.get(f, v) == v for f, v in other.picks)

    def extends(self, other: "PartialAssignment") -> bool:
        """True when self fixes every pick of ``other`` to the same level."""
        mine = dict(self.picks)
        return all(mine.get(f) == v for f, v in other.picks)

    def merged(self, other: "PartialAssignment") -> "PartialAssignment":
        if not self.compatible(other):
            raise StructureError("cannot merge conflicting assignments")
        m = dict(self.picks)
        m.update(other.picks)
        return PartialAssignment(tuple(m.items()))


@dataclass(frozen=True)
class TestCase:
    """A full assignment: one level index per factor."""

    __test__ = False  # domain class, not a pytest case

    levels: tuple[int, ...]

    def validate_against(self, system: FactorSystem) -> None:
        card = system.cardinalities
        if len(self.levels) != len(card):
            raise StructureError(
                f"test case has {len(self.levels)} entries, system has {len(card)} factors"
            )
        for v, c in zip(self.levels, card):
            if not 0 <= v < c:  # check_pick names the first bad pick
                for f, w in enumerate(self.levels):
                    system.check_pick(f, w)

    def decode(self, system: FactorSystem) -> tuple[str, ...]:
        return tuple(
            system.factors[f].level_names[v] for f, v in enumerate(self.levels)
        )


@dataclass(frozen=True)
class ConstraintSet:
    """Exclusionary (avoid) and inclusionary (must) tuples.

    A case violating any avoid tuple is invalid.  Each must tuple has to be
    fully contained in at least one case of the final suite.  A must tuple
    that itself extends an avoid tuple can never be satisfied and is
    rejected here rather than surfacing as a solver infeasibility later.

    :meth:`completes_avoid` is the one avoid check every search uses
    (extension, greedy walk, per-case step), and :meth:`avoid_neighbours`
    names the factors a pick can block; they and :attr:`avoid_by_size`, for
    ``interactions.avoided``, are built on first use and kept with the instance.
    """

    avoid: tuple[PartialAssignment, ...] = ()
    must: tuple[PartialAssignment, ...] = ()

    def validate_against(self, system: FactorSystem) -> None:
        for pa in self.avoid:
            pa.validate_against(system)
        for pa in self.must:
            pa.validate_against(system)
        for m in self.must:
            for a in self.avoid:
                if m.extends(a):
                    raise StructureError(
                        f"must tuple {m.picks} contains avoided tuple {a.picks}"
                    )

    @cached_property
    def _avoid_index(self) -> dict[tuple[int, int], list[tuple[tuple[int, int], ...]]]:
        """Per pick (f, v): the other picks of each avoid tuple holding it."""
        out: dict = {}
        for av in self.avoid:
            for f, v in av.picks:
                out.setdefault((f, v), []).append(
                    tuple(p for p in av.picks if p[0] != f)
                )
        return out

    @cached_property
    def avoid_by_size(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per avoid tuple size k, the (t, k) factor and level arrays of
        its t tuples, one row per tuple, picks in factor order."""
        sizes = sorted({len(av) for av in self.avoid})
        picks = (np.array([av.picks for av in self.avoid if len(av) == k]) for k in sizes)
        return [(p[..., 0], p[..., 1]) for p in picks]

    def completes_avoid(self, factor: int, level: int, levels) -> bool:
        """True when picking ``level`` of ``factor`` completes an avoid tuple.

        ``levels[g]`` is the level picked for factor g, or -1 while g is
        unassigned; an unassigned factor never matches.  ``levels[factor]``
        itself is not read.
        """
        for rest in self._avoid_index.get((factor, level), ()):
            for g, w in rest:
                if levels[g] != w:
                    break
            else:
                return True
        return False

    @cached_property
    def _neighbour_index(self) -> dict[tuple[int, int], tuple[int, ...]]:
        return {
            pick: tuple(sorted({g for rest in rests for g, _ in rest}))
            for pick, rests in self._avoid_index.items()
        }

    def avoid_neighbours(self, factor: int, level: int) -> tuple[int, ...]:
        """The other factors of the avoid tuples that hold pick (factor, level).

        Only their levels can become blocked (:meth:`completes_avoid`) when
        the pick is made.
        """
        return self._neighbour_index.get((factor, level), ())


def validate_case(
    case: TestCase, system: FactorSystem, constraints: ConstraintSet
) -> bool:
    """True when the case is structurally sound and violates no avoid tuple.

    A case holds an avoid tuple exactly when one of its picks completes it,
    so the check reads only the tuples indexed under the case's own picks.
    """
    case.validate_against(system)
    levels = case.levels
    return not any(constraints.completes_avoid(f, v, levels) for f, v in enumerate(levels))


@dataclass
class TestSuite:
    """An ordered list of test cases over one factor system."""

    __test__ = False  # domain class, not a pytest case

    system: FactorSystem
    cases: list[TestCase] = field(default_factory=list)

    def __post_init__(self):
        for tc in self.cases:
            tc.validate_against(self.system)

    def __len__(self) -> int:
        return len(self.cases)

    def __iter__(self) -> Iterator[TestCase]:
        return iter(self.cases)

    def append(self, case: TestCase) -> None:
        case.validate_against(self.system)
        self.cases.append(case)
