"""One-shot formulation: a fixed number of case slots, solved whole.

For ``m`` slots the model picks one level per factor per slot and asks
whether those m cases cover everything: it is a feasibility program with no
objective.  Avoid tuples become per-slot knapsack rows.  Every tuple a slot
must hold, each achievable pair and then each must tuple (the set cover's
element order), gets one indicator per slot, tied by ``z <= x`` to each of
its picks, and one row saying some slot's indicator fires.

Each case holds exactly one pair of the widest factor pair (the one with the
most achievable pairs), and slots are interchangeable, so any cover can be
permuted until slot k holds widest pair k.  Fixing those picks removes the
slot symmetry that otherwise leaves the infeasible m undecided.

``minimal_suite`` searches m upward from that pair count and returns the
first m whose model has a point, which is the exact minimum suite size.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .core import (
    ConstraintSet,
    FactorSystem,
    PaircoverError,
    StructureError,
    TestCase,
    TestSuite,
    validate_case,
)
from .gcp import _check_musts
from .interactions import InteractionUniverse, verify_suite
from .milp import MilpModel, SolveStatus, solve_highs


class ModelSizeError(PaircoverError):
    """The requested monolithic model would exceed the variable cap."""


class MonolithicTimeout(PaircoverError):
    """A fixed-m solve hit its time limit before deciding coverage."""


DEFAULT_TIME_LIMIT = 3600.0
DEFAULT_MAX_VARS = 200_000


@dataclass
class MonolithicModel:
    """The assembled program plus everything needed to decode a solution.

    Slot c's x variables are the one-hot block starting at var
    ``c * sum(cardinalities)``: one variable per (factor, level), factors in
    index order and levels in index order within each factor.
    """

    milp: MilpModel
    system: FactorSystem
    constraints: ConstraintSet
    m: int

    def decode(self, values) -> TestSuite:
        """The suite held by the slots' one-hot x blocks of a HiGHS solution."""
        suite = TestSuite(self.system)
        k = 0
        for c in range(self.m):
            levels = []
            for i, card in enumerate(self.system.cardinalities):
                picks = [a for a in range(card) if values[k + a] == 1]
                if len(picks) > 1:
                    raise StructureError(f"slot {c}: factor {i} has two levels set")
                if not picks:
                    raise StructureError(f"slot {c}: factor {i} has no level set")
                levels.append(picks[0])
                k += card
            tc = TestCase(tuple(levels))
            if not validate_case(tc, self.system, self.constraints):
                raise StructureError(f"decoded slot {c} violates an avoid tuple")
            suite.append(tc)
        return suite


def build_monolithic(universe: InteractionUniverse, m: int) -> MonolithicModel:
    """Assemble the m-slot program covering the pairs of ``universe``."""
    if m < 1:
        raise StructureError(f"need at least one slot, got m={m}")
    system, constraints = universe.system, universe.constraints
    n = system.n_factors
    card = system.cardinalities
    nx = sum(card)
    tuples = [universe.interaction(u) for u in range(len(universe))] + list(constraints.must)
    est_vars = m * (nx + len(tuples))
    if est_vars > DEFAULT_MAX_VARS:
        raise ModelSizeError(
            f"monolithic model would need {est_vars} variables (cap {DEFAULT_MAX_VARS})"
        )

    milp = MilpModel()
    base = [sum(card[:i]) for i in range(n)]

    def x(c, f, v) -> int:
        """The var of slot c picking level v of factor f."""
        return c * nx + base[f] + int(v)

    for _ in range(m * nx):
        milp.add_var()
    # one level per factor per slot
    for c in range(m):
        for i in range(n):
            milp.add_constraint({x(c, i, a): 1 for a in range(card[i])}, "==", 1)
    # avoid tuples per slot
    for c in range(m):
        for av in constraints.avoid:
            milp.add_constraint({x(c, f, v): 1 for f, v in av.picks}, "<=", len(av) - 1)
    # slot k holds widest pair k
    for c, u in enumerate(widest_pairs(universe)[:m]):
        for f, v in tuples[u].picks:
            milp.add_constraint({x(c, f, v): 1}, "==", 1)
    # every pair, then every must: one indicator per slot, some slot holds it
    for t in tuples:
        z = [milp.add_var() for _ in range(m)]
        for c in range(m):
            for f, v in t.picks:
                milp.add_constraint({z[c]: 1, x(c, f, v): -1}, "<=", 0)
        milp.add_constraint(dict.fromkeys(z, 1), ">=", 1)

    return MonolithicModel(milp, system, constraints, m)


def widest_pairs(universe: InteractionUniverse) -> list[int]:
    """The pair ids, in id order, of the factor pair with the most pairs."""
    counts = (universe.pair_id >= 0).sum(axis=(1, 3))
    i, j = np.unravel_index(counts.argmax(), counts.shape)
    ids = universe.pair_id[i, :, j, :]
    return ids[ids >= 0].tolist()


def minimal_suite(
    universe: InteractionUniverse, time_limit: float = DEFAULT_TIME_LIMIT
) -> tuple[TestSuite, dict]:
    """Exact minimum-size suite covering the pairs of ``universe``, via the
    m-search.

    ``time_limit`` is the budget per fixed-m solve.  Raises
    :class:`MonolithicTimeout` when a solve cannot decide coverage within
    its budget, since continuing would forfeit the minimality claim.
    Raises StructureError before any solve for a must tuple no valid case
    holds: no slot count could cover it.
    """
    system, constraints = universe.system, universe.constraints
    _check_musts(system, constraints, constraints.must)
    report: dict = {"attempts": []}
    lb = len(widest_pairs(universe))
    hi = len(universe) + len(constraints.must) + 1
    t0 = time.perf_counter()
    for m in range(lb, hi + 1):
        mono = build_monolithic(universe, m)
        # HiGHS: a branch and bound without an LP relaxation stalls on slot
        # models past toy sizes
        sol = solve_highs(mono.milp, time_limit)
        report["attempts"].append(
            {
                "m": m,
                "status": sol.status.value,
                "nvars": mono.milp.nvars,
                "ncons": mono.milp.ncons,
            }
        )
        if sol.status == SolveStatus.INFEASIBLE:
            continue
        if not sol.has_solution:
            raise MonolithicTimeout(
                f"could not decide coverage at m={m} within {time_limit}s"
            )
        # every point covers everything and each smaller m was infeasible
        suite = mono.decode(sol.values)
        ok, problems = verify_suite(suite, constraints, universe)
        if not ok:
            raise PaircoverError(
                "decoded monolithic suite is unsound: " + "; ".join(problems[:3])
            )
        report["m"] = m
        report["wall_s"] = time.perf_counter() - t0
        return suite, report
    # a guard: with every must extendable, m = hi gives each pair and must a slot
    raise PaircoverError(f"no covering suite found with m <= {hi}")
