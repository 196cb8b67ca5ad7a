"""One-shot formulation: a fixed number of case slots, solved whole.

For ``m`` slots the model picks one level per factor per slot and maximizes
the number of distinct achievable pairs covered across slots.  Avoid tuples
become per-slot knapsack rows; each must tuple gets containment indicator
variables tied to the slots, at least one of which has to fire.

The coverage chain is x (slot picks level) -> q (slot covers pair) -> p
(pair covered anywhere).  q needs both directions: q <= each x so a slot
cannot claim a pair it does not contain, and q >= x + x - 1 so propagation
fixes q as soon as both picks are down.  p <= sum of q over slots.

``minimal_suite`` searches m upward from a pair-packing lower bound and
returns the first m whose model covers everything, which is the exact
minimum suite size.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .core import (
    ConstraintSet,
    FactorSystem,
    PaircoverError,
    StructureError,
    TestSuite,
)
from .interactions import InteractionUniverse, verify_suite
from .milp import MilpModel, MilpSolution, SolveStatus, solve_highs
from .sequential import decode_case


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
    ``c * sum(cardinalities)``.
    """

    milp: MilpModel
    system: FactorSystem
    constraints: ConstraintSet
    universe: InteractionUniverse
    m: int

    def solve(self, time_limit: float | None) -> MilpSolution:
        """Solve with HiGHS: a branch and bound without an LP relaxation
        stalls on slot models past toy sizes."""
        return solve_highs(self.milp, time_limit=time_limit)

    def decode(self, values) -> TestSuite:
        nx = sum(self.system.cardinalities)
        suite = TestSuite(self.system)
        for c in range(self.m):
            suite.append(
                decode_case(values, c * nx, self.system, self.constraints, f"slot {c}")
            )
        return suite


def build_monolithic(
    system: FactorSystem,
    constraints: ConstraintSet,
    m: int,
    universe: InteractionUniverse | None = None,
    max_vars: int = DEFAULT_MAX_VARS,
) -> MonolithicModel:
    """Assemble the m-slot coverage maximization program."""
    if m < 1:
        raise StructureError(f"need at least one slot, got m={m}")
    constraints.validate_against(system)
    if universe is None:
        universe = InteractionUniverse(system, constraints)
    n = system.n_factors
    card = system.cardinalities
    nx = sum(card)
    nu = len(universe)
    n_must = len(constraints.must)
    est_vars = m * nx + m * nu + nu + m * n_must
    if est_vars > max_vars:
        raise ModelSizeError(
            f"monolithic model would need {est_vars} variables (cap {max_vars})"
        )

    milp = MilpModel(sense="max")
    base = [sum(card[:i]) for i in range(n)]

    def x(c, f, v) -> int:
        """The var of slot c picking level v of factor f."""
        return c * nx + base[f] + int(v)

    for _ in range(m * nx):
        milp.add_var()
    q0 = milp.nvars  # q of (slot c, pair u) is q0 + c * nu + u
    for _ in range(m * nu):
        milp.add_var()
    p0 = milp.nvars  # p of pair u is p0 + u
    for _ in range(nu):
        milp.add_var(obj=1)
    y0 = milp.nvars  # y of (must g, slot c) is y0 + g * m + c
    for _ in range(n_must * m):
        milp.add_var()

    # one level per factor per slot
    for c in range(m):
        for i in range(n):
            milp.add_constraint({x(c, i, a): 1 for a in range(card[i])}, "==", 1)
    # q tied to both picks
    for c in range(m):
        for u in range(nu):
            xi = x(c, universe.f1[u], universe.v1[u])
            xj = x(c, universe.f2[u], universe.v2[u])
            qv = q0 + c * nu + u
            milp.add_constraint({qv: 1, xi: -1}, "<=", 0)
            milp.add_constraint({qv: 1, xj: -1}, "<=", 0)
            milp.add_constraint({xi: 1, xj: 1, qv: -1}, "<=", 1)
    # p covered by some slot
    for u in range(nu):
        coefs = {p0 + u: 1}
        for c in range(m):
            coefs[q0 + c * nu + u] = -1
        milp.add_constraint(coefs, "<=", 0)
    # avoid tuples per slot
    for c in range(m):
        for av in constraints.avoid:
            milp.add_constraint({x(c, f, v): 1 for f, v in av.picks}, "<=", len(av) - 1)
    # must tuples: containment indicators, at least one slot fires
    for g, mu in enumerate(constraints.must):
        for c in range(m):
            yv = y0 + g * m + c
            coefs = {yv: -1}
            for f, v in mu.picks:
                milp.add_constraint({yv: 1, x(c, f, v): -1}, "<=", 0)
                coefs[x(c, f, v)] = 1
            milp.add_constraint(coefs, "<=", len(mu) - 1)
        milp.add_constraint({y0 + g * m + c: 1 for c in range(m)}, ">=", 1)

    return MonolithicModel(milp, system, constraints, universe, m)


def coverage_lower_bound(universe: InteractionUniverse) -> int:
    """Most pairs any factor pair contributes; each case covers one of them."""
    return int((universe.pair_id >= 0).sum(axis=(1, 3)).max())


def minimal_suite(
    system: FactorSystem,
    constraints: ConstraintSet,
    time_limit: float | None = DEFAULT_TIME_LIMIT,
    max_vars: int = DEFAULT_MAX_VARS,
) -> tuple[TestSuite, dict]:
    """Exact minimum-size suite via the m-search.

    ``time_limit`` is the budget per fixed-m solve.  Raises
    :class:`MonolithicTimeout` when a solve cannot decide coverage within
    its budget, since continuing would forfeit the minimality claim.
    """
    constraints.validate_against(system)
    universe = InteractionUniverse(system, constraints)
    nu = len(universe)
    report: dict = {"universe": nu, "attempts": []}
    if nu == 0 and not constraints.must:
        return TestSuite(system), report

    lb = max(coverage_lower_bound(universe), 1)
    hi = nu + len(constraints.must) + 1
    t0 = time.perf_counter()
    for m in range(lb, hi + 1):
        mono = build_monolithic(system, constraints, m, universe, max_vars=max_vars)
        sol = mono.solve(time_limit)
        attempt = {
            "m": m,
            "status": sol.status.value,
            "objective": sol.objective,
            "nvars": mono.milp.nvars,
            "ncons": mono.milp.ncons,
        }
        report["attempts"].append(attempt)
        if sol.status == SolveStatus.TIMED_OUT or (
            sol.status == SolveStatus.FEASIBLE and (sol.objective or 0) < nu
        ):
            raise MonolithicTimeout(
                f"could not decide coverage at m={m} within {time_limit}s"
            )
        if sol.has_solution and sol.objective == nu:
            suite = mono.decode(sol.values)
            # decoded suite must actually do what the objective claims
            ok, problems = verify_suite(suite, constraints, universe)
            if not ok:
                raise PaircoverError(
                    "decoded monolithic suite is unsound: " + "; ".join(problems[:3])
                )
            report["m"] = m
            report["wall_s"] = time.perf_counter() - t0
            return suite, report
    raise PaircoverError(f"no covering suite found with m <= {hi}")
