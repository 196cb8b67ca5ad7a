"""Solver backends by name, and the scipy (HiGHS) adapter.

A backend is a callable ``fn(model, time_limit=None, **opts) -> MilpSolution``.
The built-in exact solver is "reference"; "scipy" delegates to
scipy.optimize.milp, which drives HiGHS and handles much larger models.
"""

from __future__ import annotations

import numpy as np

from ..core import PaircoverError
from .model import MilpModel, MilpSolution, SolveStatus, objective_value, verify_solution
from .reference import solve_reference


class BackendError(PaircoverError):
    """Unknown backend name or a backend-level failure."""


def solve(
    model: MilpModel,
    backend: str = "reference",
    time_limit: float | None = None,
    **opts,
) -> MilpSolution:
    """Solve through the named backend."""
    try:
        fn = _BACKENDS[backend]
    except KeyError:
        raise BackendError(
            f"unknown backend {backend!r}; available: {', '.join(sorted(_BACKENDS))}"
        ) from None
    return fn(model, time_limit=time_limit, **opts)


def _trivial_unconstrained(model: MilpModel) -> MilpSolution:
    obj = np.array(model.objective, dtype=np.int64)
    want = obj > 0 if model.sense == "max" else obj < 0
    values = want.astype(np.int8)
    return MilpSolution(
        SolveStatus.OPTIMAL,
        objective_value(model, values),
        values,
        {"backend": "scipy", "note": "no constraints"},
    )


def solve_scipy(
    model: MilpModel,
    time_limit: float | None = None,
    mip_rel_gap: float = 0.0,
) -> MilpSolution:
    """Solve with scipy.optimize.milp (HiGHS branch and cut)."""
    from scipy import sparse
    from scipy.optimize import Bounds
    from scipy.optimize import LinearConstraint as SciLinearConstraint
    from scipy.optimize import milp as sci_milp

    if model.ncons == 0:
        return _trivial_unconstrained(model)

    arr = model.to_arrays()
    nv, nc = model.nvars, model.ncons
    sign = -1.0 if model.sense == "max" else 1.0
    c = sign * arr["obj"].astype(np.float64)

    data = arr["coef"].astype(np.float64)
    a_mat = sparse.csr_matrix(
        (data, arr["vidx"], arr["indptr"]), shape=(nc, nv)
    )
    lb = np.full(nc, -np.inf)
    ub = np.full(nc, np.inf)
    rhs = arr["rhs"].astype(np.float64)
    rel = arr["rel"]
    ub[rel == 0] = rhs[rel == 0]
    lb[rel == 1] = rhs[rel == 1]
    lb[rel == 2] = rhs[rel == 2]
    ub[rel == 2] = rhs[rel == 2]

    options: dict = {"mip_rel_gap": float(mip_rel_gap)}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    res = sci_milp(
        c=c,
        constraints=SciLinearConstraint(a_mat, lb, ub),
        integrality=np.ones(nv),
        bounds=Bounds(0, 1),
        options=options,
    )

    stats = {"backend": "scipy", "scipy_status": int(res.status)}
    if res.x is not None:
        values = np.round(res.x).astype(np.int8)
        if not verify_solution(model, values):
            raise BackendError("scipy backend returned a non-integral or invalid point")
        objective = objective_value(model, values)
        status = SolveStatus.OPTIMAL if res.status == 0 else SolveStatus.FEASIBLE
        return MilpSolution(status, objective, values, stats)
    if res.status == 2:
        return MilpSolution(SolveStatus.INFEASIBLE, None, None, stats)
    if res.status == 1:
        return MilpSolution(SolveStatus.TIMED_OUT, None, None, stats)
    raise BackendError(f"scipy backend failed: status {res.status} ({res.message})")


_BACKENDS = {"reference": solve_reference, "scipy": solve_scipy}
