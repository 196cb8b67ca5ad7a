"""The scipy (HiGHS) adapter, the solver of the monolithic slot model.

HiGHS branch and cut decides the monolithic models far faster than a
branch and bound without an LP relaxation.  scipy is imported inside the
call, since ``scipy.optimize`` takes longer to import than a whole small
CLI run needs.
"""

from __future__ import annotations

import numpy as np

from ..core import PaircoverError
from .model import MilpModel, MilpSolution, SolveStatus, objective_value, verify_solution


def solve_highs(model: MilpModel, time_limit: float | None = None) -> MilpSolution:
    """Solve with scipy.optimize.milp (HiGHS branch and cut), gap 0."""
    if model.nvars == 0:  # scipy rejects it; its one point is the empty vector
        return MilpSolution(SolveStatus.OPTIMAL, 0, np.zeros(0, dtype=np.int8))
    from scipy import sparse
    from scipy.optimize import Bounds
    from scipy.optimize import LinearConstraint as SciLinearConstraint
    from scipy.optimize import milp as sci_milp

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

    options: dict = {"mip_rel_gap": 0.0}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    res = sci_milp(
        c=c,
        constraints=SciLinearConstraint(a_mat, lb, ub),
        integrality=np.ones(nv),
        bounds=Bounds(0, 1),
        options=options,
    )

    stats = {"scipy_status": int(res.status)}
    if res.x is not None:
        if not verify_solution(model, res.x):
            raise PaircoverError("HiGHS returned a non-integral or invalid point")
        values = np.round(res.x).astype(np.int8)
        objective = objective_value(model, values)
        status = SolveStatus.OPTIMAL if res.status == 0 else SolveStatus.FEASIBLE
        return MilpSolution(status, objective, values, stats)
    if res.status == 2:
        return MilpSolution(SolveStatus.INFEASIBLE, None, None, stats)
    if res.status == 1:
        return MilpSolution(SolveStatus.TIMED_OUT, None, None, stats)
    raise PaircoverError(f"HiGHS failed: status {res.status} ({res.message})")
