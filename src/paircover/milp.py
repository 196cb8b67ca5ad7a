"""Binary integer programs, and HiGHS, the monolithic method's solver.

``MilpModel`` holds a binary program and ``solve_highs`` hands it to
scipy's HiGHS branch and cut; the monolithic method runs that pair, and
the tests' oracles state the step and cover programs with it.  Every
variable is binary and every coefficient, objective weight and right-hand
side is an integer, so the tests' reference kernel works in exact int64
arithmetic.  scipy is imported inside ``solve_highs``, since
``scipy.optimize`` takes longer to import than a whole small CLI run needs.

``MilpSolution`` and ``SolveStatus`` are also the result types of the step
search (``sequential.solve``) and the set cover search
(``pipeline.solve``), which both stop, and build their result, through a
``Budget``.  A solution's ``values`` is the int8 0/1 variable vector of a
``MilpModel`` from HiGHS, the level per factor from the step search, and
the int8 0/1 keep vector over the suite rows from the cover search; only
``MonolithicModel.decode`` reads a 0/1 variable block.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .core import PaircoverError, StructureError

_REL_CODE = {"<=": 0, ">=": 1, "==": 2}
# how far a float entry may sit from 0 or 1 and still count as that value
_TOL = 1e-6


def _as_int(x, what: str) -> int:
    v = int(round(float(x)))
    if abs(float(x) - v) > 1e-9:
        raise StructureError(f"{what} must be integral, got {x!r}")
    return v


class MilpModel:
    """A binary program assembled row by row.

    Variables are created with :meth:`add_var` and referenced by the integer
    id it returns.  ``sense`` is "max" or "min".  The objective and rows are
    kept only as the CSR lists :meth:`to_arrays` turns into arrays.
    """

    def __init__(self, sense: str = "max"):
        if sense not in ("max", "min"):
            raise StructureError(f"sense must be 'max' or 'min', got {sense!r}")
        self.sense = sense
        self._obj: list[int] = []
        self._indptr: list[int] = [0]
        self._vidx: list[int] = []
        self._coef: list[int] = []
        self._rel: list[int] = []
        self._rhs: list[int] = []

    # -- construction -------------------------------------------------

    def add_var(self, obj: int = 0) -> int:
        self._obj.append(_as_int(obj, "objective coefficient"))
        return len(self._obj) - 1

    def add_constraint(
        self,
        coefs: Mapping[int, int] | Iterable[tuple[int, int]],
        rel: str,
        rhs,
    ) -> int:
        if rel not in _REL_CODE:
            raise StructureError(f"relation must be one of {tuple(_REL_CODE)}, got {rel!r}")
        items = list(coefs.items()) if isinstance(coefs, Mapping) else list(coefs)
        if not items:
            raise StructureError("constraint has no variables")
        seen: set[int] = set()
        vidx: list[int] = []
        coef: list[int] = []
        for v, c in items:
            v = int(v)
            if not 0 <= v < self.nvars:
                raise StructureError(f"constraint references unknown var {v}")
            if v in seen:
                raise StructureError(f"constraint names var {v} twice")
            seen.add(v)
            vidx.append(v)
            coef.append(_as_int(c, "constraint coefficient"))
        rhs = _as_int(rhs, "rhs")
        self._vidx.extend(vidx)
        self._coef.extend(coef)
        self._indptr.append(len(self._vidx))
        self._rel.append(_REL_CODE[rel])
        self._rhs.append(rhs)
        return len(self._rhs) - 1

    # -- inspection ---------------------------------------------------

    @property
    def nvars(self) -> int:
        return len(self._obj)

    @property
    def ncons(self) -> int:
        return len(self._rhs)

    def to_arrays(self) -> dict:
        """CSR view of the rows plus objective, built on each call.

        Keys: obj (int64[nv]), indptr (int64[nc+1]), vidx (int32[nnz]),
        coef (int64[nnz]), rel (int8[nc], 0/1/2 for <=,>=,==), rhs
        (int64[nc]).
        """
        return {
            "obj": np.array(self._obj, dtype=np.int64),
            "indptr": np.array(self._indptr, dtype=np.int64),
            "vidx": np.array(self._vidx, dtype=np.int32),
            "coef": np.array(self._coef, dtype=np.int64),
            "rel": np.array(self._rel, dtype=np.int8),
            "rhs": np.array(self._rhs, dtype=np.int64),
        }


class SolveStatus(enum.Enum):
    OPTIMAL = "optimal"
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    TIMED_OUT = "timed_out"


@dataclass
class MilpSolution:
    """Outcome of one solve call.

    ``values`` is None when no solution exists; otherwise it is what the
    producer found (module docstring).  ``objective`` is reported in the
    model's own sense.  ``stats`` carries solver-specific counters (nodes,
    wall time).
    """

    status: SolveStatus
    objective: int | None
    values: np.ndarray | list[int] | None
    stats: dict = field(default_factory=dict)

    @property
    def has_solution(self) -> bool:
        return self.values is not None


class Budget:
    """How both searches stop: nodes counted against a deadline
    ``time_limit`` seconds on (``math.inf`` for none)."""

    _NODES_PER_CHECK = 1024

    def __init__(self, time_limit: float = math.inf):
        self.deadline = time.perf_counter() + time_limit
        self.nodes = 0
        self.timed_out = False
        self._check_at = self._NODES_PER_CHECK

    def spend(self) -> bool:
        """Count one node, or return True, counting none, once the deadline
        has passed.  The clock is read only after each _NODES_PER_CHECK more
        counts, so a search starting past its deadline counts that many."""
        if self.nodes >= self._check_at:
            if time.perf_counter() >= self.deadline:
                self.timed_out = True
                return True
            self._check_at = self.nodes + self._NODES_PER_CHECK
        self.nodes += 1
        return False

    def solution(self, objective: int | None, values, **stats) -> MilpSolution:
        """The result: with an incumbent (``values`` not None) OPTIMAL, or
        FEASIBLE if time ran out; with none INFEASIBLE, or TIMED_OUT."""
        if values is None:
            status = SolveStatus.TIMED_OUT if self.timed_out else SolveStatus.INFEASIBLE
            objective = None
        else:
            status = SolveStatus.FEASIBLE if self.timed_out else SolveStatus.OPTIMAL
        return MilpSolution(status, objective, values, {"nodes": self.nodes, **stats})


def verify_solution(model: MilpModel, values: np.ndarray) -> bool:
    """Check a value vector: binary entries, every row satisfied.

    Exact integer arithmetic; float inputs within rounding distance of 0/1
    count as that value.
    """
    x = np.asarray(values, dtype=np.float64)
    if x.shape != (model.nvars,):
        return False
    xi = np.round(x)
    if np.any(np.abs(x - xi) > _TOL):
        return False
    if np.any((xi != 0) & (xi != 1)):
        return False
    xi = xi.astype(np.int64)
    arr = model.to_arrays()
    indptr, vidx, coef = arr["indptr"], arr["vidx"], arr["coef"]
    for c in range(model.ncons):
        lo, hi = indptr[c], indptr[c + 1]
        act = int(coef[lo:hi] @ xi[vidx[lo:hi]])
        r = int(arr["rhs"][c])
        code = int(arr["rel"][c])
        if code == 0 and act > r:
            return False
        if code == 1 and act < r:
            return False
        if code == 2 and act != r:
            return False
    return True


def solve_highs(model: MilpModel, time_limit: float = math.inf) -> MilpSolution:
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

    res = sci_milp(
        c=c,
        constraints=SciLinearConstraint(a_mat, lb, ub),
        integrality=np.ones(nv),
        bounds=Bounds(0, 1),
        options={"mip_rel_gap": 0.0, "time_limit": float(time_limit)},
    )

    stats = {"scipy_status": int(res.status)}
    if res.x is not None:
        if not verify_solution(model, res.x):
            raise PaircoverError("HiGHS returned a non-integral or invalid point")
        values = np.round(res.x).astype(np.int8)
        objective = int(arr["obj"] @ values)
        status = SolveStatus.OPTIMAL if res.status == 0 else SolveStatus.FEASIBLE
        return MilpSolution(status, objective, values, stats)
    if res.status == 2:
        return MilpSolution(SolveStatus.INFEASIBLE, None, None, stats)
    if res.status == 1:
        return MilpSolution(SolveStatus.TIMED_OUT, None, None, stats)
    raise PaircoverError(f"HiGHS failed: status {res.status} ({res.message})")
