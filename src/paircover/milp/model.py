"""Container for binary integer linear programs.

Every variable is binary and every coefficient, objective weight and
right-hand side is an integer.  All formulations this package builds fit
that shape, and it lets the tests' reference kernel work in exact int64
arithmetic end to end.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from ..core import StructureError

RELATIONS = ("<=", ">=", "==")
_REL_CODE = {"<=": 0, ">=": 1, "==": 2}


def _as_int(x, what: str) -> int:
    v = int(round(float(x)))
    if abs(float(x) - v) > 1e-9:
        raise StructureError(f"{what} must be integral, got {x!r}")
    return v


class MilpModel:
    """A binary program assembled row by row.

    Variables are created with :meth:`add_var` and referenced by the integer
    id it returns.  ``sense`` is "max" or "min".  The objective and rows are
    kept as the CSR lists :meth:`to_arrays` returns.
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
        self._arrays: dict | None = None

    # -- construction -------------------------------------------------

    def add_var(self, obj: int = 0) -> int:
        self._obj.append(_as_int(obj, "objective coefficient"))
        self._arrays = None
        return len(self._obj) - 1

    def add_constraint(
        self,
        coefs: Mapping[int, int] | Iterable[tuple[int, int]],
        rel: str,
        rhs,
    ) -> int:
        if rel not in _REL_CODE:
            raise StructureError(f"relation must be one of {RELATIONS}, got {rel!r}")
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
        self._arrays = None
        return len(self._rhs) - 1

    # -- inspection ---------------------------------------------------

    @property
    def nvars(self) -> int:
        return len(self._obj)

    @property
    def ncons(self) -> int:
        return len(self._rhs)

    def to_arrays(self) -> dict:
        """CSR view of the rows plus objective, cached until mutation.

        Keys: obj (int64[nv]), indptr (int64[nc+1]), vidx (int32[nnz]),
        coef (int64[nnz]), rel (int8[nc], 0/1/2 for <=,>=,==), rhs
        (int64[nc]).
        """
        if self._arrays is None:
            self._arrays = {
                "obj": np.array(self._obj, dtype=np.int64),
                "indptr": np.array(self._indptr, dtype=np.int64),
                "vidx": np.array(self._vidx, dtype=np.int32),
                "coef": np.array(self._coef, dtype=np.int64),
                "rel": np.array(self._rel, dtype=np.int8),
                "rhs": np.array(self._rhs, dtype=np.int64),
            }
        return self._arrays


class SolveStatus(enum.Enum):
    OPTIMAL = "optimal"
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    TIMED_OUT = "timed_out"


@dataclass
class MilpSolution:
    """Outcome of one solve call.

    ``values`` is None when no solution exists.  Otherwise it is what the
    producer found: the int8 0/1 vector of a ``MilpModel`` from HiGHS
    (``solve_highs``), the level per factor from the step search
    (``sequential.solve``), or the int8 0/1 keep vector over the rows from
    the cover search (``pipeline.solve``).  ``objective`` is reported in
    the model's own sense.  ``stats`` carries solver-specific counters
    (nodes, wall time).
    """

    status: SolveStatus
    objective: int | None
    values: np.ndarray | list[int] | None
    stats: dict = field(default_factory=dict)

    @property
    def has_solution(self) -> bool:
        return self.values is not None


def objective_value(model: MilpModel, values: np.ndarray) -> int:
    arr = model.to_arrays()
    return int(arr["obj"] @ np.asarray(values, dtype=np.int64))


def verify_solution(model: MilpModel, values: np.ndarray, tol: float = 1e-6) -> bool:
    """Check a value vector: binary entries, every row satisfied.

    Exact integer arithmetic; ``tol`` only forgives float inputs that are
    within rounding distance of 0/1.
    """
    x = np.asarray(values, dtype=np.float64)
    if x.shape != (model.nvars,):
        return False
    xi = np.round(x)
    if np.any(np.abs(x - xi) > tol):
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

