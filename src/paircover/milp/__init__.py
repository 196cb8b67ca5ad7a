"""Binary integer programming layer: model container and its two solvers.

``solve`` is ``solve_reference``, the built-in exact kernel the set cover
runs (its tie-break fixes which cases a minimized suite keeps).
``solve_highs`` hands a model to scipy's HiGHS; the monolithic method runs it.
"""

from .model import (
    MilpModel,
    MilpSolution,
    SolveStatus,
    objective_value,
    verify_solution,
)
from .highs import solve_highs
from .reference import solve_reference

solve = solve_reference

__all__ = [
    "MilpModel",
    "MilpSolution",
    "SolveStatus",
    "objective_value",
    "verify_solution",
    "solve",
    "solve_highs",
    "solve_reference",
]
