"""Binary integer programming layer: model container and its two solvers.

``solve`` is ``solve_reference``, the built-in exact kernel.  No command
runs it: the step and the set cover have structured searches of their own
(``sequential.solve``, ``pipeline.solve``), and the kernel is the oracle
the tests check them against.  ``solve_highs`` hands a model to scipy's
HiGHS; the monolithic method runs it.
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
