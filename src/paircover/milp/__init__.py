"""Binary integer programming layer.

``MilpModel`` holds a binary program and ``solve_highs`` hands it to scipy's
HiGHS; the monolithic method runs that pair.  ``MilpSolution`` and
``SolveStatus`` are also the result types that the step search
(``sequential.solve``) and the set cover search (``pipeline.solve``) return.
"""

from .model import (
    MilpModel,
    MilpSolution,
    SolveStatus,
    objective_value,
    verify_solution,
)
from .highs import solve_highs

__all__ = [
    "MilpModel",
    "MilpSolution",
    "SolveStatus",
    "objective_value",
    "verify_solution",
    "solve_highs",
]
