"""Binary integer programming layer: model container, backends, solving."""

from .model import (
    MilpModel,
    MilpSolution,
    SolveStatus,
    objective_value,
    verify_solution,
)
from .backends import BackendError, solve
from .reference import solve_reference

__all__ = [
    "MilpModel",
    "MilpSolution",
    "SolveStatus",
    "objective_value",
    "verify_solution",
    "BackendError",
    "solve",
    "solve_reference",
]
