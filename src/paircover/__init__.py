"""Constrained pairwise covering array generation.

Builds pairwise covering test suites for systems with exclusionary (avoid)
and inclusionary (must) value constraints, either one test case at a time
through a sequence of small integer programs or through one monolithic
model, with a set-cover pass that prunes redundant cases afterwards.
"""

from .core import (
    ConstraintSet,
    Factor,
    FactorSystem,
    PaircoverError,
    ParseError,
    PartialAssignment,
    StructureError,
    TestCase,
    TestSuite,
    validate_case,
)
from .interactions import (
    CoverageState,
    InteractionUniverse,
    coverage_curve,
    find_extension,
    verify_suite,
)
from .gcp import Partition, partition_musts
from .greedy import greedy_suite
from .monolithic import (
    ModelSizeError,
    MonolithicTimeout,
    build_monolithic,
    minimal_suite,
)
from .pipeline import PipelineConfig, RunReport, minimize_suite, run_pipeline
from .sequential import build_step, generate_single_case

__version__ = "0.1.0"
