"""Kernel-lane constants that only perfbench imports.

Nothing in the package is compiled, so the lane is always plain Python.
``perfbench/run.py`` records both values with each run and
``perfbench/ready.py`` reads ``JIT_ENABLED``; this module goes away together
with perfbench's lane keys.
"""

import importlib.util

HAS_NUMBA = importlib.util.find_spec("numba") is not None
JIT_ENABLED = False
