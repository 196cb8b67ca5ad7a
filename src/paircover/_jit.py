"""Optional numba acceleration for the reference MILP kernel.

The kernel is an ordinary function over numpy arrays.  When numba is
installed it gets wrapped with ``njit``; setting ``PAIRCOVER_PURE_PYTHON=1``
in the environment skips the wrapping so the exact same source runs as plain
Python.  No command runs the kernel any more, so numba only speeds up the
tests that use it as an oracle.
"""

import os

_PURE = os.environ.get("PAIRCOVER_PURE_PYTHON", "").strip() not in ("", "0")

try:
    from numba import njit as _njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - depends on environment
    HAS_NUMBA = False

JIT_ENABLED = HAS_NUMBA and not _PURE


def maybe_jit(**options):
    """Return an ``njit`` decorator, or a pass-through when jit is disabled."""
    if JIT_ENABLED:
        return _njit(**options)

    def wrap(fn):
        return fn

    return wrap
