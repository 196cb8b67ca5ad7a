"""Bring paircover to ready: import it, parse model files, compile the kernel.

``run.py`` times this script in fresh interpreters for ``setup_s``:

    python3 perfbench/ready.py <src dir> <model file>...

and calls :func:`ready` in its own process before timing any pass.
"""

import sys


def ready(model_paths) -> None:
    from paircover import cli, io  # noqa: F401  (cli: the entry point a user runs)
    from paircover._jit import JIT_ENABLED

    for path in model_paths:
        io.load_model(path)
    if JIT_ENABLED:  # numba compiles the solver kernel on its first call
        from paircover.milp import MilpModel, solve

        m = MilpModel()
        m.add_var(obj=1)
        m.add_constraint({0: 1}, "<=", 1)
        solve(m)


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    ready(sys.argv[2:])
