"""Command line entry points.

Exit codes: 0 success, 2 finished but degraded (a time limit forced an
unproven or fallback result), 1 any error including bad usage.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time

from . import bench as bench_mod
from . import io as pio
from .core import PaircoverError, TestSuite
from .greedy import greedy_suite
from .interactions import InteractionUniverse, coverage_curve, verify_suite
from .milp import SolveStatus
from .monolithic import DEFAULT_TIME_LIMIT, minimal_suite
from .pipeline import DEFAULT_MINIMIZE_TIME_LIMIT, PipelineConfig, minimize_suite, run_pipeline
from .sequential import DEFAULT_STEP_TIME_LIMIT

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_DEGRADED = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are errors, not "degraded"
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _in_range(cast, low, high, what: str):
    """An argparse type: the text read by ``cast``, from ``low`` to ``high``."""

    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {cast.__name__} value: {text!r}") from None
        if not low <= value <= high:  # also false for NaN
            raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
        return value

    return parse


# numpy's generators take only non-negative seeds; a negative count runs nothing
_non_negative_int = _in_range(int, 0, math.inf, "non-negative")
# a NaN deadline never fires, and HiGHS ignores a negative one
_seconds = _in_range(float, 0.0, math.inf, "seconds >= 0")
# the share of the warm-start suite kept; checked here so a bad value stops
# the run before the universe is built
_alpha = _in_range(float, 0.0, 1.0, "in [0, 1]")
# the profile's taus run from 1 to --max-tau in steps of 0.05: below 1
# there are none, and the cap keeps the list at 1,981 taus
_tau = _in_range(float, 1.0, 100.0, "finite and at least 1, up to 100")
DEFAULT_MAX_TAU = 2.0


def _load_model(args):
    if args.pict:
        return pio.load_pict(args.pict)
    return pio.load_model(args.model)


def _emit_suite(args, suite: TestSuite) -> None:
    """Write the suite to ``--out`` or to stdout, UTF-8 either way: a level
    name the locale cannot encode still reaches stdout, byte for byte as
    the file would hold it."""
    if args.out:
        pio.write_suite_csv(args.out, suite)
    elif hasattr(sys.stdout, "buffer"):
        sys.stdout.flush()
        sys.stdout.buffer.write(pio.suite_to_csv(suite).encode("utf-8"))
    else:  # a text-only stream, such as io.StringIO
        sys.stdout.write(pio.suite_to_csv(suite))


def _cmd_generate(args) -> int:
    system, cs = _load_model(args)
    warm = None
    if args.warm_start:
        warm = pio.read_suite_csv(args.warm_start, system)

    t0 = time.perf_counter()
    universe = InteractionUniverse(system, cs)
    universe_s = time.perf_counter() - t0
    degraded = False
    if args.method == "greedy":
        suite = greedy_suite(universe, seed=args.seed)
        info = {"seed": args.seed, "wall_s": time.perf_counter() - t0}
        if cs.must:
            print(
                "note: greedy ignores MUST combinations; use the sequential method",
                file=sys.stderr,
            )
    elif args.method == "monolithic":
        suite, info = minimal_suite(universe, time_limit=args.time_limit)
    else:
        cfg = PipelineConfig(
            alpha=args.alpha,
            step_time_limit=args.step_time_limit,
            minimize=not args.no_minimize,
        )
        suite, info = run_pipeline(universe, warm_start=warm, config=cfg)
        degraded = info.degraded

    _emit_suite(args, suite)
    if args.report:  # built only when asked for: the curve and the deep copy cost time
        if args.method == "sequential":
            info = info.to_dict()
        report = {
            "method": args.method,
            "final_size": len(suite),
            "universe_size": len(universe),
            "universe_s": universe_s,
            **info,
            "coverage_curve": coverage_curve(suite, universe),
        }
        pio.write_report(args.report, report)
    # the greedy path never runs verify_suite, so it claims no verification
    verified = "" if args.method == "greedy" else "; coverage verified"
    print(
        f"{len(suite)} cases ({args.method}){verified}{'; DEGRADED' if degraded else ''}",
        file=sys.stderr,
    )
    return EXIT_DEGRADED if degraded else EXIT_OK


def _cmd_verify(args) -> int:
    system, cs = _load_model(args)
    suite = pio.read_suite_csv(args.suite, system)
    ok, problems = verify_suite(suite, cs)
    if ok:
        print(f"OK: {len(suite)} cases, all achievable pairs covered")
        return EXIT_OK
    for p in problems:
        print(p)
    return EXIT_ERROR


def _cmd_minimize(args) -> int:
    system, cs = _load_model(args)
    suite = pio.read_suite_csv(args.suite, system)
    out, stats = minimize_suite(suite, cs, time_limit=args.time_limit)
    _emit_suite(args, out)
    note = {
        SolveStatus.OPTIMAL.value: "",
        SolveStatus.FEASIBLE.value: " (time limit hit, kept best cover found)",
        SolveStatus.TIMED_OUT.value: " (time limit hit, kept input)",
    }[stats["status"]]
    print(f"{len(suite)} -> {len(out)} cases{note}", file=sys.stderr)
    return EXIT_DEGRADED if note else EXIT_OK


def _cmd_bench(args) -> int:
    if args.family == "classic":
        instances = bench_mod.classic_instances()
    elif not args.count:
        raise PaircoverError("--count 0 names no instance")
    else:
        instances = {}
        for k in range(args.count):
            name = f"rand-{args.seed + k}"
            instances[name] = bench_mod.random_instance(args.seed + k)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise PaircoverError("--methods names no method")
    for m in methods:
        if m not in bench_mod.METHODS:
            raise PaircoverError(
                f"unknown method {m!r}; available: {', '.join(sorted(bench_mod.METHODS))}"
            )
    records = bench_mod.run_methods(instances, methods, seed=args.seed)
    csv_text = bench_mod.records_to_csv(records)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    if args.profile:
        # every tau up to and including max_tau: the epsilon lifts (1.7 - 1) / 0.05,
        # which is 13.999... in floating point, to 14
        max_tau = DEFAULT_MAX_TAU if args.max_tau is None else args.max_tau
        taus = [1.0 + 0.05 * k for k in range(int((max_tau - 1.0) / 0.05 + 1e-9) + 1)]
        profile = bench_mod.performance_profile(records, taus)
        with open(args.profile, "w", encoding="utf-8") as fh:
            fh.write(bench_mod.profile_to_csv(profile, taus))
    ranks = bench_mod.competition_ranks(records)
    for m in sorted(ranks):
        print(f"mean rank {m}: {ranks[m]:.2f}", file=sys.stderr)
    return EXIT_OK


@functools.cache
def build_parser() -> _Parser:
    """The ``paircover`` argument parser, built on the first call and reused.

    Reuse is safe: ``parse_args`` fills a fresh namespace and leaves the
    parser unchanged, every default is immutable, and the error and help
    paths read ``sys.stdout``/``sys.stderr`` when they run.  ``fn`` holds
    the ``_cmd_*`` functions of the first build, so rebinding one of those
    later has no effect; the library names they call (``run_pipeline``,
    ``minimize_suite``, ...) are looked up at call time, so rebinding those
    does.  Only a process that calls :func:`main` more than once gains.
    """
    p = _Parser(prog="paircover", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_model_args(sp):
        g = sp.add_mutually_exclusive_group(required=True)
        g.add_argument("--model", help="model file (native grammar)")
        g.add_argument("--pict", help="PICT-style parameter file")

    g = sub.add_parser("generate", help="generate a covering suite")
    add_model_args(g)
    g.add_argument("--out", help="write the suite CSV here (default: stdout)")
    g.add_argument("--report", help="write a JSON run report here")
    g.add_argument(
        "--method",
        choices=("sequential", "greedy", "monolithic"),
        default="sequential",
    )
    g.add_argument("--alpha", type=_alpha, default=PipelineConfig.alpha, help="warm-start retention")
    g.add_argument("--no-minimize", action="store_true")
    g.add_argument("--warm-start", help="suite CSV to warm-start from")
    g.add_argument("--seed", type=_non_negative_int, default=0, help="greedy tie rotation seed")
    g.add_argument(
        "--step-time-limit",
        type=_seconds,
        default=DEFAULT_STEP_TIME_LIMIT,
        help="per-case step budget (seconds, ≥ 0)",
    )
    g.add_argument(
        "--time-limit",
        type=_seconds,
        default=DEFAULT_TIME_LIMIT,
        help="monolithic per-m budget (seconds, ≥ 0)",
    )
    g.set_defaults(fn=_cmd_generate)

    v = sub.add_parser("verify", help="check a suite against a model")
    add_model_args(v)
    v.add_argument("--suite", required=True)
    v.set_defaults(fn=_cmd_verify)

    m = sub.add_parser("minimize", help="drop redundant cases from a suite")
    add_model_args(m)
    m.add_argument("--suite", required=True)
    m.add_argument("--out", help="write the reduced suite here (default: stdout)")
    m.add_argument(
        "--time-limit",
        type=_seconds,
        default=DEFAULT_MINIMIZE_TIME_LIMIT,
        help="set-cover budget (seconds, ≥ 0)",
    )
    m.set_defaults(fn=_cmd_minimize)

    b = sub.add_parser("bench", help="run the benchmark matrix")
    b.add_argument("--family", choices=("classic", "random"), default="classic")
    b.add_argument("--methods", default="sequential,greedy")
    b.add_argument("--count", type=_non_negative_int, default=10, help="random instances")
    b.add_argument("--seed", type=_non_negative_int, default=0)
    b.add_argument("--out", help="records CSV (default: stdout)")
    b.add_argument("--profile", help="performance profile CSV")
    b.add_argument(
        "--max-tau",
        type=_tau,
        help=f"last tau of the --profile (default {DEFAULT_MAX_TAU:g})",
    )
    b.set_defaults(fn=_cmd_bench)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "max_tau", None) is not None and not args.profile:
        parser.error("argument --max-tau: only the --profile reads it")
    if getattr(args, "warm_start", None) and args.method != "sequential":
        parser.error("argument --warm-start: only --method sequential reads it")
    try:
        return args.fn(args)
    except (PaircoverError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
