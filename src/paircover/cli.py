"""Command line entry points.

Exit codes: 0 success, 2 finished but degraded (a time limit forced an
unproven or fallback result), 1 any error including bad usage.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import bench as bench_mod
from . import io as pio
from .core import PaircoverError, TestSuite
from .greedy import greedy_suite
from .interactions import InteractionUniverse, coverage_curve, verify_suite
from .monolithic import minimal_suite
from .pipeline import PipelineConfig, minimize_suite, run_pipeline

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_DEGRADED = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are errors, not "degraded"
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _load_model(args):
    if getattr(args, "pict", None):
        return pio.load_pict(args.pict)
    return pio.load_model(args.model)


def _emit_suite(args, suite: TestSuite) -> None:
    text = pio.suite_to_csv(suite)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_generate(args) -> int:
    system, cs = _load_model(args)
    warm = None
    if args.warm_start:
        warm = pio.read_suite_csv(args.warm_start, system)

    if args.method == "greedy":
        t0 = time.perf_counter()
        universe = InteractionUniverse(system, cs)
        suite = greedy_suite(system, cs, universe=universe, seed=args.seed)
        wall = time.perf_counter() - t0
        report = {
            "method": "greedy",
            "seed": args.seed,
            "final_size": len(suite),
            "universe_size": len(universe),
            "coverage_curve": coverage_curve(suite, universe),
            "wall_s": wall,
        }
        degraded = False
        if cs.must:
            print(
                "note: greedy ignores MUST combinations; use the sequential method",
                file=sys.stderr,
            )
    elif args.method == "monolithic":
        suite, info = minimal_suite(
            system, cs, backend=args.backend, time_limit=args.time_limit
        )
        report = {"method": "monolithic", "final_size": len(suite), **info}
        degraded = False
    else:
        cfg = PipelineConfig(
            weighted=not args.unweighted,
            alpha=args.alpha,
            backend=args.backend,
            step_time_limit=args.step_time_limit,
            minimize=not args.no_minimize,
        )
        suite, run_report = run_pipeline(system, cs, warm_start=warm, config=cfg)
        report = {"method": "sequential", **run_report.to_dict()}
        degraded = run_report.degraded

    _emit_suite(args, suite)
    if args.report:
        pio.write_report(args.report, report)
    print(
        f"{len(suite)} cases ({args.method}); "
        f"coverage verified{'; DEGRADED' if degraded else ''}",
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
    out, stats = minimize_suite(
        suite, cs, backend=args.backend, time_limit=args.time_limit
    )
    _emit_suite(args, out)
    degraded = bool(stats.get("fallback"))
    print(
        f"{len(suite)} -> {len(out)} cases"
        f"{' (time limit hit, kept input)' if degraded else ''}",
        file=sys.stderr,
    )
    return EXIT_DEGRADED if degraded else EXIT_OK


def _cmd_bench(args) -> int:
    if args.family == "classic":
        instances = bench_mod.classic_instances()
    else:
        instances = {}
        for k in range(args.count):
            name = f"rand-{args.seed + k}"
            instances[name] = bench_mod.random_instance(args.seed + k)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    for m in methods:
        if m not in bench_mod.METHODS:
            raise PaircoverError(
                f"unknown method {m!r}; available: {', '.join(sorted(bench_mod.METHODS))}"
            )
    records = bench_mod.run_methods(
        instances, methods, seed=args.seed, backend=args.backend
    )
    csv_text = bench_mod.records_to_csv(records)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    taus = [1.0 + 0.05 * k for k in range(int((args.max_tau - 1.0) / 0.05) + 1)]
    profile = bench_mod.performance_profile(records, taus)
    if args.profile:
        with open(args.profile, "w") as fh:
            fh.write(bench_mod.profile_to_csv(profile, taus))
    ranks = bench_mod.competition_ranks(records)
    for m in sorted(ranks):
        print(f"mean rank {m}: {ranks[m]:.2f}", file=sys.stderr)
    return EXIT_OK


def build_parser() -> _Parser:
    p = _Parser(prog="paircover", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_model_args(sp, pict_ok=True):
        g = sp.add_mutually_exclusive_group(required=True)
        g.add_argument("--model", help="model file (native grammar)")
        if pict_ok:
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
    g.add_argument("--backend", default="reference")
    g.add_argument("--alpha", type=float, default=0.9, help="warm-start retention")
    g.add_argument("--unweighted", action="store_true")
    g.add_argument("--no-minimize", action="store_true")
    g.add_argument("--warm-start", help="suite CSV to warm-start from")
    g.add_argument("--seed", type=int, default=0, help="greedy tie rotation seed")
    g.add_argument("--step-time-limit", type=float, default=60.0)
    g.add_argument("--time-limit", type=float, default=3600.0, help="monolithic per-m budget")
    g.set_defaults(fn=_cmd_generate)

    v = sub.add_parser("verify", help="check a suite against a model")
    add_model_args(v)
    v.add_argument("--suite", required=True)
    v.set_defaults(fn=_cmd_verify)

    m = sub.add_parser("minimize", help="drop redundant cases from a suite")
    add_model_args(m)
    m.add_argument("--suite", required=True)
    m.add_argument("--out", help="write the reduced suite here (default: stdout)")
    m.add_argument("--backend", default="reference")
    m.add_argument("--time-limit", type=float, default=60.0)
    m.set_defaults(fn=_cmd_minimize)

    b = sub.add_parser("bench", help="run the benchmark matrix")
    b.add_argument("--family", choices=("classic", "random"), default="classic")
    b.add_argument("--methods", default="sequential,greedy")
    b.add_argument("--count", type=int, default=10, help="random instances")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--backend", default="reference")
    b.add_argument("--out", help="records CSV (default: stdout)")
    b.add_argument("--profile", help="performance profile CSV")
    b.add_argument("--max-tau", type=float, default=2.0)
    b.set_defaults(fn=_cmd_bench)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except PaircoverError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
