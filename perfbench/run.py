"""Benchmark paircover through its command line entry points.

Run from the repository root:

    python3 perfbench/run.py --workload seq-mixed --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

A run writes the seeded model and suite files of one workload (NOTES.md says
why each workload exists), then repeats passes over them for ``--seconds``
seconds, one process, no threads.  A pass calls ``paircover.cli.main`` for
each model exactly as a user would; every output is checked by
``workloads.check_rows``, and every later pass must reproduce the first
pass's bytes.

``--trace 0`` reports the end-to-end metrics, median over passes; pass
times are rescaled by a speed probe (see PROBE_REF_S).
``--trace 1`` alternates untraced and traced passes and reports the
per-module metrics of ``spans.layer_metrics`` (median over traced passes)
plus the tracing overhead.  The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics; the ``perfbench-record`` line
before it adds the environment and suite digests for ``compare.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from importlib import metadata
from pathlib import Path

import ready
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 5

# The speed of the host drifts by tens of percent within a minute, so each
# pass also times a fixed pure-Python loop before every command and the pass
# is rescaled to a CPU that runs that loop in PROBE_REF_S seconds.
PROBE_LOOPS = 20_000
PROBE_REF_S = 0.0017

E2E_UNITS = {
    "scaled_wall_s": "s",
    "setup_s": "s",
    "suite_size": "count",
    "ok_frac": "fraction",
    "proven_frac": "fraction",
    "peak_rss_mb": "MB",
}


def environment() -> dict:
    from paircover._jit import HAS_NUMBA, JIT_ENABLED

    return {
        "has_numba": HAS_NUMBA,
        "jit_enabled": JIT_ENABLED,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def measure_setup(model_paths) -> float:
    """Median seconds for a fresh interpreter to run ready.py on the models."""
    cmd = [sys.executable, str(Path(__file__).with_name("ready.py")), str(SRC), *map(str, model_paths)]
    subprocess.run(cmd, check=True, cwd=ROOT)  # untimed: writes the bytecode caches
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Workload:
    """The files of one seeded workload and the commands a pass runs on them."""

    def __init__(self, name: str, seed: int, workdir: Path):
        self.name = name
        self.items = wl.WORKLOADS[name](seed)
        self.models, self.inputs, self.outputs = [], [], []
        for k, item in enumerate(self.items):
            m = workdir / f"model{k}.model"
            m.write_text(item.model.text())
            self.models.append(m)
            self.outputs.append(workdir / f"suite{k}.csv")
            if item.suite_csv is not None:
                self.inputs.append(workdir / f"input{k}.csv")
                self.inputs[-1].write_text(item.suite_csv)
        self.pairs = [wl.universe_pairs(item.model) for item in self.items]
        self.expected = None  # suite bytes of the first pass

    def commands(self, k: int) -> list[list[str]]:
        model, out = str(self.models[k]), str(self.outputs[k])
        if self.name == "seq-mixed":
            return [["generate", "--model", model, "--out", out]]
        if self.name == "greedy-wide":
            return [
                ["generate", "--method", "greedy", "--model", model, "--out", out],
                ["verify", "--model", model, "--suite", out],
            ]
        return [["minimize", "--model", model, "--suite", str(self.inputs[k]), "--out", out]]

    def check(self, k: int, text: str) -> list[str]:
        model = self.items[k].model
        try:
            rows = wl.rows_from_csv(model, text)
        except ValueError as e:
            return [str(e)]
        problems = wl.check_rows(model, rows, self.pairs[k])
        if self.name == "minimize-redundant":
            given = wl.rows_from_csv(model, self.items[k].suite_csv)
            if Counter(rows) - Counter(given):
                problems.append("minimized suite has a row the input suite lacks")
        return problems


def run_pass(work: Workload, tracer=None) -> dict:
    """One pass over every model; returns per-model seconds, outcomes and suite size."""
    from paircover import cli

    failed, degraded, size = 0, 0, 0
    texts, seconds, probes = [], [], []
    for k in range(len(work.items)):
        codes = []
        wall = 0.0
        for argv in work.commands(k):
            probes.append(probe())
            main = cli.main
            if tracer is not None:
                tracer.model = f"{work.name}/{k}"
                main = tracer.wrap(f"cli.{argv[0]}", cli.main)
            sink = io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    codes.append(main(argv))
            except Exception:  # an escaped error fails this model, not the run
                codes.append(1)
                traceback.print_exc(file=sys.stderr)
            wall += time.perf_counter() - t0
        text = work.outputs[k].read_text() if work.outputs[k].exists() else ""
        work.outputs[k].unlink(missing_ok=True)
        problems = []
        if 1 in codes:
            problems.append(f"exit codes {codes}")
        elif work.expected is None:
            problems += work.check(k, text)
        elif text != work.expected[k]:
            problems.append("suite differs from the first pass")
        if problems:
            failed += 1
            print(f"model {k} of {work.name} failed: {problems[:3]}", file=sys.stderr)
        degraded += 2 in codes
        size += text.count("\n") - 1 if text else 0
        texts.append(text)
        seconds.append(wall)
    if work.expected is None:
        work.expected = texts
    scale = PROBE_REF_S / statistics.median(probes)
    return {
        "seconds": seconds,
        "scaled": [t * scale for t in seconds],
        "failed": failed,
        "degraded": degraded,
        "size": size,
    }


def probe() -> float:
    """Seconds taken by a fixed pure-Python loop: the host's current speed."""
    t0 = time.perf_counter()
    s = 0
    for i in range(PROBE_LOOPS):
        s += i * i % 7
    return time.perf_counter() - t0


def pass_wall(passes, key="seconds") -> float:
    """Seconds per pass: the sum over models of each model's median time.

    Taking the median per model before summing keeps a slow spell of the
    machine, which hits a few models of one pass, out of the figure.
    """
    return sum(statistics.median(times) for times in zip(*(p[key] for p in passes)))


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import spans

    workdir = WORK / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        work = Workload(name, seed, workdir)
        setup_s = None if trace else measure_setup(work.models)
        ready.ready(work.models)
        passes, traced, layers = [], [], []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            passes.append(run_pass(work))
            if trace:
                tracer = spans.Tracer()
                with spans.installed(tracer):
                    traced.append(run_pass(work, tracer))
                layers.append(spans.layer_metrics(tracer))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    done = passes + traced
    attempted = len(work.items) * len(done)
    failed = sum(p["failed"] for p in done)
    degraded = sum(p["degraded"] for p in done)
    wall = pass_wall(passes, "scaled")
    if trace:
        metrics = {k: (statistics.median(m[k] for m in layers), u) for k, u in spans.LAYER_UNITS.items()}
        # unscaled, like the span times; untraced and traced passes alternate,
        # so a drift of the host's speed reaches both alike
        traced_wall = pass_wall(traced)
        metrics["trace.wall_s"] = (traced_wall, "s")
        metrics["trace.overhead_s"] = (traced_wall - pass_wall(passes), "s")
    else:
        values = {
            "scaled_wall_s": wall,
            "setup_s": setup_s,
            "suite_size": passes[0]["size"],
            "ok_frac": 1 - failed / attempted,
            "proven_frac": 1 - degraded / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: (v, E2E_UNITS[k]) for k, v in values.items()}
    digest = hashlib.sha256("".join(work.expected).encode()).hexdigest()
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "models": len(work.items),
        "passes": len(passes),
        "traced_passes": len(traced),
        "wall_s": pass_wall(passes),
        "pass_wall_s": [sum(p["seconds"]) for p in passes],
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "degraded_frac": degraded / attempted,
        "suite_sha256": digest,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def print_record(record: dict) -> None:
    print(
        f"{record['workload']}: seed {record['seed']}, {record['models']} models, "
        f"{record['passes']} passes, {record['traced_passes']} traced passes"
    )
    for k, m in record["metrics"].items():
        print(f"  {k:<32} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'wall_s (unscaled)':<32} {record['wall_s']:>14.6g} s")
    print(f"  {'failed_frac':<32} {record['failed_frac']:>14.6g} fraction")
    print(f"  {'degraded_frac':<32} {record['degraded_frac']:>14.6g} fraction")
    print(f"  suite sha256 {record['suite_sha256']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "paircover" / "__init__.py").is_file():
        print(f"perfbench: no paircover sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    env = environment()
    records = []
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        record["env"] = env
        records.append(record)
        print_record(record)
        print("perfbench-record " + json.dumps(record))
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": m for r in records for k, m in r["metrics"].items()}
    result = {
        "correct": all(r["failed"] == 0 for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
