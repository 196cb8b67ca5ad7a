"""The benchmark's hooks into the package still resolve.

``perfbench/spans.py`` rebinds module attributes (``sequential.solve``,
``gcp.find_extension``, ...) to trace a run, ``perfbench/ready.py``
brings the package to ready, and ``perfbench/run.py`` records the kernel
lane from ``paircover._jit``; a rename in the package breaks all three
silently, because the benchmark's own tests live outside this directory.
The files are loaded here unedited.
"""

import importlib.util
from pathlib import Path

from paircover import interactions
from paircover.bench import make_bbu
from paircover.pipeline import run_pipeline

ROOT = Path(__file__).resolve().parent.parent


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"_perfbench_{name}", ROOT / "perfbench" / f"{name}.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_call_sites_resolve():
    spans = _load("spans")
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, _, _ in spans._targets()
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []


def test_traced_pipeline_run_counts_its_layers():
    spans = _load("spans")
    system, constraints = make_bbu()
    with spans.installed(spans.Tracer()) as tracer:
        run_pipeline(system, constraints)
    m = spans.layer_metrics(tracer)
    assert m["milp.step_nodes"] > 0 and m["pipeline.raw_size"] > 0
    assert m["sequential.steps"] > 0 and m["interactions.universe_builds"] == 1
    assert m["interactions.extension_calls"] > 0 and m["gcp.groups"] == 1


def test_traced_universe_build_counts_its_searches():
    # the benchmark's extension metric measures the universe layer; a
    # pipeline run cannot show that, since gcp also calls find_extension
    spans = _load("spans")
    with spans.installed(spans.Tracer()) as tracer:
        interactions.InteractionUniverse(*make_bbu())
    m = spans.layer_metrics(tracer)
    assert m["interactions.universe_builds"] == 1
    assert m["interactions.extension_calls"] > 0


def test_ready_loads_the_model_files():
    _load("ready").ready(sorted(str(p) for p in (ROOT / "models").glob("*.model")))


def test_run_records_the_kernel_lane(monkeypatch):
    # run.py imports its sibling modules ready and workloads by bare name
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    env = _load("run").environment()
    assert isinstance(env["has_numba"], bool)
    assert env["jit_enabled"] is False
