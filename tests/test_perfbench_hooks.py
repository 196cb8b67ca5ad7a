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

from paircover import cli, interactions
from paircover.bench import make_bbu, make_system
from paircover.core import ConstraintSet, PartialAssignment, TestSuite
from paircover.greedy import greedy_suite
from paircover.io import load_model, write_suite_csv
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
        _, report = run_pipeline(interactions.InteractionUniverse(system, constraints))
    m = spans.layer_metrics(tracer)
    assert m["milp.step_nodes"] > 0 and m["pipeline.raw_size"] > 0
    # must-phase steps included: both phases call pipeline.generate_single_case
    assert m["sequential.steps"] == len(report.steps) > 0
    assert m["sequential.formulate_s"] > 0 and m["sequential.decode_s"] > 0
    assert m["interactions.universe_builds"] == 1
    assert m["interactions.extension_calls"] > 0 and m["gcp.groups"] == 1


def test_traced_universe_build_counts_its_searches():
    # the benchmark's extension metric measures the universe layer; a
    # pipeline run cannot show that, since gcp also calls find_extension.
    # The greedy-wide trap shape is far above the listing threshold, so its
    # build searches; bbu's 256 cases are listed, with no search.
    trap = make_system([3] * 8 + [2, 2, 3, 4])
    avoid = (PartialAssignment(((0, 2), (8, 0))), PartialAssignment(((0, 2), (8, 1))))
    spans = _load("spans")
    for model, searches in (((trap, ConstraintSet(avoid=avoid)), True), (make_bbu(), False)):
        with spans.installed(spans.Tracer()) as tracer:
            interactions.InteractionUniverse(*model)
        m = spans.layer_metrics(tracer)
        assert m["interactions.universe_builds"] == 1
        assert (m["interactions.extension_calls"] > 0) == searches


def test_traced_greedy_workload_counts_its_layers(tmp_path, capsys):
    # the two commands of one greedy-wide model, as run.py issues them, on a
    # model with no MUST: greedy ignores MUSTs, so verify may reject its suite
    spans = _load("spans")
    model, out = str(ROOT / "models" / "ca_3x4.model"), str(tmp_path / "suite.csv")
    with spans.installed(spans.Tracer()) as tracer:
        assert cli.main(["generate", "--method", "greedy", "--model", model, "--out", out]) == 0
        assert cli.main(["verify", "--model", model, "--suite", out]) == 0
    capsys.readouterr()
    rows = len((tmp_path / "suite.csv").read_text().splitlines()) - 1
    m = spans.layer_metrics(tracer)
    assert m["greedy.cases"] == rows > 0 and m["greedy.suite_s"] > 0
    assert m["interactions.universe_builds"] == 2 and m["interactions.verify_s"] > 0


def test_traced_minimize_counts_its_layers(tmp_path, capsys):
    # minimize numbers the pairs its rows hold and builds no universe; the
    # duplicated rows leave the cover a choice, so its search runs
    spans = _load("spans")
    model, suite = ROOT / "models" / "ca_3x4.model", tmp_path / "suite.csv"
    system, constraints = load_model(model)
    rows = list(greedy_suite(interactions.InteractionUniverse(system, constraints)))
    write_suite_csv(suite, TestSuite(system, rows + rows))
    with spans.installed(spans.Tracer()) as tracer:
        assert cli.main(["minimize", "--model", str(model), "--suite", str(suite)]) == 0
    capsys.readouterr()
    m = spans.layer_metrics(tracer)
    assert m["interactions.universe_builds"] == 0
    assert m["milp.cover_nodes"] > 0
    assert m["pipeline.raw_size"] == 2 * len(rows) and m["pipeline.final_size"] <= len(rows)


def test_ready_loads_the_model_files():
    _load("ready").ready(sorted(str(p) for p in (ROOT / "models").glob("*.model")))


def test_run_records_the_kernel_lane(monkeypatch):
    # run.py imports its sibling modules ready and workloads by bare name
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    env = _load("run").environment()
    assert isinstance(env["has_numba"], bool)
    assert env["jit_enabled"] is False
