"""Tests of the benchmark itself: seeded inputs, span self time, output check.

Run from the repository root:  python3 -m pytest perfbench/test_perfbench.py
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spans  # noqa: E402
import workloads as wl  # noqa: E402


def _inputs(name, seed):
    return [(item.model.text(), item.suite_csv) for item in wl.WORKLOADS[name](seed)]


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    assert _inputs(name, 7) == _inputs(name, 7)
    assert _inputs(name, 7) != _inputs(name, 8)


def test_self_time_subtracts_the_union_of_child_spans():
    s = [
        spans.Span("root", 0.0, 10.0, -1, "m"),
        spans.Span("a", 1.0, 3.0, 0, "m"),
        spans.Span("b", 2.0, 4.0, 0, "m"),  # overlaps a: [1, 4] counts once
        spans.Span("c", 9.0, 12.0, 0, "m"),  # only [9, 10] lies inside root
        spans.Span("a.1", 1.5, 2.5, 1, "m"),  # a grandchild is a's, not root's
    ]
    assert spans.self_times(s) == pytest.approx([10 - 3 - 1, 2 - 1, 2, 3, 1])


def test_traced_calls_nest_and_self_times_add_up():
    tracer = spans.Tracer()

    def leaf():
        return sum(range(1000))

    leaf_t = tracer.wrap("leaf", leaf)
    outer = tracer.wrap("outer", lambda: [leaf_t() for _ in range(3)])
    outer()
    names = [s.name for s in tracer.spans]
    assert names == ["outer", "leaf", "leaf", "leaf"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 0, 0]
    selfs = spans.self_times(tracer.spans)
    root = tracer.spans[0]
    children = sum(s.end - s.start for s in tracer.spans[1:])
    assert selfs[0] == pytest.approx(root.end - root.start - children, abs=1e-9)


def test_tracing_records_the_layers_and_restores_every_call_site(tmp_path):
    from paircover import cli

    before = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in spans._targets()]
    model = tmp_path / "m.model"
    model.write_text("A: a0, a1, a2\nB: b0, b1\nC: c0, c1\nAVOID: A=a0, B=b1\nMUST: A=a2, C=c1\n")
    tracer = spans.Tracer()
    with spans.installed(tracer):
        assert cli.main(["generate", "--model", str(model), "--out", str(tmp_path / "s.csv")]) == 0
    assert all(getattr(owner, attr) is orig for owner, attr, orig in before)
    m = spans.layer_metrics(tracer)
    assert m["sequential.steps"] > 0 and m["milp.step_nodes"] > 0
    assert m["interactions.universe_builds"] >= 1 and m["gcp.groups"] == 1
    assert m["pipeline.raw_size"] >= m["pipeline.final_size"] > 0


def test_check_rejects_a_suite_with_one_pair_removed():
    model = wl._model("small", [3, 3, 2])
    model.avoid = [((0, 0), (1, 1))]
    model.must = [((0, 2), (2, 1))]
    pairs = wl.universe_pairs(model)
    rows = wl.valid_rows(model)
    assert wl.check_rows(model, rows, pairs) == []

    gone = (0, 1, 1, 2)
    assert gone in pairs
    without = [r for r in rows if (r[0], r[1]) != (1, 2)]
    assert wl.check_rows(model, without, pairs) == [f"pair {gone} is not covered"]


def test_check_rejects_avoided_rows_and_missing_musts():
    model = wl._model("small", [2, 2, 2])
    model.avoid = [((0, 0), (1, 0))]
    model.must = [((1, 1), (2, 1))]
    pairs = wl.universe_pairs(model)
    problems = wl.check_rows(model, [(0, 0, 0)], pairs)
    assert any("avoided" in p for p in problems)
    assert any("must" in p for p in problems)


def test_suite_csv_round_trips_through_the_check_parser():
    item = wl.minimize_redundant(3)[0]
    rows = wl.rows_from_csv(item.model, item.suite_csv)
    assert wl.rows_to_csv(item.model, rows) == item.suite_csv
    with pytest.raises(ValueError):
        wl.rows_from_csv(item.model, "x,y\n")
