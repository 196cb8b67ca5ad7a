import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import paircover
import paircover.milp
from paircover import cli, interactions, monolithic
from paircover.bench import classic_instances, make_system
from paircover.core import ConstraintSet, TestSuite
from paircover.greedy import greedy_suite
from paircover.interactions import InteractionUniverse
from paircover.io import load_model, read_suite_csv, write_suite_csv
from paircover.milp import SolveStatus
from paircover.pipeline import (
    DEFAULT_MINIMIZE_TIME_LIMIT,
    PipelineConfig,
    RunReport,
    minimize_suite,
)
from paircover.sequential import DEFAULT_STEP_TIME_LIMIT

MODEL_TEXT = """\
A: a0, a1, a2
B: b0, b1, b2
C: c0, c1
AVOID: A=a0, B=b0
MUST: A=a2, C=c1
"""

PICT_TEXT = """\
# two browsers
Type: Primary, Secondary
OS: Win, Mac (5), Linux
"""


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "demo.model"
    path.write_text(MODEL_TEXT)
    return path


class TestGenerate:
    def test_sequential_end_to_end(self, model_file, tmp_path):
        out = tmp_path / "suite.csv"
        report = tmp_path / "report.json"
        rc = cli.main(
            [
                "generate",
                "--model",
                str(model_file),
                "--out",
                str(out),
                "--report",
                str(report),
            ]
        )
        assert rc == 0
        system, cs = load_model(model_file)
        suite = read_suite_csv(out, system)
        assert len(suite) > 0
        data = json.loads(report.read_text())
        assert data["method"] == "sequential"
        assert data["final_size"] == len(suite)
        assert data["coverage_curve"][-1] == 1.0
        # the generated suite verifies clean through the CLI as well
        assert cli.main(["verify", "--model", str(model_file), "--suite", str(out)]) == 0

    def test_report_is_built_only_when_asked_for(self, model_file, tmp_path, monkeypatch):
        def unwanted(*args, **kwargs):
            raise AssertionError("report built without --report")

        monkeypatch.setattr(cli, "coverage_curve", unwanted)
        monkeypatch.setattr(interactions, "coverage_curve", unwanted)
        monkeypatch.setattr(RunReport, "to_dict", unwanted)
        for method in ("sequential", "greedy", "monolithic"):
            out = tmp_path / f"{method}.csv"
            argv = ["generate", "--model", str(model_file), "--method", method, "--out", str(out)]
            assert cli.main(argv) == 0

    def test_every_method_writes_one_report_shape(self, model_file, tmp_path):
        system, _ = load_model(model_file)
        for method in ("sequential", "greedy", "monolithic"):
            out, report = tmp_path / f"{method}.csv", tmp_path / f"{method}.json"
            argv = ["generate", "--model", str(model_file), "--method", method]
            assert cli.main(argv + ["--out", str(out), "--report", str(report)]) == 0
            data = json.loads(report.read_text())
            assert data["method"] == method
            assert data["final_size"] == len(read_suite_csv(out, system))
            assert data["universe_size"] > 0
            assert data["coverage_curve"][-1] == 1.0

    def test_stdout_default(self, model_file, capsys):
        rc = cli.main(["generate", "--model", str(model_file), "--method", "greedy"])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("A,B,C")
        # must tuples are outside greedy's contract; the CLI says so
        assert "greedy ignores MUST" in captured.err

    def test_only_verifying_methods_claim_verification(self, model_file, capsys):
        want = {
            "greedy": r"\d+ cases \(greedy\)",
            "sequential": r"\d+ cases \(sequential\); coverage verified",
            "monolithic": r"\d+ cases \(monolithic\); coverage verified",
        }
        for method, line in want.items():
            assert cli.main(["generate", "--model", str(model_file), "--method", method]) == 0
            assert re.fullmatch(line, capsys.readouterr().err.splitlines()[-1])

    @pytest.mark.parametrize("method", ["sequential", "greedy", "monolithic"])
    def test_report_builds_one_universe(self, method, model_file, tmp_path, monkeypatch):
        # the method and the report's curve run on the one universe the
        # command built from the model
        builds = []
        init = InteractionUniverse.__init__

        def counting_init(self, *args, **kwargs):
            builds.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(InteractionUniverse, "__init__", counting_init)
        report = tmp_path / "report.json"
        argv = ["generate", "--model", str(model_file), "--method", method]
        argv += ["--out", str(tmp_path / "suite.csv"), "--report", str(report)]
        assert cli.main(argv) == 0
        assert len(builds) == 1
        assert json.loads(report.read_text())["coverage_curve"][-1] == 1.0

    def test_suite_to_a_text_only_stdout(self, model_file, tmp_path):
        out = tmp_path / "suite.csv"
        assert cli.main(["generate", "--model", str(model_file), "--out", str(out)]) == 0
        text = io.StringIO()  # no .buffer: the suite is written as text
        with redirect_stdout(text):
            assert cli.main(["generate", "--model", str(model_file)]) == 0
        assert text.getvalue() == out.read_text(encoding="utf-8")

    def test_reports_time_the_universe_build(self, model_file, tmp_path):
        report = tmp_path / "report.json"
        for method in ("greedy", "sequential"):
            argv = ["generate", "--model", str(model_file), "--method", method]
            argv += ["--out", str(tmp_path / "suite.csv"), "--report", str(report)]
            assert cli.main(argv) == 0
            data = json.loads(report.read_text())
            if method == "greedy":
                assert 0 <= data["universe_s"] <= data["wall_s"]
            else:
                assert data["universe_s"] >= 0
                assert data["phase_wall_s"]["verify"] >= 0

    def test_monolithic_small(self, tmp_path):
        model = tmp_path / "tiny.model"
        model.write_text("A: x, y\nB: p, q\n")
        out = tmp_path / "suite.csv"
        rc = cli.main(
            [
                "generate",
                "--model",
                str(model),
                "--method",
                "monolithic",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        system, _ = load_model(model)
        assert len(read_suite_csv(out, system)) == 4

    def test_pict_import(self, tmp_path, capsys):
        pict = tmp_path / "browsers.pict"
        pict.write_text(PICT_TEXT)
        rc = cli.main(["generate", "--pict", str(pict), "--method", "greedy"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "Type,OS"
        assert "Mac" in out  # weight stripped, value kept

    def test_warm_start_round(self, model_file, tmp_path):
        warm = tmp_path / "warm.csv"
        rc = cli.main(
            ["generate", "--model", str(model_file), "--method", "greedy", "--out", str(warm)]
        )
        assert rc == 0
        rc = cli.main(
            [
                "generate",
                "--model",
                str(model_file),
                "--warm-start",
                str(warm),
                "--out",
                str(tmp_path / "final.csv"),
            ]
        )
        assert rc == 0


    @pytest.mark.parametrize("method", ["greedy", "monolithic"])
    def test_warm_start_needs_sequential(self, method, model_file, tmp_path, capsys):
        # only the sequential pipeline reads a warm start; the others would drop it
        warm = tmp_path / "warm.csv"
        warm.write_text("A,B,C\na1,b1,c0\n")
        argv = ["generate", "--model", str(model_file), "--method", method]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--warm-start", str(warm)])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: argument --warm-start: only --method sequential reads it" in captured.err


class TestVerify:
    def test_incomplete_suite_fails(self, model_file, tmp_path, capsys):
        suite = tmp_path / "one.csv"
        suite.write_text("A,B,C\na1,b1,c1\n")
        rc = cli.main(["verify", "--model", str(model_file), "--suite", str(suite)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "uncovered" in out and "must" in out

    def test_avoid_violation_reported(self, model_file, tmp_path, capsys):
        suite = tmp_path / "bad.csv"
        suite.write_text("A,B,C\na0,b0,c0\n")
        rc = cli.main(["verify", "--model", str(model_file), "--suite", str(suite)])
        assert rc == 1
        assert "avoid" in capsys.readouterr().out

    def test_ok_line(self, model_file, tmp_path, capsys):
        out = tmp_path / "suite.csv"
        cli.main(["generate", "--model", str(model_file), "--out", str(out)])
        capsys.readouterr()
        rc = cli.main(["verify", "--model", str(model_file), "--suite", str(out)])
        assert rc == 0
        assert capsys.readouterr().out.startswith("OK:")


class TestMinimize:
    def test_drops_duplicates(self, model_file, tmp_path, capsys):
        out = tmp_path / "suite.csv"
        cli.main(["generate", "--model", str(model_file), "--out", str(out)])
        text = out.read_text()
        header, *rows = text.strip().split("\n")
        bloated = tmp_path / "bloated.csv"
        bloated.write_text("\n".join([header] + rows + rows) + "\n")
        reduced = tmp_path / "reduced.csv"
        rc = cli.main(
            [
                "minimize",
                "--model",
                str(model_file),
                "--suite",
                str(bloated),
                "--out",
                str(reduced),
            ]
        )
        assert rc == 0
        system, _ = load_model(model_file)
        assert len(read_suite_csv(reduced, system)) <= len(rows)

    def test_empty_suite(self, model_file, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("A,B,C\n")
        rc = cli.main(["minimize", "--model", str(model_file), "--suite", str(empty)])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.out == "A,B,C\n" and captured.err == "0 -> 0 cases\n"

    def test_avoid_violating_row_is_an_error(self, tmp_path, capsys):
        # the six valid rows cover every pair; the cover used to keep row 0
        model, suite = tmp_path / "m.model", tmp_path / "bad.csv"
        model.write_text("A: a0, a1\nB: b0, b1\nC: c0, c1\nAVOID: A=a0, B=b0\n")
        rows = ["a0,b0,c0", "a0,b1,c1", "a1,b0,c1", "a1,b1,c0", "a0,b1,c0", "a1,b0,c0", "a1,b1,c1"]
        suite.write_text("\n".join(["A,B,C", *rows]) + "\n")
        rc = cli.main(["minimize", "--model", str(model), "--suite", str(suite)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: case 0 violates an avoid tuple: (0, 0, 0)\n"

    def test_unproven_cover_exits_degraded(self, tmp_path, capsys):
        # the 73-row cover of test_pipeline's overshoot test: not proven in 0.5 s
        system, cs = make_system([4] * 6), ConstraintSet()
        joined = TestSuite(
            system,
            [tc for s in range(3) for tc in greedy_suite(InteractionUniverse(system, cs), seed=s)],
        )
        model, suite = tmp_path / "m.model", tmp_path / "joined.csv"
        model.write_text("".join(f"F{f}: v0, v1, v2, v3\n" for f in range(6)))
        write_suite_csv(suite, joined)
        out = tmp_path / "kept.csv"
        rc = cli.main(
            ["minimize", "--model", str(model), "--suite", str(suite), "--out", str(out), "--time-limit", "0.5"]
        )
        assert rc == 2
        assert "time limit hit, kept best cover found" in capsys.readouterr().err
        assert len(read_suite_csv(out, system)) < len(joined)

    def test_degraded_exit_code(self, model_file, tmp_path, monkeypatch):
        import paircover.pipeline as pl
        from paircover.milp import MilpSolution, SolveStatus

        def starved(model, time_limit=math.inf):
            return MilpSolution(SolveStatus.TIMED_OUT, None, None, {})

        out = tmp_path / "suite.csv"
        cli.main(["generate", "--model", str(model_file), "--out", str(out)])
        monkeypatch.setattr(pl, "solve", starved)
        rc = cli.main(
            ["minimize", "--model", str(model_file), "--suite", str(out), "--out", str(tmp_path / "kept.csv")]
        )
        assert rc == 2


class TestBench:
    def test_random_family_greedy(self, tmp_path, capsys):
        records = tmp_path / "records.csv"
        profile = tmp_path / "profile.csv"
        rc = cli.main(
            [
                "bench",
                "--family",
                "random",
                "--count",
                "2",
                "--seed",
                "42",
                "--methods",
                "greedy",
                "--out",
                str(records),
                "--profile",
                str(profile),
            ]
        )
        assert rc == 0
        lines = records.read_text().strip().split("\n")
        assert lines[0] == "instance,method,size,wall_s,degraded,tail"
        assert len(lines) == 3  # 2 instances x 1 method
        assert profile.read_text().startswith("tau,")
        assert "mean rank greedy" in capsys.readouterr().err

    @pytest.mark.parametrize("max_tau, last", [("1.7", "1.700"), ("1.74", "1.700"), ("1.9", "1.900")])
    def test_max_tau_is_the_last_tau(self, tmp_path, max_tau, last):
        profile = tmp_path / "profile.csv"
        argv = ["bench", "--family", "random", "--count", "1", "--methods", "greedy"]
        argv += ["--out", str(tmp_path / "records.csv"), "--profile", str(profile)]
        assert cli.main(argv + ["--max-tau", max_tau]) == 0
        assert profile.read_text().splitlines()[-1].split(",")[0] == last

    def test_classic_family_to_stdout(self, capsys):
        assert cli.main(["bench", "--family", "classic", "--methods", "greedy"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "instance,method,size,wall_s,degraded,tail"
        assert [line.split(",")[:2] for line in lines[1:]] == [
            [name, "greedy"] for name in classic_instances()
        ]

    def test_unknown_method(self, capsys):
        for method in ("nope", "sequential-nw"):
            rc = cli.main(["bench", "--family", "random", "--count", "1", "--methods", method])
            assert rc == 1
            assert "unknown method" in capsys.readouterr().err

    def test_no_profile_without_profile_flag(self, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("performance_profile ran without --profile")

        monkeypatch.setattr(cli.bench_mod, "performance_profile", refuse)
        argv = ["bench", "--family", "random", "--count", "2", "--methods", "greedy"]
        assert cli.main(argv) == 0
        assert "mean rank greedy" in capsys.readouterr().err

    def test_max_tau_without_profile_is_a_usage_error(self, monkeypatch, capsys):
        # only the profile reads --max-tau, so alone it would do nothing
        def refuse(*args):
            raise AssertionError("bench ran")

        monkeypatch.setattr(cli.bench_mod, "run_methods", refuse)
        argv = ["bench", "--family", "random", "--count", "2", "--methods", "greedy"]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--max-tau", "100"])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: argument --max-tau: only the --profile reads it" in captured.err

    @pytest.mark.parametrize("methods", [",", "", " , "])
    def test_empty_method_list(self, methods, capsys):
        rc = cli.main(["bench", "--family", "random", "--count", "1", "--methods", methods])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "error: --methods names no method" in captured.err


    def test_zero_count(self, capsys):
        rc = cli.main(["bench", "--family", "random", "--count", "0", "--methods", "greedy"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "error: --count 0 names no instance" in captured.err


class TestErrors:
    def test_usage_error_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["generate"])  # neither --model nor --pict
        assert exc.value.code == 1

    def test_backend_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["generate", "--model", "x.model", "--backend", "scipy"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --backend" in capsys.readouterr().err

    def test_unweighted_flag_is_gone(self, model_file, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["generate", "--model", str(model_file), "--unweighted"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --unweighted" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        rc = cli.main(["generate", "--model", "/nonexistent/x.model"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_model_content(self, tmp_path, capsys):
        bad = tmp_path / "bad.model"
        bad.write_text("A x y\n")
        rc = cli.main(["generate", "--model", str(bad)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_alpha_out_of_range(self, model_file, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["generate", "--model", str(model_file), "--alpha", "5"])
        assert exc.value.code == 1
        assert "argument --alpha: must be in [0, 1], got 5" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--model", "MODEL", "--method", "greedy", "--seed", "-1"],
            ["bench", "--methods", "greedy", "--seed", "-1"],
        ],
    )
    def test_negative_seed_is_a_usage_error(self, argv, model_file, capsys):
        # numpy's generators reject a negative seed; the parser says so first
        with pytest.raises(SystemExit) as exc:
            cli.main([str(model_file) if a == "MODEL" else a for a in argv])
        assert exc.value.code == 1
        assert "argument --seed: must be non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["generate", "--model", "MODEL", "--step-time-limit", "-1"], "must be seconds >= 0"),
            (["generate", "--model", "MODEL", "--step-time-limit", "nan"], "must be seconds >= 0"),
            (
                ["generate", "--model", "MODEL", "--method", "monolithic", "--time-limit", "-1"],
                "must be seconds >= 0",
            ),
            (
                ["minimize", "--model", "MODEL", "--suite", "x.csv", "--time-limit", "nan"],
                "must be seconds >= 0",
            ),
            (["bench", "--methods", "greedy", "--count", "-3"], "must be non-negative"),
            (["bench", "--methods", "greedy", "--max-tau", "0.5"], "must be finite and at least 1"),
            (["bench", "--methods", "greedy", "--max-tau", "inf"], "must be finite and at least 1"),
            (["generate", "--model", "MODEL", "--alpha", "1.5"], "must be in [0, 1]"),
            (["generate", "--model", "MODEL", "--alpha", "nan"], "must be in [0, 1]"),
            (["generate", "--model", "MODEL", "--seed", "abc"], "invalid int value: 'abc'"),
            (
                ["bench", "--methods", "greedy", "--max-tau", "100.01"],
                "must be finite and at least 1, up to 100",
            ),
            (
                ["bench", "--methods", "greedy", "--max-tau", "1e300"],
                "must be finite and at least 1, up to 100",
            ),
        ],
    )
    def test_bad_number_is_a_usage_error(self, argv, message, model_file, capsys):
        # a negative or NaN time limit would never fire, or HiGHS would drop
        # it; a negative count or a max tau below 1 would write empty CSVs,
        # and a huge max tau would build millions of taus
        with pytest.raises(SystemExit) as exc:
            cli.main([str(model_file) if a == "MODEL" else a for a in argv])
        assert exc.value.code == 1
        assert f"argument {argv[-2]}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("limit", ["0", "inf"])
    def test_zero_and_infinite_time_limits_are_accepted(self, limit, model_file, tmp_path):
        # the model's 18 cases form one suffix block, scored once per step
        # with no deadline check, so even a 0 s limit proves every step
        out = tmp_path / "s.csv"
        argv = ["generate", "--model", str(model_file), "--step-time-limit", limit]
        assert cli.main(argv + ["--out", str(out)]) == 0

    def test_monolithic_timeout_is_an_error(self, tmp_path, capsys):
        # mca-5.3^8.2^2: its first slot count, 15, is not decided in 0.5 s
        model = tmp_path / "mca.model"
        cards = [5] + [3] * 8 + [2] * 2
        levels = (", ".join(f"v{a}" for a in range(c)) for c in cards)
        model.write_text("".join(f"F{f}: {names}\n" for f, names in enumerate(levels)))
        argv = ["generate", "--method", "monolithic", "--model", str(model), "--time-limit", "0.5"]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: could not decide coverage at m=15 within 0.5s\n"

    def test_monolithic_must_with_no_valid_case(self, tmp_path, capsys):
        # a0 goes with no level of B, so the must never fits: no solve runs
        model = tmp_path / "dead_must.model"
        model.write_text(
            "A: a0, a1\nB: b0, b1\nC: c0, c1\n"
            "AVOID: A=a0, B=b0\nAVOID: A=a0, B=b1\nMUST: A=a0, C=c0\n"
        )
        assert cli.main(["generate", "--method", "monolithic", "--model", str(model)]) == 1
        err = capsys.readouterr().err
        assert err == "error: must tuple ((0, 0), (2, 0)) has no constraint-valid extension\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--method", "sequential"],
            ["generate", "--method", "greedy"],
            ["generate", "--method", "monolithic"],
            ["verify", "--suite", "SUITE"],
            ["minimize", "--suite", "SUITE"],
        ],
    )
    def test_model_with_no_valid_case(self, argv, tmp_path, capsys):
        # both levels of a avoided: no case exists, so no suite is "verified"
        model, suite = tmp_path / "dead.model", tmp_path / "empty.csv"
        model.write_text("a: x, y\nb: p, q\nAVOID: a=x\nAVOID: a=y\n")
        suite.write_text("a,b\n")
        argv = [str(suite) if a == "SUITE" else a for a in argv]
        assert cli.main(argv + ["--model", str(model)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the avoid tuples rule out every test case\n"

    @pytest.mark.parametrize("flag", ["--model", "--pict", "--suite"])
    def test_file_that_is_not_utf8(self, flag, model_file, tmp_path, capsys):
        binary = tmp_path / "binary"
        binary.write_bytes(b"A: \xff\xfe\x00\x01\nB: b0, b1\n")
        if flag == "--suite":
            argv = ["verify", "--model", str(model_file), "--suite", str(binary)]
        else:
            argv = ["generate", flag, str(binary)]
        assert cli.main(argv) == 1
        assert f"error: {binary} is not UTF-8 text" in capsys.readouterr().err


def test_defaults_come_from_the_library():
    parser = cli.build_parser()
    gen = parser.parse_args(["generate", "--model", "m"])
    assert gen.step_time_limit == DEFAULT_STEP_TIME_LIMIT
    assert gen.alpha == PipelineConfig().alpha
    assert gen.time_limit == monolithic.DEFAULT_TIME_LIMIT
    mini = parser.parse_args(["minimize", "--model", "m", "--suite", "s"])
    assert mini.time_limit == DEFAULT_MINIMIZE_TIME_LIMIT
    assert inspect.signature(minimize_suite).parameters["time_limit"].default == mini.time_limit


def _src_env():
    src = str(Path(paircover.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


def test_parser_reuse_leaks_no_state(model_file, tmp_path, monkeypatch):
    # main reuses one parser per process: a usage error, then a call with
    # non-default flags, must leave the next call's defaults untouched
    builds, seen = [], []
    init, load = cli._Parser.__init__, cli._load_model

    def counting_init(self, *args, **kwargs):
        if kwargs.get("prog") == "paircover":
            builds.append(self)
        init(self, *args, **kwargs)

    def load_model(args):
        seen.append(args)
        return load(args)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    monkeypatch.setattr(cli, "_load_model", load_model)
    cli.build_parser.cache_clear()
    model = ["--model", str(model_file)]
    with pytest.raises(SystemExit) as exc:
        cli.main(["generate", "--seed", "-1", *model, "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 1
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["generate", "--method", "greedy", "--seed", "3", "--no-minimize", *model]
    assert cli.main(argv + ["--out", str(a)]) == 0
    argv = ["generate", *model, "--out", str(b)]
    assert cli.main(argv) == 0
    assert len(builds) == 1
    cli.build_parser.cache_clear()  # a fresh parser, not the one main used
    assert vars(seen[-1]) == vars(cli.build_parser().parse_args(argv))
    fresh = tmp_path / "fresh.csv"
    run = subprocess.run(
        [sys.executable, "-m", "paircover.cli", "generate", *model, "--out", str(fresh)],
        env=_src_env(),
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0, run.stderr
    assert b.read_bytes() == fresh.read_bytes()


def test_suite_file_is_utf8_under_an_ascii_locale(tmp_path):
    # the POSIX locale, with UTF-8 mode and locale coercion off, makes the
    # locale encoding ASCII; a level outside it must still reach the file
    model = tmp_path / "arrow.model"
    model.write_text("A: a→b, c\nB: d, e\n", encoding="utf-8")
    out = tmp_path / "suite.csv"
    env = {**_src_env(), "LC_ALL": "POSIX", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    run = subprocess.run(
        [sys.executable, "-m", "paircover.cli", "generate", "--model", str(model), "--out", str(out)],
        env=env,
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0, run.stderr
    rows = out.read_text(encoding="utf-8").splitlines()
    assert rows[0] == "A,B" and any(r.startswith("a→b,") for r in rows[1:])


def _arrow_model(tmp_path):
    model = tmp_path / "arrow.model"
    model.write_text("A: a→b, c\nB: d, e\n", encoding="utf-8")
    return model


@pytest.mark.parametrize("command", ["generate", "minimize"])
def test_stdout_suite_is_utf8_on_an_ascii_stream(command, tmp_path, monkeypatch):
    model = _arrow_model(tmp_path)
    argv = [command, "--model", str(model)]
    if command == "minimize":
        suite = tmp_path / "suite.csv"
        assert cli.main(["generate", "--model", str(model), "--out", str(suite)]) == 0
        argv += ["--suite", str(suite)]
    ascii_out = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
    monkeypatch.setattr(sys, "stdout", ascii_out)
    assert cli.main(argv) == 0
    ascii_out.flush()
    rows = ascii_out.buffer.getvalue().decode("utf-8").splitlines()
    assert rows[0] == "A,B" and any(r.startswith("a→b,") for r in rows[1:])


def test_stdout_suite_is_utf8_under_an_ascii_locale(tmp_path):
    model = _arrow_model(tmp_path)
    env = {**_src_env(), "LC_ALL": "POSIX", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    run = subprocess.run(
        [sys.executable, "-m", "paircover.cli", "generate", "--model", str(model)],
        env=env,
        capture_output=True,
    )
    assert run.returncode == 0, run.stderr.decode("utf-8", "replace")
    rows = run.stdout.decode("utf-8").splitlines()
    assert rows[0] == "A,B" and any(r.startswith("a→b,") for r in rows[1:])


def test_import_does_not_load_scipy():
    # scipy.optimize takes longer to import than a small run needs; only the
    # monolithic method's solver may pull it in, at call time.  The tests'
    # reference kernel, numba and the lane constants perfbench reads run on
    # no command path, so a command loads none of them either.
    code = (
        "import sys, paircover.cli\n"
        "banned = {'scipy', 'numba', 'paircover._jit', 'reference_kernel'}\n"
        "loaded = sorted(banned & set(sys.modules))\n"
        "sys.exit(f'loaded: {loaded}' if loaded else 0)"
    )
    run = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_readme_flags_exist():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    named = set()
    for line in readme.read_text().splitlines():
        if "pip install" in line or "perfbench/run.py" in line:
            continue
        named.update(re.findall(r"(?<![\w-])--[a-z][a-z-]*", line))
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if a.choices and isinstance(a.choices, dict)]
    accepted = {
        flag for sp in sub.choices.values() for flag in sp._option_string_actions
    }
    assert named and not named - accepted, sorted(named - accepted)


def test_readme_api_names_exist():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"`([A-Za-z_]\w*)`", section))
    missing = {
        name for name in named if not hasattr(paircover, name) and not hasattr(paircover.milp, name)
    }
    assert named and not missing, sorted(missing)


def test_readme_report_names_exist(tmp_path):
    # every snake_case name the "Run reports" section spells in backticks is
    # a report key, a solve status or a package name, so a field that is
    # renamed or dropped cannot linger in the docs, and every report key is
    # spelled there, so a new field cannot go undocumented
    root = Path(__file__).resolve().parents[1]
    section = (root / "README.md").read_text().split("\n## Run reports\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"`([a-z][a-z0-9_]*)`", section))
    bbu = root / "models" / "bbu_5g.model"
    runs = [(bbu, "sequential"), (bbu, "greedy"), (bbu, "monolithic")]
    keys = set()

    def collect(node):
        if isinstance(node, dict):
            keys.update(node)
            node = list(node.values())
        if isinstance(node, list):
            for item in node:
                collect(item)

    for model, method in runs:
        report = tmp_path / f"{method}.json"
        argv = ["generate", "--model", str(model), "--method", method]
        assert cli.main(argv + ["--out", str(tmp_path / "suite.csv"), "--report", str(report)]) == 0
        collect(json.loads(report.read_text()))
    known = keys | {s.value for s in SolveStatus} | set(dir(paircover))
    assert named and not named - known, sorted(named - known)
    # and the converse: every key the reports write is documented there
    assert not keys - named, sorted(keys - named)
