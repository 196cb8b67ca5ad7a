import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import paircover
from paircover import cli
from paircover.bench import make_system
from paircover.core import ConstraintSet, TestSuite
from paircover.greedy import greedy_suite
from paircover.interactions import InteractionUniverse
from paircover.io import load_model, read_suite_csv, write_suite_csv

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

    def test_stdout_default(self, model_file, capsys):
        rc = cli.main(["generate", "--model", str(model_file), "--method", "greedy"])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("A,B,C")
        # must tuples are outside greedy's contract; the CLI says so
        assert "greedy ignores MUST" in captured.err

    def test_greedy_builds_universe_once(self, model_file, tmp_path, monkeypatch):
        builds = []
        init = InteractionUniverse.__init__

        def counting_init(self, *args, **kwargs):
            builds.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(InteractionUniverse, "__init__", counting_init)
        report = tmp_path / "report.json"
        argv = ["generate", "--model", str(model_file), "--method", "greedy"]
        argv += ["--out", str(tmp_path / "suite.csv"), "--report", str(report)]
        assert cli.main(argv) == 0
        assert len(builds) == 1
        assert json.loads(report.read_text())["coverage_curve"][-1] == 1.0

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
                assert data["phase_wall_s"]["universe"] >= 0
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

    def test_unproven_cover_exits_degraded(self, tmp_path, capsys):
        # the 73-row cover of test_pipeline's overshoot test: not proven in 0.5 s
        system, cs = make_system([4] * 6), ConstraintSet()
        joined = TestSuite(
            system, [tc for s in range(3) for tc in greedy_suite(system, cs, seed=s)]
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

        def starved(model, time_limit=None):
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

    def test_unknown_method(self, capsys):
        rc = cli.main(["bench", "--family", "random", "--count", "1", "--methods", "nope"])
        assert rc == 1
        assert "unknown method" in capsys.readouterr().err


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


def test_import_does_not_load_scipy():
    # scipy.optimize takes longer to import than a small run needs; only the
    # monolithic method's solver may pull it in, at call time.  The tests'
    # reference kernel, numba and the lane constants perfbench reads run on
    # no command path, so a command loads none of them either.
    src = str(Path(paircover.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    code = (
        "import sys, paircover.cli\n"
        "banned = {'scipy', 'numba', 'paircover._jit', 'reference_kernel'}\n"
        "loaded = sorted(banned & set(sys.modules))\n"
        "sys.exit(f'loaded: {loaded}' if loaded else 0)"
    )
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
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
