import ast
import codecs
import json
import re
from pathlib import Path

import pytest

import paircover
from paircover.bench import make_bbu, make_system
from paircover.core import ConstraintSet, ParseError, PartialAssignment, TestCase, TestSuite
from paircover.io import (
    load_model,
    parse_model,
    parse_pict,
    report_to_json,
    suite_from_csv,
    suite_to_csv,
    write_report,
    write_suite_csv,
    read_suite_csv,
)

BBU_TEXT = """\
# radio configuration matrix
Modulation: QPSK, 16-QAM, 64-QAM, 256-QAM
Bandwidth: 20 MHz, 50 MHz, 100 MHz, 200 MHz
MIMO: SU, MU, Massive, No
Coding Rate: 1/3, 1/2, 3/4, 5/6

AVOID: Modulation=QPSK, Bandwidth=200 MHz
MUST: Modulation=256-QAM, Bandwidth=200 MHz, MIMO=MU
"""


class TestParseModel:
    def test_parses_names_and_constraints(self):
        system, cs = parse_model(BBU_TEXT)
        assert system.n_factors == 4
        assert system.factors[0].name == "Modulation"
        assert system.factors[3].level_names == ("1/3", "1/2", "3/4", "5/6")
        assert cs.avoid == (PartialAssignment(((0, 0), (1, 3))),)
        assert cs.must == (PartialAssignment(((0, 3), (1, 3), (2, 1))),)

    def test_constraints_may_precede_factors(self):
        text = "AVOID: A=x, B=y\nA: x, z\nB: y, w\n"
        system, cs = parse_model(text)
        assert cs.avoid == (PartialAssignment(((0, 0), (1, 0))),)

    def test_error_line_numbers(self):
        bad = "A: x, y\nB: p, q\nAVOID: A=nope\n"
        with pytest.raises(ParseError) as exc:
            parse_model(bad)
        assert exc.value.line == 3

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("A: x, y\nB: p, q\nAVOID: A=x,\n", 3, "empty pick"),
            ("A: x, y\nB: p, q\nAVOID: A=x, B\n", 3, "pick 'B' is not Factor=Level"),
            ("A: x, y\nB: p, q\nMUST: A=x, A=y\n", 3, "picks the same factor twice"),
            ("A: x, y\nMUST : p, q\n", 2, "factor name 'MUST' is reserved"),
            ("A: x, , y\nB: p, q\n", 1, "empty level name"),
        ],
        ids=["empty-pick", "no-equals", "factor-twice", "reserved-name", "empty-level"],
    )
    def test_bad_line_is_located(self, text, line, message):
        with pytest.raises(ParseError, match=re.escape(message)) as exc:
            parse_model(text)
        assert exc.value.line == line

    def test_duplicate_factor(self):
        with pytest.raises(ParseError) as exc:
            parse_model("A: x, y\nA: p, q\n")
        assert exc.value.line == 2

    def test_reserved_name(self):
        with pytest.raises(ParseError):
            parse_model("MUST: x, y\nB: p, q\n")  # MUST: parsed as constraint
        with pytest.raises(ParseError) as exc:
            parse_model("A: x, y\nAVOIDER: p=, q\n")
        assert exc.value.line == 2

    def test_too_few_factors(self):
        with pytest.raises(ParseError):
            parse_model("A: x, y\n")

    def test_must_containing_avoid_rejected_at_parse(self):
        text = (
            "A: x, y\nB: p, q\n"
            "AVOID: A=x, B=p\n"
            "MUST: A=x, B=p\n"
        )
        with pytest.raises(ParseError) as exc:
            parse_model(text)
        assert exc.value.line == 4

    def test_duplicate_level(self):
        with pytest.raises(ParseError) as exc:
            parse_model("A: x, x\nB: p, q\n")
        assert exc.value.line == 1

    def test_file_round_trip(self, tmp_path):
        system, cs = parse_model(BBU_TEXT)
        path = tmp_path / "m.model"
        path.write_text(BBU_TEXT)
        system2, cs2 = load_model(path)
        assert system2 == system and cs2 == cs


class TestSuiteCsv:
    def test_round_trip(self):
        sys_, cs = make_bbu()
        suite = TestSuite(sys_, [TestCase((0, 0, 0, 0)), TestCase((3, 3, 1, 2))])
        text = suite_to_csv(suite)
        lines = text.strip().split("\n")
        assert lines[0] == "Modulation,Bandwidth,MIMO,Coding Rate"
        assert lines[1] == "QPSK,20 MHz,SU-MIMO,1/3"
        back = suite_from_csv(text, sys_)
        assert back.cases == suite.cases

    def test_header_mismatch(self):
        sys_ = make_system([2, 2])
        with pytest.raises(ParseError):
            suite_from_csv("wrong,header\nx,y\n", sys_)

    def test_unknown_level(self):
        sys_, _ = make_bbu()
        text = "Modulation,Bandwidth,MIMO,Coding Rate\nQPSK,20 MHz,SU-MIMO,7/8\n"
        with pytest.raises(ParseError) as exc:
            suite_from_csv(text, sys_)
        assert exc.value.line == 2

    def test_short_row(self):
        sys_ = make_system([2, 2])
        text = "F0,F1\nv0\n"
        with pytest.raises(ParseError):
            suite_from_csv(text, sys_)

    def test_blank_rows_skipped(self):
        sys_ = make_system([2, 2])
        suite = TestSuite(sys_, [TestCase((0, 1))])
        text = suite_to_csv(suite) + "\n\n"
        back = suite_from_csv(text, sys_)
        assert len(back) == 1

    def test_empty_text(self):
        sys_ = make_system([2, 2])
        with pytest.raises(ParseError):
            suite_from_csv("", sys_)

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("A,B,C,D\n\n\na0,b0,c0,d0\n\na9,b0,c0,d0\n", 6, "factor 'A' has no level 'a9'"),
            ("\n\nA,B,C,X\n", 3, "does not match the model's factors"),
            ("\nA,B,C,D\n \na0,b0,c0\n", 4, "row has 3 cells, expected 4"),
        ],
        ids=["bad level", "header", "short row"],
    )
    def test_errors_name_the_line_past_blank_lines(self, text, line, message):
        sys_, _ = load_model(Path(__file__).parent.parent / "models" / "ca_3x4.model")
        with pytest.raises(ParseError, match=re.escape(f"line {line}: ")) as exc:
            suite_from_csv(text, sys_)
        assert exc.value.line == line and message in str(exc.value)

    def test_file_round_trip(self, tmp_path):
        sys_ = make_system([2, 3])
        suite = TestSuite(sys_, [TestCase((1, 2)), TestCase((0, 0))])
        path = tmp_path / "suite.csv"
        write_suite_csv(path, suite)
        back = read_suite_csv(path, sys_)
        assert back.cases == suite.cases


class TestPict:
    def test_basic_import(self):
        text = "# browsers\nType:     Primary, Secondary\nOS: Win, Mac, Linux\n"
        system, cs = parse_pict(text)
        assert system.n_factors == 2
        assert system.factors[1].level_names == ("Win", "Mac", "Linux")
        assert cs.avoid == () and cs.must == ()

    def test_weights_stripped(self):
        text = "A: x (10), y\nB: p, q (3)\n"
        system, _ = parse_pict(text)
        assert system.factors[0].level_names == ("x", "y")
        assert system.factors[1].level_names == ("p", "q")

    def test_value_with_parens_kept(self):
        text = "A: alpha (beta), y\nB: p, q\n"
        system, _ = parse_pict(text)
        assert system.factors[0].level_names == ("alpha (beta)", "y")

    def test_constraint_syntax_rejected(self):
        text = 'A: x, y\nB: p, q\nIF [A] = "x" THEN [B] = "p";\n'
        with pytest.raises(ParseError) as exc:
            parse_pict(text)
        assert exc.value.line == 3
        assert "AVOID" in str(exc.value)

    def test_one_parameter_rejected(self):
        with pytest.raises(ParseError, match="PICT file defines 1 factors, need at least 2"):
            parse_pict("# one\nA: x, y\n")

    def test_submodel_rejected(self):
        with pytest.raises(ParseError):
            parse_pict("A: x, y\nB: p, q\n{ A, B } @ 2\n")


class TestReportJson:
    def test_dataclass_report(self, tmp_path):
        from paircover.interactions import InteractionUniverse
        from paircover.pipeline import run_pipeline

        sys_ = make_system([2, 2])
        suite, report = run_pipeline(InteractionUniverse(sys_, ConstraintSet()))
        text = report_to_json(report.to_dict())
        data = json.loads(text)
        assert data["final_size"] == len(suite)
        path = tmp_path / "report.json"
        write_report(path, report.to_dict())
        assert json.loads(path.read_text()) == data

    def test_plain_dict(self):
        assert json.loads(report_to_json({"a": 1})) == {"a": 1}


class TestUtf8Files:
    """Text files are read and written as UTF-8; a leading byte-order mark,
    as some editors write one, is read past."""

    def test_model_with_a_byte_order_mark(self, tmp_path):
        text = "A: a0, a1\nB: b0, b1\nAVOID: A=a0, B=b0\n"
        path = tmp_path / "m.model"
        path.write_bytes(codecs.BOM_UTF8 + text.encode("utf-8"))
        assert load_model(path) == parse_model(text)

    def test_suite_with_a_byte_order_mark(self, tmp_path):
        sys_ = make_system([2, 3])
        suite = TestSuite(sys_, [TestCase((1, 2)), TestCase((0, 0))])
        path = tmp_path / "suite.csv"
        path.write_bytes(codecs.BOM_UTF8 + suite_to_csv(suite).encode("utf-8"))
        assert read_suite_csv(path, sys_).cases == suite.cases

    def test_byte_offset_of_a_bad_byte_counts_the_mark(self, tmp_path):
        path = tmp_path / "m.model"
        path.write_bytes(codecs.BOM_UTF8 + b"A: a0, a1\n\xff\n")
        with pytest.raises(ParseError, match="byte 13"):
            load_model(path)


def _text_io_calls_without_encoding(tree):
    """``function:line`` of each read_text, write_text or text-mode open call
    in ``tree`` that names no encoding."""
    owner = {}  # call -> innermost enclosing function; ast.walk goes outer first
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                owner[node] = func.name
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
        if name not in ("read_text", "write_text", "open"):
            continue
        if any(k.arg == "encoding" for k in node.keywords):
            continue
        if name == "open":
            # open(file, mode) or path.open(mode); the default mode is text
            modes = [k.value for k in node.keywords if k.arg == "mode"]
            modes += node.args[1:2] if isinstance(f, ast.Name) else node.args[:1]
            mode = modes[0] if modes else ast.Constant("r")
            if isinstance(mode, ast.Constant) and "b" in str(mode.value):
                continue
        found.append(f"{owner.get(node, '<module>')}:{node.lineno}")
    return found


def test_every_text_file_call_names_its_encoding():
    # without an encoding, Python reads and writes in the locale's encoding,
    # so the same model or suite would read or write differently by machine
    src = Path(paircover.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.stem}.{where}" for where in _text_io_calls_without_encoding(tree)]
    assert not found, found


def test_the_encoding_guard_sees_each_form():
    code = """
def f(p):
    open(p)
    open(p, "w")
    open(p, "rb")
    open(p, mode="w", encoding="utf-8")
    p.open("w")
    p.open("wb")
    p.read_text()
    p.write_text("x", encoding="utf-8")
"""
    assert _text_io_calls_without_encoding(ast.parse(code)) == ["f:3", "f:4", "f:7", "f:9"]
