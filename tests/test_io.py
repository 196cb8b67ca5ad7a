import json

import pytest

from paircover.bench import make_bbu, make_system
from paircover.core import ConstraintSet, ParseError, PartialAssignment, TestCase, TestSuite
from paircover.io import (
    format_model,
    load_model,
    parse_model,
    parse_pict,
    report_to_json,
    save_model,
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

    def test_round_trip(self):
        system, cs = parse_model(BBU_TEXT)
        again, cs2 = parse_model(format_model(system, cs))
        assert again == system
        assert cs2 == cs

    def test_error_line_numbers(self):
        bad = "A: x, y\nB: p, q\nAVOID: A=nope\n"
        with pytest.raises(ParseError) as exc:
            parse_model(bad)
        assert exc.value.line == 3

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
        save_model(path, system, cs)
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
        assert back.to_array().tolist() == suite.to_array().tolist()

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

    def test_file_round_trip(self, tmp_path):
        sys_ = make_system([2, 3])
        suite = TestSuite(sys_, [TestCase((1, 2)), TestCase((0, 0))])
        path = tmp_path / "suite.csv"
        write_suite_csv(path, suite)
        back = read_suite_csv(path, sys_)
        assert back.to_array().tolist() == suite.to_array().tolist()


class TestPict:
    def test_basic_import(self):
        text = "# browsers\nType:     Primary, Secondary\nOS: Win, Mac, Linux\n"
        system, cs = parse_pict(text)
        assert system.n_factors == 2
        assert system.factors[1].level_names == ("Win", "Mac", "Linux")
        assert cs.is_empty

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

    def test_submodel_rejected(self):
        with pytest.raises(ParseError):
            parse_pict("A: x, y\nB: p, q\n{ A, B } @ 2\n")


class TestReportJson:
    def test_dataclass_report(self, tmp_path):
        from paircover.pipeline import run_pipeline

        sys_ = make_system([2, 2])
        suite, report = run_pipeline(sys_, ConstraintSet())
        text = report_to_json(report)
        data = json.loads(text)
        assert data["final_size"] == len(suite)
        assert data["universe_size"] == 4
        path = tmp_path / "report.json"
        write_report(path, report)
        assert json.loads(path.read_text()) == data

    def test_plain_dict(self):
        assert json.loads(report_to_json({"a": 1})) == {"a": 1}
