"""File formats: model text, suite CSV, PICT import, report JSON.

Model grammar, one declaration per line::

    # comment
    Modulation: QPSK, 16-QAM, 64-QAM, 256-QAM
    Bandwidth: 20 MHz, 50 MHz, 100 MHz, 200 MHz
    AVOID: Modulation=QPSK, Bandwidth=200 MHz
    MUST: Modulation=256-QAM, Bandwidth=200 MHz

``AVOID:`` lines forbid the value combination from appearing in any case;
``MUST:`` lines require some case to contain the whole combination.  The
keywords are uppercase and reserved as factor names.  Names are
case-sensitive and may contain spaces; they cannot contain ``,``, ``=``,
``:`` or newlines.  Constraints may appear anywhere; they are resolved
after the whole file is read.

Suites travel as CSV with one column per factor (header row = factor
names, in model order) and level names as cell values.
"""

from __future__ import annotations

import csv
import io as _io
import json
from pathlib import Path

from .core import (
    ConstraintSet,
    Factor,
    FactorSystem,
    ParseError,
    PartialAssignment,
    StructureError,
    TestCase,
    TestSuite,
)

_RESERVED = ("AVOID", "MUST")
_FORBIDDEN_CHARS = ",=:\n"


def _check_name(name: str, what: str, line: int) -> str:
    if not name:
        raise ParseError(f"empty {what} name", line)
    if any(ch in name for ch in _FORBIDDEN_CHARS):
        raise ParseError(f"{what} name {name!r} contains a reserved character", line)
    return name


def _parse_picks(
    body: str, system: FactorSystem, line: int
) -> PartialAssignment:
    picks = []
    for chunk in body.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise ParseError("empty pick", line)
        if "=" not in chunk:
            raise ParseError(f"pick {chunk!r} is not Factor=Level", line)
        fname, lname = (s.strip() for s in chunk.split("=", 1))
        try:
            f = system.factor_index(fname)
            v = system.level_index(f, lname)
        except StructureError as e:
            raise ParseError(str(e), line) from None
        picks.append((f, v))
    try:
        return PartialAssignment(tuple(picks))
    except StructureError as e:
        raise ParseError(str(e), line) from None


def _parse_factor(line: str, ln: int, seen: set[str], level) -> Factor:
    """The factor of a ``Name: level, ...`` line; ``level`` cleans each level."""
    if ":" not in line:
        raise ParseError(f"expected 'Name: level, ...' but got {line!r}", ln)
    name, rest = (s.strip() for s in line.split(":", 1))
    _check_name(name, "factor", ln)
    if name in seen:
        raise ParseError(f"duplicate factor {name!r}", ln)
    seen.add(name)
    levels = tuple(level(s) for s in rest.split(","))
    for lv in levels:
        _check_name(lv, "level", ln)
    try:
        return Factor(name, levels)
    except StructureError as e:
        raise ParseError(str(e), ln) from None


def parse_model(text: str) -> tuple[FactorSystem, ConstraintSet]:
    """Parse the model grammar above into a system and its constraints."""
    factors: list[Factor] = []
    seen: set[str] = set()
    avoid_lines: list[tuple[int, str]] = []
    must_lines: list[tuple[int, str]] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("AVOID:"):
            avoid_lines.append((ln, line[len("AVOID:") :]))
            continue
        if line.startswith("MUST:"):
            must_lines.append((ln, line[len("MUST:") :]))
            continue
        name = line.split(":", 1)[0].strip()
        if ":" in line and name in _RESERVED:
            raise ParseError(f"factor name {name!r} is reserved", ln)
        factors.append(_parse_factor(line, ln, seen, str.strip))

    if len(factors) < 2:
        raise ParseError(f"model defines {len(factors)} factors, need at least 2")
    system = FactorSystem(tuple(factors))

    avoid = tuple(_parse_picks(body, system, ln) for ln, body in avoid_lines)
    must = []
    for ln, body in must_lines:
        mu = _parse_picks(body, system, ln)
        for av in avoid:
            if mu.extends(av):
                raise ParseError(
                    "MUST combination contains an AVOID combination, "
                    "so no valid case can ever satisfy it",
                    ln,
                )
        must.append(mu)
    return system, ConstraintSet(avoid=avoid, must=tuple(must))


def _read_text(path) -> str:
    try:
        # drop a byte-order mark after decoding, so error offsets count from byte 0
        return Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as e:
        raise ParseError(f"{path} is not UTF-8 text (byte {e.start})") from None


def load_model(path) -> tuple[FactorSystem, ConstraintSet]:
    return parse_model(_read_text(path))


def suite_to_csv(suite: TestSuite) -> str:
    buf = _io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(f.name for f in suite.system.factors)
    for tc in suite:
        w.writerow(tc.decode(suite.system))
    return buf.getvalue()


def suite_from_csv(text: str, system: FactorSystem) -> TestSuite:
    reader = csv.reader(_io.StringIO(text))
    # each non-blank row with the number of the line it ends on
    rows = [(reader.line_num, r) for r in reader if any(cell.strip() for cell in r)]
    if not rows:
        raise ParseError("suite CSV has no header row")
    (head_ln, head), *body = rows
    header = [c.strip() for c in head]
    want = [f.name for f in system.factors]
    if header != want:
        raise ParseError(
            f"suite header {header} does not match the model's factors {want}", head_ln
        )
    suite = TestSuite(system)
    for ln, row in body:
        if len(row) != system.n_factors:
            raise ParseError(
                f"row has {len(row)} cells, expected {system.n_factors}", ln
            )
        try:
            levels = tuple(
                system.level_index(i, cell.strip()) for i, cell in enumerate(row)
            )
        except StructureError as e:
            raise ParseError(str(e), ln) from None
        suite.append(TestCase(levels))
    return suite


def write_suite_csv(path, suite: TestSuite) -> None:
    Path(path).write_text(suite_to_csv(suite), encoding="utf-8")


def read_suite_csv(path, system: FactorSystem) -> TestSuite:
    return suite_from_csv(_read_text(path), system)


def _strip_pict_weight(token: str) -> str:
    token = token.strip()
    if token.endswith(")") and "(" in token:
        head, _, tail = token.rpartition("(")
        if tail[:-1].strip().isdigit():
            return head.strip()
    return token


def parse_pict(text: str) -> tuple[FactorSystem, ConstraintSet]:
    """Import a PICT-style parameter file.

    Only the parameter section is supported: ``Name: v1, v2 (weight), ...``
    with ``#`` comments.  Value weights are dropped.  PICT's constraint
    language (IF/THEN, submodels) has no counterpart here and such files
    are rejected; translate the conditions into AVOID lines instead.
    """
    factors: list[Factor] = []
    seen: set[str] = set()
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.upper().startswith("IF ") or line.startswith("{") or line.startswith("["):
            raise ParseError(
                "PICT constraint/submodel syntax is not supported; "
                "express the rule as AVOID/MUST lines in the native format",
                ln,
            )
        factors.append(_parse_factor(line, ln, seen, _strip_pict_weight))
    if len(factors) < 2:
        raise ParseError(f"PICT file defines {len(factors)} factors, need at least 2")
    return FactorSystem(tuple(factors)), ConstraintSet()


def load_pict(path) -> tuple[FactorSystem, ConstraintSet]:
    return parse_pict(_read_text(path))


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


def write_report(path, report) -> None:
    Path(path).write_text(report_to_json(report), encoding="utf-8")
