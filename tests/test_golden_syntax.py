"""Byte-exact outputs of the three input languages' parsers.

The files under golden/syntax/ pin what `sfc regex`, `sfc sd validate` and
`sfc ltl eval` print for malformed regexes, SD expressions and temporal
formulas: the offset and message of every syntax error, including the
nesting bounds, and the DFAs of a few valid regexes written with blanks.
`*.out` holds stdout of a call that exits 0, `*.err` holds stderr of a
call that exits 2.  Expression and formula texts are written to a
temporary file before each call.  To rewrite the files, run this module
as a script:

    PYTHONPATH=src python tests/test_golden_syntax.py
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest

from sfclosure.cli import main

GOLDEN = Path(__file__).parent / "golden" / "syntax"

DEEP = 101


def _regex(pattern: str) -> tuple[str, str | None, list[str]]:
    return ("regex", None, ["regex", "--alphabet", "ab", "--", pattern])


def _sd(text: str) -> tuple[str, str | None, list[str]]:
    return ("sd", text, ["sd", "validate", "{file}", "--alphabet", "ab"])


def _ltl(text: str) -> tuple[str, str | None, list[str]]:
    return ("ltl", text, ["ltl", "eval", "--formula", "{file}", "--word", "ab",
                          "--alphabet", "ab"])


# name -> ((kind, file text or None, argv), exit status)
CASES = {
    "regex-unclosed": (_regex("(ab"), 2),
    "regex-stray-close": (_regex(")"), 2),
    "regex-foreign-letter": (_regex("c"), 2),
    "regex-dangling-complement": (_regex("a ~ "), 2),
    "regex-deep-parentheses": (_regex("(" * DEEP + "a" + ")" * DEEP), 2),
    "regex-deep-complements": (_regex("~" * DEEP + "a"), 2),
    "regex-deep-stars": (_regex("a" + "*" * DEEP), 2),
    "regex-blanks-star": (_regex(" ( a b ) * "), 0),
    "regex-blanks-operators": (_regex("a + b & ~ %\t"), 0),
    "regex-blanks-epsilon": (_regex("( a * b ) * + _ "), 0),
    "regex-blanks-empty": (_regex("  "), 0),
    "sd-unterminated-pattern": (_sd('capC(a, "ab)'), 2),
    "sd-star-key": (_sd("star(a, e=1)"), 2),
    "sd-star-bound": (_sd("star(a, d=)"), 2),
    "sd-deep-uconcat": (_sd("uconcat(a, " * DEEP + "b" + ")" * DEEP), 2),
    "sd-trailing": (_sd("a b"), 2),
    "sd-unknown-name": (_sd("frob(a, b)"), 2),
    "sd-missing-comma": (_sd("dunion(a b)"), 2),
    "sd-blank-file": (_sd(" \n"), 2),
    "sd-bad-pattern": (_sd('capC(a, "(a")'), 2),
    "sd-blanks": (_sd(' dunion ( a ,\n capC( b , " ~ % " ) ) \n'), 0),
    "ltl-foreign-bound-letter": (_ltl("F[c](max)"), 2),
    "ltl-unclosed-bound-regex": (_ltl("F[(ab](max)"), 2),
    "ltl-unterminated-bound": (_ltl("F[ab(max)"), 2),
    "ltl-trailing": (_ltl("a b"), 2),
    "ltl-deep-negation": (_ltl("!" * DEEP + "a"), 2),
    "ltl-missing-argument": (_ltl("U(a, "), 2),
    "ltl-unclosed-next": (_ltl("X(a"), 2),
    "ltl-blanks": (_ltl(" F [ a b ] ( max ) & ! b \n"), 0),
}


def golden_path(case: str) -> Path:
    _, status = CASES[case]
    return GOLDEN / f"{case}.{'out' if status == 0 else 'err'}"


def run_case(case: str, directory: Path) -> tuple[int, str, str]:
    (kind, text, argv), _ = CASES[case]
    if text is not None:
        path = directory / f"{case}.{kind}"
        path.write_text(text, encoding="utf-8")
        argv = [str(path) if arg == "{file}" else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    return status, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("case", sorted(CASES))
def test_syntax_bytes(tmp_path, case):
    status, out, err = run_case(case, tmp_path)
    _, expected_status = CASES[case]
    assert status == expected_status, err
    text = out if status == 0 else err
    assert text.encode() == golden_path(case).read_bytes()


def regenerate() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for case in sorted(CASES):
            status, out, err = run_case(case, Path(scratch))
            if status != CASES[case][1]:
                raise SystemExit(f"{case}: exit {status}")
            golden_path(case).write_bytes((out if status == 0 else err).encode())


if __name__ == "__main__":
    regenerate()
