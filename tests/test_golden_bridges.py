"""Byte-exact `sfc ltl` / `sfc sd` outputs.

The files under golden/bridges/ pin what the two bridges print: formula
truth values at several positions, sampled comparisons against a regex,
least synchronization delays (including the not-a-prefix-code error on
stderr) and expression validation.  `*.out` holds stdout of a call that
exits 0, `*.err` holds stderr of a call that exits 2.  They change only
when a bridge is meant to change its output; to rewrite them, run this
module as a script:

    PYTHONPATH=src python tests/test_golden_bridges.py
"""

import contextlib
import io
from pathlib import Path

import pytest

from sfclosure.cli import main

GOLDEN = Path(__file__).parent / "golden" / "bridges"


def _eval(formula: str, word: str, position: int) -> list[str]:
    return ["ltl", "eval", "--formula", str(GOLDEN / formula), "--word", word,
            "--position", str(position), "--alphabet", "ab"]


def _compare(formula: str, lang: str, maxlen: int = 8, alphabet: str = "ab") -> list[str]:
    return ["ltl", "compare", "--formula", str(GOLDEN / formula), "--lang", lang,
            "--alphabet", alphabet, "--maxlen", str(maxlen)]


# name -> (argv, exit status)
CASES = {
    **{f"eval-readme-abab-{i}": (_eval("readme.ltl", "abab", i), 0) for i in (0, 1, 2, 5)},
    "eval-readme-abba-0": (_eval("readme.ltl", "abba", 0), 0),
    "eval-readme-empty-0": (_eval("readme.ltl", "", 0), 0),
    **{f"eval-pair-star-aabbaa-{i}": (_eval("pair-star.ltl", "aabbaa", i), 0)
       for i in (0, 2, 7)},
    "eval-pair-star-aab-0": (_eval("pair-star.ltl", "aab", 0), 0),
    **{f"eval-since-baab-{i}": (_eval("since.ltl", "baab", i), 0) for i in range(6)},
    "compare-readme": (_compare("readme.ltl", "(ab)*"), 0),
    "compare-readme-shifted": (_compare("readme.ltl", "(ab)*+a(ba)*"), 0),
    "compare-pair-star": (_compare("pair-star.ltl", "(aa+bb)*"), 0),
    "compare-since": (_compare("since.ltl", "~%b~%"), 0),
    # longer and denser comparisons: a near miss with many mismatches, a
    # longer sample, and a three-letter alphabet
    "compare-pair-star-near-miss-12": (_compare("pair-star.ltl", "(aa+ab)*", 12), 0),
    "compare-since-11": (_compare("since.ltl", "~%b~%", 11), 0),
    "compare-pair-star-abc-7": (_compare("pair-star.ltl", "(aa+bb+cc)*", 7, "abc"), 0),
    "delay-two": (["sd", "delay", "(aab)*ab", "--alphabet", "ab"], 0),
    "delay-one": (["sd", "delay", "(bb)*aa(aa)*bb", "--alphabet", "ab"], 0),
    "delay-none": (["sd", "delay", "aa", "--alphabet", "a", "--dmax", "4"], 0),
    "delay-not-a-prefix-code": (["sd", "delay", "a+aa", "--alphabet", "a"], 2),
    # codes whose dead state leaves k+ (a+b, aa+ab+b) or takes another
    # number in it (a+baab), and a star over the last one
    "delay-letters": (["sd", "delay", "a+b", "--alphabet", "ab"], 0),
    "delay-none-dead-leaves": (["sd", "delay", "aa+ab+b", "--alphabet", "ab"], 0),
    "delay-none-dead-moves": (["sd", "delay", "a+baab", "--alphabet", "ab"], 0),
    "validate-readme": (["sd", "validate", str(GOLDEN / "readme.sd"), "--alphabet", "ab"], 0),
    "validate-square": (["sd", "validate", str(GOLDEN / "square.sd"), "--alphabet", "a"], 0),
    "validate-dead-moves": (
        ["sd", "validate", str(GOLDEN / "dead-moves.sd"), "--alphabet", "ab"], 0),
}


def golden_path(case: str) -> Path:
    _, status = CASES[case]
    return GOLDEN / f"{case}.{'out' if status == 0 else 'err'}"


@pytest.mark.parametrize("case", sorted(CASES))
def test_bridge_bytes(capsys, case):
    argv, expected_status = CASES[case]
    status = main(argv)
    captured = capsys.readouterr()
    assert status == expected_status, captured.err
    text = captured.out if status == 0 else captured.err
    assert text.encode() == golden_path(case).read_bytes()


def regenerate() -> None:
    for case in sorted(CASES):
        argv, expected_status = CASES[case]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(argv)
        if status != expected_status:
            raise SystemExit(f"{case}: exit {status}")
        text = out.getvalue() if status == 0 else err.getvalue()
        golden_path(case).write_bytes(text.encode())


if __name__ == "__main__":
    regenerate()
