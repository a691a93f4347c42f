"""Byte-exact `sfc separate` / `sfc cover --trace` outputs.

The files under golden/cover/ pin the answer, opt_size, rounds and the
whole saturation trace for st, mod and gr, and for two finite classes
given by morphism files: the first letter (`a~%`, three elements, all
idempotent) and the length parity (`(aa+ab+ba+bb)*`, whose non-identity
element is not idempotent, so the jump skips it).  They change only when the
covering engine is meant to change its output; to rewrite them, run
this module as a script:

    PYTHONPATH=src python tests/test_golden_cover.py
"""

import contextlib
import io
from pathlib import Path

import pytest

from sfclosure.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cover"
WIDE = str(GOLDEN / "wide.conf")

CASES = {
    "parity": ["separate", "(aa)*", "a(aa)*", "--alphabet", "a"],
    "ab-star": ["separate", "(ab)*", "~((ab)*)", "--alphabet", "ab"],
    "mod-three": ["cover", "(aa)*", "a(aa)*", "aa(aa)*", "--alphabet", "a"],
    "aab-star": ["separate", "(aab)*ab", "~((aab)*ab)", "--alphabet", "ab",
                 "--config", WIDE],
    "three-way": ["cover", "~%ab~%", "(aa)*", "(ab+ba)*", "--alphabet", "ab",
                  "--config", WIDE],
    "four-way": ["cover", "(aab)*ab", "(aa+bb)*", "(ab+ba)*", "~%aab~%",
                 "--alphabet", "ab", "--config", WIDE],
}
CLASSES = {
    "st": "st",
    "mod": "mod",
    "gr": "gr",
    "starts-a": "finite:" + str(GOLDEN / "eta-starts-a.json"),
    "even-length": "finite:" + str(GOLDEN / "eta-even-length.json"),
}
RUNS = [(case, cls) for case in sorted(CASES) for cls in ("gr", "mod", "st")] + [
    (case, cls) for case in ("ab-star", "three-way") for cls in ("even-length", "starts-a")
]


def argv_of(case: str, cls: str) -> list[str]:
    return [*CASES[case], "--class", CLASSES[cls], "--trace"]


def golden_path(case: str, cls: str) -> Path:
    return GOLDEN / f"{case}.{cls}.json"


@pytest.mark.parametrize(("case", "cls"), RUNS)
def test_cover_trace_bytes(capsys, case, cls):
    status = main(argv_of(case, cls))
    captured = capsys.readouterr()
    assert status == 0, captured.err
    assert captured.out.encode() == golden_path(case, cls).read_bytes()


def regenerate() -> None:
    for case, cls in RUNS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = main(argv_of(case, cls))
        if status != 0:
            raise SystemExit(f"{case} {cls}: exit {status}")
        golden_path(case, cls).write_bytes(out.getvalue().encode())


if __name__ == "__main__":
    regenerate()
