"""Byte-exact `sfc monoid` / `membership` / `kernel` / `orbits` outputs.

The files under golden/monoid/ pin what the monoid layer and the class
oracles print for six languages over {a, b} and one morphism file: the
syntactic morphism (element numbering, table, letter images, accepting
set), membership verdicts for st, mod, amt and gr, the mod/amt/gr
kernels and the st orbits.  Two larger languages (35 and 171 elements,
with gr kernels of 7 and 29) pin the st/mod/gr verdicts, the mod/gr
kernels and the st orbits where the oracles do real work.  `*.out`
holds stdout of a call that exits 0, `*.err` holds stderr of a call
that exits 2 or 3, which includes the monoid cap and the group-step
cap.  They change only when the monoid layer is meant to change its
output; to rewrite them, run this module as a script:

    PYTHONPATH=src python tests/test_golden_monoid.py
"""

import contextlib
import io
from pathlib import Path

import pytest

from sfclosure.cli import main

GOLDEN = Path(__file__).parent / "golden" / "monoid"
S3 = str(GOLDEN / "s3.json")

LANGUAGES = {
    "aab-star-ab": "(aab)*ab",
    "ab-star": "(ab)*",
    "has-a": "~%a~%",
    "pair-star": "(aa+bb)*",
    "even-a": "(aa)*",
    "has-ab": "~%ab~%",
}
AB = ["--alphabet", "ab"]
# larger monoids: 35 and 171 elements
LARGER = {
    "aab-bba-star": "(aab+bba)*",
    "aab-bba-then-abb-baa": "(aab+bba)*(abb+baa)*",
}
# monoids above the default amt_monoid_cap of 10 elements: amt exits 3
AMT_CAPPED = {"aab-star-ab", "pair-star"}


def _status(cls: str, name: str) -> int:
    return 3 if cls == "amt" and name in AMT_CAPPED else 0


# name -> (argv, exit status)
CASES = {
    **{f"monoid-{name}": (["monoid", "--lang", lang, *AB], 0)
       for name, lang in LANGUAGES.items()},
    **{f"membership-{cls}-{name}": (["membership", "--class", cls, "--lang", lang, *AB],
                                    _status(cls, name))
       for name, lang in LANGUAGES.items() for cls in ("st", "mod", "amt", "gr")},
    **{f"kernel-{cls}-{name}": (["kernel", "--class", cls, "--lang", lang, *AB],
                                _status(cls, name))
       for name, lang in LANGUAGES.items() for cls in ("mod", "amt", "gr")},
    **{f"orbits-st-{name}": (["orbits", "--class", "st", "--lang", lang, *AB], 0)
       for name, lang in LANGUAGES.items()},
    **{f"membership-{cls}-{name}": (["membership", "--class", cls, "--lang", lang, *AB], 0)
       for name, lang in LARGER.items() for cls in ("st", "mod", "gr")},
    **{f"kernel-{cls}-{name}": (["kernel", "--class", cls, "--lang", lang, *AB], 0)
       for name, lang in LARGER.items() for cls in ("mod", "gr")},
    **{f"orbits-st-{name}": (["orbits", "--class", "st", "--lang", lang, *AB], 0)
       for name, lang in LARGER.items()},
    **{f"kernel-{cls}-s3": (["kernel", "--class", cls, "--morphism", S3], 0)
       for cls in ("mod", "amt", "gr")},
    "orbits-st-s3": (["orbits", "--class", "st", "--morphism", S3, *AB], 0),
    "monoid-cap": (["monoid", "--lang", "(aa+bb)*", *AB,
                    "--config", str(GOLDEN / "tight-monoid.conf")], 3),
    "membership-st-monoid-cap": (["membership", "--class", "st", "--lang", "(aab)*ab", *AB,
                                  "--config", str(GOLDEN / "tight-monoid.conf")], 3),
    "group-step-cap": (["separate", "--class", "gr", "(aab)*ab", "~((aab)*ab)", *AB,
                        "--config", str(GOLDEN / "tight-group-step.conf")], 3),
}


def golden_path(case: str) -> Path:
    _, status = CASES[case]
    return GOLDEN / f"{case}.{'out' if status == 0 else 'err'}"


@pytest.mark.parametrize("case", sorted(CASES))
def test_monoid_layer_bytes(capsys, case):
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
