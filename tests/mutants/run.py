"""Run the mutant catalogue: each mutant is one source edit that the named
tests must catch.

    python3 tests/mutants/run.py [ID ...]

With no ID the runner takes every entry of catalogue.json; with IDs it
takes only the named entries, and an unknown ID exits 2 with the list of
known IDs.  For each entry taken the runner copies src/, tests/ and
pyproject.toml to a temporary directory, so that pyproject's
`pythonpath = ["src"]` resolves to the copy.  It replaces the entry's
`find` snippet with its `replace` text in `file` and runs only the entry's
test node ids there.  A mutant is killed when those tests fail, survived
when they pass, and stale when the snippet does not occur exactly once.
The named tests first run once on an unmutated copy, where they must pass,
so a mistyped node id cannot read as a kill.  The exit status is 1 when a
mutant survived or is stale.  This is not part of the test suite, because
each mutant runs tests.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
CATALOGUE = Path(__file__).with_name("catalogue.json")


def copy_checkout(into: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, into / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", into)


def tests_pass(workdir: Path, node_ids: list[str]) -> bool:
    env = {**os.environ, "PYTHONPATH": str(workdir / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *node_ids]
    return subprocess.run(command, cwd=workdir, env=env, capture_output=True).returncode == 0


def verdict(entry: dict) -> str:
    """killed, survived or stale, for one catalogue entry."""
    with tempfile.TemporaryDirectory(prefix="sfc-mutant-") as tmp:
        workdir = Path(tmp)
        copy_checkout(workdir)
        path = workdir / entry["file"]
        text = path.read_text(encoding="utf-8")
        if text.count(entry["find"]) != 1:
            return "stale"
        path.write_text(text.replace(entry["find"], entry["replace"]), encoding="utf-8")
        return "survived" if tests_pass(workdir, entry["tests"]) else "killed"


def main(ids: list[str]) -> int:
    entries = json.loads(CATALOGUE.read_text(encoding="utf-8"))
    known = [entry["id"] for entry in entries]
    unknown = [name for name in ids if name not in known]
    if unknown:
        print("unknown mutant id:", *unknown, file=sys.stderr)
        print("known ids:", *known, sep="\n  ", file=sys.stderr)
        return 2
    if ids:
        entries = [entry for entry in entries if entry["id"] in ids]
    node_ids = sorted({node for entry in entries for node in entry["tests"]})
    with tempfile.TemporaryDirectory(prefix="sfc-mutant-") as tmp:
        copy_checkout(Path(tmp))
        if not tests_pass(Path(tmp), node_ids):
            print("the named tests fail without a mutant:", *node_ids, sep="\n  ")
            return 2
    counts: dict[str, int] = {}
    for entry in entries:
        result = verdict(entry)
        counts[result] = counts.get(result, 0) + 1
        print(f"{result:8} {entry['id']}", flush=True)
    print(", ".join(f"{n} {name}" for name, n in sorted(counts.items())))
    return 1 if counts.keys() - {"killed"} else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
