"""The mutant catalogue stays runnable: every entry's `find` snippet occurs
exactly once in its file, and every test it names exists.

This runs no mutant and no named test; `python3 tests/mutants/run.py`
does that.  It only catches an entry gone stale by an edit to the code
or to the tests, at the cost of parsing a few files.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ENTRIES = json.loads((ROOT / "tests" / "mutants" / "catalogue.json").read_text(encoding="utf-8"))


def defines(path: Path, names: list[str]) -> bool:
    """Whether the module at `path` defines the class and function chain `names`."""
    body = ast.parse(path.read_text(encoding="utf-8")).body
    for name in names:
        node = next((n for n in body if getattr(n, "name", None) == name), None)
        if node is None:
            return False
        body = getattr(node, "body", [])
    return True


@pytest.mark.parametrize("entry", ENTRIES, ids=[entry["id"] for entry in ENTRIES])
def test_catalogue_entry_is_fresh(entry):
    text = (ROOT / entry["file"]).read_text(encoding="utf-8")
    assert text.count(entry["find"]) == 1, f"{entry['id']}: snippet not found exactly once"
    assert entry["tests"]
    for node_id in entry["tests"]:
        path, *names = node_id.split("[")[0].split("::")
        assert (ROOT / path).is_file(), node_id
        assert names and defines(ROOT / path, names), node_id
