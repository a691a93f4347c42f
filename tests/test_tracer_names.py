"""The benchmark tracer rebinds library functions by name, so a rename in
sfclosure must fail here rather than crash a traced benchmark run."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_tracer", Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
)
_tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_tracer)

_TRACED = [
    (module, name, only or [])
    for groups in _tracer.LAYERS.values()
    for module, names, only in groups
    for name in names
]


@pytest.mark.parametrize(
    "module, name, only", _TRACED, ids=[f"{m}.{n}" for m, n, _ in _TRACED]
)
def test_traced_name_is_a_library_function(module, name, only):
    home = importlib.import_module(f"sfclosure.{module}")
    assert callable(getattr(home, name, None))
    for caller in only:
        importlib.import_module(f"sfclosure.{caller}")
