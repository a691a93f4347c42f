"""Runtime limits and switches.

All caps guard against blowup on adversarial inputs; none of them
change answers on inputs that stay below the cap.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .errors import InputError


@dataclass(frozen=True)
class Config:
    # largest syntactic monoid we will materialize
    monoid_cap: int = 4096
    # largest monoid whose powerset semiring we will build
    powerset_cap: int = 16
    # largest set-valued monoid the gr and amt group steps of covering
    # tabulate; the mod group step builds none
    powerset2_cap: int = 16
    # the amt kernel walks (element, R-classes entered, residue in Z^|A|)
    # states, so its cost grows with the image and with the alphabet
    amt_alphabet_cap: int = 3
    amt_monoid_cap: int = 10
    # default search bound for synchronization delays
    delay_dmax: int = 8
    # emit fixpoint traces from the covering solvers
    trace: bool = False


DEFAULT = Config()

_INT_KEYS = {f.name for f in dataclasses.fields(Config) if type(f.default) is int}
_BOOL_KEYS = {f.name for f in dataclasses.fields(Config) if type(f.default) is bool}


def parse_config(text: str) -> Config:
    """Parse ``key = value`` lines; '#' starts a comment."""
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key in _INT_KEYS:
            try:
                values[key] = int(val)
            except ValueError:
                raise InputError(f"config line {lineno}: {key} needs an integer") from None
        elif key in _BOOL_KEYS:
            if val not in ("true", "false"):
                raise InputError(f"config line {lineno}: {key} needs true or false")
            values[key] = val == "true"
        else:
            raise InputError(f"config line {lineno}: unknown key {key!r}")
    cfg = Config(**values)  # type: ignore[arg-type]
    for field in dataclasses.fields(Config):
        if field.name in _INT_KEYS and getattr(cfg, field.name) < 1:
            raise InputError(f"config: {field.name} must be positive")
    return cfg


def load_config(path: str) -> Config:
    try:
        with open(path, encoding="utf-8") as handle:
            return parse_config(handle.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read config {path}: {exc}") from exc
