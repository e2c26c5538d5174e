"""Run configuration: flat key=value files over SimConfig's defaults.

The configuration file is plain text, one `key = value` per line, `#` starts a
comment. CLI flags override file values. The keys, their types and defaults
are SimConfig's fields; unknown keys are rejected so sweeps and overrides
cannot silently misspell a parameter.
"""

from __future__ import annotations

from dataclasses import fields
from pathlib import Path

from .engine import SimConfig

__all__ = ["DEFAULTS", "parse_config_file", "set_key"]

DEFAULTS: dict[str, object] = {f.name: f.default for f in fields(SimConfig)}


def _coerce(key: str, raw: str):
    """Parse a value with the type of the key's default."""
    kind = type(DEFAULTS[key])
    try:
        return kind(raw.strip().lower()) if kind is str else kind(raw)
    except ValueError:
        raise ValueError(f"{key}: expected {kind.__name__}, "
                         f"got {raw!r}") from None


def parse_config_file(path: str | Path) -> dict[str, object]:
    """Read a flat key=value config file on top of the defaults.

    The result must describe a valid run on its own (see SimConfig).
    """
    cfg = dict(DEFAULTS)
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in DEFAULTS:
            raise KeyError(f"{path}:{lineno}: unknown configuration key {key!r}")
        cfg[key] = _coerce(key, raw)
    SimConfig(**cfg)
    return cfg


def set_key(cfg: dict[str, object], key: str, value) -> dict[str, object]:
    """Return a copy of cfg with one key overridden (string values parsed)."""
    if key not in DEFAULTS:
        raise KeyError(f"unknown configuration key {key!r}")
    out = dict(cfg)
    out[key] = _coerce(key, value) if isinstance(value, str) else value
    return out
