"""Scenario files: human-readable key-value header plus a node table.

Example::

    algorithm = btmr
    duration_ms = 20000

    [nodes]
    # id  x     y     role
    0     0.0   0.0   hub
    1     5.0   0.0   commander
    2     10.0  0.0   sensor

    [mobility]
    # t_ms  x     y
    0       0.0   0.0

``read_settings`` reads these files, and plan files, which hold settings
only. The package ships reference scenarios (``line3``, ``indoor10``,
``outdoor10``); ``load_scenario`` accepts either a file path or one of those
names.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, fields
from enum import Enum
from pathlib import Path
from typing import Callable, Optional, Union

from .core import (
    ConfigError,
    NodeSpec,
    Role,
    ScenarioConfig,
    Waypoint,
    check_fields,
)

# section header -> (field, row layout, row type, one parser per column)
_SECTIONS = {
    "[nodes]": ("topology", "id x y role", NodeSpec, (int, float, float, Role)),
    "[mobility]": ("mobility", "t_ms x y", Waypoint, (int, float, float)),
}

BUILTIN_SCENARIOS = ("line3", "indoor10", "outdoor10")


def file_keys(cls) -> dict[str, tuple[str, Callable[[str], object], str]]:
    """File key -> (field name, parser, rule) for every setting of ``cls``."""
    keys = {}
    for f in fields(cls):
        if "parse" in f.metadata:
            keys[f.name] = (f.name, f.metadata["parse"], f.metadata["rule"])
            if f.metadata["alias"]:
                alias, parse = f.metadata["alias"]
                keys[alias] = (f.name, parse, f.metadata["rule"])
    return keys


def _read_row(header: str, line: str) -> tuple:
    _, layout, row_type, parsers = _SECTIONS[header]
    parts = line.split()
    try:
        if len(parts) == len(parsers):
            row = row_type(*(parse(part) for parse, part in zip(parsers, parts)))
            if math.isfinite(row.x) and math.isfinite(row.y):
                return row
    except ValueError:
        pass
    raise ValueError(f"{header[1:-1]}: rows are `{layout}` with finite x and y, got {line!r}")


def read_settings(cls, text: str, error: type[Exception], keys: Optional[dict] = None,
                  **values) -> tuple:
    """``(cls(**values), where)`` read from a settings file.

    The file holds ``key = value`` lines, then the ``_SECTIONS`` tables that
    ``cls`` has fields for; ``#`` starts a comment. ``keys`` maps each file key
    to ``(field, parser, rule)``, by default ``file_keys(cls)``; ``values`` are
    fields set up front. ``where`` keeps the ``(line, key, text)`` that set each
    field: a field may be set only once, and the field checks name that line
    and quote its text. Every problem raises ``error``.
    """
    keys = file_keys(cls) if keys is None else keys
    names = {f.name for f in fields(cls)}
    sections = {header: row[0] for header, row in _SECTIONS.items() if row[0] in names}
    where: dict = {}
    header = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#")[0].strip()
        try:
            if not line:
                continue
            if line.startswith("["):
                if line not in sections:
                    raise ValueError(f"unknown section {line}")
                header, table = line, sections[line]
                if table in where:
                    raise ValueError(f"{header}: already opened on line {where[table][0]}")
                where[table] = (lineno, header[1:-1], line)
            elif header is not None:
                values.setdefault(table, []).append(_read_row(header, line))
            else:
                key, eq, setting = (part.strip() for part in line.partition("="))
                if not eq:
                    raise ValueError("expected key = value")
                if key not in keys:
                    raise ValueError(f"unknown key {key}")
                name, parse, rule = keys[key]
                if name in where:
                    raise ValueError(f"{key}: already set on line {where[name][0]}")
                try:
                    values[name] = parse(setting)
                except ConfigError as exc:
                    raise ValueError(f"{key}: {exc}") from None
                except (KeyError, OSError, ValueError):
                    raise ValueError(f"{key}: {rule}, got {setting!r}") from None
                where[name] = (lineno, key, setting)
        except ValueError as exc:
            raise error(f"line {lineno}: {exc}") from None
    for f in fields(cls):
        if f.name not in values and f.default is MISSING and f.default_factory is MISSING:
            raise error(f"{f.name}: missing")
    obj = cls(**values)
    check_fields(obj, error, where)
    return obj, where


def parse_scenario(text: str) -> ScenarioConfig:
    # rows add to the topology; a [mobility] section without rows leaves mobility unset
    return read_settings(ScenarioConfig, text, ConfigError, topology=[])[0]


def _text(value) -> str:
    """One value as scenario and plan files write it."""
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def dump_scenario(config: ScenarioConfig) -> str:
    """Scenario text that ``parse_scenario`` reads back to an equal config."""
    lines = []
    for f in fields(config):
        if "parse" not in f.metadata:
            continue
        value = getattr(config, f.name)
        text, key = _text(value), f.name
        if f.metadata["alias"] and f.metadata["parse"](text) != value:
            key = f.metadata["alias"][0]  # the spelling that reads the value back
        lines.append(f"{key} = {text}")
    for header, (name, *_) in _SECTIONS.items():
        rows = getattr(config, name)
        if rows:
            lines += ["", header] + [" ".join(_text(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def read_source(source: Union[str, Path], what: str, builtins: tuple[str, ...],
                resource: str, error: type[Exception]) -> tuple[str, Optional[Path]]:
    """``(text, path)`` of a file path, or of a built-in name (path None).

    ``resource`` is the packaged file of a built-in, with ``{}`` for its name;
    anything else raises ``error("<what> not found: <source>")``. A file that
    is not UTF-8 text raises ``error`` naming the line of its first bad byte.
    A leading byte-order mark is dropped once decoded, so byte offsets still
    count from the start of the file.
    """
    path = Path(source)
    if path.is_file():
        data = path.read_bytes()
        try:
            return data.decode().removeprefix("\ufeff"), path
        except UnicodeDecodeError as exc:
            lineno = data.count(b"\n", 0, exc.start) + 1
            raise error(f"line {lineno}: byte 0x{data[exc.start]:02x} is not UTF-8 text") from None
    if str(source) in builtins:
        from importlib import resources  # here, not at the top: only a built-in name reads it
        return resources.files("meshsim").joinpath(resource.format(source)).read_text(), None
    raise error(f"{what} not found: {source}")


def load_scenario(source: Union[str, Path]) -> ScenarioConfig:
    """Load a scenario from a path, or by built-in name (``line3``, ...)."""
    text, _ = read_source(source, "scenario", BUILTIN_SCENARIOS, "scenarios/{}.scn", ConfigError)
    return parse_scenario(text)
