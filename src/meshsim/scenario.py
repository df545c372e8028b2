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

The package ships reference scenarios (``line3``, ``indoor10``,
``outdoor10``); ``load_scenario`` accepts either a file path or one of those
names.
"""

from __future__ import annotations

from dataclasses import MISSING, fields
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Callable, Iterator, Optional, Union

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


def content_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, line) for every line left once ``#`` comments are cut."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#")[0].strip()
        if line:
            yield lineno, line


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


def read_setting(keys: dict, line: str, lineno: int, values: dict, where: dict) -> None:
    """Read one ``key = value`` line into ``values``; a ValueError names the key.

    ``where`` keeps the ``(line, key, text)`` that set each field: a field may
    be set only once, and later checks name that line and quote its text.
    """
    key, eq, text = (part.strip() for part in line.partition("="))
    if not eq:
        raise ValueError("expected key = value")
    if key not in keys:
        raise ValueError(f"unknown key {key}")
    name, parse, rule = keys[key]
    if name in where:
        raise ValueError(f"{key}: already set on line {where[name][0]}")
    try:
        values[name] = parse(text)
    except ConfigError as exc:
        raise ValueError(f"{key}: {exc}") from None
    except (KeyError, OSError, ValueError):
        raise ValueError(f"{key}: {rule}, got {text!r}") from None
    where[name] = (lineno, key, text)


def build(cls, values: dict, where: dict, error: type[Exception]):
    """``cls(**values)``, once no required field is missing and every check passes."""
    for f in fields(cls):
        if f.name not in values and f.default is MISSING and f.default_factory is MISSING:
            raise error(f"{f.name}: missing")
    obj = cls(**values)
    check_fields(obj, error, where)
    return obj


def _read_row(header: str, line: str) -> tuple:
    _, layout, row_type, parsers = _SECTIONS[header]
    parts = line.split()
    try:
        if len(parts) == len(parsers):
            return row_type(*(parse(part) for parse, part in zip(parsers, parts)))
    except ValueError:
        pass
    raise ValueError(f"{header[1:-1]}: rows are `{layout}`, got {line!r}")


def parse_scenario(text: str, name: str = "") -> ScenarioConfig:
    keys = file_keys(ScenarioConfig)
    values: dict = {"name": name, "topology": []}
    where: dict = {}
    header = None
    for lineno, line in content_lines(text):
        try:
            if line.startswith("["):
                if line not in _SECTIONS:
                    raise ValueError(f"unknown section {line}")
                header, field_name = line, _SECTIONS[line][0]
                if field_name in where:
                    raise ValueError(f"{header}: already opened on line {where[field_name][0]}")
                where[field_name] = (lineno, header[1:-1], line)
                values[field_name] = []
            elif header is None:
                read_setting(keys, line, lineno, values, where)
            else:
                values[field_name].append(_read_row(header, line))
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
    values["mobility"] = values.get("mobility") or None
    return build(ScenarioConfig, values, where, ConfigError)


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
        if text:
            lines.append(f"{key} = {text}")
    for header, (name, *_) in _SECTIONS.items():
        rows = getattr(config, name)
        if rows:
            lines += ["", header] + [" ".join(_text(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def read_source(source: Union[str, Path], what: str, builtins: tuple[str, ...],
                resource: str, error: type[Exception]) -> tuple[str, Optional[Path], str]:
    """``(text, path, name)`` of a file path, or of a built-in name (path None).

    ``resource`` is the packaged file of a built-in, with ``{}`` for its name;
    anything else raises ``error("<what> not found: <source>")``.
    """
    path = Path(source)
    if path.is_file():
        return path.read_text(), path, path.stem
    name = str(source)
    if name in builtins:
        text = resources.files("meshsim").joinpath(resource.format(name)).read_text()
        return text, None, name
    raise error(f"{what} not found: {source}")


def load_scenario(source: Union[str, Path]) -> ScenarioConfig:
    """Load a scenario from a path, or by built-in name (``line3``, ...)."""
    text, _, name = read_source(source, "scenario", BUILTIN_SCENARIOS, "scenarios/{}.scn",
                                ConfigError)
    return parse_scenario(text, name=name)
