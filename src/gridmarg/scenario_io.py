"""Scenario file loading and writing.

A scenario is a single JSON document with sections `config`, `zones`,
`generators`, `storage`, `lines`, `flexible_loads`. The dataclasses in
`grid.py` are the schema: each field of ScenarioConfig, Zone, Generator,
StorageUnit, TransmissionLine and FlexibleLoad is the JSON key of the same
name, `config.cost_multipliers` is an object with the fields of
CostMultipliers, and a field with no default is required. A field's
annotation sets the JSON type it takes:

    str       a string (ids, zones, kind)
    float     a number; an integer reads as a float
    int       an integer: not 3.7, not 3.0, not true
    bool      true or false, not "false" or 0

`null` is accepted only where a field is optional (`... | None`), and
write_scenario emits it for None. Hourly series are not inlined; an array
field is read from a sidecar CSV (header `hour,value`, hour 0-based) that
its key names, resolved relative to the scenario file:

    zones[*].demand_series                 MW
    generators[*].capacity_factor_series   availability fraction in [0, 1]
    flexible_loads[*].baseline_series      MW

An unknown key, a missing required field or a value of the wrong type
raises ParseError naming the file, the field and its owner; the CLI exits 1.
write_scenario emits every field in the same formats, so load(write(grid))
reproduces the grid field-for-field.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path

import numpy as np

from .errors import MissingSeries, ParseError
from .grid import (CostMultipliers, FlexibleLoad, Generator, GridModel,
                   ScenarioConfig, StorageUnit, TransmissionLine, Zone)

# JSON section -> (GridModel field, entity class, the entity's name in messages).
_SECTIONS = {
    "zones": ("zones", Zone, "zone"),
    "generators": ("generators", Generator, "generator"),
    "storage": ("storage_units", StorageUnit, "storage"),
    "lines": ("lines", TransmissionLine, "line"),
    "flexible_loads": ("flexible_loads", FlexibleLoad, "flexible_load"),
}

# Array field -> (JSON key naming its CSV, suffix of the CSV name write_scenario gives it).
_SERIES = {
    "demand": ("demand_series", "demand"),
    "capacity_factor_profile": ("capacity_factor_series", "cf"),
    "baseline_profile": ("baseline_series", "baseline"),
}


def read_series(path: Path) -> np.ndarray:
    """Read an hourly series CSV (`hour,value`), returning values in hour order."""
    if not path.exists():
        raise MissingSeries(f"series file not found: {path}")
    with open(path, newline="") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0].replace(" ", "") != "hour,value":
        raise ParseError(f"{path}: expected header 'hour,value'")
    values: dict[int, float] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(f"{path}:{lineno}: expected 'hour,value', got {line!r}")
        try:
            hour, value = int(parts[0]), float(parts[1])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
        if not math.isfinite(value):
            raise ParseError(f"{path}:{lineno}: value must be finite, got {parts[1].strip()!r}")
        if hour in values:
            raise ParseError(f"{path}:{lineno}: duplicate hour {hour}")
        values[hour] = value
    hours = sorted(values)
    if hours != list(range(len(hours))):
        raise ParseError(f"{path}: hours must be contiguous starting at 0")
    return np.array([values[h] for h in hours], dtype=float)


def _finite_numbers(path: Path):
    """A json object_pairs_hook that rejects NaN and infinite numbers, naming the field.

    json reads the tokens NaN, Infinity and -Infinity, and an overflowing
    literal such as 1e999, as non-finite floats. No scenario field takes
    one; null is the way to say "no limit".
    """
    def hook(pairs: list[tuple[str, object]]) -> dict:
        obj = dict(pairs)
        for key, value in pairs:
            if isinstance(value, float) and not math.isfinite(value):
                owner = f" of {obj['id']!r}" if "id" in obj else ""
                raise ParseError(f"{path}: {key!r}{owner} must be a finite number, got {value}")
        return obj
    return hook


def write_series(path: Path, values: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("hour,value\n")
        for h, v in enumerate(values):
            fh.write(f"{h},{float(v)!r}\n")


class _Mistyped(Exception):
    """A JSON value of the wrong type; the message says what the field takes."""


def _string(value, path: Path, where: str) -> str:
    if not isinstance(value, str):
        raise _Mistyped("a string")
    return value


def _number(value, path: Path, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _Mistyped("a number")
    try:
        return float(value)
    except OverflowError:  # an integer literal beyond the float range
        raise _Mistyped("a finite number") from None


def _integer(value, path: Path, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _Mistyped("an integer")
    return value


def _boolean(value, path: Path, where: str) -> bool:
    if not isinstance(value, bool):
        raise _Mistyped("true or false")
    return value


def _series(value, path: Path, where: str) -> np.ndarray:
    if not isinstance(value, str):
        raise _Mistyped("a series file name")
    return read_series(path.parent / value)


def _cost_multipliers(value, path: Path, where: str) -> CostMultipliers:
    return _read(CostMultipliers, value, path, where)


_CONVERTERS = {"str": _string, "float": _number, "int": _integer, "bool": _boolean,
               "np.ndarray": _series, "CostMultipliers": _cost_multipliers}


def _schema(cls) -> dict:
    """JSON key -> (field name, converter, nullable, required) for each field of cls.

    The annotations are strings (grid.py defers them), so `X | None` is
    read off the text.
    """
    schema = {}
    for f in fields(cls):
        key = _SERIES[f.name][0] if f.name in _SERIES else f.name
        schema[key] = (f.name, _CONVERTERS[f.type.removesuffix(" | None")],
                       f.type.endswith(" | None"),
                       f.default is MISSING and f.default_factory is MISSING)
    return schema


_SCHEMAS = {cls: _schema(cls) for cls in (ScenarioConfig, CostMultipliers,
                                          *(cls for _, cls, _ in _SECTIONS.values()))}


def _read(cls, raw, path: Path, where: str):
    """Build one cls from its JSON object, checking every key against the schema."""
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: {where} must be an object, got {json.dumps(raw)}")
    schema = _SCHEMAS[cls]
    extra = raw.keys() - schema.keys()
    if extra:
        raise ParseError(f"{path}: {where}: unknown field(s) {sorted(extra)}")
    kwargs = {}
    for key, (name, convert, nullable, required) in schema.items():
        if key not in raw:
            if required:
                raise ParseError(f"{path}: {where}: missing required field {key!r}")
            continue
        value = raw[key]
        if value is None and nullable:
            kwargs[name] = None
            continue
        try:
            kwargs[name] = convert(value, path, f"{where}.{key}")
        except _Mistyped as exc:
            raise ParseError(f"{path}: {key!r} of {where} must be {exc}, "
                             f"got {json.dumps(value)}") from None
    return cls(**kwargs)


def _owner(section: str, index: int, entry) -> str:
    """How messages name an entity: `generator 'coal_a'`, or `generators[3]` without an id."""
    entity_id = entry.get("id") if isinstance(entry, dict) else None
    if isinstance(entity_id, str):
        return f"{_SECTIONS[section][2]} {entity_id!r}"
    return f"{section}[{index}]"


def load_scenario(path) -> GridModel:
    """Load and fully validate a scenario file plus its referenced series."""
    path = Path(path)
    if not path.exists():
        raise ParseError(f"scenario file not found: {path}")
    try:
        with open(path, "rb") as fh:  # json detects UTF-8, -16 or -32 from the bytes
            doc = json.load(fh, object_pairs_hook=_finite_numbers(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:  # bytes that are not UTF-8, or an integer of over 4300 digits
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be a JSON object")
    extra = doc.keys() - {"config", *_SECTIONS}
    if extra:
        raise ParseError(f"{path}: unknown section(s) {sorted(extra)}")
    if "config" not in doc:
        raise ParseError(f"{path}: missing 'config' section")
    if "zones" not in doc:
        raise ParseError(f"{path}: missing 'zones' section")

    config = _read(ScenarioConfig, doc["config"], path, "config")
    sections = {}
    for section, (attr, cls, _) in _SECTIONS.items():
        entries = doc.get(section, [])
        if not isinstance(entries, list):
            raise ParseError(f"{path}: {section!r} must be a list, got {json.dumps(entries)}")
        sections[attr] = tuple(_read(cls, entry, path, _owner(section, i, entry))
                               for i, entry in enumerate(entries))
    grid = GridModel(config=config, **sections)
    grid.validate()
    return grid


def _write(entity, base: Path) -> dict:
    """One entity's JSON object: every field, writing each series to its sidecar CSV."""
    out = {}
    for key, (name, *_) in _SCHEMAS[type(entity)].items():
        value = getattr(entity, name)
        if name in _SERIES and value is not None:
            series, value = value, f"{entity.id}_{_SERIES[name][1]}.csv"
            write_series(base / value, series)
        elif is_dataclass(value):
            value = _write(value, base)
        out[key] = value
    return out


def write_scenario(grid: GridModel, path) -> None:
    """Write a grid as scenario JSON plus sidecar series CSVs in the same directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"config": _write(grid.config, path.parent)}
    for section, (attr, _, _) in _SECTIONS.items():
        doc[section] = [_write(entity, path.parent) for entity in getattr(grid, attr)]
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
