"""Scenario file loading and writing.

A scenario is a single JSON document with sections `config`, `zones`,
`generators`, `storage`, `lines`, `flexible_loads`. Hourly series are not
inlined; entities reference sidecar CSV files (header `hour,value`, hour
0-based) resolved relative to the scenario file:

    zones[*].demand_series                 MW
    generators[*].capacity_factor_series   availability fraction in [0, 1]
    flexible_loads[*].baseline_series      MW

write_scenario emits the same formats, so load(write(grid)) reproduces the
grid field-for-field.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .errors import MissingSeries, ParseError
from .grid import (CostMultipliers, FlexibleLoad, Generator, GridModel,
                   ScenarioConfig, StorageUnit, TransmissionLine, Zone)

_CONFIG_KEYS = {
    "horizon_hours": int,
    "ev_penetration_multiplier": float,
    "perturbation_fraction": float,
    "srme1_fraction": float,
    "emissions_penalty": float,
    "convergence_threshold": float,
    "max_iterations": int,
    "icev_tco2_per_year": float,
    "ev_annual_mwh": float,
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


def _require(entry: dict, key: str, where: str):
    if key not in entry:
        raise ParseError(f"{where}: missing required field {key!r}")
    return entry[key]


def _check_keys(entry: dict, allowed: set[str], where: str) -> None:
    extra = set(entry) - allowed
    if extra:
        raise ParseError(f"{where}: unknown field(s) {sorted(extra)}")


def _parse_config(raw: dict) -> ScenarioConfig:
    _check_keys(raw, set(_CONFIG_KEYS) | {"cost_multipliers", "co2_cap_tons", "nse_penalty"},
                "config")
    kwargs = {}
    for key, conv in _CONFIG_KEYS.items():
        if key in raw:
            try:
                kwargs[key] = conv(raw[key])
            except (TypeError, ValueError) as exc:
                raise ParseError(f"config.{key}: {exc}") from exc
    if "horizon_hours" not in kwargs:
        raise ParseError("config: missing required field 'horizon_hours'")
    if "cost_multipliers" in raw:
        cm = raw["cost_multipliers"]
        _check_keys(cm, {"renewable_capex", "gas_price"}, "config.cost_multipliers")
        kwargs["cost_multipliers"] = CostMultipliers(
            renewable_capex=float(cm.get("renewable_capex", 1.0)),
            gas_price=float(cm.get("gas_price", 1.0)),
        )
    cap = raw.get("co2_cap_tons")
    kwargs["co2_cap_tons"] = None if cap is None else float(cap)
    if "nse_penalty" in raw:
        kwargs["nse_penalty"] = None if raw["nse_penalty"] is None else float(raw["nse_penalty"])
    return ScenarioConfig(**kwargs)


def load_scenario(path) -> GridModel:
    """Load and fully validate a scenario file plus its referenced series."""
    path = Path(path)
    if not path.exists():
        raise ParseError(f"scenario file not found: {path}")
    base = path.parent
    try:
        with open(path) as fh:
            doc = json.load(fh, object_pairs_hook=_finite_numbers(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be a JSON object")
    _check_keys(doc, {"config", "zones", "generators", "storage", "lines", "flexible_loads"},
                str(path))
    if "config" not in doc:
        raise ParseError(f"{path}: missing 'config' section")
    if "zones" not in doc:
        raise ParseError(f"{path}: missing 'zones' section")

    config = _parse_config(doc["config"])

    zones = []
    for entry in doc["zones"]:
        where = f"zone {entry.get('id', '?')}"
        _check_keys(entry, {"id", "demand_series", "clean_share_min"}, where)
        zones.append(Zone(
            id=str(_require(entry, "id", where)),
            demand=read_series(base / _require(entry, "demand_series", where)),
            clean_share_min=float(entry.get("clean_share_min", 0.0)),
        ))

    generators = []
    gen_keys = {"id", "zone_id", "kind", "existing_cap_mw", "buildable", "retirable",
                "inv_cost_annual", "fixed_om", "var_om", "heat_rate", "fuel_price",
                "emissions_factor", "capacity_factor_series", "min_stable_fraction",
                "startup_cost", "is_clean"}
    for entry in doc.get("generators", []):
        where = f"generator {entry.get('id', '?')}"
        _check_keys(entry, gen_keys, where)
        profile = None
        if "capacity_factor_series" in entry:
            profile = read_series(base / entry["capacity_factor_series"])
        generators.append(Generator(
            id=str(_require(entry, "id", where)),
            zone_id=str(_require(entry, "zone_id", where)),
            kind=str(_require(entry, "kind", where)),
            existing_cap_mw=float(entry.get("existing_cap_mw", 0.0)),
            buildable=bool(entry.get("buildable", False)),
            retirable=bool(entry.get("retirable", False)),
            inv_cost_annual=float(entry.get("inv_cost_annual", 0.0)),
            fixed_om=float(entry.get("fixed_om", 0.0)),
            var_om=float(entry.get("var_om", 0.0)),
            heat_rate=float(entry.get("heat_rate", 0.0)),
            fuel_price=float(entry.get("fuel_price", 0.0)),
            emissions_factor=float(entry.get("emissions_factor", 0.0)),
            capacity_factor_profile=profile,
            min_stable_fraction=float(entry.get("min_stable_fraction", 0.0)),
            startup_cost=float(entry.get("startup_cost", 0.0)),
            is_clean=bool(entry.get("is_clean", False)),
        ))

    storage_units = []
    sto_keys = {"id", "zone_id", "existing_power_mw", "existing_energy_mwh", "buildable",
                "inv_cost_power", "inv_cost_energy", "charge_efficiency",
                "discharge_efficiency", "var_om"}
    for entry in doc.get("storage", []):
        where = f"storage {entry.get('id', '?')}"
        _check_keys(entry, sto_keys, where)
        storage_units.append(StorageUnit(
            id=str(_require(entry, "id", where)),
            zone_id=str(_require(entry, "zone_id", where)),
            existing_power_mw=float(entry.get("existing_power_mw", 0.0)),
            existing_energy_mwh=float(entry.get("existing_energy_mwh", 0.0)),
            buildable=bool(entry.get("buildable", False)),
            inv_cost_power=float(entry.get("inv_cost_power", 0.0)),
            inv_cost_energy=float(entry.get("inv_cost_energy", 0.0)),
            charge_efficiency=float(entry.get("charge_efficiency", 1.0)),
            discharge_efficiency=float(entry.get("discharge_efficiency", 1.0)),
            var_om=float(entry.get("var_om", 0.0)),
        ))

    lines = []
    line_keys = {"id", "from_zone", "to_zone", "capacity_mw", "expandable",
                 "expansion_cost", "loss_fraction"}
    for entry in doc.get("lines", []):
        where = f"line {entry.get('id', '?')}"
        _check_keys(entry, line_keys, where)
        lines.append(TransmissionLine(
            id=str(_require(entry, "id", where)),
            from_zone=str(_require(entry, "from_zone", where)),
            to_zone=str(_require(entry, "to_zone", where)),
            capacity_mw=float(_require(entry, "capacity_mw", where)),
            expandable=bool(entry.get("expandable", False)),
            expansion_cost=float(entry.get("expansion_cost", 0.0)),
            loss_fraction=float(entry.get("loss_fraction", 0.0)),
        ))

    flexible_loads = []
    flex_keys = {"id", "zone_id", "baseline_series", "max_advance_hours", "max_delay_hours",
                 "max_charge_rate_mw", "penetration_scale"}
    for entry in doc.get("flexible_loads", []):
        where = f"flexible_load {entry.get('id', '?')}"
        _check_keys(entry, flex_keys, where)
        rate = entry.get("max_charge_rate_mw")
        flexible_loads.append(FlexibleLoad(
            id=str(_require(entry, "id", where)),
            zone_id=str(_require(entry, "zone_id", where)),
            baseline_profile=read_series(base / _require(entry, "baseline_series", where)),
            max_advance_hours=int(entry.get("max_advance_hours", 0)),
            max_delay_hours=int(entry.get("max_delay_hours", 0)),
            max_charge_rate_mw=None if rate is None else float(rate),
            penetration_scale=float(entry.get("penetration_scale", 1.0)),
        ))

    grid = GridModel(
        zones=tuple(zones),
        generators=tuple(generators),
        storage_units=tuple(storage_units),
        lines=tuple(lines),
        flexible_loads=tuple(flexible_loads),
        config=config,
    )
    grid.validate()
    return grid


def write_scenario(grid: GridModel, path) -> None:
    """Write a grid as scenario JSON plus sidecar series CSVs in the same directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    base = path.parent

    config = {key: getattr(grid.config, key) for key in _CONFIG_KEYS}
    config["cost_multipliers"] = asdict(grid.config.cost_multipliers)
    config["nse_penalty"] = grid.config.nse_penalty
    if grid.config.co2_cap_tons is not None:
        config["co2_cap_tons"] = grid.config.co2_cap_tons

    zones = []
    for zone in grid.zones:
        series = f"{zone.id}_demand.csv"
        write_series(base / series, zone.demand)
        zones.append({"id": zone.id, "demand_series": series,
                      "clean_share_min": zone.clean_share_min})

    generators = []
    for gen in grid.generators:
        entry = {
            "id": gen.id, "zone_id": gen.zone_id, "kind": gen.kind,
            "existing_cap_mw": gen.existing_cap_mw, "buildable": gen.buildable,
            "retirable": gen.retirable, "inv_cost_annual": gen.inv_cost_annual,
            "fixed_om": gen.fixed_om, "var_om": gen.var_om, "heat_rate": gen.heat_rate,
            "fuel_price": gen.fuel_price, "emissions_factor": gen.emissions_factor,
            "min_stable_fraction": gen.min_stable_fraction, "startup_cost": gen.startup_cost,
            "is_clean": gen.is_clean,
        }
        if gen.capacity_factor_profile is not None:
            series = f"{gen.id}_cf.csv"
            write_series(base / series, gen.capacity_factor_profile)
            entry["capacity_factor_series"] = series
        generators.append(entry)

    storage = [{
        "id": s.id, "zone_id": s.zone_id, "existing_power_mw": s.existing_power_mw,
        "existing_energy_mwh": s.existing_energy_mwh, "buildable": s.buildable,
        "inv_cost_power": s.inv_cost_power, "inv_cost_energy": s.inv_cost_energy,
        "charge_efficiency": s.charge_efficiency, "discharge_efficiency": s.discharge_efficiency,
        "var_om": s.var_om,
    } for s in grid.storage_units]

    lines = [{
        "id": l.id, "from_zone": l.from_zone, "to_zone": l.to_zone,
        "capacity_mw": l.capacity_mw, "expandable": l.expandable,
        "expansion_cost": l.expansion_cost, "loss_fraction": l.loss_fraction,
    } for l in grid.lines]

    flexible_loads = []
    for load in grid.flexible_loads:
        series = f"{load.id}_baseline.csv"
        write_series(base / series, load.baseline_profile)
        entry = {"id": load.id, "zone_id": load.zone_id, "baseline_series": series,
                 "max_advance_hours": load.max_advance_hours,
                 "max_delay_hours": load.max_delay_hours,
                 "penetration_scale": load.penetration_scale}
        if load.max_charge_rate_mw is not None:
            entry["max_charge_rate_mw"] = load.max_charge_rate_mw
        flexible_loads.append(entry)

    doc = {"config": config, "zones": zones, "generators": generators,
           "storage": storage, "lines": lines, "flexible_loads": flexible_loads}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
