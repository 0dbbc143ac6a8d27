import json
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from gridmarg.errors import MissingSeries, ParseError, ValidationError
from gridmarg.grid import (CostMultipliers, FlexibleLoad, Generator, GridModel,
                           ScenarioConfig, StorageUnit, TransmissionLine, Zone)
from gridmarg.scenario_io import load_scenario, read_series, write_scenario, write_series

TUTORIAL = Path(__file__).resolve().parent.parent / "scenarios" / "tutorial" / "scenario.json"


def write_minimal_scenario(tmp_path: Path, hours: int = 24, demand_hours: int | None = None):
    demand_hours = hours if demand_hours is None else demand_hours
    write_series(tmp_path / "d.csv", np.full(demand_hours, 10.0))
    doc = {
        "config": {"horizon_hours": hours},
        "zones": [{"id": "Z1", "demand_series": "d.csv"}],
        "generators": [{"id": "g1", "zone_id": "Z1", "kind": "thermal",
                        "existing_cap_mw": 20.0, "heat_rate": 8.0, "fuel_price": 2.5,
                        "emissions_factor": 0.5}],
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return path


def test_minimal_scenario_loads(tmp_path):
    grid = load_scenario(write_minimal_scenario(tmp_path))
    assert grid.horizon == 24
    assert grid.zone_ids() == ["Z1"]
    assert grid.generators[0].marginal_cost == pytest.approx(20.0)


def test_short_series_raises_validation_error_naming_the_series(tmp_path):
    path = write_minimal_scenario(tmp_path, hours=24, demand_hours=23)
    with pytest.raises(ValidationError, match=r"zone Z1: demand series has length 23"):
        load_scenario(path)


def test_missing_series_file(tmp_path):
    path = write_minimal_scenario(tmp_path)
    (tmp_path / "d.csv").unlink()
    with pytest.raises(MissingSeries, match="d.csv"):
        load_scenario(path)


def test_malformed_json_reports_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "config": {,}\n}\n')
    with pytest.raises(ParseError, match="line 2"):
        load_scenario(path)


@pytest.mark.parametrize("text, named", [
    (b'{"config": {"horizon_hours": 24}, "zones": [], "\xff": 1}', "utf-8"),
    (b'{"config": {"horizon_hours": 1' + b"0" * 5000 + b'}, "zones": []}', "digits"),
])
def test_unreadable_json_raises_parse_error(tmp_path, text, named):
    path = tmp_path / "bad.json"
    path.write_bytes(text)
    with pytest.raises(ParseError, match=named):
        load_scenario(path)


def test_unknown_field_rejected(tmp_path):
    path = write_minimal_scenario(tmp_path)
    doc = json.loads(path.read_text())
    doc["generators"][0]["fule_price"] = 3.0
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="fule_price"):
        load_scenario(path)


def test_series_header_and_contiguity(tmp_path):
    bad = tmp_path / "s.csv"
    bad.write_text("time,mw\n0,1\n")
    with pytest.raises(ParseError, match="hour,value"):
        read_series(bad)
    bad.write_text("hour,value\n0,1.0\n2,1.0\n")
    with pytest.raises(ParseError, match="contiguous"):
        read_series(bad)


def test_series_rejects_non_finite_values_with_file_and_line(tmp_path):
    bad = tmp_path / "s.csv"
    for token in ("nan", "inf", "-Infinity"):
        bad.write_text(f"hour,value\n0,1.0\n1,{token}\n")
        with pytest.raises(ParseError, match=r"s\.csv:3: value must be finite"):
            read_series(bad)


@pytest.mark.parametrize("section, field, token", [
    ("config", "horizon_hours", "Infinity"),    # int(inf) raised OverflowError
    ("config", "co2_cap_tons", "Infinity"),     # null, not Infinity, means no cap
    ("generators", "existing_cap_mw", "NaN"),
    ("generators", "fuel_price", "-Infinity"),
    ("generators", "heat_rate", "1e999"),        # overflows to inf without a NaN/Infinity token
])
def test_json_rejects_non_finite_numbers_naming_the_field(tmp_path, section, field, token):
    path = write_minimal_scenario(tmp_path)
    doc = json.loads(path.read_text())
    entry = doc["config"] if section == "config" else doc[section][0]
    entry[field] = "TOKEN"
    path.write_text(json.dumps(doc).replace('"TOKEN"', token))
    owner = "" if section == "config" else " of 'g1'"
    with pytest.raises(ParseError, match=f"'{field}'{owner} must be a finite number"):
        load_scenario(path)


def full_grid(horizon: int = 6) -> GridModel:
    rng = np.random.default_rng(3)
    return GridModel(
        zones=(Zone(id="north", demand=rng.uniform(10, 20, horizon), clean_share_min=0.25),
               Zone(id="south", demand=rng.uniform(5, 9, horizon))),
        generators=(
            Generator(id="ccgt", zone_id="north", kind="thermal", existing_cap_mw=30,
                      heat_rate=7.5, fuel_price=3.25, var_om=2.0, emissions_factor=0.37,
                      min_stable_fraction=0.4, startup_cost=15.0, retirable=True,
                      fixed_om=11_000.0),
            Generator(id="pv", zone_id="south", kind="variable_renewable", buildable=True,
                      inv_cost_annual=62_000.0, var_om=-12.28, is_clean=True,
                      capacity_factor_profile=rng.uniform(0, 1, horizon)),
            Generator(id="ror", zone_id="north", kind="hydro_like", existing_cap_mw=5,
                      capacity_factor_profile=rng.uniform(0.2, 0.6, horizon), is_clean=True),
        ),
        storage_units=(StorageUnit(id="batt", zone_id="south", existing_power_mw=4,
                                   existing_energy_mwh=16, buildable=True,
                                   inv_cost_power=9_000.0, inv_cost_energy=2_000.0,
                                   charge_efficiency=0.92, discharge_efficiency=0.93,
                                   var_om=1.0),),
        lines=(TransmissionLine(id="ns", from_zone="north", to_zone="south", capacity_mw=8,
                                expandable=True, expansion_cost=25_000.0, loss_fraction=0.03),),
        flexible_loads=(FlexibleLoad(id="ev_n", zone_id="north",
                                     baseline_profile=rng.uniform(0, 3, horizon),
                                     max_advance_hours=2, max_delay_hours=4,
                                     max_charge_rate_mw=6.0, penetration_scale=1.3),),
        config=ScenarioConfig(horizon_hours=horizon, ev_penetration_multiplier=1.05,
                              cost_multipliers=CostMultipliers(0.9, 1.1),
                              co2_cap_tons=123.0, nse_penalty=8_500.0),
    )


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("collection, index, field, named", [
    ("zones", 0, "demand", "zone north: demand"),
    ("generators", 0, "existing_cap_mw", "generator ccgt: existing_cap_mw"),
    ("generators", 0, "fuel_price", "generator ccgt: fuel_price"),
    ("generators", 1, "capacity_factor_profile", "generator pv: capacity_factor_profile"),
    ("storage_units", 0, "existing_energy_mwh", "storage batt: existing_energy_mwh"),
    ("lines", 0, "capacity_mw", "line ns: capacity_mw"),
    ("flexible_loads", 0, "baseline_profile", "flexible_load ev_n: baseline_profile"),
    ("flexible_loads", 0, "max_charge_rate_mw", "flexible_load ev_n: max_charge_rate_mw"),
    ("config", None, "nse_penalty", "config: nse_penalty"),
])
def test_validate_rejects_non_finite_numbers_naming_entity_and_field(collection, index, field,
                                                                     named, bad):
    grid = full_grid()
    if index is None:
        grid = replace(grid, config=replace(grid.config, **{field: bad}))
    else:
        entities = list(getattr(grid, collection))
        old = getattr(entities[index], field)
        value = np.where(np.arange(old.size) == 2, bad, old) if isinstance(old, np.ndarray) else bad
        entities[index] = replace(entities[index], **{field: value})
        grid = replace(grid, **{collection: tuple(entities)})
    with pytest.raises(ValidationError, match=f"^{named} must be finite$"):
        grid.validate()


def assert_grids_equal(a, b, where="grid"):
    """Every field of two grids, entities or configs equal; arrays also in dtype."""
    assert type(a) is type(b), where
    for f in fields(a):
        va, vb, at = getattr(a, f.name), getattr(b, f.name), f"{where}.{f.name}"
        if isinstance(va, np.ndarray) or isinstance(vb, np.ndarray):
            assert isinstance(va, np.ndarray) and isinstance(vb, np.ndarray), at
            assert va.dtype == vb.dtype, at
            np.testing.assert_array_equal(va, vb, err_msg=at)
        elif is_dataclass(va):
            assert_grids_equal(va, vb, at)
        elif isinstance(va, tuple):
            assert len(va) == len(vb), at
            for i, (ea, eb) in enumerate(zip(va, vb)):
                assert_grids_equal(ea, eb, f"{at}[{i}]")
        else:
            assert va == vb, at


def without_limits(grid: GridModel) -> GridModel:
    """full_grid with every optional number None; its thermal unit has no profile already."""
    thermal = grid.generators[0]
    assert thermal.kind == "thermal" and thermal.capacity_factor_profile is None
    return replace(grid, config=replace(grid.config, nse_penalty=None, co2_cap_tons=None),
                   flexible_loads=(replace(grid.flexible_loads[0], max_charge_rate_mw=None),))


@pytest.mark.parametrize("make_grid", [full_grid, lambda: without_limits(full_grid())],
                         ids=["full", "without_limits"])
def test_round_trip_reproduces_grid_field_for_field(tmp_path, make_grid):
    grid = make_grid()
    grid.validate()
    path = tmp_path / "rt" / "scenario.json"
    write_scenario(grid, path)
    assert_grids_equal(load_scenario(path), grid)
    doc = json.loads(path.read_text())
    # The writer emits every field, None as null.
    thermal = doc["generators"][0]
    assert len(thermal) == len(fields(Generator)) and thermal["capacity_factor_series"] is None
    assert (doc["config"]["co2_cap_tons"] is None) == (grid.config.co2_cap_tons is None)


def test_tutorial_scenario_matches_doc_table():
    grid = load_scenario(TUTORIAL)
    assert grid.horizon == 24
    assert grid.zone_ids() == ["A", "B"]
    # Totals from the tutorial README: 2,400 + 1,200 MWh fixed demand, 120 MWh EV.
    assert float(grid.zones[0].demand.sum()) == pytest.approx(2400.0)
    assert float(grid.zones[1].demand.sum()) == pytest.approx(1200.0)
    assert float(grid.flexible_loads[0].baseline_profile.sum()) == pytest.approx(120.0)
    coal = next(g for g in grid.generators if g.id == "coal_a")
    gas = next(g for g in grid.generators if g.id == "gas_b")
    assert coal.marginal_cost == pytest.approx(20.0)
    assert gas.marginal_cost == pytest.approx(40.0)
