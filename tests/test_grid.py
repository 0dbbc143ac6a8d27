import numpy as np
import pytest

from gridmarg.errors import ValidationError
from gridmarg.grid import (CostMultipliers, FlexibleLoad, Generator, GridModel,
                           ScenarioConfig, StorageUnit, TransmissionLine, Zone,
                           annualized_capital_cost, apply_sensitivity, resolve_scenario,
                           scale_ev_penetration)


def one_zone_grid(**config_kwargs) -> GridModel:
    horizon = config_kwargs.pop("horizon_hours", 24)
    return GridModel(
        zones=(Zone(id="Z", demand=np.full(horizon, 50.0)),),
        generators=(
            Generator(id="coal", zone_id="Z", kind="thermal", existing_cap_mw=100.0,
                      heat_rate=10.0, fuel_price=3.0, emissions_factor=0.9,
                      inv_cost_annual=100_000.0),
            Generator(id="wind", zone_id="Z", kind="variable_renewable", buildable=True,
                      inv_cost_annual=100_000.0, is_clean=True,
                      capacity_factor_profile=np.full(horizon, 0.5)),
        ),
        flexible_loads=(FlexibleLoad(id="ev", zone_id="Z",
                                     baseline_profile=np.full(horizon, 10.0),
                                     max_delay_hours=8, max_charge_rate_mw=40.0),),
        config=ScenarioConfig(horizon_hours=horizon, **config_kwargs),
    )


def test_annualized_capital_cost():
    # $1,000,000/MW over 20 years at 5%: CRF = 0.05*1.05^20/(1.05^20 - 1) = 0.0802426...
    assert annualized_capital_cost(1_000_000, 0.05, 20) == pytest.approx(80242.587, abs=0.01)
    assert annualized_capital_cost(1_000_000, 0.0, 20) == pytest.approx(50000.0)
    with pytest.raises(ValueError):
        annualized_capital_cost(1.0, 0.05, 0)


def test_validation_passes_on_good_grid():
    one_zone_grid().validate()


@pytest.mark.parametrize("mutate, message", [
    (lambda g: g["zone_demand_short"], "demand series has length"),
    (lambda g: g["bad_clean_share"], "clean_share_min"),
    (lambda g: g["thermal_no_heat_rate"], "heat_rate"),
    (lambda g: g["cf_out_of_range"], "capacity_factor_profile"),
])
def test_validation_names_entity_and_field(mutate, message):
    horizon = 24
    variants = {
        "zone_demand_short": GridModel(
            zones=(Zone(id="Z", demand=np.zeros(23)),),
            config=ScenarioConfig(horizon_hours=horizon)),
        "bad_clean_share": GridModel(
            zones=(Zone(id="Z", demand=np.zeros(horizon), clean_share_min=1.5),),
            config=ScenarioConfig(horizon_hours=horizon)),
        "thermal_no_heat_rate": GridModel(
            zones=(Zone(id="Z", demand=np.zeros(horizon)),),
            generators=(Generator(id="g", zone_id="Z", kind="thermal"),),
            config=ScenarioConfig(horizon_hours=horizon)),
        "cf_out_of_range": GridModel(
            zones=(Zone(id="Z", demand=np.zeros(horizon)),),
            generators=(Generator(id="g", zone_id="Z", kind="variable_renewable",
                                  capacity_factor_profile=np.full(horizon, 1.2)),),
            config=ScenarioConfig(horizon_hours=horizon)),
    }
    with pytest.raises(ValidationError, match=message):
        mutate(variants).validate()


def test_validation_storage_line_and_references():
    horizon = 4
    zones = (Zone(id="Z", demand=np.zeros(horizon)),)
    with pytest.raises(ValidationError, match="charge_efficiency"):
        GridModel(zones=zones,
                  storage_units=(StorageUnit(id="s", zone_id="Z", charge_efficiency=0.0),),
                  config=ScenarioConfig(horizon_hours=horizon)).validate()
    with pytest.raises(ValidationError, match="from_zone equals to_zone"):
        GridModel(zones=zones,
                  lines=(TransmissionLine(id="l", from_zone="Z", to_zone="Z", capacity_mw=1),),
                  config=ScenarioConfig(horizon_hours=horizon)).validate()
    with pytest.raises(ValidationError, match="unknown zone_id"):
        GridModel(zones=zones,
                  generators=(Generator(id="g", zone_id="X", kind="thermal", heat_rate=1.0),),
                  config=ScenarioConfig(horizon_hours=horizon)).validate()
    with pytest.raises(ValidationError, match="duplicate id"):
        GridModel(zones=zones + zones, config=ScenarioConfig(horizon_hours=horizon)).validate()


@pytest.mark.parametrize("clash", ["generator_line", "storage_generator", "line_storage"])
def test_asset_ids_are_unique_across_generators_storage_and_lines(clash):
    # Capacity deltas are reported by asset id, so a shared id would drop one.
    horizon = 4
    zones = (Zone(id="A", demand=np.zeros(horizon)), Zone(id="B", demand=np.zeros(horizon)))
    ids = {"generator": "g", "storage": "s", "line": "l"}
    first, second = clash.split("_")
    ids[second] = ids[first]
    grid = GridModel(
        zones=zones,
        generators=(Generator(id=ids["generator"], zone_id="A", kind="thermal",
                              heat_rate=1.0),),
        storage_units=(StorageUnit(id=ids["storage"], zone_id="A"),),
        lines=(TransmissionLine(id=ids["line"], from_zone="A", to_zone="B", capacity_mw=1),),
        config=ScenarioConfig(horizon_hours=horizon))
    with pytest.raises(ValidationError, match=f"{ids[first]}: duplicate id"):
        grid.validate()


def test_rigid_flex_load_needs_rate_headroom():
    horizon = 4
    load = FlexibleLoad(id="ev", zone_id="Z", baseline_profile=np.array([0, 9, 0, 0.0]),
                        max_charge_rate_mw=5.0)
    with pytest.raises(ValidationError, match="max_charge_rate_mw below baseline peak"):
        GridModel(zones=(Zone(id="Z", demand=np.zeros(horizon)),),
                  flexible_loads=(load,),
                  config=ScenarioConfig(horizon_hours=horizon)).validate()


def test_default_charge_rate_is_three_times_peak():
    load = FlexibleLoad(id="ev", zone_id="Z", baseline_profile=np.array([1.0, 4.0, 2.0]),
                        penetration_scale=2.0)
    assert load.effective_max_charge_rate() == pytest.approx(24.0)  # 3 * (4 * 2)


def test_apply_sensitivity_identity_and_scaling():
    grid = one_zone_grid()
    same = apply_sensitivity(grid, CostMultipliers(1.0, 1.0))
    for a, b in zip(same.generators, grid.generators):
        assert a.inv_cost_annual == b.inv_cost_annual
        assert a.fuel_price == b.fuel_price
        np.testing.assert_array_equal(a.capacity_factor_profile if a.capacity_factor_profile
                                      is not None else [],
                                      b.capacity_factor_profile if b.capacity_factor_profile
                                      is not None else [])

    scaled = apply_sensitivity(grid, CostMultipliers(renewable_capex=0.5, gas_price=1.2))
    wind = next(g for g in scaled.generators if g.id == "wind")
    coal = next(g for g in scaled.generators if g.id == "coal")
    assert wind.inv_cost_annual == pytest.approx(50_000.0)
    assert coal.fuel_price == pytest.approx(3.6)
    # Thermal marginal cost rises by heat_rate x (price delta) = 10 x 0.6.
    base_mc = next(g for g in grid.generators if g.id == "coal").marginal_cost
    assert coal.marginal_cost - base_mc == pytest.approx(10.0 * 0.6)
    # Renewable capex multiplier must not touch thermal investment cost.
    assert coal.inv_cost_annual == pytest.approx(100_000.0)
    # Purity: input untouched.
    assert next(g for g in grid.generators if g.id == "coal").fuel_price == pytest.approx(3.0)


def test_scale_ev_penetration():
    grid = one_zone_grid()
    same = scale_ev_penetration(grid, 1.0)
    np.testing.assert_array_equal(same.flexible_loads[0].baseline_profile,
                                  grid.flexible_loads[0].baseline_profile)

    horizon = 24
    profile = np.full(horizon, 0.2)
    profile[18] = 200.0  # evening peak, overnight trough
    grid2 = GridModel(
        zones=(Zone(id="Z", demand=np.zeros(horizon)),),
        flexible_loads=(FlexibleLoad(id="ev", zone_id="Z", baseline_profile=profile,
                                     max_delay_hours=8),),
        config=ScenarioConfig(horizon_hours=horizon))
    scaled = scale_ev_penetration(grid2, 1.05)
    out = scaled.flexible_loads[0].baseline_profile
    assert out[18] == pytest.approx(210.0)          # peak 200 -> 210
    assert out[0] - profile[0] == pytest.approx(0.01)  # trough 0.2 adds 0.01
    # Purity: independent copies.
    out[0] = 99.0
    assert grid2.flexible_loads[0].baseline_profile[0] == pytest.approx(0.2)
    # Non-EV demand untouched.
    np.testing.assert_array_equal(scaled.zones[0].demand, grid2.zones[0].demand)


def test_resolve_scenario_applies_config_multipliers():
    grid = one_zone_grid(ev_penetration_multiplier=1.1,
                         cost_multipliers=CostMultipliers(gas_price=2.0))
    resolved = resolve_scenario(grid)
    assert resolved.generators[0].fuel_price == pytest.approx(6.0)
    np.testing.assert_allclose(resolved.flexible_loads[0].baseline_profile,
                               grid.flexible_loads[0].baseline_profile * 1.1)
