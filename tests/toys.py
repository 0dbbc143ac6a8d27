"""Constructed toy grids with hand-derivable optima, shared across the test suite.

Each builder documents the closed-form dispatch it was designed around; tests
assert against those numbers (or against re-solve/finite-difference oracles),
never against values produced by the code under test.
"""

import numpy as np

from gridmarg.grid import (FlexibleLoad, Generator, GridModel, ScenarioConfig, StorageUnit,
                           Zone)
from gridmarg.planner import DispatchResult, FixedCapacities, build_operational_lp, solve_model


def operational_base(grid: GridModel, caps: FixedCapacities | None = None) -> DispatchResult:
    """grid's operational optimum at caps (nothing built by default): the base
    that the short-run estimators and the consequential check take from their
    caller."""
    return solve_model(build_operational_lp(grid, caps or FixedCapacities()))


def single_bus(demand: float = 50.0, cap: float = 100.0, horizon: int = 24,
               nse_penalty: float | None = 9000.0, **gen_kwargs) -> GridModel:
    """One zone, one coal unit (mc 20 $/MWh, 0.9 tCO2/MWh), flat demand."""
    defaults = dict(heat_rate=10.0, fuel_price=2.0, emissions_factor=0.9)
    defaults.update(gen_kwargs)
    return GridModel(
        zones=(Zone(id="Z", demand=np.full(horizon, float(demand))),),
        generators=(Generator(id="coal", zone_id="Z", kind="thermal",
                              existing_cap_mw=cap, **defaults),),
        config=ScenarioConfig(horizon_hours=horizon, nse_penalty=nse_penalty),
    )


def merit_stack(horizon: int = 6) -> GridModel:
    """Three thermal units with strictly ordered marginal costs and distinct factors.

    caps 40/40/40 MW; mc 10/20/30 $/MWh; ef 0.9/0.5/0.2 tCO2/MWh.
    Demands [20, 50, 90, 110, 70, 30] place the margin on g1,g2,g3,g3,g2,g1
    with strict interior slack every hour (no ties, no degenerate vertices).
    """
    demand = np.array([20.0, 50.0, 90.0, 110.0, 70.0, 30.0])[:horizon]
    return GridModel(
        zones=(Zone(id="Z", demand=demand),),
        generators=(
            Generator(id="g1", zone_id="Z", kind="thermal", existing_cap_mw=40.0,
                      heat_rate=10.0, fuel_price=1.0, emissions_factor=0.9),
            Generator(id="g2", zone_id="Z", kind="thermal", existing_cap_mw=40.0,
                      heat_rate=10.0, fuel_price=2.0, emissions_factor=0.5),
            Generator(id="g3", zone_id="Z", kind="thermal", existing_cap_mw=40.0,
                      heat_rate=10.0, fuel_price=3.0, emissions_factor=0.2),
        ),
        config=ScenarioConfig(horizon_hours=len(demand)),
    )


MERIT_STACK_MARGINAL_EF = np.array([0.9, 0.5, 0.2, 0.2, 0.5, 0.9])


def storage_arbitrage_2h() -> GridModel:
    """Two hours: run-of-river (mc 10) available only in hour 0, gas (mc 50) anytime.

    A lossless 30 MW / 30 MWh battery charges 30 in hour 0 and discharges 30
    in hour 1: hour-0 generation 80, hour-1 gas 20, prices (10, 50).
    """
    return GridModel(
        zones=(Zone(id="Z", demand=np.array([50.0, 50.0])),),
        generators=(
            Generator(id="cheap", zone_id="Z", kind="hydro_like", existing_cap_mw=200.0,
                      var_om=10.0, capacity_factor_profile=np.array([1.0, 0.0])),
            Generator(id="gas", zone_id="Z", kind="thermal", existing_cap_mw=200.0,
                      heat_rate=10.0, fuel_price=5.0, emissions_factor=0.4),
        ),
        storage_units=(StorageUnit(id="batt", zone_id="Z", existing_power_mw=30.0,
                                   existing_energy_mwh=30.0),),
        config=ScenarioConfig(horizon_hours=2),
    )


def storage_roundtrip() -> GridModel:
    """Hour-1 demand spills over the coal cap; storage bridges it from hour 0.

    coal: 100 MW, mc 20, ef 0.9. Demand (50, 120). Round-trip 0.81 battery.
    Hour-1 marginal demand forces extra hour-0 charging: rate 0.9/0.81 = 1.111...;
    hour-0 marginal is coal directly: 0.9.
    """
    return GridModel(
        zones=(Zone(id="Z", demand=np.array([50.0, 120.0])),),
        generators=(Generator(id="coal", zone_id="Z", kind="thermal", existing_cap_mw=100.0,
                              heat_rate=10.0, fuel_price=2.0, emissions_factor=0.9),),
        storage_units=(StorageUnit(id="batt", zone_id="Z", existing_power_mw=50.0,
                                   existing_energy_mwh=60.0, charge_efficiency=0.9,
                                   discharge_efficiency=0.9),),
        config=ScenarioConfig(horizon_hours=2),
    )


def frozen_structure(horizon: int = 24) -> GridModel:
    """Fossil-only, nothing buildable or retirable; gas is the interior margin all hours.

    coal 100 MW (mc 20, ef 0.9) runs at cap; gas (mc 40, ef 0.4) serves the
    rest with wide headroom, so rates are constant across the +-5% EV range.
    """
    return GridModel(
        zones=(Zone(id="Z", demand=np.full(horizon, 120.0)),),
        generators=(
            Generator(id="coal", zone_id="Z", kind="thermal", existing_cap_mw=100.0,
                      heat_rate=10.0, fuel_price=2.0, emissions_factor=0.9),
            Generator(id="gas", zone_id="Z", kind="thermal", existing_cap_mw=100.0,
                      heat_rate=10.0, fuel_price=4.0, emissions_factor=0.4),
        ),
        flexible_loads=(FlexibleLoad(id="ev", zone_id="Z",
                                     baseline_profile=np.full(horizon, 5.0),
                                     max_charge_rate_mw=15.0),),
        config=ScenarioConfig(horizon_hours=horizon),
    )


def breakeven_wind(horizon: int = 48) -> GridModel:
    """Existing coal (0.9 tCO2/MWh) plus buildable wind far below breakeven.

    Wind (flat cf 0.5) displaces coal worth 0.5*H*25 = 600 $/MW over the toy
    year at cost 240 $/MW-yr, so the base case builds wind to full coal
    displacement and incremental EV demand is served by new wind (LR rate 0)
    while the frozen-capacity margin stays coal (SR rate 0.9).
    """
    return GridModel(
        zones=(Zone(id="Z", demand=np.full(horizon, 100.0)),),
        generators=(
            Generator(id="coal", zone_id="Z", kind="thermal", existing_cap_mw=200.0,
                      heat_rate=10.0, fuel_price=2.5, emissions_factor=0.9),
            Generator(id="wind", zone_id="Z", kind="variable_renewable", buildable=True,
                      inv_cost_annual=240.0, is_clean=True,
                      capacity_factor_profile=np.full(horizon, 0.5)),
        ),
        flexible_loads=(FlexibleLoad(id="ev", zone_id="Z",
                                     baseline_profile=np.full(horizon, 10.0),
                                     max_charge_rate_mw=30.0),),
        config=ScenarioConfig(horizon_hours=horizon),
    )


def negative_lr_toy(horizon: int = 48) -> GridModel:
    """Night-saturated wind whose expansion is unlocked by night-flexible EV demand.

    Wind (flat cf 1, 700 $/MW per toy year) is worth 1200 $/MW while no hour
    curtails (48 h x 25 $/MWh coal displacement) but only 600 $/MW once the
    30 MW night trough saturates. Flexible EV charging absorbs night surplus,
    so each EV MWh unlocks wind that also displaces daytime coal serving
    legacy demand: lr_mer = -0.9.
    """
    demand = np.full(horizon, 30.0)
    for day in range(horizon // 24):
        demand[day * 24 + 8: day * 24 + 20] = 100.0
    return GridModel(
        zones=(Zone(id="Z", demand=demand),),
        generators=(
            Generator(id="coal", zone_id="Z", kind="thermal", existing_cap_mw=250.0,
                      heat_rate=10.0, fuel_price=2.5, emissions_factor=0.9),
            Generator(id="wind", zone_id="Z", kind="variable_renewable", buildable=True,
                      inv_cost_annual=700.0, is_clean=True,
                      capacity_factor_profile=np.ones(horizon)),
        ),
        flexible_loads=(FlexibleLoad(id="ev", zone_id="Z",
                                     baseline_profile=np.full(horizon, 2.5),
                                     max_advance_hours=24, max_delay_hours=24),),
        config=ScenarioConfig(horizon_hours=horizon),
    )


def nondegenerate_48h() -> GridModel:
    """1 zone, 3 generators, 1 storage, 48 h, built to keep every hour non-degenerate.

    Strictly ordered marginal costs (5 / 22 / 45 $/MWh), distinct emission
    factors (0.03 / 0.95 / 0.42), a lossy battery with nonzero discharge O&M
    (breaks ties against idle cycling), and an asymmetric two-day demand
    shape whose levels keep the marginal unit strictly interior.
    """
    t = np.arange(48)
    demand = (120.0 + 60.0 * np.sin(2 * np.pi * t / 24 + 0.3)
              + 15.0 * np.sin(2 * np.pi * t / 48 + 1.1)
              + 3.0 * np.cos(2 * np.pi * t / 12 + 0.7))
    return GridModel(
        zones=(Zone(id="Z", demand=demand),),
        generators=(
            Generator(id="base", zone_id="Z", kind="thermal", existing_cap_mw=60.0,
                      heat_rate=5.0, fuel_price=1.0, emissions_factor=0.03),
            Generator(id="coal", zone_id="Z", kind="thermal", existing_cap_mw=80.0,
                      heat_rate=10.0, fuel_price=2.2, emissions_factor=0.95),
            Generator(id="gas", zone_id="Z", kind="thermal", existing_cap_mw=120.0,
                      heat_rate=10.0, fuel_price=4.5, emissions_factor=0.42),
        ),
        storage_units=(StorageUnit(id="batt", zone_id="Z", existing_power_mw=25.0,
                                   existing_energy_mwh=120.0, charge_efficiency=0.9,
                                   discharge_efficiency=0.9, var_om=0.5),),
        config=ScenarioConfig(horizon_hours=48),
    )


def solar_midday(horizon: int = 48) -> GridModel:
    """Price ladder for the flexibility-monotonicity chain.

    Midday (10-15): 120 MW of free solar (price 0, surplus). Night: coal at
    30 $/MWh interior. Evening (17-21): demand 110 exceeds the 100 MW coal
    cap, gas marginal at 60 $/MWh. The EV block requests 20 MW at hours
    17-18; delaying 8 h reaches the 30 $/MWh night, a 12 h window reaches the
    free midday: each flexibility step saves a strict 30 $/MWh of EV energy.
    """
    demand = np.full(horizon, 40.0)
    solar_cf = np.zeros(horizon)
    ev = np.zeros(horizon)
    for day in range(horizon // 24):
        base = day * 24
        demand[base + 10: base + 16] = 50.0
        demand[base + 17: base + 22] = 110.0
        solar_cf[base + 10: base + 16] = 1.0
        ev[base + 17: base + 19] = 20.0
    return GridModel(
        zones=(Zone(id="Z", demand=demand),),
        generators=(
            Generator(id="solar", zone_id="Z", kind="variable_renewable",
                      existing_cap_mw=120.0, capacity_factor_profile=solar_cf,
                      is_clean=True),
            Generator(id="coal", zone_id="Z", kind="thermal", existing_cap_mw=100.0,
                      heat_rate=10.0, fuel_price=3.0, emissions_factor=0.9),
            Generator(id="gas", zone_id="Z", kind="thermal", existing_cap_mw=150.0,
                      heat_rate=10.0, fuel_price=6.0, emissions_factor=0.4),
        ),
        flexible_loads=(FlexibleLoad(id="ev", zone_id="Z", baseline_profile=ev,
                                     max_charge_rate_mw=45.0),),
        config=ScenarioConfig(horizon_hours=horizon),
    )


def with_flex_window(grid: GridModel, advance: int, delay: int) -> GridModel:
    """Copy of the grid with every flexible load's window replaced."""
    from dataclasses import replace
    loads = tuple(replace(l, max_advance_hours=advance, max_delay_hours=delay)
                  for l in grid.flexible_loads)
    return replace(grid, flexible_loads=loads)


def storage_coupled(horizon: int = 24) -> GridModel:
    """Two generators plus a battery that couples clean and dirty hours.

    Clean unit (30 $/MWh, ef 0) available hours 0-11 at a tight 68 MW cap;
    dirty unit (45 $/MWh, ef 0.9) covers hours 12-23. The battery shifts
    clean energy into dirty hours, so clean-hour demand displaces charging
    and carries a storage-coupled rate of 0.81 * 0.9 / 0.81 = 0.729 family
    rather than any generator's own factor.
    """
    cf = np.zeros(horizon)
    cf[:12] = 1.0
    ev = np.zeros(horizon)
    ev[12:18] = 10.0
    return GridModel(
        zones=(Zone(id="Z", demand=np.full(horizon, 50.0)),),
        generators=(
            Generator(id="clean", zone_id="Z", kind="hydro_like", existing_cap_mw=68.0,
                      var_om=30.0, capacity_factor_profile=cf, is_clean=True),
            Generator(id="dirty", zone_id="Z", kind="thermal", existing_cap_mw=200.0,
                      heat_rate=10.0, fuel_price=4.5, emissions_factor=0.9),
        ),
        storage_units=(StorageUnit(id="batt", zone_id="Z", existing_power_mw=20.0,
                                   existing_energy_mwh=250.0, charge_efficiency=0.9,
                                   discharge_efficiency=0.9, var_om=0.1),),
        flexible_loads=(FlexibleLoad(id="ev", zone_id="Z", baseline_profile=ev,
                                     max_advance_hours=12, max_delay_hours=12,
                                     max_charge_rate_mw=30.0),),
        config=ScenarioConfig(horizon_hours=horizon),
    )


def backfire(horizon: int = 48) -> GridModel:
    """Midday-solar plus evening-commitment system where the emissions signal backfires.

    Under expansion, midday EV charging is served by NEW solar at an
    amortized 100/12 = 8.33 $/MWh, strictly the cheapest window, so the
    cost-minimizing schedule charges midday and solar is built to exactly
    cover midday load plus EV. At those FIXED capacities the midday margin
    is coal (0.95 tCO2/MWh, the solar fleet is saturated) while the evening
    margin is committed gas (0.45), so a 1,000 $/t penalty walks charging
    into the evening. Re-expanding with the evening schedule builds less
    solar and serves the EV energy with gas: strictly higher emissions.

    The EV block (30 MW pulses, 120 MWh total) is kept below the 3% midday
    perturbation (25.5 MW) so the vacated-midday rate stays above the
    evening gas rate and the penalty loop converges instead of cycling.
    """
    demand = np.full(horizon, 550.0)
    solar_cf = np.zeros(horizon)
    ev = np.zeros(horizon)
    for day in range(horizon // 24):
        base = day * 24
        demand[base + 9] = 650.0
        demand[base + 10: base + 16] = 850.0
        demand[base + 16: base + 22] = 1400.0
        solar_cf[base + 10: base + 16] = 1.0
        ev[base + 18: base + 20] = 30.0
    return GridModel(
        zones=(Zone(id="Z", demand=demand),),
        generators=(
            Generator(id="solar", zone_id="Z", kind="variable_renewable", buildable=True,
                      inv_cost_annual=100.0, is_clean=True,
                      capacity_factor_profile=solar_cf),
            Generator(id="coal", zone_id="Z", kind="thermal", existing_cap_mw=700.0,
                      heat_rate=10.0, fuel_price=2.5, emissions_factor=0.95),
            Generator(id="gas", zone_id="Z", kind="thermal", existing_cap_mw=1200.0,
                      heat_rate=8.0, fuel_price=5.0, emissions_factor=0.45,
                      min_stable_fraction=0.3, startup_cost=50.0),
        ),
        flexible_loads=(FlexibleLoad(id="ev", zone_id="Z", baseline_profile=ev,
                                     max_advance_hours=12, max_delay_hours=12),),
        config=ScenarioConfig(horizon_hours=horizon),
    )
