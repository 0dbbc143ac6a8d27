"""The built LP arrays of known grids, pinned by SHA-256 digest.

The digests were recorded from the row-by-row LpBuilder that the block
builder replaced. A change to the values, dtypes, row order or entry order
within a row of any built array changes a digest, and with it the model
HiGHS receives. The five grids with a rigid flexible load were pinned again
when rigid loads gained the cumulative columns and rows of windowed ones;
with those columns and rows dropped, each LP equals the one pinned before.
All fifteen were pinned again when a capacity limit without an investment
column became the column's upper bound instead of a singleton <=-row; with
each such bound put back as a row at its former position, each LP equals
the one pinned before.
"""

import hashlib

import numpy as np
import pytest

from gridmarg.grid import (FlexibleLoad, Generator, GridModel, ScenarioConfig, StorageUnit,
                           TransmissionLine, Zone)
from gridmarg.planner import FixedCapacities, build_expansion_lp, build_operational_lp
from gridmarg.scenario_io import load_scenario

import toys
from test_scenario_io import TUTORIAL


def problem_digest(problem) -> str:
    h = hashlib.sha256()
    for arr in (problem.c, problem.b_eq, problem.b_ub, problem.lb, problem.ub):
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    for mat in (problem.A_eq, problem.A_ub):
        h.update(f"{mat.format}{mat.shape}".encode())
        for arr in (mat.data, mat.indices, mat.indptr):
            h.update(f"{arr.dtype.str}{arr.shape}".encode())
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def every_feature(horizon: int = 12) -> GridModel:
    """Two zones using every row family the planner emits.

    Commitment with and without a minimum-stable row, buildable and retirable
    units, buildable and existing storage, expandable lossy lines, a windowed
    and a rigid flexible load, a clean-share floor and a CO2 cap.
    """
    t = np.arange(horizon)
    cf = 0.5 + 0.4 * np.sin(t / 3.0)
    return GridModel(
        zones=(Zone(id="A", demand=60.0 + 10.0 * np.cos(t / 2.0), clean_share_min=0.3),
               Zone(id="B", demand=40.0 + 5.0 * np.sin(t / 5.0))),
        generators=(
            Generator(id="coal", zone_id="A", kind="thermal", existing_cap_mw=80.0,
                      retirable=True, fixed_om=30.0, heat_rate=10.0, fuel_price=2.0,
                      emissions_factor=0.95, min_stable_fraction=0.4, startup_cost=60.0),
            Generator(id="ccgt", zone_id="A", kind="thermal", existing_cap_mw=20.0,
                      buildable=True, retirable=True, inv_cost_annual=90.0, fixed_om=12.0,
                      heat_rate=7.0, fuel_price=3.0, emissions_factor=0.37,
                      min_stable_fraction=0.5),
            Generator(id="peaker", zone_id="B", kind="thermal", buildable=True,
                      inv_cost_annual=40.0, heat_rate=11.0, fuel_price=3.0,
                      emissions_factor=0.55, startup_cost=25.0),
            Generator(id="wind", zone_id="A", kind="variable_renewable", existing_cap_mw=15.0,
                      buildable=True, retirable=True, inv_cost_annual=70.0, fixed_om=5.0,
                      capacity_factor_profile=cf, is_clean=True),
            Generator(id="hydro", zone_id="B", kind="hydro_like", existing_cap_mw=10.0,
                      var_om=4.0, capacity_factor_profile=np.full(horizon, 0.6),
                      is_clean=True),
        ),
        storage_units=(
            StorageUnit(id="bat_A", zone_id="A", existing_power_mw=5.0,
                        existing_energy_mwh=10.0, buildable=True, inv_cost_power=20.0,
                        inv_cost_energy=8.0, charge_efficiency=0.9,
                        discharge_efficiency=0.95, var_om=1.0),
            StorageUnit(id="bat_B", zone_id="B", existing_power_mw=3.0,
                        existing_energy_mwh=6.0, charge_efficiency=0.85),
        ),
        lines=(
            TransmissionLine(id="AB", from_zone="A", to_zone="B", capacity_mw=25.0,
                             expandable=True, expansion_cost=15.0, loss_fraction=0.02),
            TransmissionLine(id="BA", from_zone="B", to_zone="A", capacity_mw=10.0),
        ),
        flexible_loads=(
            FlexibleLoad(id="ev_A", zone_id="A", baseline_profile=4.0 + 2.0 * np.sin(t),
                         max_advance_hours=2, max_delay_hours=3, max_charge_rate_mw=12.0),
            FlexibleLoad(id="ev_B", zone_id="B", baseline_profile=np.full(horizon, 3.0)),
        ),
        config=ScenarioConfig(horizon_hours=horizon, co2_cap_tons=5000.0),
    )


def pinned_capacities(grid: GridModel) -> FixedCapacities:
    """Fixed, solver-free capacities for every investment column of the grid."""
    return FixedCapacities(
        new_gen={g.id: 1.5 for g in grid.generators if g.buildable},
        retired_gen={g.id: 0.25 for g in grid.generators if g.retirable},
        storage_power={s.id: 2.0 for s in grid.storage_units if s.buildable},
        storage_energy={s.id: 4.0 for s in grid.storage_units if s.buildable},
        lines={l.id: 3.0 for l in grid.lines if l.expandable},
    )


GRIDS = {
    "tutorial": lambda: load_scenario(TUTORIAL),
    "every_feature": every_feature,
    "single_bus": toys.single_bus,
    "single_bus_no_nse": lambda: toys.single_bus(nse_penalty=None),
    "merit_stack": toys.merit_stack,
    "storage_arbitrage_2h": toys.storage_arbitrage_2h,
    "storage_roundtrip": toys.storage_roundtrip,
    "frozen_structure": toys.frozen_structure,
    "breakeven_wind": toys.breakeven_wind,
    "negative_lr_toy": toys.negative_lr_toy,
    "nondegenerate_48h": toys.nondegenerate_48h,
    "solar_midday": toys.solar_midday,
    "storage_coupled": toys.storage_coupled,
    "backfire": toys.backfire,
    "backfire_window_3_5": lambda: toys.with_flex_window(toys.backfire(), 3, 5),
}

PINNED = {
    "backfire": {"expansion": "8cb79a9df95d8ac533006d6f5e753758fa1e3193aadbde0c9d1a1f66d303bb42",
               "operational": "7f0f6a20cb2aefc3a11093ce37d9e68a3a04e57c0c2f6d6c15a3a1599ce07438"},
    "backfire_window_3_5": {"expansion": "7f6677b76c8afa693cb9fc30faf465ad859de32f1b4ff341141b991d744eac6e",
                          "operational": "5380e6c92e163c14090062d684990ee597656158be2628b6063c7777682d4262"},
    "breakeven_wind": {"expansion": "955c5210712d5e9661286805d54c50af9f7a5caed18a724ceb60c5cbb8d8f712",
                     "operational": "e266e5dc3240bfc891ea54ad9e7dc7b5259238d3ab0ec607f5102b9401d983e0"},
    "every_feature": {"expansion": "8aeb968d0373c14b51a5d3e6f6d648487ba93e9f9e31860c66ff08a53d1a261e",
                    "operational": "0350d3feb3fe4de0d8502c0cde3d25062e8049ca143f4f28398f63b6fe243c80"},
    "frozen_structure": {"expansion": "14fcaf573b1b7e2376425ec186a428a7277639ae344fa5ef59876d3ae910eaa1",
                       "operational": "14fcaf573b1b7e2376425ec186a428a7277639ae344fa5ef59876d3ae910eaa1"},
    "merit_stack": {"expansion": "1d9aebd883c5dbe4be2b9c05525c15f1d9b089cf04149edbf6c49588ac5b6f67",
                  "operational": "1d9aebd883c5dbe4be2b9c05525c15f1d9b089cf04149edbf6c49588ac5b6f67"},
    "negative_lr_toy": {"expansion": "8d7c74a4958c1bd883cab57ca043fe23f5e0fa709a4ff04b3a54b07e2fabd834",
                      "operational": "70d78aece1530ef7005d4d3bd4a83150a30466d74059a09993545ed190dd2110"},
    "nondegenerate_48h": {"expansion": "f73403ad3308cbbc29536d33ef6359866b8e52e81a29f3fabfc9998c8381be80",
                        "operational": "f73403ad3308cbbc29536d33ef6359866b8e52e81a29f3fabfc9998c8381be80"},
    "single_bus": {"expansion": "d89c53bb7f4a553ced818779efdc0a96ec0c958d441a8d85395a4966c6f3cefb",
                 "operational": "d89c53bb7f4a553ced818779efdc0a96ec0c958d441a8d85395a4966c6f3cefb"},
    "single_bus_no_nse": {"expansion": "172f952a11d180fda94db5fc2fbd26510044dba3cb3025fc2300389b03bb0c06",
                        "operational": "172f952a11d180fda94db5fc2fbd26510044dba3cb3025fc2300389b03bb0c06"},
    "solar_midday": {"expansion": "fff10616c17493a1568cc97bb4b44c6c023ae8a8f7e7137ff03f9382a646714d",
                   "operational": "fff10616c17493a1568cc97bb4b44c6c023ae8a8f7e7137ff03f9382a646714d"},
    "storage_arbitrage_2h": {"expansion": "ff7dc8cca73815ba0969a656974c7fdc386f2498852009530a1284b9721a591f",
                           "operational": "ff7dc8cca73815ba0969a656974c7fdc386f2498852009530a1284b9721a591f"},
    "storage_coupled": {"expansion": "cf5c711d74a7711caef423a38a25ccdba7b7787ce7a74510da3e5ba764641803",
                      "operational": "cf5c711d74a7711caef423a38a25ccdba7b7787ce7a74510da3e5ba764641803"},
    "storage_roundtrip": {"expansion": "649552b3fa3578f9d522be5464eb6a6d65e6d619a5e4ad486a8a3f9ff758c7a9",
                        "operational": "649552b3fa3578f9d522be5464eb6a6d65e6d619a5e4ad486a8a3f9ff758c7a9"},
    "tutorial": {"expansion": "4cfc39563e247035afd0531dd855e3a2c0fb4ca022b8d4e6f7e5b140203d9510",
               "operational": "4cfc39563e247035afd0531dd855e3a2c0fb4ca022b8d4e6f7e5b140203d9510"},
}


def build_both(name):
    grid = GRIDS[name]()
    return {"expansion": build_expansion_lp(grid).problem,
            "operational": build_operational_lp(grid, pinned_capacities(grid)).problem}


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_built_lp_arrays_match_pinned_digests(name):
    built = build_both(name)
    assert {mode: problem_digest(p) for mode, p in built.items()} == PINNED[name]
