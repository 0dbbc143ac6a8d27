"""The built LP arrays of known grids, pinned by SHA-256 digest.

The digests were recorded from the row-by-row LpBuilder that the block
builder replaced. A change to the values, dtypes, row order or entry order
within a row of any built array changes a digest, and with it the model
HiGHS receives. The five grids with a rigid flexible load were pinned again
when rigid loads gained the cumulative columns and rows of windowed ones;
with those columns and rows dropped, each LP equals the one pinned before.
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
    "backfire": {"expansion": "718f91fdf070d5efb9a3557c995acb4d36067dea3c66022226c4d1de13ed3f21",
                 "operational": "271f8f49adb9e7f364f781afacba3b0f199f22a62ff4ffd5c1a952a15e4ad284"},
    "backfire_window_3_5": {"expansion": "28a25f2d7e3c29fd6e7c8cdf1d24bb0574e6471338628e50c1af56f9d02a2d5e",
                            "operational": "f238b78be44ffce5890b9f0c4efb84120f4b099756408e56351e8c9263ae41cc"},
    "breakeven_wind": {"expansion": "18f233aa706ccfb9cd1065372354c1ee61ad8fff31813457a014498e760619c8",
                       "operational": "83bef869e70ea237fe349b4ea6cf32bb9e77a623affa7e1b58ad63ea50a815b0"},
    "every_feature": {"expansion": "acf0af298067ed7dae1b046ecc816fc269801286ea5d6190d10de3b13e397b53",
                      "operational": "62309c2fede7ba409044dcb6f0c2508bae7a76ade9b051eb69980585eba37ff3"},
    "frozen_structure": {"expansion": "42f020c77081a3d0ca1a9728aa0ba2556f9311bda8bf3ce30d8713858f6c0403",
                         "operational": "42f020c77081a3d0ca1a9728aa0ba2556f9311bda8bf3ce30d8713858f6c0403"},
    "merit_stack": {"expansion": "b957220d59452f62aca7faf4ec728f30af4b356e578991c118f16f9f05bea192",
                    "operational": "b957220d59452f62aca7faf4ec728f30af4b356e578991c118f16f9f05bea192"},
    "negative_lr_toy": {"expansion": "8980744999ea1f19d5f898c08476b3979811d9c0e8c629053e5904f7c04dc113",
                        "operational": "88536b56c010695aae62bc4306382c15abca64854f7477e6fe6ba33ed2dcfcc3"},
    "nondegenerate_48h": {"expansion": "05901baab1c5c4b9ef74cc6c704cf4ce36063d84366112c0631095168f171c40",
                          "operational": "05901baab1c5c4b9ef74cc6c704cf4ce36063d84366112c0631095168f171c40"},
    "single_bus": {"expansion": "5925283d258c234eb7efb4abb0771dfe0e2811c810110653556006a0b5a39001",
                   "operational": "5925283d258c234eb7efb4abb0771dfe0e2811c810110653556006a0b5a39001"},
    "single_bus_no_nse": {"expansion": "1ca04d1abc20113c7165888bf57bd6e41652ddfcbced7dbf1a9d7d48f520cd66",
                          "operational": "1ca04d1abc20113c7165888bf57bd6e41652ddfcbced7dbf1a9d7d48f520cd66"},
    "solar_midday": {"expansion": "12e690a2e0706a6fbce705f5340ca72ebdcfe37fdc12c1954cee452c15cc5f0b",
                     "operational": "12e690a2e0706a6fbce705f5340ca72ebdcfe37fdc12c1954cee452c15cc5f0b"},
    "storage_arbitrage_2h": {"expansion": "235c96f361848bf576f4249e7ae75126b862662addfe7caa84b931b51e1a3090",
                             "operational": "235c96f361848bf576f4249e7ae75126b862662addfe7caa84b931b51e1a3090"},
    "storage_coupled": {"expansion": "ed83b656edddf81e1459f41fd7f4aaff9e521a6ea046d797839688fd1a923f50",
                        "operational": "ed83b656edddf81e1459f41fd7f4aaff9e521a6ea046d797839688fd1a923f50"},
    "storage_roundtrip": {"expansion": "5e7b8600dd612e495e0fbd8d192eebc915d44e13a26dea5e530f21ece9f51fec",
                          "operational": "5e7b8600dd612e495e0fbd8d192eebc915d44e13a26dea5e530f21ece9f51fec"},
    "tutorial": {"expansion": "36136d628bb02842cbc3f216e4a4bc97805dfd180f8384299b4b73ddeb439f87",
                 "operational": "36136d628bb02842cbc3f216e4a4bc97805dfd180f8384299b4b73ddeb439f87"},
}


def build_both(name):
    grid = GRIDS[name]()
    return {"expansion": build_expansion_lp(grid).problem,
            "operational": build_operational_lp(grid, pinned_capacities(grid)).problem}


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_built_lp_arrays_match_pinned_digests(name):
    built = build_both(name)
    assert {mode: problem_digest(p) for mode, p in built.items()} == PINNED[name]
