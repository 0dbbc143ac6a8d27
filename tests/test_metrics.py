from dataclasses import replace

import numpy as np
import pytest

from gridmarg import cli, lp, planner
from gridmarg.errors import (DegenerateDelta, InfeasiblePerturbation, UnknownZone, ZeroDemand)
from gridmarg.grid import Generator, GridModel, ScenarioConfig, Zone
from gridmarg.metrics import (SRME2, average_emission_rate, icev_comparison, long_run_mer,
                              srme_dual, srme_uniform)
from gridmarg.planner import (FixedCapacities, ScaleEV, SingleHour, build_expansion_lp,
                              build_operational_lp, perturb_demand, solve_derived,
                              solve_expansion, solve_model)
from gridmarg.scenario_io import load_scenario
from gridmarg.scheduler import schedule_min_srme

from oracles import bounds_as_rows, spy_on_solves
from test_lp import synth_grid
from toys import (MERIT_STACK_MARGINAL_EF, breakeven_wind, frozen_structure, merit_stack,
                  negative_lr_toy, operational_base, single_bus, storage_coupled,
                  storage_roundtrip)
from test_scenario_io import TUTORIAL


def all_renewable(horizon: int = 6) -> GridModel:
    return GridModel(
        zones=(Zone(id="Z", demand=np.full(horizon, 40.0)),),
        generators=(Generator(id="hydro", zone_id="Z", kind="hydro_like",
                              existing_cap_mw=100.0, is_clean=True,
                              capacity_factor_profile=np.ones(horizon)),),
        config=ScenarioConfig(horizon_hours=horizon),
    )


# --- average emission rate ------------------------------------------------------

def test_aer_simple_ratio():
    result = solve_model(build_expansion_lp(single_bus(demand=50.0)))
    # 45 tCO2/h over 50 MWh/h.
    assert average_emission_rate(result) == pytest.approx(0.9)


def test_aer_all_renewable_is_zero():
    result = solve_model(build_expansion_lp(all_renewable()))
    assert average_emission_rate(result) == 0.0


def test_aer_two_zone_tutorial_fixture():
    grid = load_scenario(TUTORIAL)
    result = solve_model(build_expansion_lp(grid))
    # Hand-computed in the tutorial doc: coal 3120 MWh x 0.9, gas 600 x 0.4.
    assert average_emission_rate(result) == pytest.approx(3048.0 / 3720.0, abs=1e-12)
    assert average_emission_rate(result, "A") == pytest.approx(2808.0 / 2400.0, abs=1e-12)
    assert average_emission_rate(result, "B") == pytest.approx(240.0 / 1320.0, abs=1e-12)
    # Demand-weighted zonal mean reproduces the system rate (lossless line).
    weighted = (2808.0 / 2400.0) * 2400.0 + (240.0 / 1320.0) * 1320.0
    assert average_emission_rate(result) == pytest.approx(weighted / 3720.0)


def test_aer_zero_demand_and_unknown_zone():
    result = solve_model(build_expansion_lp(single_bus(demand=0.0)))
    with pytest.raises(ZeroDemand):
        average_emission_rate(result)
    result2 = solve_model(build_expansion_lp(single_bus(demand=10.0)))
    with pytest.raises(UnknownZone):
        average_emission_rate(result2, "nope")


# --- SRME1 ----------------------------------------------------------------------

def test_srme1_headroom_equals_factor():
    # Coal interior at every hour; the re-solve difference is pure coal.
    grid = single_bus(demand=50.0, cap=100.0)
    series = srme_uniform(operational_base(grid))
    np.testing.assert_allclose(series.rates[0], 0.9, atol=1e-9)
    # Oracle: one manual re-solve, same arithmetic as the definition.
    base = solve_model(build_operational_lp(grid, FixedCapacities()))
    from gridmarg.planner import UniformAll
    pert = solve_model(build_operational_lp(
        perturb_demand(grid, ["Z"], UniformAll(0.03)), FixedCapacities()))
    manual = (pert.zonal_emissions.sum(axis=0) - base.zonal_emissions.sum(axis=0)) / (0.03 * 50.0)
    np.testing.assert_allclose(series.rates[0], manual, atol=1e-12)


def test_srme1_zero_emission_fleet():
    grid = all_renewable()
    series = srme_uniform(operational_base(grid))
    np.testing.assert_allclose(series.rates[0], 0.0, atol=1e-12)


def test_srme1_storage_coupling_exceeds_fleet_factor():
    # The hour-0 column carries the whole backfill: its rate tops every
    # generator factor, while the energy-weighted total stays within the
    # round-trip-adjusted fleet bound.
    grid = storage_roundtrip()
    series = srme_uniform(operational_base(grid))
    assert series.rates[0, 0] > 0.9
    assert series.rates[0, 1] == pytest.approx(0.0, abs=1e-9)
    demand = grid.zones[0].demand
    weighted = float((series.rates[0] * demand).sum() / demand.sum())
    assert 0.0 < weighted <= 0.9 / 0.81 + 1e-9
    # The literal annual-load variant is emitted alongside.
    assert series.alt_rates is not None
    total = float(demand.sum())
    np.testing.assert_allclose(series.alt_rates[0],
                               series.rates[0] * demand / total, atol=1e-12)


def test_srme1_zero_demand_hours_get_zero_rate():
    grid = single_bus(demand=50.0)
    zones = (Zone(id="Z", demand=np.concatenate([np.zeros(2), np.full(22, 50.0)])),)
    grid = GridModel(zones=zones, generators=grid.generators, config=grid.config)
    series = srme_uniform(operational_base(grid))
    assert series.rates[0, 0] == 0.0 and series.rates[0, 1] == 0.0
    np.testing.assert_allclose(series.rates[0, 2:], 0.9, atol=1e-9)


def test_srme1_infeasible_perturbation():
    grid = single_bus(demand=100.0, cap=101.0, nse_penalty=None)
    with pytest.raises(InfeasiblePerturbation):
        srme_uniform(operational_base(grid))


def test_srme1_two_zone_targeting_on_tutorial():
    # Perturbing zone A rides the coal margin (0.9); zone B, behind the
    # saturated line, rides its local gas margin (0.4).
    grid = load_scenario(TUTORIAL)
    series = srme_uniform(operational_base(grid))
    np.testing.assert_allclose(series.rates[series.zone_ids.index("A")], 0.9, atol=1e-9)
    np.testing.assert_allclose(series.rates[series.zone_ids.index("B")], 0.4, atol=1e-9)


# --- SRME2 ----------------------------------------------------------------------

def test_srme2_merit_order_exact():
    grid = merit_stack()
    series = srme_dual(operational_base(grid))
    np.testing.assert_allclose(series.rates[0], MERIT_STACK_MARGINAL_EF, atol=1e-9)
    assert series.details["lambda_second"] >= 0


def test_srme2_all_renewable_zero():
    grid = all_renewable()
    series = srme_dual(operational_base(grid))
    np.testing.assert_allclose(series.rates[0], 0.0, atol=1e-12)


def test_srme2_storage_roundtrip_rate():
    grid = storage_roundtrip()
    series = srme_dual(operational_base(grid))
    assert series.rates[0, 0] == pytest.approx(0.9, abs=1e-9)
    assert series.rates[0, 1] == pytest.approx(0.9 / 0.81, abs=1e-9)


def test_srme2_two_zone_rates_match_finite_difference():
    grid = load_scenario(TUTORIAL)
    base = solve_model(build_operational_lp(grid, FixedCapacities()))
    series = srme_dual(base)
    for zone, hour in (("A", 3), ("A", 20), ("B", 3), ("B", 20)):
        pg = perturb_demand(grid, [zone], SingleHour(zone, hour, 1.0))
        pert = solve_model(build_operational_lp(pg, FixedCapacities()))
        fd = pert.total_emissions - base.total_emissions
        zi = series.zone_ids.index(zone)
        assert series.rates[zi, hour] == pytest.approx(fd, abs=1e-6), (zone, hour)
    np.testing.assert_allclose(series.rates[series.zone_ids.index("A")], 0.9, atol=1e-9)
    np.testing.assert_allclose(series.rates[series.zone_ids.index("B")], 0.4, atol=1e-9)


def test_srme2_matches_finite_difference_oracle():
    grid = storage_roundtrip()
    base = solve_model(build_operational_lp(grid, FixedCapacities()))
    series = srme_dual(base)
    for hour in range(2):
        pg = perturb_demand(grid, ["Z"], SingleHour("Z", hour, 1.0))
        pert = solve_model(build_operational_lp(pg, FixedCapacities()))
        fd = pert.total_emissions - base.total_emissions
        assert series.rates[0, hour] == pytest.approx(fd, abs=1e-6)


def _random_system(rng, horizon=24):
    from gridmarg.grid import StorageUnit, TransmissionLine
    nzones = int(rng.integers(1, 3))
    zones, gens, stores, lines = [], [], [], []
    for z in range(nzones):
        zid = f"z{z}"
        demand = rng.uniform(40, 120) + rng.uniform(10, 50) * np.sin(
            2 * np.pi * np.arange(horizon) / 24 + rng.uniform(0, 6))
        zones.append(Zone(id=zid, demand=np.maximum(5.0, demand)))
        for g in range(int(rng.integers(2, 4))):
            gens.append(Generator(
                id=f"g{z}_{g}", zone_id=zid, kind="thermal",
                existing_cap_mw=float(rng.uniform(40, 150)),
                heat_rate=float(rng.uniform(5, 12)), fuel_price=float(rng.uniform(1, 6)),
                var_om=float(rng.uniform(0, 3)),
                emissions_factor=float(rng.uniform(0.05, 1.0))))
        if rng.random() < 0.6:
            stores.append(StorageUnit(
                id=f"s{z}", zone_id=zid, existing_power_mw=float(rng.uniform(5, 25)),
                existing_energy_mwh=float(rng.uniform(20, 80)),
                charge_efficiency=float(rng.uniform(0.85, 0.95)),
                discharge_efficiency=float(rng.uniform(0.85, 0.95)),
                var_om=float(rng.uniform(0.1, 1.0))))
    if nzones == 2:
        lines.append(TransmissionLine(id="l01", from_zone="z0", to_zone="z1",
                                      capacity_mw=float(rng.uniform(10, 60)),
                                      loss_fraction=float(rng.uniform(0, 0.05))))
    return GridModel(zones=tuple(zones), generators=tuple(gens),
                     storage_units=tuple(stores), lines=tuple(lines),
                     config=ScenarioConfig(horizon_hours=horizon))


def _emissions_slope(grid, caps, base, zid, hour, mw) -> float:
    """(emissions with mw more demand at (zid, hour) - base emissions) / mw."""
    pert = perturb_demand(grid, [zid], SingleHour(zid, hour, mw))
    return (solve_model(build_operational_lp(pert, caps)).total_emissions
            - base.total_emissions) / mw


def test_srme2_finite_difference_property_on_random_systems():
    # The defining property, sampled over random multi-zone storage systems:
    # wherever the +1 MW and -1 MW re-solves agree, the dual-based rate
    # reproduces them to well inside 1e-4 tCO2/MWh. Where they disagree the
    # emissions response has a kink at that hour, and the rate may be
    # either one-sided difference, depending on the optimal basis.
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(14):
        grid = _random_system(rng)
        caps = FixedCapacities()
        base = solve_model(build_operational_lp(grid, caps))
        series = srme_dual(base)
        for zid in grid.zone_ids():
            zi = series.zone_ids.index(zid)
            for hour in (int(h) for h in rng.choice(24, size=4, replace=False)):
                up, down = (_emissions_slope(grid, caps, base, zid, hour, mw)
                            for mw in (1.0, -1.0))
                if abs(up - down) > 1e-4:
                    continue
                assert series.rates[zi, hour] == pytest.approx(up, abs=1e-4), (zid, hour)
                assert series.rates[zi, hour] == pytest.approx(down, abs=1e-4), (zid, hour)
                checked += 1
    assert checked >= 15  # the screen must not have skipped everything


def test_srme2_solves_step_2_on_its_bases_lp_without_building_one(monkeypatch):
    grid = load_scenario(TUTORIAL)
    base = operational_base(grid)
    fills = []
    real_fill = planner._fill
    monkeypatch.setattr(planner, "_fill", lambda *args: fills.append(args) or real_fill(*args))
    calls = spy_on_solves(monkeypatch)
    srme_dual(base)
    assert fills == []
    assert len(calls) == 1 and calls[0].warm_start is base.solution
    # Step 2 is base's LP with the cost cap as one more row, minimizing emissions.
    step2 = calls[0].problem
    assert step2.num_ub == base.model.problem.num_ub + 1
    np.testing.assert_array_equal(step2.c, base.model.emissions_coeffs)


@pytest.mark.parametrize("name", ["tutorial", "fleet_24h"])
def test_srme2_step2_columns_equal_a_fresh_conversion(name, tmp_path, monkeypatch):
    grid = (load_scenario(TUTORIAL) if name == "tutorial"
            else synth_grid("fleet", 1, tmp_path, hours=24))
    base = operational_base(grid)
    calls = spy_on_solves(monkeypatch)
    srme_dual(base)
    step2 = calls[0].problem
    fresh = lp.LpMatrix(step2.rows_eq, step2.rows_ub).columns
    for ours, theirs in zip(step2.matrix.columns, fresh, strict=True):
        assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes()


def test_srme2_rates_that_depend_on_the_bound_layout_sit_on_kinks(tmp_path):
    """A capacity limit written as a column bound instead of a singleton row
    moves the rows after it, and SRME2's right-hand-side tie-break is
    indexed by row position, so step 2 can end at another canonical basis
    where its optimum is dual degenerate. On the first pinned check of an
    SRME2 schedule with an 8 h delay window (fleet 168 h, seed 3), every
    cell whose rate differs between the two layouts must be a kink of step
    2's emissions in the cell's demand: the +1 MW and -1 MW differences
    disagree, so no one rate is right there. (bounds_as_rows restates the
    LP in the planner's former layout up to row order; its rates here were
    those of the former layout, bit for bit, 38 cells off the new ones.)
    """
    grid = cli._apply_flex_mode(synth_grid("fleet", 3, tmp_path), "delay8")
    _, trace = schedule_min_srme(solve_expansion(grid), SRME2)
    base = trace.checks[0].base
    as_rows = solve_model(replace(base.model, problem=bounds_as_rows(base.model.problem)))
    moved = np.argwhere(srme_dual(base).rates != srme_dual(as_rows).rates)
    assert len(moved) > 0

    def step2_emissions(result):
        return srme_dual(result).details["step2_emissions"]

    pinned, zone_ids, at_base = base.model.grid, grid.zone_ids(), step2_emissions(base)
    for zi, hour in moved:
        up, down = (step2_emissions(solve_derived(base, perturb_demand(
            pinned, [zone_ids[zi]], SingleHour(zone_ids[zi], int(hour), mw)))) - at_base
            for mw in (1.0, -1.0))
        assert abs(up + down) > 1e-4, (zone_ids[zi], hour, up, -down)


def test_srme2_step2_recovers_least_cost():
    for grid in (merit_stack(), storage_roundtrip(), frozen_structure()):
        series = srme_dual(operational_base(grid))
        cbar = series.details["base_objective"]
        step2 = series.details["step2_cost"]
        assert series.details["lambda_second"] >= 0.0
        assert abs(step2 - cbar) <= 1e-6 * max(1.0, abs(cbar))
        assert step2 >= cbar - 1e-6 * max(1.0, abs(cbar))


def test_srme2_nonbinding_cost_cap_gives_mu_directly():
    # One unit and no NSE: every feasible dispatch has the same cost, so the
    # cap dual is zero and the rate equals the bare balance dual of the
    # emissions solve. (With NSE enabled the cap always binds: slack money
    # buys shed load at 0.9 t per 8980 $, and lambda reports that ratio.)
    grid = single_bus(demand=50.0, nse_penalty=None)
    series = srme_dual(operational_base(grid))
    assert series.details["lambda_second"] == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(series.rates[0], 0.9, atol=1e-9)

    grid = single_bus(demand=50.0, nse_penalty=9000.0)
    shed = srme_dual(operational_base(grid))
    assert shed.details["lambda_second"] == pytest.approx(0.9 / 8980.0, rel=1e-6)
    np.testing.assert_allclose(shed.rates[0], 0.9, atol=1e-9)


# --- LR-MER ---------------------------------------------------------------------

def test_lr_mer_frozen_structure_equals_sr_attribution():
    grid = frozen_structure()
    rates = srme_dual(operational_base(grid))
    report = long_run_mer(solve_expansion(grid), ScaleEV(0.05), sr_rates=rates)
    assert report.lr_mer == pytest.approx(0.4, abs=1e-9)
    assert abs(report.lr_mer - report.sr_attributed / report.delta_demand_mwh) <= 1e-6
    # Invariant holds by construction: lr_mer * delta = emission delta.
    assert report.lr_mer * report.delta_demand_mwh == pytest.approx(
        report.pert_total_emissions - report.base_total_emissions, abs=1e-9)


def test_lr_mer_breakeven_wind_builds_and_zeroes_rate():
    grid = breakeven_wind()
    base = solve_model(build_expansion_lp(grid))
    assert base.new_gen_capacity["wind"] == pytest.approx(220.0, rel=1e-9)
    assert base.generation["coal"].sum() == pytest.approx(0.0, abs=1e-6)
    report = long_run_mer(base, ScaleEV(0.05))
    assert report.lr_mer == pytest.approx(0.0, abs=1e-9)
    assert report.capacity_deltas["wind"]["new_mw"] == pytest.approx(1.0, rel=1e-6)


def test_lr_mer_negative_via_unlocked_wind():
    grid = negative_lr_toy()
    report = long_run_mer(solve_expansion(grid), ScaleEV(0.05))
    assert report.lr_mer == pytest.approx(-0.9, abs=1e-6)
    assert report.lr_mer < 0
    assert report.capacity_deltas["wind"]["new_mw"] > 0


def test_lr_mer_degenerate_delta_guard():
    grid = frozen_structure()
    with pytest.raises(DegenerateDelta):
        long_run_mer(solve_expansion(grid), ScaleEV(1e-9))


@pytest.mark.parametrize("make_grid", [frozen_structure, storage_coupled, negative_lr_toy])
def test_warm_started_ev_scaled_solve_matches_cold(make_grid):
    grid = make_grid()
    base = lp.solve(build_expansion_lp(grid).problem)
    scaled = build_expansion_lp(perturb_demand(grid, "all", ScaleEV(0.05))).problem
    cold = lp.solve(scaled)
    warm = lp.solve(scaled, warm_start=base)
    assert warm.status is lp.SolveStatus.OPTIMAL
    assert warm.objective_value == pytest.approx(cold.objective_value, rel=1e-9)
    assert lp.verify_kkt(scaled, warm).passed
    assert warm.iterations < cold.iterations


def test_lr_mer_warm_starts_from_its_own_base(monkeypatch):
    calls = spy_on_solves(monkeypatch)
    grid = storage_coupled()
    report = long_run_mer(solve_expansion(grid), ScaleEV(0.05))
    assert len(calls) == 2
    base_sol, base_start, pert_start = calls[0].solution, calls[0].warm_start, calls[1].warm_start
    assert base_start is None
    assert pert_start is base_sol
    assert report.base.solution is base_sol
    assert report.base.total_emissions == report.base_total_emissions


def test_aer_attribution_field():
    grid = frozen_structure()
    report = long_run_mer(solve_expansion(grid), ScaleEV(0.05), aer_value=0.75)
    assert report.aer_attributed == pytest.approx(0.75 * report.delta_demand_mwh)


# --- ICEV comparison ------------------------------------------------------------

def _report_with_rate(rate):
    from gridmarg.metrics import ConsequentialReport
    return ConsequentialReport(base_total_emissions=0, pert_total_emissions=0,
                               delta_demand_mwh=1.0, lr_mer=rate, base_total_cost=0,
                               pert_total_cost=0, capacity_deltas={})


def test_icev_comparison_arithmetic():
    assert icev_comparison(_report_with_rate(0.0), 1000, 3.0, 3.0)["pct_reduction"] == 1.0
    out = icev_comparison(_report_with_rate(0.5), 1000, 3.0, 3.0)
    assert out["ev_tco2_per_vehicle"] == pytest.approx(1.5)
    assert out["pct_reduction"] == pytest.approx(0.5)
    # 0.17 t/MWh x 3 MWh = 0.51 t vs 3.0 t: an 83% reduction.
    out = icev_comparison(_report_with_rate(0.17), 1000, 3.0, 3.0)
    assert out["ev_tco2_per_vehicle"] == pytest.approx(0.51)
    assert out["pct_reduction"] == pytest.approx(0.83)
    assert 0.67 <= out["pct_reduction"] <= 0.86
    with pytest.raises(ValueError):
        icev_comparison(_report_with_rate(0.1), 0, 3.0, 3.0)


def test_srme2_unbounded_base_solve_raises_unbounded(monkeypatch):
    from gridmarg.errors import UnboundedModel
    grid = merit_stack()
    monkeypatch.setattr(lp, "solve", lambda problem, *args, **kwargs:
                        lp.LpSolution(status=lp.SolveStatus.UNBOUNDED))
    with pytest.raises(UnboundedModel):   # the base, step 1, is the caller's solve
        srme_dual(operational_base(grid))
