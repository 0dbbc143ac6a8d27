import numpy as np
import pytest

from gridmarg import lp
from gridmarg.errors import (DegenerateDelta, InfeasiblePerturbation, UnknownZone, ZeroDemand)
from gridmarg.grid import Generator, GridModel, ScenarioConfig, Zone
from gridmarg.metrics import (EmissionRateSeries, average_emission_rate, icev_comparison,
                              long_run_mer, read_srme_csv, srme_dual, srme_uniform,
                              write_consequential_json, write_srme_csv)
from gridmarg.planner import (FixedCapacities, ScaleEV, SingleHour, build_expansion_lp,
                              build_operational_lp, perturb_demand, solve_model)
from gridmarg.scenario_io import load_scenario

from toys import (MERIT_STACK_MARGINAL_EF, breakeven_wind, frozen_structure, merit_stack,
                  negative_lr_toy, single_bus, storage_coupled, storage_roundtrip)
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
    series = srme_uniform(grid, FixedCapacities.none())
    np.testing.assert_allclose(series.rates[0], 0.9, atol=1e-9)
    # Oracle: one manual re-solve, same arithmetic as the definition.
    base = solve_model(build_operational_lp(grid, FixedCapacities.none()))
    from gridmarg.planner import UniformAll
    pert = solve_model(build_operational_lp(
        perturb_demand(grid, ["Z"], UniformAll(0.03)), FixedCapacities.none()))
    manual = (pert.zonal_emissions.sum(axis=0) - base.zonal_emissions.sum(axis=0)) / (0.03 * 50.0)
    np.testing.assert_allclose(series.rates[0], manual, atol=1e-12)


def test_srme1_zero_emission_fleet():
    series = srme_uniform(all_renewable(), FixedCapacities.none())
    np.testing.assert_allclose(series.rates[0], 0.0, atol=1e-12)


def test_srme1_storage_coupling_exceeds_fleet_factor():
    # The hour-0 column carries the whole backfill: its rate tops every
    # generator factor, while the energy-weighted total stays within the
    # round-trip-adjusted fleet bound.
    grid = storage_roundtrip()
    series = srme_uniform(grid, FixedCapacities.none())
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
    series = srme_uniform(grid, FixedCapacities.none())
    assert series.rates[0, 0] == 0.0 and series.rates[0, 1] == 0.0
    np.testing.assert_allclose(series.rates[0, 2:], 0.9, atol=1e-9)


def test_srme1_infeasible_perturbation():
    grid = single_bus(demand=100.0, cap=101.0, nse_penalty=None)
    with pytest.raises(InfeasiblePerturbation):
        srme_uniform(grid, FixedCapacities.none())


def test_srme1_two_zone_targeting_on_tutorial():
    # Perturbing zone A rides the coal margin (0.9); zone B, behind the
    # saturated line, rides its local gas margin (0.4).
    grid = load_scenario(TUTORIAL)
    series = srme_uniform(grid, FixedCapacities.none())
    np.testing.assert_allclose(series.rate_for("A"), 0.9, atol=1e-9)
    np.testing.assert_allclose(series.rate_for("B"), 0.4, atol=1e-9)


# --- SRME2 ----------------------------------------------------------------------

def test_srme2_merit_order_exact():
    series = srme_dual(merit_stack(), FixedCapacities.none())
    np.testing.assert_allclose(series.rates[0], MERIT_STACK_MARGINAL_EF, atol=1e-9)
    assert series.details["lambda_second"] >= 0
    assert not series.degenerate_hours.any()


def test_srme2_all_renewable_zero():
    series = srme_dual(all_renewable(), FixedCapacities.none())
    np.testing.assert_allclose(series.rates[0], 0.0, atol=1e-12)


def test_srme2_storage_roundtrip_rate():
    series = srme_dual(storage_roundtrip(), FixedCapacities.none())
    assert series.rates[0, 0] == pytest.approx(0.9, abs=1e-9)
    assert series.rates[0, 1] == pytest.approx(0.9 / 0.81, abs=1e-9)


def test_srme2_two_zone_rates_match_finite_difference():
    grid = load_scenario(TUTORIAL)
    series = srme_dual(grid, FixedCapacities.none())
    base = solve_model(build_operational_lp(grid, FixedCapacities.none()))
    for zone, hour in (("A", 3), ("A", 20), ("B", 3), ("B", 20)):
        pg = perturb_demand(grid, [zone], SingleHour(zone, hour, 1.0))
        pert = solve_model(build_operational_lp(pg, FixedCapacities.none()))
        fd = pert.total_emissions - base.total_emissions
        zi = series.zone_ids.index(zone)
        assert series.rates[zi, hour] == pytest.approx(fd, abs=1e-6), (zone, hour)
    np.testing.assert_allclose(series.rate_for("A"), 0.9, atol=1e-9)
    np.testing.assert_allclose(series.rate_for("B"), 0.4, atol=1e-9)


def test_srme2_matches_finite_difference_oracle():
    grid = storage_roundtrip()
    series = srme_dual(grid, FixedCapacities.none())
    base = solve_model(build_operational_lp(grid, FixedCapacities.none()))
    for hour in range(2):
        pg = perturb_demand(grid, ["Z"], SingleHour("Z", hour, 1.0))
        pert = solve_model(build_operational_lp(pg, FixedCapacities.none()))
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


def test_srme2_finite_difference_property_on_random_systems():
    # The defining property, sampled over random multi-zone storage systems:
    # wherever the base optimum is not flagged degenerate, the dual-based
    # rate reproduces the +1 MW re-solve to well inside 1e-4 tCO2/MWh.
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(14):
        grid = _random_system(rng)
        caps = FixedCapacities.none()
        series = srme_dual(grid, caps)
        base = solve_model(build_operational_lp(grid, caps))
        for zid in grid.zone_ids():
            zi = series.zone_ids.index(zid)
            for hour in (int(h) for h in rng.choice(24, size=4, replace=False)):
                if series.degenerate_hours[hour]:
                    continue
                pg = perturb_demand(grid, [zid], SingleHour(zid, hour, 1.0))
                pert = solve_model(build_operational_lp(pg, caps))
                fd = pert.total_emissions - base.total_emissions
                assert series.rates[zi, hour] == pytest.approx(fd, abs=1e-4), (zid, hour)
                checked += 1
    assert checked >= 15  # the screen must not have skipped everything


def test_srme2_step2_recovers_least_cost():
    for grid in (merit_stack(), storage_roundtrip(), frozen_structure()):
        series = srme_dual(grid, FixedCapacities.none())
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
    series = srme_dual(single_bus(demand=50.0, nse_penalty=None), FixedCapacities.none())
    assert series.details["lambda_second"] == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(series.rates[0], 0.9, atol=1e-9)

    shed = srme_dual(single_bus(demand=50.0, nse_penalty=9000.0), FixedCapacities.none())
    assert shed.details["lambda_second"] == pytest.approx(0.9 / 8980.0, rel=1e-6)
    np.testing.assert_allclose(shed.rates[0], 0.9, atol=1e-9)


# --- LR-MER ---------------------------------------------------------------------

def test_lr_mer_frozen_structure_equals_sr_attribution():
    grid = frozen_structure()
    rates = srme_dual(grid, FixedCapacities.none())
    report = long_run_mer(grid, ScaleEV(0.05), sr_rates=rates)
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
    report = long_run_mer(grid, ScaleEV(0.05))
    assert report.lr_mer == pytest.approx(0.0, abs=1e-9)
    assert report.capacity_deltas["wind"]["new_mw"] == pytest.approx(1.0, rel=1e-6)


def test_lr_mer_negative_via_unlocked_wind():
    report = long_run_mer(negative_lr_toy(), ScaleEV(0.05))
    assert report.lr_mer == pytest.approx(-0.9, abs=1e-6)
    assert report.lr_mer < 0
    assert report.capacity_deltas["wind"]["new_mw"] > 0


def test_lr_mer_degenerate_delta_guard():
    with pytest.raises(DegenerateDelta):
        long_run_mer(frozen_structure(), ScaleEV(1e-9))


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
    calls = []
    real_solve = lp.solve

    def recording_solve(problem, warm_start=None):
        sol = real_solve(problem, warm_start=warm_start)
        calls.append((sol, warm_start))
        return sol

    monkeypatch.setattr(lp, "solve", recording_solve)
    report = long_run_mer(storage_coupled(), ScaleEV(0.05))
    assert len(calls) == 2
    (base_sol, base_start), (_, pert_start) = calls
    assert base_start is None
    assert pert_start is base_sol
    assert report.base.solution is base_sol
    assert report.base.total_emissions == report.base_total_emissions


def test_aer_attribution_field():
    grid = frozen_structure()
    report = long_run_mer(grid, ScaleEV(0.05), aer_value=0.75)
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


# --- files ----------------------------------------------------------------------

def test_srme_csv_round_trip_twelve_digits(tmp_path):
    rng = np.random.default_rng(11)
    rates = rng.normal(0.3, 0.4, (2, 5))  # negative entries are legitimate
    series = EmissionRateSeries(rates=rates, method="SRME2", zone_ids=("a", "b"))
    path = tmp_path / "srme.csv"
    write_srme_csv(series, path)
    back = read_srme_csv(path)
    np.testing.assert_allclose(back[("a", "SRME2")], rates[0], rtol=1e-11)
    np.testing.assert_allclose(back[("b", "SRME2")], rates[1], rtol=1e-11)


def test_consequential_json_written(tmp_path):
    import json
    report = _report_with_rate(0.25)
    path = tmp_path / "consequential.json"
    write_consequential_json(report, path)
    data = json.loads(path.read_text())
    assert data["lr_mer_tco2_per_mwh"] == pytest.approx(0.25)
    assert "capacity_deltas" in data
