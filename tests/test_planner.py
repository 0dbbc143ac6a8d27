import numpy as np
import pytest

from gridmarg.errors import (InfeasibleModel, MissingCapacity, ModelBuildError, UnknownZone)
from gridmarg.flex import FlexWindow, cumulative_bounds
from gridmarg.grid import FlexibleLoad, Generator, GridModel, ScenarioConfig, Zone
from gridmarg.planner import (FixedCapacities, ScaleEV, SingleHour, UniformAll,
                              build_expansion_lp, build_operational_lp, perturb_demand,
                              solve_model)

from toys import (MERIT_STACK_MARGINAL_EF, breakeven_wind, merit_stack, nondegenerate_48h,
                  single_bus, storage_arbitrage_2h, storage_roundtrip)


def test_trivial_single_bus_dispatch():
    grid = single_bus(demand=50.0, cap=100.0)
    model = build_expansion_lp(grid)
    assert model.problem.num_eq == 24  # one balance row per hour, nothing else
    result = solve_model(model)
    np.testing.assert_allclose(result.generation["coal"], 50.0, atol=1e-8)
    # e_h = 50 MW x 0.9 tCO2/MWh = 45 tCO2 every hour.
    np.testing.assert_allclose(result.zonal_emissions[0], 45.0, atol=1e-8)
    np.testing.assert_allclose(result.prices[0], 20.0, atol=1e-8)
    assert result.total_cost == pytest.approx(50 * 20 * 24, rel=1e-9)


def test_nse_priced_at_penalty():
    grid = single_bus(demand=120.0, cap=100.0, nse_penalty=9000.0)
    result = solve_model(build_expansion_lp(grid))
    np.testing.assert_allclose(result.nse[0], 20.0, atol=1e-7)
    np.testing.assert_allclose(result.prices[0], 9000.0, atol=1e-6)


def test_infeasible_without_nse():
    grid = single_bus(demand=120.0, cap=100.0, nse_penalty=None)
    with pytest.raises(InfeasibleModel):
        solve_model(build_expansion_lp(grid))


def test_wind_builds_only_below_breakeven():
    # Displaced fuel value per MW of wind: cf 0.5 x 24 h x 20 $/MWh = 240.
    def with_wind(inv_cost):
        base = single_bus(demand=100.0, cap=200.0)
        wind = Generator(id="wind", zone_id="Z", kind="variable_renewable", buildable=True,
                         inv_cost_annual=inv_cost, is_clean=True,
                         capacity_factor_profile=np.full(24, 0.5))
        return GridModel(zones=base.zones, generators=base.generators + (wind,),
                         config=base.config)

    cheap = solve_model(build_expansion_lp(with_wind(200.0)))
    assert cheap.new_gen_capacity["wind"] == pytest.approx(200.0, rel=1e-6)
    np.testing.assert_allclose(cheap.generation["coal"], 0.0, atol=1e-6)

    dear = solve_model(build_expansion_lp(with_wind(280.0)))
    assert dear.new_gen_capacity["wind"] == pytest.approx(0.0, abs=1e-6)


def test_operational_pinning_is_a_fixed_point():
    grid = breakeven_wind()
    exp = solve_model(build_expansion_lp(grid))
    op = solve_model(build_operational_lp(grid, exp.fixed_capacities()))
    for gid in exp.generation:
        np.testing.assert_allclose(op.generation[gid], exp.generation[gid], atol=1e-6)
    # Expansion total = operational total + investment-side terms.
    wind = next(g for g in grid.generators if g.id == "wind")
    invested = (wind.inv_cost_annual + wind.fixed_om) * exp.new_gen_capacity["wind"]
    assert op.total_cost + invested == pytest.approx(exp.total_cost, rel=1e-9, abs=1e-6)


def test_operational_with_wind_pinned_at_zero():
    grid = breakeven_wind()
    op = solve_model(build_operational_lp(grid, FixedCapacities(new_gen={"wind": 0.0})))
    assert op.generation["wind"].sum() == pytest.approx(0.0, abs=1e-9)
    total_load = grid.zones[0].demand.sum() + grid.flexible_loads[0].baseline_profile.sum()
    assert op.generation["coal"].sum() == pytest.approx(total_load, rel=1e-9)


def test_missing_capacity_rejected():
    grid = breakeven_wind()
    with pytest.raises(MissingCapacity, match="wind"):
        build_operational_lp(grid, FixedCapacities())


def test_profile_length_mismatch_is_model_build_error():
    grid = single_bus()
    bad = GridModel(zones=(Zone(id="Z", demand=np.full(10, 5.0)),),
                    generators=grid.generators, config=grid.config)
    with pytest.raises(ModelBuildError, match="demand series"):
        build_expansion_lp(bad)


def test_marginal_cost_dual_matches_finite_difference():
    grid = single_bus(demand=50.0, cap=100.0)
    base = solve_model(build_expansion_lp(grid))
    bumped_grid = perturb_demand(grid, ["Z"], SingleHour("Z", 7, 1.0))
    bumped = solve_model(build_expansion_lp(bumped_grid))
    assert bumped.total_cost - base.total_cost == pytest.approx(base.prices[0, 7], abs=1e-4)


def test_storage_arbitrage_two_hour_closed_form():
    result = solve_model(build_expansion_lp(storage_arbitrage_2h()))
    np.testing.assert_allclose(result.charge["batt"], [30.0, 0.0], atol=1e-7)
    np.testing.assert_allclose(result.discharge["batt"], [0.0, 30.0], atol=1e-7)
    np.testing.assert_allclose(result.generation["cheap"], [80.0, 0.0], atol=1e-7)
    np.testing.assert_allclose(result.generation["gas"], [0.0, 20.0], atol=1e-7)
    np.testing.assert_allclose(result.prices[0], [10.0, 50.0], atol=1e-7)
    # Price spread captured: 30 MWh moved from a 10 to a 50 $/MWh hour.
    assert result.total_cost == pytest.approx(80 * 10 + 20 * 50, rel=1e-9)


def test_cyclic_storage_balance():
    model = build_expansion_lp(storage_roundtrip())
    result = solve_model(model)
    soc = result.solution.x[model.index.soc["batt"]]
    ch = result.charge["batt"]
    dis = result.discharge["batt"]
    # Wrap: hour 0 links back to hour H-1.
    assert soc[0] == pytest.approx(soc[1] + 0.9 * ch[0] - dis[0] / 0.9, abs=1e-6)
    assert soc[1] == pytest.approx(soc[0] + 0.9 * ch[1] - dis[1] / 0.9, abs=1e-6)
    # Hour 1 needs 20 MW beyond the coal cap: grid charge 20/0.81.
    assert ch[0] == pytest.approx(20.0 / 0.81, rel=1e-9)
    assert result.generation["coal"][0] == pytest.approx(50.0 + 20.0 / 0.81, rel=1e-9)


def test_linearized_commitment_pays_startup():
    grid = GridModel(
        zones=(Zone(id="Z", demand=np.array([10.0, 50.0])),),
        generators=(Generator(id="gas", zone_id="Z", kind="thermal", existing_cap_mw=60.0,
                              heat_rate=10.0, fuel_price=2.0, emissions_factor=0.4,
                              min_stable_fraction=0.5, startup_cost=100.0),),
        config=ScenarioConfig(horizon_hours=2),
    )
    model = build_expansion_lp(grid)
    result = solve_model(model)
    x = result.solution.x
    # Hour 0 commitment is capped at 20 by the min-stable level (gen 10 >= 0.5 u),
    # so 30 MW must start for hour 1.
    np.testing.assert_allclose(x[model.index.commit["gas"]], [20.0, 50.0], atol=1e-7)
    np.testing.assert_allclose(x[model.index.startup["gas"]], [0.0, 30.0], atol=1e-7)
    assert result.total_cost == pytest.approx(60 * 20 + 30 * 100, rel=1e-9)


def test_co2_cap_dual_equals_implied_carbon_price():
    def capped(cap_tons):
        grid = single_bus(demand=50.0, cap=100.0)
        cfg = ScenarioConfig(horizon_hours=24, co2_cap_tons=cap_tons)
        return GridModel(zones=grid.zones, generators=grid.generators, config=cfg)

    model = build_expansion_lp(capped(1000.0))   # unconstrained emissions would be 1080
    result = solve_model(model)
    assert result.total_emissions == pytest.approx(1000.0, rel=1e-9)
    dual = result.solution.ineq_duals[model.index.co2_cap_row]
    assert dual > 0
    relaxed = solve_model(build_expansion_lp(capped(1001.0)))
    # Re-solve with cap +1 ton: the saving equals the cap dual.
    assert result.total_cost - relaxed.total_cost == pytest.approx(dual, rel=1e-6)


def test_energy_balance_residual_everywhere():
    grid = nondegenerate_48h()
    result = solve_model(build_expansion_lp(grid))
    supply = np.zeros((1, grid.horizon))
    for gen in grid.generators:
        supply[0] += result.generation[gen.id]
    for sto in grid.storage_units:
        supply[0] += result.discharge[sto.id] - result.charge[sto.id]
    supply[0] += result.nse[0]
    residual = supply[0] - grid.zones[0].demand
    assert np.max(np.abs(residual)) <= 1e-5


def test_emissions_accounting_identity():
    grid = nondegenerate_48h()
    result = solve_model(build_expansion_lp(grid))
    by_unit = sum(float(result.generation[g.id].sum()) * g.emissions_factor
                  for g in grid.generators)
    assert result.total_emissions == pytest.approx(by_unit, abs=1e-9)


def test_capacity_relaxation_never_raises_cost():
    from dataclasses import replace as dc_replace
    from toys import solar_midday, storage_coupled

    def relax(grid, scale):
        gens = tuple(dc_replace(g, existing_cap_mw=g.existing_cap_mw * scale)
                     for g in grid.generators)
        return dc_replace(grid, generators=gens)

    # Five structurally different instances: relaxing any generation bound is
    # a pure LP relaxation, so total cost must be non-increasing.
    instances = [single_bus(demand=120.0, cap=100.0), merit_stack(), storage_roundtrip(),
                 solar_midday(), storage_coupled()]
    for grid in instances:
        costs = [solve_model(build_expansion_lp(relax(grid, s))).total_cost
                 for s in (1.0, 1.2, 1.5, 3.0)]
        assert all(a >= b - 1e-6 for a, b in zip(costs, costs[1:])), type(grid)


def test_price_sanity_interior_marginal_unit():
    grid = merit_stack()
    result = solve_model(build_expansion_lp(grid))
    expected_prices = np.array([10.0, 20.0, 30.0, 30.0, 20.0, 10.0])
    np.testing.assert_allclose(result.prices[0], expected_prices, atol=1e-6)
    # And the marginal emission factor sequence the merit order implies.
    np.testing.assert_array_equal(MERIT_STACK_MARGINAL_EF,
                                  [0.9, 0.5, 0.2, 0.2, 0.5, 0.9])


def test_perturb_demand_scale_ev():
    horizon = 24
    profile = np.full(horizon, 300.0)  # 7.2 GWh over the day
    grid = GridModel(
        zones=(Zone(id="Z", demand=np.zeros(horizon)),),
        flexible_loads=(FlexibleLoad(id="ev", zone_id="Z", baseline_profile=profile,
                                     max_delay_hours=4),),
        config=ScenarioConfig(horizon_hours=horizon))
    assert profile.sum() == pytest.approx(7200.0)
    out = perturb_demand(grid, ["Z"], ScaleEV(0.05))
    assert out.flexible_loads[0].baseline_profile.sum() == pytest.approx(7560.0)
    assert grid.flexible_loads[0].baseline_profile.sum() == pytest.approx(7200.0)


def test_perturb_demand_uniform_and_single_hour():
    grid = single_bus(demand=100.0)
    uniform = perturb_demand(grid, ["Z"], UniformAll(0.03))
    np.testing.assert_allclose(uniform.zones[0].demand, 103.0)

    single = perturb_demand(grid, ["Z"], SingleHour("Z", 12, 1.0))
    diff = single.zones[0].demand - grid.zones[0].demand
    assert diff[12] == pytest.approx(1.0)
    assert np.count_nonzero(diff) == 1

    with pytest.raises(UnknownZone):
        perturb_demand(grid, ["nope"], UniformAll(0.03))
    with pytest.raises(ValueError):
        perturb_demand(grid, ["Z"], UniformAll(-1.5))
    with pytest.raises(ValueError):
        perturb_demand(grid, ["Z"], SingleHour("Z", 99, 1.0))
    # A bare zone-id string means that zone, not an iterable of characters.
    multi = GridModel(zones=(Zone(id="west", demand=np.full(24, 10.0)),
                             Zone(id="east", demand=np.full(24, 10.0))),
                      config=grid.config)
    bumped = perturb_demand(multi, "west", UniformAll(0.10))
    np.testing.assert_allclose(bumped.zones[0].demand, 11.0)
    np.testing.assert_allclose(bumped.zones[1].demand, 10.0)


def test_windowed_load_columns_carry_the_window_bounds():
    # A windowed load's cumulative columns take cumulative_bounds as they are,
    # except the last, pinned to the requested total; a rigid load's served
    # columns are pinned to its baseline, and its cumulative columns keep
    # [0, inf).
    horizon = 6
    ev = np.array([0.0, 4.0, 6.0, 0.0, 3.0, 1.0])
    grid = single_bus(demand=30.0, horizon=horizon)
    grid = GridModel(
        zones=grid.zones, generators=grid.generators, config=grid.config,
        flexible_loads=(
            FlexibleLoad(id="ev", zone_id="Z", baseline_profile=ev, max_advance_hours=1,
                         max_delay_hours=2, max_charge_rate_mw=8.0),
            FlexibleLoad(id="bus", zone_id="Z", baseline_profile=ev[::-1].copy())))
    model = build_expansion_lp(grid)
    lb, ub, ix = model.problem.lb, model.problem.ub, model.index
    floor, ceiling = cumulative_bounds(ev, FlexWindow(advance=1, delay=2))
    cum = ix.cumulative["ev"]
    np.testing.assert_array_equal(lb[cum[:-1]], floor[:-1])
    np.testing.assert_array_equal(ub[cum[:-1]], ceiling[:-1])
    assert lb[cum[-1]] == ub[cum[-1]] == float(np.sum(ev))
    np.testing.assert_array_equal(ub[ix.served["ev"]], 8.0)
    np.testing.assert_array_equal(lb[ix.cumulative["bus"]], 0.0)
    np.testing.assert_array_equal(ub[ix.cumulative["bus"]], np.inf)
    np.testing.assert_array_equal(lb[ix.served["bus"]], ev[::-1])
    np.testing.assert_array_equal(ub[ix.served["bus"]], ev[::-1])
    result = solve_model(model)
    assert float(np.sum(result.served_demand)) == pytest.approx(
        30.0 * horizon + 2 * float(np.sum(ev)), rel=1e-9)


def test_every_built_model_passes_kkt_verification():
    from gridmarg.lp import verify_kkt
    from toys import backfire, solar_midday, storage_coupled
    for grid in (merit_stack(), storage_roundtrip(), nondegenerate_48h(), breakeven_wind(),
                 solar_midday(), storage_coupled(), backfire()):
        model = build_expansion_lp(grid)
        result = solve_model(model)
        report = verify_kkt(model.problem, result.solution)
        assert report.passed, (type(grid), report)


def test_tutorial_line_flows_decode():
    from gridmarg.scenario_io import load_scenario
    from test_scenario_io import TUTORIAL
    model = build_expansion_lp(load_scenario(TUTORIAL))
    x = solve_model(model).solution.x
    # Coal exports saturate the 30 MW line toward B every hour; nothing flows back.
    np.testing.assert_allclose(x[model.index.flow_fwd["ab"]], 30.0, atol=1e-7)
    np.testing.assert_allclose(x[model.index.flow_bwd["ab"]], 0.0, atol=1e-9)




# --- the operational result of a grid with nothing to build ---------------------

@pytest.mark.parametrize("which", ["tutorial", "fleet"])
def test_operational_result_with_nothing_to_build_is_the_expansion_solution(
        which, tmp_path, monkeypatch):
    from gridmarg.grid import resolve_scenario
    from gridmarg.planner import solve_expansion, solve_operational
    from gridmarg.scenario_io import load_scenario
    from oracles import spy_on_solves
    from test_lp import assert_same_bits, synth_grid
    from test_scenario_io import TUTORIAL
    grid = (resolve_scenario(load_scenario(TUTORIAL)) if which == "tutorial"
            else synth_grid("fleet", 1, tmp_path))
    assert not grid.has_investment
    expansion = solve_expansion(grid)
    calls = spy_on_solves(monkeypatch)
    got = solve_operational(expansion)
    assert calls == []
    model = build_operational_lp(grid, expansion.fixed_capacities())
    cold = solve_model(model)
    assert len(calls) == 1 and calls[0].warm_start is None
    for name in ("x", "eq_duals", "ineq_duals", "reduced_costs"):
        assert_same_bits(getattr(got.solution, name), getattr(cold.solution, name))
    # The operational model's cost offset, not the expansion model's (the
    # existing fleet's fixed O&M, which the tutorial does not charge).
    offset = build_expansion_lp(grid).cost_offset
    assert (offset > 0) == (which == "fleet") and model.cost_offset == 0.0
    assert got.total_cost == cold.total_cost == expansion.total_cost - offset
    assert got.model.mode == cold.model.mode


# --- a derived solve: base's LP rebuilt for a perturbed grid --------------------

@pytest.mark.parametrize("mode", ["expansion", "operational"])
@pytest.mark.parametrize("perturbation", [ScaleEV(0.05), UniformAll(0.03)],
                         ids=["scale-ev", "uniform"])
def test_derived_solve_is_a_warm_solve_of_a_fresh_build(mode, perturbation, tmp_path):
    # The re-solve that LR-MER, SRME1 and the consequential check share:
    # the perturbed grid's LP in the base's mode at its capacities, solved
    # from the base's solution.
    from gridmarg.planner import solve_derived, solve_expansion, solve_operational
    from test_lp import assert_same_bits, synth_grid
    grid = synth_grid("expansion", 1, tmp_path)
    expansion = solve_expansion(grid)
    caps = expansion.fixed_capacities()
    base = expansion if mode == "expansion" else solve_operational(expansion)
    assert base.model.fixed == (None if mode == "expansion" else caps)
    perturbed = perturb_demand(base.model.grid, ["B"], perturbation)
    got = solve_derived(base, perturbed)
    want = solve_model(build_expansion_lp(perturbed) if mode == "expansion"
                       else build_operational_lp(perturbed, caps), warm_start=base.solution)
    assert got.model.grid is perturbed and got.model.mode == want.model.mode
    for name in ("c", "b_eq", "b_ub", "lb", "ub"):
        assert_same_bits(getattr(got.model.problem, name), getattr(want.model.problem, name))
    for name in ("x", "eq_duals", "ineq_duals", "reduced_costs"):
        assert_same_bits(getattr(got.solution, name), getattr(want.solution, name))
    assert got.total_cost == want.total_cost
