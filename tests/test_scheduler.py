import json

import numpy as np
import pytest

from gridmarg import scheduler
from gridmarg.cli import main
from gridmarg.errors import ModelBuildError, ScheduleMismatch
from gridmarg.flex import ChargingSchedule, ScheduleSource
from gridmarg.grid import FlexibleLoad, Generator, GridModel, ScenarioConfig, Zone
from gridmarg.planner import (FixedCapacities, ScaleEV, build_expansion_lp,
                              build_operational_lp, perturb_demand, solve_expansion, solve_model)
from gridmarg.metrics import ev_scaled
from gridmarg.scheduler import (PIN_SNAP_TOL, ConsequentialCheck, evaluate_fixed_schedule,
                                pin_schedule, schedule_from_result, schedule_min_srme)

from oracles import spy_on_solves
from test_cli import scenario_file
from toys import backfire, operational_base, solar_midday, storage_coupled, with_flex_window


def test_delay_window_seeks_cheap_hour():
    # 10 MWh requested at hour 18, delay 8: feasible hours 18..23 (clamped).
    # Hour 23 is strictly cheapest, so the whole pulse lands there.
    horizon = 24
    cheap_cf = np.zeros(horizon)
    cheap_cf[23] = 1.0
    ev = np.zeros(horizon)
    ev[18] = 10.0
    grid = GridModel(
        zones=(Zone(id="Z", demand=np.full(horizon, 20.0)),),
        generators=(
            Generator(id="flat", zone_id="Z", kind="thermal", existing_cap_mw=100.0,
                      heat_rate=10.0, fuel_price=3.0, emissions_factor=0.5),
            Generator(id="cheap", zone_id="Z", kind="hydro_like", existing_cap_mw=100.0,
                      var_om=10.0, capacity_factor_profile=cheap_cf),
        ),
        flexible_loads=(FlexibleLoad(id="ev", zone_id="Z", baseline_profile=ev,
                                     max_delay_hours=8, max_charge_rate_mw=10.0),),
        config=ScenarioConfig(horizon_hours=horizon),
    )
    result = solve_model(build_expansion_lp(grid))
    served = result.flex_served["ev"]
    assert served[23] == pytest.approx(10.0, abs=1e-7)
    assert served.sum() == pytest.approx(10.0, abs=1e-7)
    # Enumeration oracle: every single-hour placement in 18..23 costs at least
    # as much; hour 23 is the unique minimum (10 vs 30 $/MWh).
    assert np.all(served[:18] <= 1e-9)


def test_window24_concentrates_in_solar_midday():
    grid = with_flex_window(solar_midday(), 12, 12)
    result = solve_model(build_expansion_lp(grid))
    served = result.flex_served["ev"]
    midday = served[10:16].sum() + served[34:40].sum()
    assert midday == pytest.approx(float(grid.flexible_loads[0].baseline_profile.sum()),
                                   abs=1e-6)


def test_flexibility_cost_monotonicity_chain():
    grid = solar_midday()
    costs = {}
    for label, (adv, dly) in {"noflex": (0, 0), "delay8": (0, 8), "window24": (12, 12)}.items():
        costs[label] = solve_model(build_expansion_lp(with_flex_window(grid, adv, dly))).total_cost
    ev_energy = float(grid.flexible_loads[0].baseline_profile.sum())
    assert costs["window24"] <= costs["delay8"] <= costs["noflex"]
    # Desk-scale analog of the reported system savings: strict, sizable steps.
    assert (costs["noflex"] - costs["delay8"]) / ev_energy >= 1.0
    assert (costs["delay8"] - costs["window24"]) / ev_energy >= 1.0


def test_uniform_rates_leave_cost_min_schedule():
    # Gas is the interior margin every hour, so rates are flat and the
    # penalty adds a constant: the schedule stays the cost minimizer.
    horizon = 24
    ev = np.zeros(horizon)
    ev[8:12] = 5.0
    grid = GridModel(
        zones=(Zone(id="Z", demand=np.full(horizon, 50.0)),),
        generators=(Generator(id="gas", zone_id="Z", kind="thermal", existing_cap_mw=200.0,
                              heat_rate=10.0, fuel_price=4.0, emissions_factor=0.4),),
        flexible_loads=(FlexibleLoad(id="ev", zone_id="Z", baseline_profile=ev,
                                     max_advance_hours=6, max_delay_hours=6,
                                     max_charge_rate_mw=20.0),),
        config=ScenarioConfig(horizon_hours=horizon),
    )
    base = solve_model(build_expansion_lp(grid))
    sched, trace = schedule_min_srme(base, method="SRME1")
    assert trace.converged
    np.testing.assert_allclose(sched.per_load["ev"], base.flex_served["ev"], atol=1e-6)
    assert trace.records[-1].schedule_delta_norm == pytest.approx(0.0, abs=1e-6)


def test_zero_rate_hour_attracts_shiftable_energy():
    # At hour 12 the dirty unit is capacity-bound and a pricier clean unit is
    # the margin (rate 0); everywhere else dirty is interior (rate 0.9). The
    # cost-min schedule avoids the 25 $/MWh hour, but the 1,000 $/t penalty
    # pulls everything shiftable there, up to the charge-rate cap.
    horizon = 24
    demand = np.full(horizon, 30.0)
    demand[12] = 85.0
    clean_cf = np.zeros(horizon)
    clean_cf[12] = 1.0
    ev = np.zeros(horizon)
    ev[9:12] = 10.0
    grid = GridModel(
        zones=(Zone(id="Z", demand=demand),),
        generators=(
            Generator(id="dirty", zone_id="Z", kind="thermal", existing_cap_mw=80.0,
                      heat_rate=10.0, fuel_price=2.0, emissions_factor=0.9),
            Generator(id="clean", zone_id="Z", kind="hydro_like", existing_cap_mw=300.0,
                      var_om=25.0, capacity_factor_profile=clean_cf, is_clean=True),
        ),
        flexible_loads=(FlexibleLoad(id="ev", zone_id="Z", baseline_profile=ev,
                                     max_advance_hours=12, max_delay_hours=12,
                                     max_charge_rate_mw=25.0),),
        config=ScenarioConfig(horizon_hours=horizon),
    )
    sched, trace = schedule_min_srme(solve_expansion(grid), method="SRME1")
    assert trace.converged
    assert trace.iterations_used <= 3
    assert sched.per_load["ev"][12] == pytest.approx(25.0, abs=1e-6)  # rate cap binds
    assert sched.per_load["ev"].sum() == pytest.approx(30.0, abs=1e-6)


def test_storage_coupled_loop_converges_with_sound_proxy():
    grid = storage_coupled()
    for method in ("SRME1", "SRME2"):
        sched, trace = schedule_min_srme(solve_expansion(grid), method=method)
        assert trace.converged, method
        assert trace.iterations_used <= 10
        for rec in trace.records:
            assert rec.rate_weighted_proxy <= rec.rate_weighted_proxy_prev + 1e-6
        total = float(grid.flexible_loads[0].effective_baseline().sum())
        assert sched.per_load["ev"].sum() == pytest.approx(total, abs=1e-6)


def test_evaluate_fixed_schedule_is_fixed_point_of_expansion():
    grid = with_flex_window(solar_midday(), 12, 12)
    exp = solve_model(build_expansion_lp(grid))
    schedule = schedule_from_result(exp, ScheduleSource.COST_MIN)
    report = evaluate_fixed_schedule(schedule, exp)
    assert report.base_total_cost == pytest.approx(exp.total_cost, rel=1e-9, abs=1e-6)
    assert report.base_total_emissions == pytest.approx(exp.total_emissions, rel=1e-9)


def test_schedule_evaluations_start_from_the_expansion_optimum(tmp_path, monkeypatch):
    # Pinning a schedule changes only the bounds of the charging columns, so
    # both pinned evaluations start warm; only the first expansion solve is cold.
    grid = backfire()
    ix = build_expansion_lp(grid).index
    invest = list(ix.new_gen.values())
    served = ix.served["ev"]

    def run(out: str, cold: bool) -> tuple[dict, list]:
        with monkeypatch.context() as patch:
            calls = spy_on_solves(patch, cold=cold)
            argv = ["schedule", scenario_file(tmp_path, grid), "--signal", "srme1", "--flex",
                    "scenario", "--out", str(tmp_path / out)]
            assert main(argv) == 0
        return json.loads((tmp_path / out / "comparison.json").read_text()), calls

    warm, calls = run("warm", cold=False)
    expansion = [c for c in calls if np.any(c.problem.lb[invest] < c.problem.ub[invest])]
    pinned = [c for c in expansion if np.all(c.problem.lb[served] == c.problem.ub[served])]
    assert len(pinned) == 4   # base and EV-scaled, for the cost and the signal schedule
    assert [c.warm_start is None for c in expansion] == [True] + [False] * (len(expansion) - 1)
    cold, _ = run("cold", cold=True)
    for report in ("cost_reference", "signal_schedule"):
        for key in ("base_total_emissions_tco2", "pert_total_emissions_tco2",
                    "base_total_cost_usd", "pert_total_cost_usd"):
            assert warm[report][key] == pytest.approx(cold[report][key], rel=1e-9)


def test_evaluate_rejects_mismatched_energy():
    grid = with_flex_window(solar_midday(), 12, 12)
    exp = solve_model(build_expansion_lp(grid))
    schedule = schedule_from_result(exp, ScheduleSource.COST_MIN)
    bad = ChargingSchedule(served=schedule.served, per_load={"ev": schedule.per_load["ev"] * 1.1},
                           source=ScheduleSource.FIXED, zone_ids=schedule.zone_ids)
    with pytest.raises(ScheduleMismatch):
        evaluate_fixed_schedule(bad, exp)
    with pytest.raises(ScheduleMismatch):
        evaluate_fixed_schedule(ChargingSchedule(served=schedule.served, per_load={},
                                                 source=ScheduleSource.FIXED,
                                                 zone_ids=schedule.zone_ids), exp)


def test_emissions_signal_backfires_on_midday_solar_toy():
    grid = backfire()
    base = solve_model(build_expansion_lp(grid))
    ev = base.flex_served["ev"]
    midday_base = ev[10:16].sum() + ev[34:40].sum()
    assert midday_base == pytest.approx(120.0, abs=1e-6)  # cost-min charges midday

    sched, trace = schedule_min_srme(base, method="SRME1")
    assert trace.converged
    midday_after = sched.per_load["ev"][10:16].sum() + sched.per_load["ev"][34:40].sum()
    assert midday_after <= 1e-6  # the signal vacates midday entirely

    rep_cost = evaluate_fixed_schedule(schedule_from_result(base, ScheduleSource.COST_MIN), base)
    rep_srme = evaluate_fixed_schedule(sched, base)
    assert rep_srme.base_total_emissions > rep_cost.base_total_emissions
    # 120 MWh moved from new solar to evening gas at 0.45 t/MWh.
    assert rep_srme.base_total_emissions - rep_cost.base_total_emissions == pytest.approx(
        54.0, rel=1e-6)


def scaled_check(base) -> ConsequentialCheck:
    """The penalty loop's check of base, a pinned grid's operational optimum:
    the schedule scaled by 1.05 through LR-MER's re-solve."""
    return ConsequentialCheck(base, ev_scaled(base, perturbation=ScaleEV(0.05)))


def test_consequential_check_uses_pinned_operational_solves():
    grid = storage_coupled()
    caps = FixedCapacities()
    base = solve_model(build_expansion_lp(grid))
    pinned = pin_schedule(grid, base.flex_served)
    delta = scaled_check(operational_base(pinned, caps)).delta
    assert np.isfinite(delta)
    # Scaling the schedule by 1.05 grows served energy by 5%; emissions move
    # with it, so the check is strictly positive on this fossil-margin toy.
    assert delta > 0


def test_consequential_check_scales_the_snapped_schedule():
    # Scaled by 1.05, an entry at -PIN_SNAP_TOL would leave the snap band and
    # fail the build; the check scales the pinned grid, where it is already 0.
    grid = storage_coupled()
    load = grid.flexible_loads[0]
    checks = []
    for value in (0.0, -PIN_SNAP_TOL):
        profile = load.baseline_profile.copy()
        profile[0] = value
        pinned = pin_schedule(grid, {load.id: profile})
        checks.append(scaled_check(operational_base(pinned)).delta)
    assert checks[0] == checks[1]


def test_penalty_loop_pins_each_schedule_once(monkeypatch):
    pinned = []
    real = scheduler.pin_schedule
    monkeypatch.setattr(scheduler, "pin_schedule",
                        lambda grid, per_load: pinned.append(per_load) or real(grid, per_load))
    grid = with_flex_window(solar_midday(), 0, 8)   # two passes with SRME2 rates
    _, trace = schedule_min_srme(solve_expansion(grid), method="SRME2")
    assert trace.iterations_used >= 2
    # The cost-min schedule and each pass's schedule, once each.
    assert len(pinned) == 1 + trace.iterations_used


def test_pin_schedule_snaps_round_off_and_rejects_real_negatives():
    grid = storage_coupled()
    load = grid.flexible_loads[0]
    for value in (-0.5 * PIN_SNAP_TOL, -PIN_SNAP_TOL):
        profile = load.baseline_profile.copy()
        profile[0] = value
        pinned = pin_schedule(grid, {load.id: profile})
        assert pinned.flexible_loads[0].baseline_profile[0] == 0.0
        assert profile[0] == value  # the caller's array is left alone
        build_operational_lp(pinned, FixedCapacities())
    profile = load.baseline_profile.copy()
    profile[0] = -2.0 * PIN_SNAP_TOL
    pinned = pin_schedule(grid, {load.id: profile})
    with pytest.raises(ModelBuildError, match="nonnegative"):
        build_operational_lp(pinned, FixedCapacities())


# --- the results a schedule shares with earlier solves ------------------------------

def _census_grid(which: str, flex: str, tmp_path):
    from gridmarg.cli import _apply_flex_mode
    from gridmarg.grid import resolve_scenario
    from gridmarg.scenario_io import load_scenario
    from test_lp import synth_grid
    from test_scenario_io import TUTORIAL
    grid = (resolve_scenario(load_scenario(TUTORIAL)) if which == "tutorial"
            else synth_grid(which, 1, tmp_path))
    return _apply_flex_mode(grid, flex)


@pytest.mark.parametrize("which", ["tutorial", "fleet", "expansion"])
def test_rigid_cost_schedule_pins_to_the_grid_itself(which, tmp_path):
    from test_lp import assert_same_bits
    grid = _census_grid(which, "none", tmp_path)
    assert grid.charging_is_rigid
    expansion = solve_expansion(grid)
    own = build_expansion_lp(grid).problem
    pinned = build_expansion_lp(pin_schedule(grid, expansion.flex_served)).problem
    for name in ("c", "b_eq", "b_ub", "lb", "ub"):
        assert_same_bits(getattr(pinned, name), getattr(own, name))
    for rows in ("rows_eq", "rows_ub"):
        for name in ("data", "indices", "indptr"):
            assert_same_bits(getattr(getattr(pinned, rows), name),
                             getattr(getattr(own, rows), name))


@pytest.mark.parametrize("make_grid,method", [
    (lambda: with_flex_window(solar_midday(), 0, 8), "SRME2"),
    (backfire, "SRME1"),
], ids=["solar-delay8-srme2", "backfire-srme1"])
def test_each_pass_rates_start_from_its_check_base_without_solving_it(make_grid, method,
                                                                     monkeypatch):
    grid = make_grid()
    expansion = solve_expansion(grid)
    solves = spy_on_solves(monkeypatch)
    rate_calls = []
    real = scheduler.short_run_rates

    def rates(method, base, zones="all"):
        before = len(solves)
        series = real(method, base, zones)
        rate_calls.append((base, solves[before:], zones))
        return series
    monkeypatch.setattr(scheduler, "short_run_rates", rates)
    _, trace = schedule_min_srme(expansion, method=method)
    assert len(rate_calls) == trace.iterations_used >= 2
    for check, (base, calls, zones) in zip(trace.checks, rate_calls):
        assert base is check.base
        # Only the rates' own solves: step 2, or one perturbed solve per zone.
        assert len(calls) == (1 if method == "SRME2" else len(zones))
        assert all(call.warm_start is base.solution for call in calls)


def test_a_pass_that_returns_to_a_schedule_reads_its_earlier_check(tmp_path):
    # On the fleet grid with an 8 h delay window, SRME1's third pass returns
    # to the first pass's schedule.
    grid = _census_grid("fleet", "delay8", tmp_path)
    _, trace = schedule_min_srme(solve_expansion(grid), method="SRME1")
    assert trace.iterations_used == 3
    assert trace.checks[3] is trace.checks[1] and trace.checks[2] is not trace.checks[1]
    first, _, third = trace.records
    assert third.consequential_tco2 == first.consequential_tco2
    assert first.consequential_tco2 == pytest.approx(220.594810415, abs=1e-9)


@pytest.mark.parametrize("which", ["tutorial", "fleet"])
def test_evaluations_taken_from_checks_are_fresh_evaluations(which, tmp_path):
    # With nothing to build, compare_signal takes each schedule's evaluation
    # from the loop's check of it: a fresh evaluation solves the same LPs
    # from the same starts, and must agree with it bit for bit. On the
    # tutorial the signal keeps the cost schedule, and the two share one.
    from test_lp import assert_same_bits
    grid = _census_grid(which, "delay8", tmp_path)
    assert not grid.has_investment
    expansion = solve_expansion(grid)
    schedule, trace, cost_report, report = scheduler.compare_signal(expansion, "srme1")
    first, last = trace.checks[0], trace.checks[-1]
    assert (last is first) == (report is cost_report) == (which == "tutorial")
    cost_schedule = schedule_from_result(expansion, ScheduleSource.COST_MIN)
    totals = ("base_total_emissions", "pert_total_emissions", "delta_demand_mwh", "lr_mer",
              "base_total_cost", "pert_total_cost")
    for s, got, check in ((cost_schedule, cost_report, first), (schedule, report, last)):
        assert got.base.solution is check.base.solution
        fresh = evaluate_fixed_schedule(s, expansion)
        assert_same_bits(np.array([getattr(got, n) for n in totals]),
                         np.array([getattr(fresh, n) for n in totals]))
        assert got == fresh
        for mine, theirs in ((got.base, fresh.base), (check.pert, ev_scaled(fresh.base))):
            for name in ("x", "eq_duals", "ineq_duals", "reduced_costs"):
                assert_same_bits(getattr(mine.solution, name), getattr(theirs.solution, name))


# --- rigid charging at its rate cap ---------------------------------------------

def _rate_capped_tutorial(scale: float) -> GridModel:
    """The tutorial with ev_b at penetration scale `scale` and its rate cap at
    its effective peak: any upward scaling of the unpinned load fails to build."""
    from dataclasses import replace
    from gridmarg.scenario_io import load_scenario
    from test_scenario_io import TUTORIAL
    grid = load_scenario(TUTORIAL)
    (load,) = grid.flexible_loads
    peak = float(np.max(load.baseline_profile * scale))
    return replace(grid, flexible_loads=(replace(load, penetration_scale=scale,
                                                 max_charge_rate_mw=peak),))


# The rigid shortcuts hand the unpinned grid's solution on as the pinned
# grid's optimum; the EV scaling after them must still scale the pinned grid,
# which has no rate cap (and whose profile is the scaled baseline, so 1.3
# also checks that the scaling is not applied on top of the penetration scale).
@pytest.mark.parametrize("scale", [1.0, 1.3])
@pytest.mark.parametrize("signal", ["cost", "srme1", "srme2"])
def test_rigid_schedule_at_its_rate_cap_runs(signal, scale, tmp_path):
    scenario = scenario_file(tmp_path, _rate_capped_tutorial(scale))
    assert main(["schedule", scenario, "--signal", signal, "--flex", "none",
                 "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("scale", [1.0, 1.3])
def test_rigid_check_at_the_rate_cap_scales_the_pinned_grid(scale):
    from test_lp import assert_same_bits
    grid = _rate_capped_tutorial(scale)
    assert grid.charging_is_rigid
    expansion = solve_expansion(grid)
    _, trace = schedule_min_srme(expansion, method="SRME1")
    pinned = pin_schedule(grid, expansion.flex_served)
    scaled = perturb_demand(pinned, "all", ScaleEV(grid.config.perturbation_fraction))
    want = build_operational_lp(scaled, expansion.fixed_capacities()).problem
    for check in trace.checks:
        assert check.base.model.grid.flexible_loads[0].max_charge_rate_mw is None
        for name in ("c", "b_eq", "b_ub", "lb", "ub"):
            assert_same_bits(getattr(check.pert.model.problem, name), getattr(want, name))
    # The cost schedule's evaluation takes the expansion solution as its base,
    # decoded with the pinned grid's model.
    report = evaluate_fixed_schedule(schedule_from_result(expansion, ScheduleSource.COST_MIN),
                                     expansion)
    assert report.base.solution is expansion.solution
    assert report.base.model.grid.flexible_loads[0].max_charge_rate_mw is None


# EV scaling drops a rigid load's cap, which never reaches its LP, so the
# unpinned grid's LR-MER scales as the pinned grid's check does.
@pytest.mark.parametrize("scale", [1.0, 1.3])
def test_lrmer_at_the_rate_cap_reports_what_the_uncapped_grid_reports(scale, tmp_path):
    from dataclasses import replace
    capped = _rate_capped_tutorial(scale)
    uncapped = replace(capped, flexible_loads=tuple(replace(load, max_charge_rate_mw=None)
                                                    for load in capped.flexible_loads))
    blobs = []
    for name, grid in (("capped", capped), ("uncapped", uncapped)):
        (tmp_path / name).mkdir()
        out = tmp_path / name / "out"
        assert main(["metrics", scenario_file(tmp_path / name, grid), "--method", "lrmer",
                     "--out", str(out)]) == 0
        blobs.append((out / "consequential.json").read_bytes())
    assert blobs[0] == blobs[1]
