"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured margins (run with -s to see them). Tolerances are pinned here,
not configurable.
"""

import time

import numpy as np
import pytest

from gridmarg.cli import main as cli_main
from gridmarg.errors import InfeasibleWindow
from gridmarg.flex import FlexWindow, check_window_feasible, cumulative_bounds
from gridmarg.grid import FlexibleLoad, Generator, GridModel, ScenarioConfig, Zone
from gridmarg.lp import SolveStatus, solve, verify_kkt
from gridmarg.metrics import (icev_comparison, long_run_mer, srme_dual, srme_uniform)
from gridmarg.planner import (FixedCapacities, ScaleEV, SingleHour, build_expansion_lp,
                              build_operational_lp, perturb_demand, solve_expansion,
                              solve_model)
from gridmarg.scenario_io import write_scenario
from gridmarg.scheduler import (evaluate_fixed_schedule, schedule_from_result,
                                schedule_min_srme)
from gridmarg.flex import ScheduleSource

from oracles import random_feasible_lp, vertex_enumeration_minimum
from toys import (MERIT_STACK_MARGINAL_EF, backfire, breakeven_wind, frozen_structure,
                  merit_stack, nondegenerate_48h, operational_base, solar_midday,
                  storage_coupled, storage_roundtrip, with_flex_window)


def _report(criterion: int, name: str, detail: str):
    print(f"ACCEPTANCE {criterion:02d} PASS {name} ({detail})")


def test_criterion_01_lp_solver_validity():
    started = time.time()
    rng = np.random.default_rng(42)
    solved = 0
    worst_gap = worst_comp = worst_oracle = 0.0
    for trial in range(22):
        if trial < 12:
            n = int(rng.integers(2, 7))       # oracle-checked sizes
        else:
            n = int(rng.integers(10, 51))     # KKT-checked sizes up to 50 vars
        problem = random_feasible_lp(rng, n, n_eq=int(rng.integers(0, 3)),
                                     n_ub=int(rng.integers(1, 7)))
        sol = solve(problem)
        assert sol.status is SolveStatus.OPTIMAL
        report = verify_kkt(problem, sol)
        assert report.duality_gap <= 1e-6
        assert report.max_complementarity <= 1e-6
        worst_gap = max(worst_gap, report.duality_gap)
        worst_comp = max(worst_comp, report.max_complementarity)
        if n <= 6:
            oracle = vertex_enumeration_minimum(problem)
            diff = abs(sol.objective_value - oracle)
            assert diff <= 1e-8
            worst_oracle = max(worst_oracle, diff)
        solved += 1
    elapsed = time.time() - started
    assert solved >= 20
    assert elapsed < 10.0
    _report(1, "lp-solver-validity",
            f"{solved} instances, max gap {worst_gap:.2e}, max cs {worst_comp:.2e}, "
            f"max oracle diff {worst_oracle:.2e}, {elapsed:.1f}s")


def test_criterion_02_srme2_equals_finite_difference():
    started = time.time()
    grid = nondegenerate_48h()
    caps = FixedCapacities()
    base = solve_model(build_operational_lp(grid, caps))
    series = srme_dual(base)
    worst = 0.0
    for hour in range(48):
        pert_grid = perturb_demand(grid, ["Z"], SingleHour("Z", hour, 1.0))
        pert = solve_model(build_operational_lp(pert_grid, caps))
        fd = pert.total_emissions - base.total_emissions
        diff = abs(series.rates[0, hour] - fd)
        assert diff <= 1e-4, f"hour {hour}: dual {series.rates[0, hour]} vs FD {fd}"
        worst = max(worst, diff)
    elapsed = time.time() - started
    assert elapsed < 60.0
    _report(2, "srme2-vs-finite-difference",
            f"48 hours, max |dual-FD| {worst:.2e} tCO2/MWh, {elapsed:.1f}s")


def test_criterion_03_emissions_min_recovers_least_cost():
    checked = 0
    worst = 0.0
    suite = [merit_stack(), storage_roundtrip(), frozen_structure(), nondegenerate_48h(),
             storage_coupled()]
    for grid in suite:
        series = srme_dual(operational_base(grid))
        cbar = series.details["base_objective"]
        rel = abs(series.details["step2_cost"] - cbar) / max(1.0, abs(cbar))
        assert rel <= 1e-6
        assert series.details["lambda_second"] >= 0.0
        worst = max(worst, rel)
        checked += 1
    _report(3, "emissions-min-cost-recovery",
            f"{checked} two-step solves, max relative cost drift {worst:.2e}")


def test_criterion_04_merit_order_exactness():
    grid = merit_stack()
    series = srme_dual(operational_base(grid))
    diffs = np.abs(series.rates[0] - MERIT_STACK_MARGINAL_EF)
    assert np.max(diffs) <= 1e-9
    _report(4, "merit-order-exactness", f"max |rate - marginal factor| {np.max(diffs):.2e}")


def test_criterion_05_lr_below_sr_on_breakeven_toy():
    grid = breakeven_wind()
    base = solve_model(build_expansion_lp(grid))
    caps = base.fixed_capacities()
    sr = srme_uniform(operational_base(grid, caps))
    demand = grid.zones[0].demand
    sr_weighted = float((sr.rates[0] * demand).sum() / demand.sum())
    report = long_run_mer(base, ScaleEV(0.05))
    assert sr_weighted > 0
    assert report.lr_mer <= 0.1 * sr_weighted
    _report(5, "lr-below-sr-direction",
            f"lr {report.lr_mer:.3f} vs sr {sr_weighted:.3f} tCO2/MWh "
            f"(ratio {report.lr_mer / sr_weighted:.3f} <= 0.1)")


def test_criterion_06_frozen_structure_equivalence():
    grid = frozen_structure()
    rates = srme_dual(operational_base(grid))
    report = long_run_mer(solve_expansion(grid), ScaleEV(0.05), sr_rates=rates)
    sr_rate = report.sr_attributed / report.delta_demand_mwh
    diff = abs(report.lr_mer - sr_rate)
    assert diff <= 1e-6
    _report(6, "frozen-structure-equivalence",
            f"|lr {report.lr_mer:.6f} - sr {sr_rate:.6f}| = {diff:.2e}")


def test_criterion_07_flexibility_cost_monotonicity():
    grid = solar_midday()
    cost = {}
    for label, (adv, dly) in {"noflex": (0, 0), "delay8": (0, 8), "window24": (12, 12)}.items():
        cost[label] = solve_model(build_expansion_lp(with_flex_window(grid, adv, dly))).total_cost
    ev_energy = float(grid.flexible_loads[0].baseline_profile.sum())
    step1 = (cost["noflex"] - cost["delay8"]) / ev_energy
    step2 = (cost["delay8"] - cost["window24"]) / ev_energy
    assert cost["window24"] <= cost["delay8"] <= cost["noflex"]
    assert step1 >= 1.0 and step2 >= 1.0
    _report(7, "flexibility-cost-monotonicity",
            f"savings {step1:.1f} then {step2:.1f} $/MWh of EV energy")


def test_criterion_08_penalty_loop_convergence():
    grid = storage_coupled()
    sched, trace = schedule_min_srme(solve_expansion(grid), method="SRME2")
    assert trace.converged
    assert trace.iterations_used <= 10
    for rec in trace.records:
        assert rec.rate_weighted_proxy <= rec.rate_weighted_proxy_prev + 1e-6
    last = trace.records[-1]
    assert last.rel_change < 0.01
    _report(8, "penalty-loop-convergence",
            f"{trace.iterations_used} iteration(s), final rel change {last.rel_change:.2e}, "
            f"proxy non-increasing")


def test_criterion_09_emissions_signal_backfire():
    started = time.time()
    grid = backfire()
    base = solve_model(build_expansion_lp(grid))
    cost_schedule = schedule_from_result(base, ScheduleSource.COST_MIN)
    report_cost = evaluate_fixed_schedule(cost_schedule, base)
    schedule, trace = schedule_min_srme(base, method="SRME1")
    report_srme = evaluate_fixed_schedule(schedule, base)
    delta = report_srme.base_total_emissions - report_cost.base_total_emissions
    assert delta > 0.0  # strictly higher consequential emissions
    elapsed = time.time() - started
    assert elapsed < 300.0
    _report(9, "emissions-signal-backfire",
            f"SRME1 schedule emits +{delta:.1f} tCO2 vs cost schedule "
            f"({report_srme.base_total_emissions:.1f} vs "
            f"{report_cost.base_total_emissions:.1f}), {elapsed:.1f}s")


def test_criterion_10_schedule_invariants_randomized():
    rng = np.random.default_rng(20240808)
    feasible = infeasible = 0
    for trial in range(1000):
        horizon = int(rng.integers(3, 16))
        baseline = np.round(rng.uniform(0, 6, horizon) * (rng.random(horizon) < 0.7), 3)
        advance = int(rng.integers(0, 5))
        delay = int(rng.integers(0, 5))
        if advance == 0 and delay == 0 and trial % 2:
            advance = 1  # keep a mix of rigid and windowed cases
        window = FlexWindow(advance, delay)
        rate = float(np.round(rng.uniform(0.3, 7.0), 3))
        try:
            check_window_feasible(baseline, window, rate, "rnd")
            ok = True
        except InfeasibleWindow:
            ok = False

        if window.is_rigid:
            # Rigid loads are pinned exactly; only the rate check applies.
            if ok:
                feasible += 1
            else:
                infeasible += 1
            continue

        grid = GridModel(
            zones=(Zone(id="Z", demand=np.zeros(horizon)),),
            generators=(Generator(id="g", zone_id="Z", kind="thermal",
                                  existing_cap_mw=1000.0, heat_rate=1.0,
                                  fuel_price=1.0),),
            flexible_loads=(FlexibleLoad(id="ev", zone_id="Z", baseline_profile=baseline,
                                         max_advance_hours=advance, max_delay_hours=delay,
                                         max_charge_rate_mw=rate),),
            config=ScenarioConfig(horizon_hours=horizon),
        )
        if not ok:
            with pytest.raises(InfeasibleWindow):
                build_expansion_lp(grid)
            infeasible += 1
            continue

        result = solve_model(build_expansion_lp(grid))
        served = result.flex_served["ev"]
        total = float(baseline.sum())
        assert abs(served.sum() - total) <= 1e-6                   # energy conservation
        assert np.all(served <= rate + 1e-7)                       # rate cap
        assert np.all(served >= -1e-9)
        floor, ceiling = cumulative_bounds(baseline, window)
        cum = np.cumsum(served)
        assert np.all(cum <= ceiling + 1e-6)                       # window ceiling
        assert np.all(cum >= floor - 1e-6)                         # window floor
        feasible += 1
    assert feasible + infeasible == 1000
    assert feasible > 100 and infeasible > 50  # the sample genuinely mixes both
    _report(10, "schedule-invariants-randomized",
            f"1000 configurations: {feasible} feasible all-invariants-held, "
            f"{infeasible} rejected with InfeasibleWindow")


def test_criterion_11_icev_arithmetic():
    from gridmarg.metrics import ConsequentialReport
    report = ConsequentialReport(base_total_emissions=0, pert_total_emissions=0,
                                 delta_demand_mwh=1.0, lr_mer=0.17, base_total_cost=0,
                                 pert_total_cost=0, capacity_deltas={})
    out = icev_comparison(report, n_vehicles=1000, ev_annual_mwh=3.0, icev_tco2=3.0)
    assert out["ev_tco2_per_vehicle"] == pytest.approx(0.51)
    assert out["pct_reduction"] == pytest.approx(0.83)
    assert 0.67 <= out["pct_reduction"] <= 0.86
    _report(11, "icev-arithmetic",
            f"0.17 t/MWh x 3 MWh = {out['ev_tco2_per_vehicle']:.2f} t, "
            f"{out['pct_reduction']:.0%} reduction (within 67-86%)")


def test_criterion_12_sweep_determinism(tmp_path):
    scenario = tmp_path / "scenario.json"
    write_scenario(frozen_structure(), scenario)
    serial_dir, parallel_dir = tmp_path / "serial", tmp_path / "parallel"
    assert cli_main(["sweep", str(scenario), "--out", str(serial_dir),
                     "--parallel", "1"]) == 0
    assert cli_main(["sweep", str(scenario), "--out", str(parallel_dir),
                     "--parallel", "4"]) == 0
    serial_bytes = (serial_dir / "sweep_results.csv").read_bytes()
    parallel_bytes = (parallel_dir / "sweep_results.csv").read_bytes()
    assert serial_bytes == parallel_bytes
    _report(12, "sweep-determinism",
            f"serial vs --parallel 4: byte-identical ({len(serial_bytes)} bytes, "
            f"default 7-point EV sweep)")
