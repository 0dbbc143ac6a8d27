import json
from pathlib import Path

import numpy as np
import pytest

from gridmarg import lp, scheduler
from gridmarg.cli import build_parser, main
from gridmarg.grid import Generator, GridModel, ScenarioConfig, Zone
from gridmarg.scenario_io import write_scenario

from toys import backfire, breakeven_wind, frozen_structure, merit_stack, single_bus
from test_scenario_io import TUTORIAL


def scenario_file(tmp_path: Path, grid, name="scenario.json") -> str:
    path = tmp_path / name
    write_scenario(grid, path)
    return str(path)


def read_csv_rows(path: Path) -> list[dict]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_validate_ok_and_missing_file(capsys):
    assert main(["validate", str(TUTORIAL)]) == 0
    assert "2 zone(s)" in capsys.readouterr().out
    assert main(["validate", "/nonexistent/scenario.json"]) == 1


def test_solve_tutorial_matches_doc_table(tmp_path):
    out = tmp_path / "out"
    assert main(["solve", str(TUTORIAL), "--mode", "expansion", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["total_cost"] == pytest.approx(86_400.0)
    assert summary["total_emissions_tco2"] == pytest.approx(3_048.0)
    assert summary["total_served_mwh"] == pytest.approx(3_720.0)
    prices = read_csv_rows(out / "prices.csv")
    by_zone = {}
    for row in prices:
        by_zone.setdefault(row["zone"], set()).add(row["usd_per_mwh"])
    assert by_zone["A"] == {"20"}
    assert by_zone["B"] == {"40"}


def test_solve_operational_mode(tmp_path):
    scenario = scenario_file(tmp_path, breakeven_wind())
    out = tmp_path / "out"
    assert main(["solve", scenario, "--mode", "operational", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["mode"] == "operational_fixed"
    # Capacities pinned from the expansion stage appear in the outputs.
    assert summary["new_gen_capacity_mw"]["wind"] == pytest.approx(220.0, rel=1e-6)


def test_malformed_json_exits_1_with_line(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "config": {,}\n}\n')
    assert main(["solve", str(bad)]) == 1
    assert "line 2" in capsys.readouterr().err


def test_infeasible_exits_2(tmp_path):
    grid = single_bus(demand=120.0, cap=100.0, nse_penalty=None)
    scenario = scenario_file(tmp_path, grid)
    assert main(["solve", scenario, "--out", str(tmp_path / "o")]) == 2


def test_unbounded_exits_3(tmp_path):
    horizon = 4
    grid = GridModel(
        zones=(Zone(id="Z", demand=np.full(horizon, 10.0)),),
        generators=(
            Generator(id="g", zone_id="Z", kind="thermal", existing_cap_mw=20.0,
                      heat_rate=10.0, fuel_price=1.0),
            Generator(id="freebie", zone_id="Z", kind="variable_renewable", buildable=True,
                      inv_cost_annual=-5.0,  # negative-cost ray: build explodes
                      capacity_factor_profile=np.ones(horizon)),
        ),
        config=ScenarioConfig(horizon_hours=horizon),
    )
    scenario = scenario_file(tmp_path, grid)
    assert main(["solve", scenario, "--out", str(tmp_path / "o")]) == 3


def test_bad_arguments_exit_1(capsys):
    assert main(["metrics", str(TUTORIAL), "--method", "bogus"]) == 1
    capsys.readouterr()


def test_metrics_aer_tutorial(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["metrics", str(TUTORIAL), "--method", "aer", "--out", str(out)]) == 0
    printed = float(capsys.readouterr().out.strip())
    assert printed == pytest.approx(3048.0 / 3720.0, abs=1e-10)
    data = json.loads((out / "aer.json").read_text())
    assert data["aer_by_zone_tco2_per_mwh"]["A"] == pytest.approx(2808.0 / 2400.0)


def test_metrics_srme2_merit_order(tmp_path):
    scenario = scenario_file(tmp_path, merit_stack())
    out = tmp_path / "out"
    assert main(["metrics", scenario, "--method", "srme2", "--out", str(out)]) == 0
    rows = read_csv_rows(out / "srme.csv")
    rates = [float(r["rate_tco2_per_mwh"]) for r in rows if r["method"] == "SRME2"]
    np.testing.assert_allclose(rates, [0.9, 0.5, 0.2, 0.2, 0.5, 0.9], atol=1e-9)


def test_metrics_lrmer_frozen_structure(tmp_path, capsys):
    scenario = scenario_file(tmp_path, frozen_structure())
    out = tmp_path / "out"
    assert main(["metrics", scenario, "--method", "lrmer", "--out", str(out)]) == 0
    report = json.loads((out / "consequential.json").read_text())
    assert report["lr_mer_tco2_per_mwh"] == pytest.approx(0.4, abs=1e-9)
    # Per-vehicle normalization derived from configured MWh/EV-yr.
    assert report["per_ev_normalization"]["pct_reduction"] == pytest.approx(
        1.0 - 0.4 * 3.0 / 3.0)
    capsys.readouterr()


def test_metrics_lrmer_each_zone_separately(tmp_path):
    scenario = scenario_file(tmp_path, frozen_structure())
    out = tmp_path / "out"
    assert main(["metrics", scenario, "--method", "lrmer", "--zone", "each-separately",
                 "--out", str(out)]) == 0
    report = json.loads((out / "consequential.json").read_text())
    assert set(report) == {"Z"}
    assert report["Z"]["lr_mer_tco2_per_mwh"] == pytest.approx(0.4, abs=1e-9)


def test_schedule_cost_signal_noflex_equals_baseline(tmp_path):
    grid = frozen_structure()
    scenario = scenario_file(tmp_path, grid)
    out = tmp_path / "out"
    assert main(["schedule", scenario, "--signal", "cost", "--flex", "none",
                 "--out", str(out)]) == 0
    rows = read_csv_rows(out / "schedule.csv")
    served = [float(r["served_mw"]) for r in rows]
    np.testing.assert_allclose(served, grid.flexible_loads[0].baseline_profile, atol=1e-9)
    comparison = json.loads((out / "comparison.json").read_text())
    assert comparison["deltas_vs_cost_reference"]["base_total_emissions_tco2"] == 0.0


def test_schedule_srme1_backfires_on_constructed_toy(tmp_path):
    scenario = scenario_file(tmp_path, backfire())
    out = tmp_path / "out"
    assert main(["schedule", scenario, "--signal", "srme1", "--flex", "window24",
                 "--out", str(out)]) == 0
    comparison = json.loads((out / "comparison.json").read_text())
    assert comparison["converged"] is True
    assert comparison["deltas_vs_cost_reference"]["base_total_emissions_tco2"] > 0
    assert (out / "iteration_trace.csv").exists()
    assert comparison["per_1000_ev"]["emissions_delta_tco2"] > 0


def test_schedule_srme2_delta_sign_recorded(tmp_path):
    scenario = scenario_file(tmp_path, backfire())
    out = tmp_path / "out"
    assert main(["schedule", scenario, "--signal", "srme2", "--flex", "delay8",
                 "--out", str(out)]) == 0
    comparison = json.loads((out / "comparison.json").read_text())
    # No a-priori sign: just recorded for comparison.
    assert "base_total_emissions_tco2" in comparison["deltas_vs_cost_reference"]


@pytest.mark.parametrize("status, code", [(lp.SolveStatus.INFEASIBLE, 2),
                                          (lp.SolveStatus.UNBOUNDED, 3)])
def test_schedule_penalty_resolve_failure_exit_code(tmp_path, monkeypatch, status, code):
    real_solve_model = scheduler.solve_model
    failed = []

    def solve_model(model, warm_start=None):
        served = np.concatenate(list(model.index.served.values()))
        if np.any(model.problem.c[served] != 0):  # only the penalty re-solve prices charging
            failed.append(model)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(lp, "solve", lambda problem, warm_start=None:
                              lp.LpSolution(status=status))
                return real_solve_model(model, warm_start)
        return real_solve_model(model, warm_start)

    monkeypatch.setattr(scheduler, "solve_model", solve_model)
    scenario = scenario_file(tmp_path, backfire())
    assert main(["schedule", scenario, "--signal", "srme1", "--flex", "window24",
                 "--out", str(tmp_path / "out")]) == code
    assert len(failed) == 1


def test_sweep_single_cell_matches_metrics(tmp_path, capsys):
    scenario = scenario_file(tmp_path, frozen_structure())
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"ev_multipliers": [1.0]}))
    out = tmp_path / "sweep"
    assert main(["sweep", scenario, "--spec", str(spec), "--out", str(out)]) == 0
    rows = read_csv_rows(out / "sweep_results.csv")
    lr = [float(r["value"]) for r in rows if r["metric"] == "lr_mer_tco2_per_mwh"]
    assert lr == [pytest.approx(0.4, abs=1e-9)]
    manifest = json.loads((out / "manifest.json").read_text())
    assert all(run["status"] == "success" for run in manifest["runs"])
    assert manifest["outputs"] == ["sweep_results.csv"]


def test_sweep_lr_mer_constant_across_ev_multipliers(tmp_path):
    # Frozen structure + linear model: the rate cannot depend on the EV level.
    scenario = scenario_file(tmp_path, frozen_structure())
    out = tmp_path / "sweep"
    assert main(["sweep", scenario, "--out", str(out)]) == 0  # default 7 multipliers
    rows = read_csv_rows(out / "sweep_results.csv")
    lr = [float(r["value"]) for r in rows if r["metric"] == "lr_mer_tco2_per_mwh"]
    assert len(lr) == 7
    assert max(lr) - min(lr) <= 1e-6


def test_sweep_grid_flips_across_wind_breakeven(tmp_path):
    # Wind builds iff 240 * capex_mult < 600 * gas_mult (coal fuel scales too).
    scenario = scenario_file(tmp_path, breakeven_wind())
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"ev_multipliers": [1.0],
                                "renewable_capex_multipliers": [1.0, 3.0, 6.0],
                                "gas_price_multipliers": [0.5, 1.0]}))
    out = tmp_path / "sweep"
    assert main(["sweep", scenario, "--spec", str(spec), "--out", str(out)]) == 0
    rows = read_csv_rows(out / "sweep_results.csv")
    got = {}
    for row in rows:
        if row["metric"] == "lr_mer_tco2_per_mwh":
            got[(float(row["renewable_capex"]), float(row["gas_price"]))] = float(row["value"])
    for (capex, gas), value in got.items():
        expected = 0.0 if 240.0 * capex < 600.0 * gas else 0.9
        assert value == pytest.approx(expected, abs=1e-6), (capex, gas)


def test_sweep_each_zone_separately_with_flex_override(tmp_path):
    # Tutorial: the EV block lives in zone B, so the per-zone EV perturbation
    # is degenerate for zone A (recorded as an error) and well-defined for B.
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"ev_multipliers": [1.0], "target_zones": "each-separately",
                                "flexibility_modes": ["none", "delay8"]}))
    out = tmp_path / "sweep"
    assert main(["sweep", str(TUTORIAL), "--spec", str(spec), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["runs"]) == 4  # 2 flex modes x 2 zones
    status = {(r["flex"], r["target_zone"][0]): r["status"] for r in manifest["runs"]}
    assert status[("none", "A")] == "error" and status[("delay8", "A")] == "error"
    assert status[("none", "B")] == "success" and status[("delay8", "B")] == "success"
    rows = read_csv_rows(out / "sweep_results.csv")
    zones = {r["target_zone"] for r in rows}
    assert zones == {"B"}  # only successful runs contribute rows


def test_sweep_records_failures_without_aborting(tmp_path):
    grid = single_bus(demand=100.0, cap=102.0, nse_penalty=None)
    scenario = scenario_file(tmp_path, grid)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"ev_multipliers": [0.9, 1.1]}))
    out = tmp_path / "sweep"
    # 0.9 has no EV load anyway (no flexible loads): both perturb fixed demand
    # ... the scenario has no EV, so lr-mer runs hit DegenerateDelta: recorded.
    assert main(["sweep", scenario, "--spec", str(spec), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["runs"]) == 2
    assert all(run["status"] == "error" for run in manifest["runs"])
    assert (out / "sweep_results.csv").exists()


def test_parallel_sweep_byte_identical(tmp_path):
    scenario = scenario_file(tmp_path, breakeven_wind())
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"ev_multipliers": [0.9, 1.0, 1.1]}))
    serial, parallel, repeat = tmp_path / "serial", tmp_path / "parallel", tmp_path / "again"
    assert main(["sweep", scenario, "--spec", str(spec), "--out", str(serial),
                 "--parallel", "1"]) == 0
    assert main(["sweep", scenario, "--spec", str(spec), "--out", str(parallel),
                 "--parallel", "4"]) == 0
    assert main(["sweep", scenario, "--spec", str(spec), "--out", str(repeat),
                 "--parallel", "1"]) == 0
    blob = (serial / "sweep_results.csv").read_bytes()
    assert blob == (parallel / "sweep_results.csv").read_bytes()
    assert blob == (repeat / "sweep_results.csv").read_bytes()  # run-to-run stable too


def test_threads_env_sets_parallel_default(monkeypatch):
    monkeypatch.setenv("GRIDMARG_THREADS", "7")
    args = build_parser().parse_args(["sweep", "x.json"])
    assert args.parallel == 7


def test_module_entry_point_subprocess(tmp_path):
    import subprocess
    import sys
    proc = subprocess.run(
        [sys.executable, "-m", "gridmarg.cli", "metrics", str(TUTORIAL),
         "--method", "aer", "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert float(proc.stdout.strip()) == pytest.approx(3048.0 / 3720.0, abs=1e-10)
