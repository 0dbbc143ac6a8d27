import hashlib
import json
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gridmarg import cli, lp, scheduler
from gridmarg.cli import build_parser, main
from gridmarg.grid import Generator, GridModel, ScenarioConfig, Zone, resolve_scenario
from gridmarg.metrics import average_emission_rate, long_run_mer
from gridmarg.planner import ScaleEV, build_expansion_lp, solve_expansion
from gridmarg.scenario_io import load_scenario, write_scenario

from oracles import spy_on_solves
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


# A tutorial copy with one non-finite number: (file, text, replacement, what the error names).
NON_FINITE = {
    "demand_nan": ("A_demand.csv", "\n3,100.0\n", "\n3,nan\n", "A_demand.csv:5"),
    "cap_infinity": ("scenario.json", '"existing_cap_mw": 150.0', '"existing_cap_mw": Infinity',
                     "'existing_cap_mw' of 'coal_a'"),
    "cap_nan": ("scenario.json", '"existing_cap_mw": 150.0', '"existing_cap_mw": NaN',
                "'existing_cap_mw' of 'coal_a'"),
    "fuel_infinity": ("scenario.json", '"fuel_price": 2.0', '"fuel_price": Infinity',
                      "'fuel_price' of 'coal_a'"),
}


@pytest.mark.parametrize("command", ["validate", "solve"])
@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_non_finite_scenario_number_exits_1_naming_it(tmp_path, capsys, case, command):
    name, text, replacement, named = NON_FINITE[case]
    shutil.copytree(TUTORIAL.parent, tmp_path / "scenario")
    path = tmp_path / "scenario" / name
    assert text in path.read_text()
    path.write_text(path.read_text().replace(text, replacement, 1))
    argv = [command, str(tmp_path / "scenario" / "scenario.json")]
    assert main(argv + (["--out", str(tmp_path / "out")] if command == "solve" else [])) == 1
    err = capsys.readouterr().err
    assert named in err and "must be" in err and "finite" in err
    assert "Traceback" not in err


# A tutorial copy with one value of the wrong JSON type or shape: (edit, what the error names).
MALFORMED = {
    "huge_integer": (lambda doc: doc["generators"][0].update(existing_cap_mw=10**400),
                     "'existing_cap_mw' of generator 'coal_a' must be a finite number"),
    "text_in_number": (lambda doc: doc["generators"][0].update(existing_cap_mw="150 MW"),
                       "'existing_cap_mw' of generator 'coal_a' must be a number"),
    "null_required_number": (lambda doc: doc["lines"][0].update(capacity_mw=None),
                             "'capacity_mw' of line 'ab' must be a number"),
    "zones_object": (lambda doc: doc.update(zones={z["id"]: z for z in doc["zones"]}),
                     "'zones' must be a list"),
    "line_as_list": (lambda doc: doc["lines"].__setitem__(0, list(doc["lines"][0].values())),
                     "lines[0] must be an object"),
    "config_number": (lambda doc: doc.update(config=24), "config must be an object"),
    "cost_multipliers_number": (lambda doc: doc["config"].update(cost_multipliers=1.0),
                                "config.cost_multipliers must be an object"),
    "bool_as_text": (lambda doc: doc["generators"][0].update(buildable="false"),
                     "'buildable' of generator 'coal_a' must be true or false"),
    "fractional_hours": (lambda doc: doc["flexible_loads"][0].update(max_delay_hours=3.7),
                         "'max_delay_hours' of flexible_load 'ev_b' must be an integer"),
    "null_id": (lambda doc: doc["generators"][0].update(id=None),
                "'id' of generators[0] must be a string"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_scenario_exits_1_with_one_parse_error(tmp_path, capsys, case):
    edit, named = MALFORMED[case]
    shutil.copytree(TUTORIAL.parent, tmp_path / "scenario")
    path = tmp_path / "scenario" / "scenario.json"
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("ERROR gridmarg: ParseError: "), err
    assert named in err[0]


@pytest.mark.parametrize("argv", [["validate"], ["metrics", "--method", "lrmer"],
                                  ["metrics", "--method", "lrmer", "--zone", "each-separately"]])
def test_zero_icev_emissions_exits_1_with_one_validation_error(tmp_path, capsys, monkeypatch,
                                                              argv):
    # The per-vehicle comparison divides by it.
    monkeypatch.chdir(tmp_path)   # for metrics' default --out
    shutil.copytree(TUTORIAL.parent, tmp_path / "scenario")
    path = tmp_path / "scenario" / "scenario.json"
    doc = json.loads(path.read_text())
    doc["config"]["icev_tco2_per_year"] = 0
    path.write_text(json.dumps(doc))
    assert main([argv[0], str(path), *argv[1:]]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["ERROR gridmarg: ValidationError: config: icev_tco2_per_year must be "
                   "positive"]


@pytest.mark.parametrize("argv", [["validate"], ["metrics", "--method", "lrmer"]])
def test_a_grid_invalid_only_after_ev_scaling_fails_validate_too(tmp_path, capsys, monkeypatch,
                                                                argv):
    # ev_b's rigid 10 MW rate cap is below its baseline peak scaled by 5.
    monkeypatch.chdir(tmp_path)   # for metrics' default --out
    shutil.copytree(TUTORIAL.parent, tmp_path / "scenario")
    path = tmp_path / "scenario" / "scenario.json"
    doc = json.loads(path.read_text())
    doc["config"]["ev_penetration_multiplier"] = 5.0
    path.write_text(json.dumps(doc))
    assert main([argv[0], str(path), *argv[1:]]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["ERROR gridmarg: ValidationError: flexible_load ev_b: max_charge_rate_mw "
                   "below baseline peak with no flexibility window"]


def _scalar_leaves(node, path=()) -> list[tuple]:
    """Paths to the scalar leaves of a scenario document, ids and series file
    names left out."""
    if isinstance(node, dict):
        items = [(k, v) for k, v in node.items() if k != "id" and not k.endswith("_series")]
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        return [path]
    return [leaf for key, value in items for leaf in _scalar_leaves(value, path + (key,))]


def test_every_scalar_mutation_of_the_tutorial_exits_with_a_documented_code(tmp_path, capsys):
    shutil.copytree(TUTORIAL.parent, tmp_path / "scenario")
    path = tmp_path / "scenario" / "scenario.json"
    doc = json.loads(path.read_text())
    leaves = _scalar_leaves(doc)
    assert len(leaves) == 53
    for leaf in leaves:
        for value in (0, -1.0, 1e300, None, True, "x"):
            mutated = json.loads(json.dumps(doc))
            node = mutated
            for key in leaf[:-1]:
                node = node[key]
            node[leaf[-1]] = value
            path.write_text(json.dumps(mutated))
            try:
                codes = [main(["validate", str(path)])]
                if codes == [0]:
                    codes.append(main(["metrics", str(path), "--method", "lrmer",
                                       "--out", str(tmp_path / "out")]))
            except Exception as exc:
                raise AssertionError(f"{leaf} = {value!r} escaped cli.main") from exc
            assert set(codes) <= {0, 1, 2, 3}, (leaf, value, codes)
    capsys.readouterr()


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


def test_metrics_lrmer_each_zone_separately_normalizes_by_each_zones_fleet(tmp_path):
    # Two unlinked copies of frozen_structure whose EV loads differ in size:
    # each zone's fleet is its own EV energy at ev_annual_mwh per vehicle.
    one = frozen_structure()
    zones, gens, loads = [], [], []
    for zid, ev_mw in (("X", 5.0), ("Y", 10.0)):
        zones.append(replace(one.zones[0], id=zid))
        gens += [replace(g, id=f"{g.id}_{zid}", zone_id=zid) for g in one.generators]
        load = one.flexible_loads[0]
        loads.append(replace(load, id=f"ev_{zid}", zone_id=zid,
                             baseline_profile=np.full(load.baseline_profile.shape, ev_mw)))
    grid = replace(one, zones=tuple(zones), generators=tuple(gens), flexible_loads=tuple(loads))
    scenario = scenario_file(tmp_path, grid)
    out = tmp_path / "out"
    assert main(["metrics", scenario, "--method", "lrmer", "--zone", "each-separately",
                 "--out", str(out)]) == 0
    report = json.loads((out / "consequential.json").read_text())
    per_mwh = grid.config.ev_annual_mwh
    for load in loads:
        entry = report[load.zone_id]
        vehicles = float(load.baseline_profile.sum()) / per_mwh
        norm = entry["per_ev_normalization"]
        assert norm["ev_tco2_per_vehicle"] == pytest.approx(entry["lr_mer_tco2_per_mwh"] * per_mwh)
        assert norm["fleet_tco2"] == pytest.approx(norm["ev_tco2_per_vehicle"] * vehicles)
        single = tmp_path / load.zone_id
        assert main(["metrics", scenario, "--method", "lrmer", "--zone", load.zone_id,
                     "--out", str(single)]) == 0
        alone = json.loads((single / "consequential.json").read_text())
        assert alone["per_ev_normalization"] == norm


def test_metrics_lrmer_each_zone_separately_reports_zones_with_a_rate(tmp_path, capsys,
                                                                     monkeypatch):
    # Tutorial zone A carries no EV load, so scaling its EVs moves no demand
    # and leaves the base LP: A makes no EV-scaled solve of its own.
    out = tmp_path / "out"
    with monkeypatch.context() as patch:
        calls = spy_on_solves(patch)
        assert main(["metrics", str(TUTORIAL), "--method", "lrmer", "--zone",
                     "each-separately", "--out", str(out)]) == 0
    assert len(calls) == 2 and calls[1].warm_start is calls[0].solution   # base, then B
    report = json.loads((out / "consequential.json").read_text())
    assert set(report) == {"A", "B"}
    assert report["A"] == {"error": "DegenerateDelta: demand delta 0 MWh is below 1 MWh; "
                                    "rate undefined"}
    grid = load_scenario(TUTORIAL)
    alone = long_run_mer(solve_expansion(grid), ScaleEV(0.05), target_zones=["B"])
    assert report["B"]["lr_mer_tco2_per_mwh"] == alone.lr_mer
    assert "WARNING gridmarg: zone A: DegenerateDelta" in capsys.readouterr().err


def test_metrics_lrmer_each_zone_separately_makes_one_base_solve(tmp_path, monkeypatch):
    from test_lp import synth_scenario
    scenario = synth_scenario("expansion", 1, tmp_path)
    grid = resolve_scenario(load_scenario(scenario))
    calls = spy_on_solves(monkeypatch)
    assert main(["metrics", str(scenario), "--method", "lrmer", "--zone", "each-separately",
                 "--out", str(tmp_path / "out")]) == 0
    # The base solve (after its two crash-start solves), then one EV-scaled
    # solve per zone, each from the base.
    base = calls[2].solution
    assert len(calls) == 3 + len(grid.zones)
    assert all(call.warm_start is base for call in calls[3:])
    assert np.array_equal(calls[2].problem.lb, build_expansion_lp(grid).problem.lb)


def test_metrics_lrmer_each_zone_separately_exits_1_when_no_zone_has_a_rate(tmp_path):
    scenario = scenario_file(tmp_path, single_bus())   # no flexible load anywhere
    out = tmp_path / "out"
    assert main(["metrics", scenario, "--method", "lrmer", "--zone", "each-separately",
                 "--out", str(out)]) == 1
    report = json.loads((out / "consequential.json").read_text())
    assert set(report) == {"Z"} and report["Z"]["error"].startswith("DegenerateDelta: ")


def test_metrics_lrmer_each_zone_separately_infeasible_still_exits_2(tmp_path):
    scenario = scenario_file(tmp_path, single_bus(demand=120.0, cap=100.0, nse_penalty=None))
    assert main(["metrics", scenario, "--method", "lrmer", "--zone", "each-separately",
                 "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("method", ["aer", "srme1", "srme2", "lrmer"])
def test_metrics_rejects_an_unknown_zone_for_every_method(method, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["metrics", str(TUTORIAL), "--method", method, "--zone", "Q",
                 "--out", str(out)]) == 1
    assert "ERROR gridmarg: UnknownZone: unknown zone id(s): ['Q']" in capsys.readouterr().err
    assert not out.exists()


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
                patch.setattr(lp, "solve", lambda problem, *args, **kwargs:
                              lp.LpSolution(status=status))
                return real_solve_model(model, warm_start)
        return real_solve_model(model, warm_start)

    monkeypatch.setattr(scheduler, "solve_model", solve_model)
    scenario = scenario_file(tmp_path, backfire())
    assert main(["schedule", scenario, "--signal", "srme1", "--flex", "window24",
                 "--out", str(tmp_path / "out")]) == code
    assert len(failed) == 1


def test_rigid_srme2_schedule_skips_its_penalty_solve(tmp_path, monkeypatch):
    # With --flex none every served column is fixed, so no penalty can move
    # the schedule and the scheduler makes no penalty solve. The backend
    # sees the expansion solve, the EV-scaled evaluation and SRME2's step 2,
    # which starts warm from its base solve.
    calls = spy_on_solves(monkeypatch)
    real_solve_model = scheduler.solve_model
    penalty_solves = []

    def solve_model(model, warm_start=None):
        served = np.concatenate(list(model.index.served.values()))
        if np.any(model.problem.c[served] != 0):  # only the penalty re-solve prices charging
            penalty_solves.append(model)
        return real_solve_model(model, warm_start)

    monkeypatch.setattr(scheduler, "solve_model", solve_model)
    assert main(["schedule", str(TUTORIAL), "--signal", "srme2", "--flex", "none",
                 "--out", str(tmp_path / "out")]) == 0
    assert penalty_solves == []
    assert len(calls) == 3
    step2 = [call for call in calls if call.options["canonical_basis"]]
    assert step2 and all(call.warm_start is not None for call in step2)


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


# A sweep spec the CLI must refuse: (spec text, what its one error line names).
BAD_SWEEP_SPECS = {
    "malformed_json": ('{"ev_multipliers": [1.0', "line 1 column"),
    "nan_multiplier": ('{"ev_multipliers": [NaN]}', "ev_multipliers"),
    "infinite_multiplier": ('{"ev_multipliers": [Infinity]}', "ev_multipliers"),
    "text_multiplier": ('{"gas_price_multipliers": ["1.0"]}', "gas_price_multipliers"),
    "scalar_multipliers": ('{"ev_multipliers": 1.0}', "ev_multipliers"),
    "nested_flex_mode": ('{"flexibility_modes": [["none"]]}', "flexibility_modes"),
    "top_level_list": ("[1, 2]", "top level"),
    "unknown_zone": ('{"target_zones": ["Q"]}', "target_zones"),
    "bare_zone_string": ('{"target_zones": "north"}', "target_zones"),
}


@pytest.mark.parametrize("case", sorted(BAD_SWEEP_SPECS))
def test_bad_sweep_spec_exits_1_naming_the_field(tmp_path, capsys, case):
    text, named = BAD_SWEEP_SPECS[case]
    spec = tmp_path / "spec.json"
    spec.write_text(text)
    out = tmp_path / "sweep"
    assert main(["sweep", str(TUTORIAL), "--parallel", "1", "--spec", str(spec),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "sweep spec: " in err[0] and named in err[0]
    assert not out.exists()


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


def test_parallel_sweep_groups_byte_identical_at_any_worker_count(tmp_path):
    # Two flex-mode groups of six cells each; zone A carries no EV load, so
    # every other cell of a group fails and the chain must step over it.
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"ev_multipliers": [0.9, 1.0, 1.1],
                                "flexibility_modes": ["none", "delay8"],
                                "target_zones": "each-separately"}))
    runs, blobs = [], []
    for workers in ("1", "2", "3"):
        out = tmp_path / f"workers{workers}"
        assert main(["sweep", str(TUTORIAL), "--spec", str(spec), "--parallel", workers,
                     "--out", str(out)]) == 0
        blobs.append((out / "sweep_results.csv").read_bytes())
        runs.append([(r["run_id"], r["status"], r.get("error"))
                     for r in json.loads((out / "manifest.json").read_text())["runs"]])
    assert blobs[0] == blobs[1] == blobs[2]
    assert runs[0] == runs[1] == runs[2]
    assert [status for _, status, _ in runs[0]].count("success") == 6


def test_sweep_chains_base_solves_within_each_flex_group(tmp_path, monkeypatch):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"ev_multipliers": [0.9, 1.0, 1.1],
                                "flexibility_modes": ["none", "delay8"]}))
    calls = spy_on_solves(monkeypatch)
    out = tmp_path / "sweep"
    assert main(["sweep", str(TUTORIAL), "--spec", str(spec), "--parallel", "1",
                 "--out", str(out)]) == 0
    # Serial order: the "none" cells (run ids 0, 2, 4), then the "delay8"
    # cells (1, 3, 5); each cell solves its base, then its EV-scaled LP.
    assert len(calls) == 12
    for group in (calls[:6], calls[6:]):
        bases = group[0::2]
        assert bases[0].warm_start is None
        for prev, cur in zip(bases, bases[1:]):
            assert cur.warm_start is prev.solution
        for base, pert in zip(group[0::2], group[1::2]):
            assert pert.warm_start is base.solution


def test_sweep_cells_that_differ_only_in_target_zone_share_one_base(tmp_path, monkeypatch):
    # Zone A has no EV load, so its cells fail after their base solve; zone
    # B's cells take that base as it is and solve only their EV-scaled LP.
    calls = spy_on_solves(monkeypatch)
    rows = {}
    for zones in ("each-separately", ["B"]):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"ev_multipliers": [0.9, 1.0], "target_zones": zones}))
        out = tmp_path / str(len(rows))
        before = len(calls)
        assert main(["sweep", str(TUTORIAL), "--spec", str(spec), "--out", str(out)]) == 0
        rows[str(zones)] = [{k: v for k, v in r.items() if k not in ("run_id", "target_zone")}
                            for r in read_csv_rows(out / "sweep_results.csv")]
        if zones == "each-separately":
            base0, pert0, base1, pert1 = calls[before:]
            assert base0.warm_start is None and pert0.warm_start is base0.solution
            assert base1.warm_start is base0.solution and pert1.warm_start is base1.solution
    assert rows["each-separately"] == rows["['B']"]


def test_sweep_modes_with_the_same_windows_share_one_chain(tmp_path, monkeypatch):
    # The tutorial's EV load has a zero window, so flex none and scenario
    # build the same grids: one chain of 3 base and 3 EV-scaled solves
    # serves both modes' cells.
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"ev_multipliers": [0.9, 1.0, 1.1],
                                "flexibility_modes": ["none", "scenario"]}))
    calls = spy_on_solves(monkeypatch)
    out = tmp_path / "sweep"
    assert main(["sweep", str(TUTORIAL), "--spec", str(spec), "--out", str(out)]) == 0
    assert len(calls) == 6
    runs = json.loads((out / "manifest.json").read_text())["runs"]
    assert [(r["run_id"], r["flex"]) for r in runs] == [
        (i, mode) for i, mode in enumerate(["none", "scenario"] * 3)]
    # Recorded when each mode ran its own chain of the same 6 solves.
    assert (hashlib.sha256((out / "sweep_results.csv").read_bytes()).hexdigest()
            == "c3a2a632ac647bf68dfa213cd3d0391f445a43ace71abecc1994e72014713f08")


def test_sweep_chain_steps_over_a_failed_cell(tmp_path, monkeypatch):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"ev_multipliers": [0.9, 1.0, 1.1],
                                "flexibility_modes": ["none"]}))
    real_lr_mer = cli.long_run_mer

    def fails_at_run_1(base, *args, **kwargs):
        report = real_lr_mer(base, *args, **kwargs)  # both solves run first
        if base.model.grid.config.ev_penetration_multiplier == 1.0:
            raise RuntimeError("injected failure")
        return report
    monkeypatch.setattr(cli, "long_run_mer", fails_at_run_1)
    calls = spy_on_solves(monkeypatch)
    out = tmp_path / "sweep"
    assert main(["sweep", str(TUTORIAL), "--spec", str(spec), "--out", str(out)]) == 0
    runs = json.loads((out / "manifest.json").read_text())["runs"]
    assert [r["status"] for r in runs] == ["success", "error", "success"]
    assert runs[1]["error"] == "RuntimeError: injected failure"
    assert len(calls) == 6
    base0, base1, base2 = calls[0], calls[2], calls[4]
    assert base1.warm_start is base0.solution
    assert base2.warm_start is base0.solution  # from the last cell that succeeded, not from run 1
    rows = read_csv_rows(out / "sweep_results.csv")
    assert {r["run_id"] for r in rows} == {"0", "2"}


def test_chained_default_sweep_matches_cold_lr_mer_per_cell(tmp_path):
    out = tmp_path / "sweep"
    assert main(["sweep", str(TUTORIAL), "--out", str(out)]) == 0  # default 7 multipliers
    got: dict[float, dict[str, float]] = {}
    for row in read_csv_rows(out / "sweep_results.csv"):
        got.setdefault(float(row["ev_multiplier"]), {})[row["metric"]] = float(row["value"])
    assert sorted(got) == cli.DEFAULT_EV_MULTIPLIERS
    raw = load_scenario(TUTORIAL)
    for ev, metrics in got.items():
        grid = resolve_scenario(replace(raw, config=replace(raw.config,
                                                            ev_penetration_multiplier=ev)))
        cold = long_run_mer(solve_expansion(grid))
        expected = {
            "lr_mer_tco2_per_mwh": cold.lr_mer,
            "aer_system_tco2_per_mwh": average_emission_rate(cold.base),
            "base_total_emissions_tco2": cold.base_total_emissions,
            "pert_total_emissions_tco2": cold.pert_total_emissions,
            "delta_demand_mwh": cold.delta_demand_mwh,
            "base_total_cost_usd": cold.base_total_cost,
        }
        assert metrics.keys() == expected.keys()
        for name, value in expected.items():
            assert metrics[name] == pytest.approx(value, rel=1e-9, abs=1e-12), (ev, name)


def test_threads_env_sets_parallel_default(monkeypatch):
    monkeypatch.setenv("GRIDMARG_THREADS", "7")
    args = build_parser().parse_args(["sweep", "x.json"])
    assert args.parallel == 7


def test_module_entry_point_subprocess(tmp_path):
    import os
    import subprocess
    import sys
    # The package is found from src/, installed or not (as pytest finds it).
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))}
    proc = subprocess.run(
        [sys.executable, "-m", "gridmarg.cli", "metrics", str(TUTORIAL),
         "--method", "aer", "--out", str(tmp_path)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert float(proc.stdout.strip()) == pytest.approx(3048.0 / 3720.0, abs=1e-10)


def test_srme2_unbounded_base_solve_exits_3(tmp_path, monkeypatch):
    # The expansion solve is real; the operational base of SRME2 (a different
    # LP, since wind is buildable) comes back unbounded.
    scenario = scenario_file(tmp_path, breakeven_wind())
    real = lp.solve
    calls = []

    def first_real_then_unbounded(problem, *args, **kwargs):
        calls.append(problem)
        if len(calls) == 1:
            return real(problem, *args, **kwargs)
        return lp.LpSolution(status=lp.SolveStatus.UNBOUNDED)
    monkeypatch.setattr(lp, "solve", first_real_then_unbounded)
    assert main(["metrics", scenario, "--method", "srme2", "--out", str(tmp_path / "o")]) == 3
    assert len(calls) == 2


def test_bad_threads_env_fails_sweep_alone(monkeypatch, capsys, tmp_path):
    monkeypatch.setenv("GRIDMARG_THREADS", "two")
    assert main(["validate", str(TUTORIAL)]) == 0
    assert main(["metrics", str(TUTORIAL), "--method", "aer", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["sweep", str(TUTORIAL), "--out", str(tmp_path / "sweep")]) == 1
    err = capsys.readouterr().err
    assert "GRIDMARG_THREADS" in err and "'two'" in err
    assert not (tmp_path / "sweep").exists()
    # An explicit, valid --parallel does not read the variable.
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"ev_multipliers": [1.0]}))
    assert main(["sweep", str(TUTORIAL), "--spec", str(spec), "--parallel", "1",
                 "--out", str(tmp_path / "sweep")]) == 0


@pytest.mark.parametrize("workers", ["0", "-1", "1.5"])
def test_parallel_below_one_is_a_usage_error(workers, monkeypatch, capsys, tmp_path):
    monkeypatch.delenv("GRIDMARG_THREADS", raising=False)
    out = tmp_path / "sweep"
    assert main(["sweep", str(TUTORIAL), "--parallel", workers, "--out", str(out)]) == 1
    assert "worker count" in capsys.readouterr().err
    assert not out.exists()
    monkeypatch.setenv("GRIDMARG_THREADS", workers)
    assert main(["sweep", str(TUTORIAL), "--out", str(out)]) == 1
    assert not out.exists()
