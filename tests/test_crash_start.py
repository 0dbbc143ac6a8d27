"""A cold expansion solve over a long horizon starts from a crash basis.

planner.solve_expansion solves the expansion LP of the grid's first
CRASH_HOURS, then the full operational LP at those capacities, and starts
the full expansion solve from that optimum. The start moves only the
simplex path: these checks hold the answer to a cold solve's, and check
which grids skip the crash and which fall back to a cold start.
"""

import json

import numpy as np
import pytest

from gridmarg.cli import main
from gridmarg.grid import (FlexibleLoad, Generator, GridModel, ScenarioConfig, Zone, first_hours,
                           resolve_scenario)
from gridmarg.lp import SolveStatus
from gridmarg.planner import (CRASH_HOURS, build_expansion_lp, build_operational_lp,
                              decode_solution)
from gridmarg.scenario_io import load_scenario, write_scenario

from oracles import spy_on_solves
from test_lp import synth_scenario
from test_scenario_io import TUTORIAL


def _lrmer(scenario, out) -> dict:
    assert main(["metrics", str(scenario), "--method", "lrmer", "--out", str(out)]) == 0
    return json.loads((out / "consequential.json").read_text())


def _assert_same_report(got: dict, want: dict) -> None:
    """Every number agrees to 1e-9 relative; capacity deltas, which list only
    nonzero entries and carry round-off, to 1e-8 MW where one side lacks an entry."""
    got, want = dict(got), dict(want)
    deltas = got.pop("capacity_deltas"), want.pop("capacity_deltas")
    assert got.keys() == want.keys()
    for key, value in want.items():
        if isinstance(value, dict):
            assert got[key].keys() == value.keys()
            for name, number in value.items():
                assert got[key][name] == pytest.approx(number, rel=1e-9), (key, name)
        elif isinstance(value, float):
            assert got[key] == pytest.approx(value, rel=1e-9), key
        else:
            assert got[key] == value, key
    for asset in deltas[0].keys() | deltas[1].keys():
        entries = [d.get(asset, {}) for d in deltas]
        for name in (entries[0].keys() | entries[1].keys()) - {"kind"}:
            a, b = (e.get(name, 0.0) for e in entries)
            assert a == pytest.approx(b, rel=1e-9, abs=1e-8), (asset, name)


def test_lrmer_base_solve_starts_from_the_crash_and_answers_as_cold(tmp_path, monkeypatch):
    scenario = synth_scenario("expansion", 1, tmp_path)
    grid = resolve_scenario(load_scenario(scenario))
    calls = spy_on_solves(monkeypatch)
    crashed = _lrmer(scenario, tmp_path / "crash")

    assert len(calls) == 4
    short, operational, base, scaled = calls
    # 1. The expansion LP of the first CRASH_HOURS, cold.
    short_model = build_expansion_lp(first_hours(grid, CRASH_HOURS))
    assert short.warm_start is None
    for name in ("c", "b_eq", "b_ub", "lb", "ub"):
        np.testing.assert_array_equal(getattr(short.problem, name),
                                      getattr(short_model.problem, name))
    # 2. The full operational LP at its capacities, cold.
    caps = decode_solution(short_model, short.solution).fixed_capacities()
    expected = build_operational_lp(grid, caps).problem
    assert operational.warm_start is None
    for name in ("c", "b_eq", "b_ub", "lb", "ub"):
        np.testing.assert_array_equal(getattr(operational.problem, name),
                                      getattr(expected, name))
    # 3. The full expansion LP from that optimum; 4. the EV-scaled one from the base.
    np.testing.assert_array_equal(base.problem.c, build_expansion_lp(grid).problem.c)
    assert base.warm_start is operational.solution
    assert scaled.warm_start is base.solution

    monkeypatch.undo()
    cold_calls = spy_on_solves(monkeypatch, cold=True)   # every solve cold
    cold = _lrmer(scenario, tmp_path / "cold")
    assert len(cold_calls) == 4
    _assert_same_report(crashed, cold)


@pytest.mark.parametrize("source", ["tutorial", "fleet"])
def test_a_short_horizon_or_nothing_to_build_starts_cold(source, tmp_path, monkeypatch):
    # The tutorial spans 24 h; the fleet grid, 168 h, has no investment column.
    scenario = TUTORIAL if source == "tutorial" else synth_scenario("fleet", 1, tmp_path)
    calls = spy_on_solves(monkeypatch)
    _lrmer(scenario, tmp_path / "out")
    assert len(calls) == 2
    base, scaled = calls
    assert base.warm_start is None
    assert scaled.warm_start is base.solution


def _peak_after_the_crash_window(horizon: int = 100) -> GridModel:
    """One zone, no non-served energy, and a demand peak at hour 70.

    Over the first 48 h the 80 MW of existing gas covers the 60 MW load, so
    the short expansion builds nothing; the full operational LP at that
    capacity cannot serve the 160 MW peak."""
    demand = np.full(horizon, 50.0)
    demand[70] = 150.0
    return GridModel(
        zones=(Zone(id="Z", demand=demand),),
        generators=(Generator(id="gas", zone_id="Z", kind="thermal", existing_cap_mw=80.0,
                              buildable=True, inv_cost_annual=500.0, fixed_om=50.0,
                              heat_rate=7.0, fuel_price=3.0, emissions_factor=0.4),),
        flexible_loads=(FlexibleLoad(id="ev", zone_id="Z",
                                     baseline_profile=np.full(horizon, 10.0)),),
        config=ScenarioConfig(horizon_hours=horizon, nse_penalty=None),
    )


def test_an_infeasible_crash_falls_back_to_a_cold_solve(tmp_path, monkeypatch):
    grid = _peak_after_the_crash_window()
    scenario = tmp_path / "scenario.json"
    write_scenario(grid, scenario)
    calls = spy_on_solves(monkeypatch)
    crashed = _lrmer(scenario, tmp_path / "crash")
    assert len(calls) == 4
    short, operational, base, scaled = calls
    assert short.solution.status is SolveStatus.OPTIMAL
    assert short.problem.num_vars < base.problem.num_vars
    assert operational.solution.status is SolveStatus.INFEASIBLE
    assert base.warm_start is None
    assert scaled.warm_start is base.solution

    monkeypatch.undo()
    spy_on_solves(monkeypatch, cold=True)
    _assert_same_report(crashed, _lrmer(scenario, tmp_path / "cold"))
