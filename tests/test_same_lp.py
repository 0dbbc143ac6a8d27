"""The one rule for reusing a solved LP: planner.solve_from decodes a held
optimum only where planner.same_lp finds the derived LP to be the held LP,
array for array, and solves it otherwise.

The rule replaces arguments from the grid: an operational LP is the
expansion LP where there is nothing to build (``has_investment``), and a
schedule pinned to the loop's start is the start's LP where charging is
rigid (``charging_is_rigid``). On the census grids the exact test decides
as those arguments did, any one-ulp change or a separately assembled matrix
makes another LP, and every decoded result is the optimum a cold solve
finds.
"""

from dataclasses import replace

import numpy as np
import pytest

from gridmarg.planner import (build_operational_lp, same_lp, solve_expansion, solve_from,
                              solve_model, solve_operational)
from gridmarg.scheduler import pin_schedule

from oracles import spy_on_solves
from test_lp_structure import assert_same_model
from test_scheduler import _census_grid

VECTORS = ("c", "b_eq", "b_ub", "lb", "ub")

# (pinned to its own schedule is the start's LP, operational is the
# expansion LP), as measured on the census grids.
MEASURED = {
    ("tutorial", "none"): (True, True),
    ("tutorial", "scenario"): (True, True),
    ("fleet", "none"): (True, True),
    ("fleet", "scenario"): (False, True),
    ("expansion", "none"): (True, False),
    ("expansion", "scenario"): (False, False),
}


@pytest.fixture(scope="module", params=list(MEASURED), ids="-".join)
def case(request, tmp_path_factory):
    which, flex = request.param
    grid = _census_grid(which, flex, tmp_path_factory.mktemp(which))
    expansion = solve_expansion(grid)
    caps = expansion.fixed_capacities()
    operational = build_operational_lp(grid, caps, like=expansion.model)
    start = solve_operational(expansion)
    pinned = build_operational_lp(pin_schedule(grid, start.flex_served), caps,
                                  like=start.model)
    return request.param, grid, expansion, operational, start, pinned


def test_rule_decides_where_the_grid_facts_did(case):
    key, grid, expansion, operational, start, pinned = case
    assert same_lp(operational, expansion.model) == (not grid.has_investment)
    assert same_lp(pinned, start.model) == grid.charging_is_rigid
    assert (same_lp(pinned, start.model), same_lp(operational, expansion.model)) == MEASURED[key]


def _one_ulp(values: np.ndarray, at: int, toward: float = np.inf) -> np.ndarray:
    """values with entry at moved by one ulp toward toward, or toward 0 if
    it is infinite."""
    flipped = values.copy()
    flipped[at] = np.nextafter(values[at], 0.0 if np.isinf(values[at]) else toward)
    return flipped


def test_one_ulp_or_a_separate_matrix_is_another_lp(case):
    _, grid, expansion, *_ = case
    model = expansion.model
    assert same_lp(model, model)
    for name in VECTORS:
        values = getattr(model.problem, name)
        toward = -np.inf if name == "lb" else np.inf   # never lb > ub
        for at in sorted({0, len(values) // 2, len(values) - 1} if len(values) else ()):
            other = replace(model, problem=replace(model.problem,
                                                   **{name: _one_ulp(values, at, toward)}))
            assert not same_lp(other, model) and not same_lp(model, other), (name, at)
    fresh = build_operational_lp(grid, expansion.fixed_capacities())
    like = build_operational_lp(grid, expansion.fixed_capacities(), like=model)
    assert_same_model(fresh, like)
    assert not same_lp(fresh, like)


def test_decoded_results_are_the_cold_optima(case, monkeypatch):
    _, _, expansion, operational, start, pinned = case
    solves = spy_on_solves(monkeypatch)
    for held, model in ((expansion, operational), (start, pinned)):
        before = len(solves)
        got = solve_from(held, model)
        if not same_lp(model, held.model):
            assert len(solves) == before + 1 and solves[-1].warm_start is held.solution
            continue
        assert len(solves) == before
        assert got.model is model and got.solution is held.solution
        cold = solve_model(model)
        np.testing.assert_allclose(got.solution.x, cold.solution.x, rtol=0, atol=1e-7)
        assert got.objective_value == pytest.approx(cold.objective_value, rel=1e-9)
        assert got.total_cost == cold.total_cost


def test_solve_from_solves_cold_where_asked(case, monkeypatch):
    _, _, expansion, *_ = case
    model = expansion.model
    other = replace(model, problem=replace(model.problem, c=_one_ulp(model.problem.c, 0)))
    solves = spy_on_solves(monkeypatch)
    solve_from(expansion, other, warm=False)
    assert len(solves) == 1 and solves[0].warm_start is None
