"""Every solve reaches one canonical optimal vertex, cold or warm.

lp.solve breaks ties with a small seeded cost in stage 1 and takes the duals
of the original LP in stage 2, so where the LP has many optimal vertices the
primal answer no longer depends on where the simplex started. These checks
compare warm-started solves with cold ones on the outputs that read x, and
on SRME2, whose step 2 solves to one canonical basis so that its duals do
not depend on the start either.
"""

import numpy as np
import pytest

from gridmarg import lp
from gridmarg.cli import _apply_flex_mode
from gridmarg.errors import InfeasibleModel
from gridmarg.grid import Generator, GridModel, ScenarioConfig, Zone
from gridmarg.lp import (LpBuilder, SolveStatus, solve, tie_break_weights, verify_kkt,
                         with_extra_le_row)
from gridmarg.metrics import consequential_report, srme_dual, srme_uniform
from gridmarg.planner import ScaleEV, build_expansion_lp, perturb_demand, solve_model

from oracles import spy_on_solves
from test_lp import synth_grid
from toys import operational_base, single_bus

GRIDS = [(kind, seed) for kind in ("fleet", "expansion") for seed in (1, 2, 3)]


def _count_runs(monkeypatch) -> list[None]:
    """One entry per HiGHS run from here on, in any instance."""
    real, runs = lp._highs._Highs.run, []

    def run(self):
        runs.append(None)
        return real(self)
    monkeypatch.setattr(lp._highs._Highs, "run", run)
    return runs


@pytest.mark.parametrize("kind,seed", GRIDS)
def test_warm_srme1_rates_equal_the_cold_ones(kind, seed, tmp_path, monkeypatch):
    grid = synth_grid(kind, seed, tmp_path)
    caps = solve_model(build_expansion_lp(grid)).fixed_capacities()
    warm = srme_uniform(operational_base(grid, caps))
    dropped = spy_on_solves(monkeypatch, cold=True)   # every solve cold
    cold_series = srme_uniform(operational_base(grid, caps))
    assert sum(call.warm_start is not None for call in dropped) == len(grid.zone_ids())
    np.testing.assert_allclose(warm.rates, cold_series.rates, rtol=0, atol=1e-12)
    np.testing.assert_allclose(warm.alt_rates, cold_series.alt_rates, rtol=0, atol=1e-12)


@pytest.mark.parametrize("flex", ["none", "scenario", "delay8"])
@pytest.mark.parametrize("kind,seed", GRIDS)
def test_warm_srme2_rates_equal_the_cold_ones_bit_for_bit(kind, seed, flex, tmp_path,
                                                          monkeypatch):
    grid = _apply_flex_mode(synth_grid(kind, seed, tmp_path), flex)
    caps = solve_model(build_expansion_lp(grid)).fixed_capacities()
    warm = srme_dual(operational_base(grid, caps))
    calls = spy_on_solves(monkeypatch, cold=True)   # every solve cold
    cold = srme_dual(operational_base(grid, caps))
    step2 = [call for call in calls if call.options["canonical_basis"]]
    assert len(step2) == 1 and step2[0].warm_start is not None
    np.testing.assert_array_equal(warm.rates, cold.rates)
    # A feasible step 2 runs HiGHS twice: tie-broken, then restored.
    runs = _count_runs(monkeypatch)
    solve(step2[0].problem, warm_start=step2[0].warm_start, **step2[0].options)
    assert len(runs) == 2
    assert warm.details == cold.details


def _capped(problem, cap: float, new_cost):
    # SRME2's step 2 in small: a cap on the old objective, and a new one.
    idx = np.flatnonzero(problem.c)
    return with_extra_le_row(problem, idx, problem.c[idx], cap, new_cost=new_cost)


def test_a_canonical_solve_takes_a_start_one_cap_row_short_and_no_other_shape():
    b = LpBuilder()
    b.add_vars(3, cost=[1.0, 1.0, 2.0], ub=10.0)
    b.add_eq([0, 1, 2], [1.0, 1.0, 1.0], 4.0)
    problem = b.build()
    base = solve(problem)
    capped = _capped(problem, base.objective_value + 1e-7, [0.5, 0.5, 0.1])
    warm = solve(capped, warm_start=base, canonical_basis=True)
    cold = solve(capped, canonical_basis=True)
    assert warm.status is cold.status is SolveStatus.OPTIMAL
    assert verify_kkt(capped, warm).passed
    for name in ("x", "eq_duals", "ineq_duals"):
        np.testing.assert_array_equal(getattr(warm, name), getattr(cold, name))
    # Only the canonical-basis solve takes the short start, and only one row short.
    with pytest.raises(ValueError, match="rows"):
        solve(capped, warm_start=base)
    twice = _capped(capped, 10.0, capped.c)
    with pytest.raises(ValueError, match="rows"):
        solve(twice, warm_start=base, canonical_basis=True)
    with pytest.raises(ValueError, match="rows"):
        solve(problem, warm_start=warm, canonical_basis=True)


def test_a_canonical_solve_whose_tie_broken_rows_are_infeasible_still_solves(monkeypatch):
    # x2 is fixed at 1 and the last row asks x2 == 1: with its right-hand
    # side tie-broken, stage 1 is infeasible, so it runs again with the cost
    # tie-break alone, and stage 2 starts from there: three HiGHS runs.
    b = LpBuilder()
    b.add_vars(2, cost=[1.0, 2.0], ub=5.0)
    b.add_var(cost=0.0, lb=1.0, ub=1.0)
    b.add_eq([0, 1, 2], [1.0, 1.0, 1.0], 4.0)
    b.add_eq([2], [1.0], 1.0)
    problem = b.build()
    plain = solve(problem)
    runs = _count_runs(monkeypatch)
    for start in (None, plain):
        runs.clear()
        canonical = solve(problem, warm_start=start, canonical_basis=True)
        assert len(runs) == 3
        assert canonical.status is SolveStatus.OPTIMAL
        assert canonical.objective_value == plain.objective_value
        assert verify_kkt(problem, canonical).passed


def _capacity_deltas(report) -> dict[tuple[str, str], float]:
    return {(asset, key): value for asset, entry in report.capacity_deltas.items()
            for key, value in entry.items() if key != "kind"}


# Expansion 336 h seed 1 is the case where the per-zone battery split of a
# warm and a cold EV-scaled solve differed by 1.59 MW without the tie-break;
# at 168 h the two agreed even then.
@pytest.mark.parametrize("kind,seed,hours", [*((kind, seed, 168) for kind, seed in GRIDS),
                                             ("expansion", 1, 336)])
def test_warm_and_cold_ev_scaled_solves_build_the_same_capacity(kind, seed, hours, tmp_path):
    grid = synth_grid(kind, seed, tmp_path, hours)
    base = solve_model(build_expansion_lp(grid))
    scaled = build_expansion_lp(perturb_demand(grid, "all",
                                               ScaleEV(grid.config.perturbation_fraction)))
    warm = _capacity_deltas(consequential_report(
        base, solve_model(scaled, warm_start=base.solution)))
    cold = _capacity_deltas(consequential_report(base, solve_model(scaled)))
    # An entry is listed only where its delta is nonzero; a missing one reads 0.
    for key in warm.keys() | cold.keys():
        assert warm.get(key, 0.0) == pytest.approx(cold.get(key, 0.0), abs=1e-6), key


def _tied(cost_a: float = 2.0, cost_b: float = 2.0) -> GridModel:
    # Two identical-cost units sharing the margin (when cost_a == cost_b).
    return GridModel(
        zones=(Zone(id="Z", demand=np.array([30.0])),),
        generators=(
            Generator(id="a", zone_id="Z", kind="thermal", existing_cap_mw=40.0,
                      heat_rate=10.0, fuel_price=cost_a, emissions_factor=0.5),
            Generator(id="b", zone_id="Z", kind="thermal", existing_cap_mw=40.0,
                      heat_rate=10.0, fuel_price=cost_b, emissions_factor=0.7),
        ),
        config=ScenarioConfig(horizon_hours=1),
    )


def test_an_exact_tie_ends_at_one_vertex_from_any_start():
    problem = build_expansion_lp(_tied()).problem
    cold = solve(problem)
    assert cold.status is SolveStatus.OPTIMAL
    # Starts at the vertex where a serves the load, and where b does: both
    # are optimal for the tied LP, so a start there alone would stay.
    for start_lp in (_tied(cost_b=3.0), _tied(cost_a=3.0)):
        start = solve(build_expansion_lp(start_lp).problem)
        warm = solve(problem, warm_start=start)
        np.testing.assert_array_equal(warm.x, cold.x)
        assert verify_kkt(problem, warm).passed


def test_infeasible_and_unbounded_lps_keep_their_status():
    b = LpBuilder()
    b.add_vars(2, cost=1.0, ub=5.0)
    b.add_le([0, 1], [-1.0, -1.0], -12.0)   # x1 + x2 >= 12 with both <= 5
    assert solve(b.build()).status is SolveStatus.INFEASIBLE

    # A ray along tie-broken columns: stage 1's costs -1 + eps*w stay negative.
    b = LpBuilder()
    b.add_vars(2, cost=-1.0)
    b.add_eq([0, 1], [1.0, -1.0], 0.0)
    assert solve(b.build()).status is SolveStatus.UNBOUNDED

    # A free column is not tie-broken; the LP is unbounded below all the same.
    b = LpBuilder()
    b.add_var(cost=1.0, lb=-np.inf)
    assert solve(b.build()).status is SolveStatus.UNBOUNDED

    with pytest.raises(InfeasibleModel):
        solve_model(build_expansion_lp(single_bus(demand=120.0, cap=100.0,
                                                  nse_penalty=None)))


def test_duals_and_objective_are_the_original_lps():
    # Two tied columns: stage 1 picks one of them, and stage 2 prices the
    # row at the original cost, not at the tie-broken one.
    b = LpBuilder()
    b.add_vars(2, cost=3.0, ub=10.0)
    b.add_eq([0, 1], [1.0, 1.0], 4.0)
    problem = b.build()
    sol = solve(problem)
    assert sol.objective_value == 12.0
    assert sol.eq_duals[0] == pytest.approx(3.0, abs=1e-12)
    assert verify_kkt(problem, sol).passed
    w = tie_break_weights(2)
    assert sol.x.tolist() == ([4.0, 0.0] if w[0] < w[1] else [0.0, 4.0])


def test_tie_break_weights_are_a_fixed_stream_in_one_to_two():
    w = tie_break_weights(1000)
    assert w.min() >= 1.0 and w.max() < 2.0
    np.testing.assert_array_equal(tie_break_weights(10), w[:10])
