import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

from gridmarg.grid import Generator, GridModel, ScenarioConfig, StorageUnit, Zone, resolve_scenario
from gridmarg.lp import (TIE_BREAK_EPS, LpBuilder, LpProblem, LpSolution, SolveStatus, _highs,
                         solve, tie_break_weights, verify_kkt, with_extra_le_row)
from gridmarg.planner import (ScaleEV, UniformAll, build_expansion_lp, build_operational_lp,
                              perturb_demand, solve_model)
from gridmarg.scenario_io import load_scenario

from oracles import random_feasible_lp, spy_on_solves, vertex_enumeration_minimum
from test_lp_arrays import assert_highs_holds_scipys_csc
from test_scenario_io import TUTORIAL
from toys import backfire, breakeven_wind, merit_stack, storage_coupled


def merit_order_problem() -> "LpProblem":
    # min x1 + 2*x2  s.t. x1 + x2 = 1, x >= 0
    b = LpBuilder()
    b.add_var(cost=1.0)
    b.add_var(cost=2.0)
    b.add_eq([0, 1], [1.0, 1.0], 1.0)
    return b.build()


def test_single_binding_merit_order():
    sol = solve(merit_order_problem())
    assert sol.status is SolveStatus.OPTIMAL
    np.testing.assert_allclose(sol.x, [1.0, 0.0], atol=1e-9)
    assert sol.objective_value == pytest.approx(1.0, abs=1e-9)
    assert sol.eq_duals[0] == pytest.approx(1.0, abs=1e-9)


def test_binding_upper_bound_row():
    # min -x  s.t. x <= 5, x >= 0  ->  x = 5, dual of the row = 1
    b = LpBuilder()
    b.add_var(cost=-1.0)
    b.add_le([0], [1.0], 5.0)
    sol = solve(b.build())
    assert sol.x[0] == pytest.approx(5.0, abs=1e-9)
    assert sol.objective_value == pytest.approx(-5.0, abs=1e-9)
    assert sol.ineq_duals[0] == pytest.approx(1.0, abs=1e-9)


def test_random_lps_match_vertex_enumeration():
    rng = np.random.default_rng(20240711)
    for trial in range(12):
        n = int(rng.integers(2, 7))
        problem = random_feasible_lp(rng, n, n_eq=int(rng.integers(0, 2)),
                                     n_ub=int(rng.integers(1, 4)))
        sol = solve(problem)
        assert sol.status is SolveStatus.OPTIMAL, f"trial {trial}"
        oracle = vertex_enumeration_minimum(problem)
        assert sol.objective_value == pytest.approx(oracle, abs=1e-8), f"trial {trial}"


def test_random_lps_satisfy_kkt():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(3, 20))
        problem = random_feasible_lp(rng, n, n_eq=int(rng.integers(0, 3)),
                                     n_ub=int(rng.integers(1, 6)))
        sol = solve(problem)
        assert sol.status is SolveStatus.OPTIMAL
        assert np.all(sol.ineq_duals >= -1e-9)
        report = verify_kkt(problem, sol)
        assert report.passed, report


def test_verify_kkt_accepts_true_optimum():
    problem = merit_order_problem()
    sol = solve(problem)
    report = verify_kkt(problem, sol)
    assert report.passed
    assert report.max_primal_infeasibility <= 1e-12
    assert report.max_dual_infeasibility <= 1e-12
    assert report.max_complementarity <= 1e-12
    assert report.duality_gap <= 1e-12


def test_verify_kkt_flags_suboptimal_point():
    # Feasible but suboptimal x = (0, 1): objective 2 against optimum 1.
    problem = merit_order_problem()
    sol = solve(problem)
    fake = LpSolution(status=SolveStatus.OPTIMAL, x=np.array([0.0, 1.0]),
                      objective_value=2.0, eq_duals=sol.eq_duals,
                      ineq_duals=sol.ineq_duals, reduced_costs=sol.reduced_costs)
    report = verify_kkt(problem, fake)
    assert report.max_primal_infeasibility <= 1e-12
    # Absolute primal-dual mismatch is 1; the report scales by max(1, |obj|) = 2.
    assert report.duality_gap == pytest.approx(0.5, abs=1e-12)
    assert not report.passed


def test_verify_kkt_flags_perturbed_dual():
    problem = merit_order_problem()
    sol = solve(problem)
    fake = LpSolution(status=SolveStatus.OPTIMAL, x=sol.x, objective_value=sol.objective_value,
                      eq_duals=sol.eq_duals + 1e-3, ineq_duals=sol.ineq_duals,
                      reduced_costs=sol.reduced_costs)
    report = verify_kkt(problem, fake)
    assert report.max_dual_infeasibility == pytest.approx(1e-3, rel=1e-6)
    assert not report.passed


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_verify_kkt_on_a_free_column():
    # min x0  s.t.  x0 + x1 = 3, x1 <= 1, x0 >= 0, x1 free: x = (2, 1).
    b = LpBuilder()
    b.add_var(cost=1.0)
    b.add_var(lb=-np.inf)
    b.add_eq([0, 1], [1.0, 1.0], 3.0)
    b.add_le([1], [1.0], 1.0)
    problem = b.build()
    sol = solve(problem)
    np.testing.assert_allclose(sol.x, [2.0, 1.0], atol=1e-12)
    assert verify_kkt(problem, sol).passed
    # A free column has no bound to sit at: a reduced cost of either sign is infeasible.
    for shift in (1e-3, -1e-3):
        report = verify_kkt(problem, replace(sol, ineq_duals=sol.ineq_duals + shift))
        assert report.max_dual_infeasibility == pytest.approx(1e-3, rel=1e-6)


def test_infeasible_and_unbounded_status():
    b = LpBuilder()
    b.add_var(cost=1.0)
    b.add_eq([0], [1.0], -1.0)  # x = -1 with x >= 0
    assert solve(b.build()).status is SolveStatus.INFEASIBLE

    b = LpBuilder()
    b.add_var(cost=-1.0)  # min -x, x unbounded above
    assert solve(b.build()).status is SolveStatus.UNBOUNDED


def test_builder_rejects_bad_rows_and_bounds():
    b = LpBuilder()
    b.add_var()
    with pytest.raises(ValueError, match="undeclared variable"):
        b.add_eq([3], [1.0], 0.0)
    b2 = LpBuilder()
    b2.add_var(lb=2.0, ub=1.0)
    with pytest.raises(ValueError, match="lower bound"):
        b2.build()
    b3 = LpBuilder()
    b3.add_var(cost=np.nan)
    with pytest.raises(ValueError, match="finite"):
        b3.build()
    # NaN passes the lb > ub check, and HiGHS took such bounds and reported x = nan or inf.
    for lb, ub in ((-np.inf, -np.inf), (np.inf, np.inf), (np.nan, 1.0), (0.0, np.nan)):
        b4 = LpBuilder()
        b4.add_var(cost=1.0)
        b4.add_var(cost=1.0, lb=lb, ub=ub)
        with pytest.raises(ValueError, match=r"variable 1 has bounds .* must not be NaN"):
            b4.build()


def test_bounded_variable_duals_consistent():
    # min -x with 0 <= x <= 5 via bounds: reduced cost -1 at the upper bound.
    b = LpBuilder()
    b.add_var(cost=-1.0, ub=5.0)
    sol = solve(b.build())
    assert sol.x[0] == pytest.approx(5.0)
    assert sol.reduced_costs[0] == pytest.approx(-1.0)
    assert verify_kkt(b.build(), sol).passed


def test_with_extra_le_row_appends_last():
    problem = merit_order_problem()
    capped = with_extra_le_row(problem, [0], [1.0], 0.25, new_cost=np.array([0.0, 1.0]))
    sol = solve(capped)
    # Minimizing x2 with x1 <= 0.25 forces x = (0.25, 0.75).
    np.testing.assert_allclose(sol.x, [0.25, 0.75], atol=1e-9)
    assert sol.ineq_duals.shape == (1,)
    assert sol.ineq_duals[-1] == pytest.approx(1.0, abs=1e-9)  # relaxing the cap saves x2 1:1


# --- the HiGHS front-end against linprog, cold and warm -----------------------------

def linprog_reference(problem: LpProblem):
    """scipy's own linprog on the same problem: (x, eq_duals, ineq_duals)."""
    res = linprog(problem.c,
                  A_ub=problem.A_ub if problem.num_ub else None,
                  b_ub=problem.b_ub if problem.num_ub else None,
                  A_eq=problem.A_eq if problem.num_eq else None,
                  b_eq=problem.b_eq if problem.num_eq else None,
                  bounds=np.column_stack([problem.lb, problem.ub]), method="highs-ds")
    assert res.status == 0, res.message
    eq = np.asarray(res.eqlin.marginals, dtype=float) if problem.num_eq else np.zeros(0)
    ineq = -np.asarray(res.ineqlin.marginals, dtype=float) if problem.num_ub else np.zeros(0)
    return np.asarray(res.x, dtype=float), eq, ineq


def assert_same_bits(a: np.ndarray, b: np.ndarray):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def assert_matches_linprog(problem: LpProblem):
    sol = solve(problem)
    assert sol.status is SolveStatus.OPTIMAL
    x, eq, ineq = linprog_reference(problem)
    assert_same_bits(sol.x, x)
    assert_same_bits(sol.eq_duals, eq)
    assert_same_bits(sol.ineq_duals, ineq)


def test_cold_solve_matches_linprog_bit_for_bit_on_random_lps():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(3, 20))
        assert_matches_linprog(random_feasible_lp(rng, n, n_eq=int(rng.integers(0, 3)),
                                                  n_ub=int(rng.integers(1, 6))))


def tie_broken(problem: LpProblem) -> LpProblem:
    """The problem with stage 1's costs: c + TIE_BREAK_EPS * w on every column
    with a finite lower bound below its upper bound."""
    tilt = np.isfinite(problem.lb) & (problem.lb < problem.ub)
    w = tie_break_weights(problem.num_vars)
    return replace(problem, c=np.where(tilt, problem.c + TIE_BREAK_EPS * w, problem.c))


def assert_is_linprogs_vertex_of_the_tie_broken_lp(problem: LpProblem):
    sol = solve(problem)
    assert sol.status is SolveStatus.OPTIMAL
    np.testing.assert_allclose(sol.x, linprog_reference(tie_broken(problem))[0],
                               rtol=0, atol=1e-9)
    x, _, _ = linprog_reference(problem)
    assert sol.objective_value == pytest.approx(float(problem.c @ x), rel=1e-9, abs=1e-9)
    assert verify_kkt(problem, sol).passed


@pytest.mark.parametrize("make_grid", [lambda: load_scenario(TUTORIAL), merit_stack,
                                       storage_coupled, breakeven_wind, backfire])
def test_cold_solve_is_linprogs_vertex_of_the_tie_broken_lp_on_toy_grids(make_grid):
    # A cold solve equals linprog's own vertex only where the LP has a single
    # optimum; storage_coupled and backfire have several.
    grid = make_grid()
    expansion = build_expansion_lp(grid)
    assert_is_linprogs_vertex_of_the_tie_broken_lp(expansion.problem)
    caps = solve_model(expansion).fixed_capacities()
    assert_is_linprogs_vertex_of_the_tie_broken_lp(build_operational_lp(grid, caps).problem)


def test_repeated_entries_reach_highs_merged_as_scipy_merges_them():
    # At horizon 1 the cyclic wrap makes hour 0 its own predecessor, so the
    # storage balance row names the state of charge twice and the start-up
    # row names the commitment twice. Unmerged, HiGHS aborts the process.
    grid = GridModel(
        zones=(Zone(id="Z", demand=np.array([30.0])),),
        generators=(Generator(id="coal", zone_id="Z", kind="thermal", existing_cap_mw=50.0,
                              heat_rate=10.0, fuel_price=2.0, emissions_factor=0.9,
                              min_stable_fraction=0.4, startup_cost=60.0),),
        storage_units=(StorageUnit(id="bat", zone_id="Z", existing_power_mw=5.0,
                                   existing_energy_mwh=10.0),),
        config=ScenarioConfig(horizon_hours=1),
    )
    problem = build_expansion_lp(grid).problem
    for rows in (problem.rows_eq, problem.rows_ub):
        assert any(np.unique(rows.indices[s:e]).size < e - s
                   for s, e in zip(rows.indptr[:-1], rows.indptr[1:]))
    assert_highs_holds_scipys_csc(problem)
    sol = solve(problem)
    assert sol.objective_value == 600.0
    assert_same_bits(sol.x, linprog_reference(problem)[0])


def _two_var(cost, ub, row_coef, row_rhs) -> LpProblem:
    # x1 == x2 plus one <=-row; every instance has the same shape.
    b = LpBuilder()
    b.add_vars(2, cost=cost, ub=ub)
    b.add_eq([0, 1], [1.0, -1.0], 0.0)
    b.add_le([0, 1], row_coef, row_rhs)
    return b.build()


def test_warm_start_shape_mismatch_raises():
    first = solve(merit_order_problem())
    with pytest.raises(ValueError, match="columns"):
        solve(_two_var([1.0, 1.0], [5.0, 5.0], [1.0, 1.0], 4.0), warm_start=first)
    with pytest.raises(ValueError, match="basis"):
        solve(merit_order_problem(), warm_start=LpSolution(status=SolveStatus.INFEASIBLE))


def test_warm_solves_report_infeasible_and_unbounded_like_cold_ones():
    starts = [solve(_two_var([1.0, 1.0], [5.0, 5.0], [1.0, 1.0], 4.0)),
              solve(_two_var([-1.0, -1.0], [5.0, 5.0], [1.0, 1.0], 4.0))]
    infeasible = _two_var([1.0, 1.0], [5.0, 5.0], [-1.0, -1.0], -12.0)  # x1 + x2 >= 12
    unbounded = _two_var([-1.0, -1.0], [np.inf, np.inf], [-1.0, -1.0], 0.0)
    for problem, status in ((infeasible, SolveStatus.INFEASIBLE),
                            (unbounded, SolveStatus.UNBOUNDED)):
        assert solve(problem).status is status
        for start in starts:
            assert start.status is SolveStatus.OPTIMAL
            assert solve(problem, warm_start=start).status is status


def basis_from_codes(solution: LpSolution):
    """A fresh HighsBasis rebuilt from the solution's int8 status codes.

    The reference for the native basis a warm start hands to HiGHS: the
    codes -> enum rebuild every warm start went through before.
    """
    basis = _highs.HighsBasis()
    basis.col_status = [_highs.HighsBasisStatus(code) for code in solution.col_status.tolist()]
    basis.row_status = [_highs.HighsBasisStatus(code) for code in solution.row_status.tolist()]
    return basis


def synth_grid(kind: str, seed: int, tmp_path, hours: int = 168):
    spec = importlib.util.spec_from_file_location(
        "synth", Path(__file__).resolve().parents[1] / "bench" / "synth.py")
    synth = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(synth)
    return resolve_scenario(load_scenario(synth.write(kind, hours, seed, tmp_path / kind)))


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("kind", ["fleet", "expansion"])
def test_native_basis_warm_starts_as_the_basis_rebuilt_from_codes(kind, seed, tmp_path):
    grid = synth_grid(kind, seed, tmp_path)
    base_result = solve_model(build_expansion_lp(grid))
    base, caps = base_result.solution, base_result.fixed_capacities()
    problems = [build_expansion_lp(perturb_demand(grid, "all",
                                                  ScaleEV(grid.config.perturbation_fraction)))]
    problems += [build_operational_lp(perturb_demand(grid, [zone],
                                                     UniformAll(grid.config.srme1_fraction)),
                                      caps)
                 for zone in grid.zone_ids()]
    rebuilt = replace(base, basis=basis_from_codes(base))
    for model in problems:
        native = solve(model.problem, warm_start=base)
        codes = solve(model.problem, warm_start=rebuilt)
        assert native.status is codes.status is SolveStatus.OPTIMAL
        assert native.iterations == codes.iterations
        for name in ("x", "eq_duals", "ineq_duals", "reduced_costs", "col_status", "row_status"):
            assert_same_bits(getattr(native, name), getattr(codes, name))


# --- the per-scope solve memo --------------------------------------------------------

@pytest.fixture
def backend_calls(monkeypatch):
    """The solves that reach the backend (lp.solve), recorded while delegating to it."""
    return spy_on_solves(monkeypatch)


def test_memo_hit_returns_the_earlier_solution_without_solving(backend_calls):
    from gridmarg.lp import memo_solve, solve_memo_scope
    with solve_memo_scope():
        first = memo_solve(merit_order_problem())
        again = memo_solve(merit_order_problem())   # equal arrays, separate objects
    assert again is first
    assert len(backend_calls) == 1


def test_memo_keeps_cold_and_each_warm_start_basis_apart(backend_calls):
    from gridmarg.lp import memo_solve, solve_memo_scope
    problem = _two_var([1.0, 2.0], [5.0, 5.0], [1.0, 1.0], 4.0)
    with solve_memo_scope():
        start_a = memo_solve(_two_var([1.0, 1.0], [5.0, 5.0], [1.0, 1.0], 4.0))
        start_b = memo_solve(_two_var([-1.0, -1.0], [5.0, 5.0], [1.0, 1.0], 4.0))
        assert not np.array_equal(start_a.row_status, start_b.row_status)
        backend_calls.clear()
        memo_solve(problem)
        memo_solve(problem, warm_start=start_a)
        memo_solve(problem, warm_start=start_b)
        assert len(backend_calls) == 3
        memo_solve(problem, warm_start=start_b)
        memo_solve(problem)
        assert len(backend_calls) == 3


def test_memo_answers_a_warm_start_from_the_same_lps_stored_optimum(backend_calls):
    from gridmarg.lp import memo_solve, solve_memo_scope
    problem = _two_var([1.0, 2.0], [5.0, 5.0], [1.0, 1.0], 4.0)
    other = _two_var([2.0, 1.0], [5.0, 5.0], [1.0, 1.0], 4.0)
    with solve_memo_scope():
        first = memo_solve(problem)
        assert memo_solve(_two_var([1.0, 2.0], [5.0, 5.0], [1.0, 1.0], 4.0),
                          warm_start=first) is first
        from_first = memo_solve(other, warm_start=first)   # another LP: solved
        assert memo_solve(other, warm_start=from_first) is from_first
        # The same LP as a canonical-basis solve is another solve.
        memo_solve(problem, warm_start=first, canonical_basis=True)
    assert len(backend_calls) == 3
    np.testing.assert_array_equal(solve(problem, warm_start=first).x, first.x)


def test_memo_names_a_start_by_its_key_or_else_by_its_basis(backend_calls):
    from gridmarg.lp import memo_solve, solve_memo_scope
    problem = _two_var([1.0, 2.0], [5.0, 5.0], [1.0, 1.0], 4.0)
    start_lp = _two_var([1.0, 1.0], [5.0, 5.0], [1.0, 1.0], 4.0)
    with solve_memo_scope():
        stored = memo_solve(start_lp)
        loose, loose_again = solve(start_lp), solve(start_lp)   # solved outside the memo
        assert stored.memo_key is not None and loose.memo_key is None
        backend_calls.clear()
        from_stored = memo_solve(problem, warm_start=stored)
        assert from_stored.memo_key is not None
        assert memo_solve(problem, warm_start=stored) is from_stored
        # A start without a key is named by its basis codes: equal codes, one solve.
        from_loose = memo_solve(problem, warm_start=loose)
        assert memo_solve(problem, warm_start=loose_again) is from_loose
        assert len(backend_calls) == 2


def _with_fixed_column(cost) -> LpProblem:
    # min c.x  s.t. x0 + x1 + x2 = 4, x0, x1 in [0, 5], x2 fixed at 1.
    b = LpBuilder()
    b.add_vars(2, cost=cost[:2], ub=5.0)
    b.add_var(cost=cost[2], lb=1.0, ub=1.0)
    b.add_eq([0, 1, 2], [1.0, 1.0, 1.0], 4.0)
    return b.build()


def test_memo_hit_when_only_fixed_columns_costs_differ(backend_calls):
    from gridmarg.lp import memo_solve, solve_memo_scope
    first_lp, other_lp = _with_fixed_column([1.0, 2.0, 3.0]), _with_fixed_column([1.0, 2.0, 7.0])
    with solve_memo_scope():
        first = memo_solve(first_lp)
        other = memo_solve(other_lp)
    assert len(backend_calls) == 1
    fresh = solve(other_lp)
    assert other.objective_value == fresh.objective_value == 3.0 + 7.0
    assert first.objective_value == 3.0 + 3.0
    np.testing.assert_array_equal(other.x, fresh.x)
    np.testing.assert_array_equal(other.reduced_costs, fresh.reduced_costs)
    assert other.reduced_costs[2] == first.reduced_costs[2] + 4.0
    assert verify_kkt(other_lp, other).passed
    assert other.memo_key == first.memo_key
    assert not other.reduced_costs.flags.writeable


@pytest.mark.parametrize("column", [0, 1])
def test_memo_miss_when_a_free_columns_cost_differs(backend_calls, column):
    from gridmarg.lp import memo_solve, solve_memo_scope
    cost = [1.0, 2.0, 3.0]
    cost[column] += 0.5
    with solve_memo_scope():
        memo_solve(_with_fixed_column([1.0, 2.0, 3.0]))
        moved = memo_solve(_with_fixed_column(cost))
    assert len(backend_calls) == 2
    assert verify_kkt(_with_fixed_column(cost), moved).passed


def test_memo_solve_outside_a_scope_always_solves(backend_calls):
    from gridmarg.lp import memo_solve
    memo_solve(merit_order_problem())
    memo_solve(merit_order_problem())
    assert len(backend_calls) == 2


def test_nested_memo_scope_reads_the_outer_scope_and_drops_its_own(backend_calls):
    from gridmarg.lp import memo_solve, solve_memo_scope
    other = _two_var([1.0, 2.0], [5.0, 5.0], [1.0, 1.0], 4.0)
    with solve_memo_scope():
        outer = memo_solve(merit_order_problem())
        with solve_memo_scope(nested=True):
            assert memo_solve(merit_order_problem()) is outer
            inner = memo_solve(other)
            assert memo_solve(other) is inner
        assert len(backend_calls) == 2
        assert memo_solve(other) is not inner
        assert memo_solve(merit_order_problem()) is outer
        assert len(backend_calls) == 3
    with solve_memo_scope(nested=True):   # outside any scope it memoizes nothing
        memo_solve(other)
        memo_solve(other)
    assert len(backend_calls) == 5


def test_no_memo_entry_outlives_its_cli_command(backend_calls, tmp_path):
    from gridmarg.cli import main
    from gridmarg.lp import memo_solve
    argv = ["metrics", str(TUTORIAL), "--method", "srme1", "--out", str(tmp_path)]
    assert main(argv) == 0
    first = len(backend_calls)
    # The tutorial builds nothing, so its operational base repeats the expansion LP.
    assert first == 1 + 2   # expansion (= operational base), one perturbed solve per zone
    assert main(argv) == 0
    assert len(backend_calls) == 2 * first
    memo_solve(merit_order_problem())
    memo_solve(merit_order_problem())
    assert len(backend_calls) == 2 * first + 2


@pytest.mark.parametrize("command", [
    ["metrics", str(TUTORIAL), "--method", "lrmer"],
    ["sweep", str(TUTORIAL), "--parallel", "1"],
], ids=["metrics-lrmer", "sweep"])
def test_commands_convert_no_model_or_basis_element_by_element(command, backend_calls,
                                                               monkeypatch, tmp_path):
    # The model reaches HiGHS as numpy buffers and a warm start as HiGHS's own
    # basis, so neither the HighsLp field-by-field copy nor the enum -> int8
    # basis conversion runs on a command; the memo names warm starts by key.
    import gridmarg.lp as lp_module
    from gridmarg.cli import main
    counts = {"_status_codes": 0, "HighsLp": 0}

    def counting(owner, name):
        real = getattr(owner, name)

        def call(*args):
            counts[name] += 1
            return real(*args)
        monkeypatch.setattr(owner, name, call)
    counting(lp_module, "_status_codes")
    counting(lp_module._highs, "HighsLp")
    assert main(command + ["--out", str(tmp_path / "out")]) == 0
    assert any(call.warm_start is not None for call in backend_calls)   # warm starts did run
    assert counts == {"_status_codes": 0, "HighsLp": 0}


def test_solution_arrays_are_read_only():
    sol = solve(merit_order_problem())
    for name in ("x", "eq_duals", "ineq_duals", "reduced_costs", "col_status", "row_status"):
        arr = getattr(sol, name)
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0
