import numpy as np
import pytest
from scipy.optimize import linprog

from gridmarg.lp import (LpBuilder, LpProblem, LpSolution, SolveStatus, solve, verify_kkt,
                         with_extra_le_row, write_lp_text)
from gridmarg.planner import build_expansion_lp, build_operational_lp, solve_model
from gridmarg.scenario_io import load_scenario

from oracles import random_feasible_lp, vertex_enumeration_minimum
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


def test_lp_text_dump_is_deterministic():
    b = LpBuilder()
    b.add_var(cost=1.5)
    b.add_var(cost=-2.0, ub=4.0)
    b.add_eq([0, 1], [1.0, 1.0], 3.0)
    b.add_le([0, 1], [2.0, -1.0], 1.0)
    problem = b.build()
    text = write_lp_text(problem)
    assert text == write_lp_text(problem)
    assert "Minimize" in text and "Subject To" in text and "Bounds" in text
    assert "e0: + 1 v0 + 1 v1 = 3" in text
    assert "i0: + 2 v0 - 1 v1 <= 1" in text
    assert "0 <= v1 <= 4" in text


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


@pytest.mark.parametrize("make_grid", [lambda: load_scenario(TUTORIAL), merit_stack,
                                       storage_coupled, breakeven_wind, backfire])
def test_cold_solve_matches_linprog_bit_for_bit_on_toy_grids(make_grid):
    grid = make_grid()
    expansion = build_expansion_lp(grid)
    assert_matches_linprog(expansion.problem)
    caps = solve_model(expansion).fixed_capacities()
    assert_matches_linprog(build_operational_lp(grid, caps).problem)


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
