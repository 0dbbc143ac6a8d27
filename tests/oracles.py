"""Independent brute-force oracles used to validate the optimization layer,
and the one spy the tests put on the solver.

The oracles deliberately share no code path with the solver: vertex
enumeration walks every candidate basic solution of a small LP directly from
the constraint data.
"""

import inspect
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from gridmarg import lp
from gridmarg.lp import CsrRows, LpBuilder, LpMatrix, LpProblem, LpSolution


@dataclass(frozen=True)
class SolveCall:
    """One solve that reached the backend: its problem, the warm start its
    caller asked for, its other keyword options, and the solution returned."""

    problem: LpProblem
    warm_start: LpSolution | None
    options: dict
    solution: LpSolution


def spy_on_solves(monkeypatch, cold: bool = False) -> list[SolveCall]:
    """Record every call of gridmarg.lp.solve, in call order, while delegating to it.

    With cold=True each solve runs without its warm start; the record still
    names the start its caller asked for.
    """
    real, calls = lp.solve, []
    signature = inspect.signature(real)

    def spy(*args, **kwargs):
        call = signature.bind(*args, **kwargs)
        call.apply_defaults()
        problem, warm_start = call.arguments["problem"], call.arguments["warm_start"]
        if cold:
            call.arguments["warm_start"] = None
        solution = real(*call.args, **call.kwargs)
        options = {k: v for k, v in call.arguments.items() if k not in ("problem", "warm_start")}
        calls.append(SolveCall(problem, warm_start, options, solution))
        return solution
    monkeypatch.setattr(lp, "solve", spy)
    return calls


def bounds_as_rows(problem: LpProblem) -> LpProblem:
    """problem with each finite upper bound x_j <= u_j restated as a singleton
    <=-row, appended after its <=-rows in column order, and the bound dropped.

    The LP is the same; only its layout differs, as the planner's did while
    it wrote the capacity limits of columns without an investment column as
    rows.
    """
    cols = np.flatnonzero(np.isfinite(problem.ub)).astype(np.int32)
    ub = problem.rows_ub
    rows_ub = CsrRows(np.concatenate((ub.data, np.ones(cols.size))),
                      np.concatenate((ub.indices, cols)),
                      np.concatenate((ub.indptr, ub.nnz + np.arange(1, cols.size + 1,
                                                                    dtype=np.int32))),
                      problem.num_vars)
    return replace(problem, matrix=LpMatrix(problem.rows_eq, rows_ub),
                   b_ub=np.concatenate((problem.b_ub, problem.ub[cols])),
                   ub=np.where(np.isfinite(problem.ub), np.inf, problem.ub))


def random_feasible_lp(rng: np.random.Generator, n_vars: int, n_eq: int, n_ub: int) -> LpProblem:
    """A feasible, bounded LP built around a known interior point x0.

    Box bounds guarantee boundedness; right-hand sides are derived from x0 so
    the instance is feasible by construction. Some inequality rows are left
    nearly binding to exercise the active-set machinery.
    """
    b = LpBuilder()
    ub = rng.uniform(1.0, 10.0, n_vars)
    cost = rng.normal(0.0, 1.0, n_vars)
    b.add_vars(n_vars, cost=cost, lb=0.0, ub=ub)
    x0 = rng.uniform(0.1, 0.9, n_vars) * ub
    for _ in range(n_eq):
        a = rng.normal(0.0, 1.0, n_vars)
        b.add_eq(range(n_vars), a, float(a @ x0))
    for k in range(n_ub):
        a = rng.normal(0.0, 1.0, n_vars)
        slack = rng.uniform(0.0, 0.3) if k % 3 == 0 else rng.uniform(0.5, 3.0)
        b.add_le(range(n_vars), a, float(a @ x0) + slack)
    return b.build()


def vertex_enumeration_minimum(problem: LpProblem, tol: float = 1e-9) -> float:
    """Minimum objective over all basic feasible solutions, by exhaustive enumeration.

    Every equality row is always active; the remaining active set is chosen
    among inequality rows and finite variable bounds. Intended for problems
    with <= 6 variables and <= 8 constraints.
    """
    n = problem.num_vars
    eq_rows = [(problem.A_eq.getrow(i).toarray().ravel(), problem.b_eq[i])
               for i in range(problem.num_eq)]
    candidates = [(problem.A_ub.getrow(i).toarray().ravel(), problem.b_ub[i])
                  for i in range(problem.num_ub)]
    for j in range(n):
        if np.isfinite(problem.lb[j]):
            e = np.zeros(n)
            e[j] = 1.0
            candidates.append((e, problem.lb[j]))
        if np.isfinite(problem.ub[j]):
            e = np.zeros(n)
            e[j] = 1.0
            candidates.append((e.copy(), problem.ub[j]))

    need = n - len(eq_rows)
    if need < 0:
        raise ValueError("more equality rows than variables")
    best = np.inf
    A_eq = problem.A_eq.toarray() if problem.num_eq else np.zeros((0, n))
    A_ub = problem.A_ub.toarray() if problem.num_ub else np.zeros((0, n))
    for combo in combinations(candidates, need):
        mat = np.array([row for row, _ in eq_rows] + [row for row, _ in combo])
        rhs = np.array([r for _, r in eq_rows] + [r for _, r in combo])
        try:
            x = np.linalg.solve(mat, rhs)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.abs(mat @ x - rhs) <= 1e-8 * np.maximum(1.0, np.abs(rhs))):
            continue
        if problem.num_eq and np.max(np.abs(A_eq @ x - problem.b_eq)) > tol:
            continue
        if problem.num_ub and np.max(A_ub @ x - problem.b_ub) > tol:
            continue
        if np.max(problem.lb - x, initial=0.0) > tol:
            continue
        finite = np.isfinite(problem.ub)
        if finite.any() and np.max((x - problem.ub)[finite], initial=0.0) > tol:
            continue
        best = min(best, float(problem.c @ x))
    return best
