"""Linear-program container, solver front-end, and KKT verification.

Problems are minimizations in the standard split form

    min  c.x   s.t.   A_eq x = b_eq,   A_ub x <= b_ub,   lb <= x <= ub

Dual sign convention (used throughout the toolkit):

  * eq_duals[i]   = dObj/d(b_eq[i])   -- the "price" convention, so the dual
                    of a power-balance row is $/MWh (or tCO2/MWh when the
                    objective is emissions).
  * ineq_duals[j] = -dObj/d(b_ub[j])  >= 0 for <=-rows; relaxing the row can
                    only lower a minimum.
  * reduced_costs = c - A_eq'.eq_duals + A_ub'.ineq_duals; nonnegative at a
                    lower bound, nonpositive at an upper bound, ~0 elsewhere.

The backend is HiGHS dual simplex, called through scipy's bundled bindings
with the same model layout and options as ``linprog(method="highs-ds")``, so
a cold solve returns the same vertex bit for bit. An optimal solution also
carries its final simplex basis; passing it as ``warm_start`` to the solve of
another LP of the same shape (typically the same matrix with a few bounds
moved) starts dual simplex from that basis instead of from scratch.

The bindings are scipy's compiled extension ``scipy.optimize._highspy._core``,
loaded from its file instead of imported through ``scipy.optimize``.
Importing a submodule runs every parent package's ``__init__``, and
``scipy.optimize``'s loads ``scipy.linalg``, the optimizers and about 250
other modules: some 40% of the CLI's import time (``python -X importtime``).
The extension is registered under its canonical name, so a later
``import scipy.optimize`` in the same process (tests, the benchmark's
checks) reuses the module instead of loading it again. ``linprog``, which
only the benchmark's tracer reads from this module, is imported on first
access.

Every solve builds a fresh HiGHS instance, and an LpProblem is immutable
once built. A warm start only changes where the simplex starts; the optimum
it reaches is an optimum of the problem passed in.

A sweep chains warm starts within each group of cells that share a
flexibility mode: those cells build expansion LPs of one shape, so each
cell's base solve starts from the base solution of the group's last cell
that succeeded, and only the group's first base solve is cold.

Repeat solves are answered from a memo. Inside ``solve_memo_scope()`` (one
per CLI command, and one per sweep cell), ``memo_solve`` keys each solve by
a digest of the problem arrays plus the warm-start basis, if any, and
returns the stored solution of an earlier identical solve instead of
solving again. HiGHS is deterministic, so the stored solution is the one a
new solve would return. A nested scope (``solve_memo_scope(nested=True)``,
one per scheduler pass) reads the enclosing scope's solutions but drops its
own when it ends, so solves that cannot recur are not kept for the rest of
the command. Outside a scope, ``memo_solve`` is a plain ``solve``.
Solution arrays are read-only, so one solution can be shared by every
caller that asked for it.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import sys
from collections import ChainMap
from collections.abc import Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np
import scipy
import scipy.sparse as sp

from .errors import NumericalFailure

_HIGHS_MODULE = "scipy.optimize._highspy._core"


def _load_highs(directory: Path):
    """Load scipy's HiGHS extension from ``directory`` as ``scipy.optimize._highspy._core``.

    The module is registered in ``sys.modules`` under its canonical name, so
    a later ``import scipy.optimize`` reuses it instead of loading the
    extension again and registering its pybind11 types a second time.
    """
    # PathFinder tries every extension suffix this interpreter accepts.
    spec = importlib.machinery.PathFinder.find_spec(_HIGHS_MODULE, [str(directory)])
    try:
        if spec is None:
            raise ImportError(f"no {_HIGHS_MODULE} extension in {directory}")
        module = importlib.util.module_from_spec(spec)
    except ImportError as exc:  # a private scipy module: its layout may change
        raise ImportError(
            "gridmarg needs scipy>=1.17,<1.18: it solves through scipy's bundled HiGHS "
            f"bindings ({_HIGHS_MODULE}), which it could not load from {directory}") from exc
    sys.modules[_HIGHS_MODULE] = module
    spec.loader.exec_module(module)
    return module


_highs = (sys.modules.get(_HIGHS_MODULE)
          or _load_highs(Path(scipy.__file__).parent / "optimize" / "_highspy"))


def __getattr__(name: str):
    # scipy's linprog, resolved on first access: the benchmark's tracer
    # (bench/tracing.py) rebinds gridmarg.lp.linprog, and importing it at
    # module load would pull in all of scipy.optimize.
    if name == "linprog":
        from scipy.optimize import linprog
        globals()["linprog"] = linprog
        return linprog
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


FEAS_TOL = 1e-7     # internal feasibility/optimality target
REPORT_TOL = 1e-6   # tolerance at which residual reports pass


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpProblem:
    """Immutable standard-form LP. Arrays are owned by the problem; treat as read-only.

    A_eq / A_ub are CSR matrices (possibly with zero rows). Bounds default to
    [0, +inf) per variable.
    """

    c: np.ndarray
    A_eq: sp.csr_matrix
    b_eq: np.ndarray
    A_ub: sp.csr_matrix
    b_ub: np.ndarray
    lb: np.ndarray
    ub: np.ndarray

    def __post_init__(self):
        n = self.c.shape[0]
        if self.A_eq.shape[1] != n or self.A_ub.shape[1] != n:
            raise ValueError(
                f"constraint matrices have {self.A_eq.shape[1]}/{self.A_ub.shape[1]} "
                f"columns for {n} variables"
            )
        if self.A_eq.shape[0] != self.b_eq.shape[0]:
            raise ValueError("A_eq rows do not match b_eq length")
        if self.A_ub.shape[0] != self.b_ub.shape[0]:
            raise ValueError("A_ub rows do not match b_ub length")
        if self.lb.shape[0] != n or self.ub.shape[0] != n:
            raise ValueError("bound vectors do not match variable count")
        if not np.isfinite(self.c).all():
            raise ValueError("objective coefficients must be finite")
        for mat, name in ((self.A_eq, "A_eq"), (self.A_ub, "A_ub")):
            if mat.nnz and not np.isfinite(mat.data).all():
                raise ValueError(f"{name} contains non-finite coefficients")
        if not (np.isfinite(self.b_eq).all() and np.isfinite(self.b_ub).all()):
            raise ValueError("right-hand sides must be finite")
        if np.any(self.lb > self.ub):
            j = int(np.argmax(self.lb > self.ub))
            raise ValueError(f"variable {j} has lower bound {self.lb[j]} > upper bound {self.ub[j]}")

    @property
    def num_vars(self) -> int:
        return self.c.shape[0]

    @property
    def num_eq(self) -> int:
        return self.b_eq.shape[0]

    @property
    def num_ub(self) -> int:
        return self.b_ub.shape[0]


class LpBuilder:
    """Block-wise LP assembly: add variables, then rows referencing them.

    Rows are added in blocks. A block is a 2-D index array with one LP row
    per array row, and a coefficient array that broadcasts to its shape; or a
    tuple of such index arrays with equal row counts and a tuple of their
    coefficients, whose rows are interleaved: row 0 of each in turn, then
    row 1, and so on. Entries keep their order within a row. The builder
    rejects references to undeclared variables at add time, so badly indexed
    models fail fast, before any solve.
    """

    def __init__(self):
        self._cost: list[float] = []
        self._lb: list[float] = []
        self._ub: list[float] = []
        self._eq = _RowBlocks()
        self._le = _RowBlocks()

    @property
    def num_vars(self) -> int:
        return len(self._cost)

    def add_var(self, cost: float = 0.0, lb: float = 0.0, ub: float = np.inf) -> int:
        self._cost.append(float(cost))
        self._lb.append(float(lb))
        self._ub.append(float(ub))
        return len(self._cost) - 1

    def add_vars(self, n: int, cost=0.0, lb=0.0, ub=np.inf) -> np.ndarray:
        """Add n variables sharing scalar or per-variable cost/bounds; returns index array."""
        cost = np.broadcast_to(np.asarray(cost, dtype=float), (n,))
        lb = np.broadcast_to(np.asarray(lb, dtype=float), (n,))
        ub = np.broadcast_to(np.asarray(ub, dtype=float), (n,))
        start = len(self._cost)
        self._cost.extend(cost.tolist())
        self._lb.extend(lb.tolist())
        self._ub.extend(ub.tolist())
        return np.arange(start, start + n)

    def add_eq_rows(self, idx, coef, rhs) -> np.ndarray:
        """Add one row sum(coef*x[idx]) == rhs per block row; returns the equality row indices."""
        return self._eq.add(idx, coef, rhs, self.num_vars)

    def add_le_rows(self, idx, coef, rhs) -> np.ndarray:
        """Add one row sum(coef*x[idx]) <= rhs per block row; returns the inequality row indices."""
        return self._le.add(idx, coef, rhs, self.num_vars)

    def add_eq(self, idx, coef, rhs: float) -> int:
        """Add sum(coef*x[idx]) == rhs; returns the equality row index."""
        return int(self.add_eq_rows(*_one_row(idx, coef), [rhs])[0])

    def add_le(self, idx, coef, rhs: float) -> int:
        """Add sum(coef*x[idx]) <= rhs; returns the inequality row index."""
        return int(self.add_le_rows(*_one_row(idx, coef), [rhs])[0])

    def fix_var(self, idx: int, value: float) -> None:
        self._lb[idx] = float(value)
        self._ub[idx] = float(value)

    def build(self) -> LpProblem:
        n = len(self._cost)
        return LpProblem(
            c=np.asarray(self._cost, dtype=float),
            A_eq=self._eq.csr(n),
            b_eq=self._eq.rhs(),
            A_ub=self._le.csr(n),
            b_ub=self._le.rhs(),
            lb=np.asarray(self._lb, dtype=float),
            ub=np.asarray(self._ub, dtype=float),
        )


def _one_row(idx, coef) -> tuple[np.ndarray, np.ndarray]:
    idx = np.asarray(idx, dtype=np.int64).reshape(1, -1)
    coef = np.asarray(coef, dtype=float).reshape(1, -1)
    if idx.shape != coef.shape:
        raise ValueError("row indices and coefficients differ in length")
    return idx, coef


class _RowBlocks:
    """The rows of one sense as blocks of (row lengths, flat indices, flat coefficients, rhs)."""

    def __init__(self):
        self.num_rows = 0
        self._lengths: list[np.ndarray] = []
        self._indices: list[np.ndarray] = []
        self._data: list[np.ndarray] = []
        self._rhs: list[np.ndarray] = []

    def add(self, idx, coef, rhs, num_vars: int) -> np.ndarray:
        if not isinstance(idx, tuple):
            idx, coef = (idx,), (coef,)
        families = [np.asarray(i, dtype=np.int64) for i in idx]
        if any(f.ndim != 2 for f in families) or len({f.shape[0] for f in families}) > 1:
            raise ValueError("row blocks must be 2-D index arrays with equal row counts")
        values = [np.broadcast_to(np.asarray(c, dtype=float), f.shape)
                  for f, c in zip(families, coef, strict=True)]
        nrows = families[0].shape[0]
        rhs = np.asarray(rhs, dtype=float).reshape(-1)
        if rhs.shape[0] != nrows * len(families):
            raise ValueError(f"{rhs.shape[0]} right-hand sides for {nrows * len(families)} rows")
        flat = np.concatenate(families, axis=1).reshape(-1)
        bad = (flat < 0) | (flat >= num_vars)
        if bad.any():
            raise ValueError(f"row references undeclared variable index "
                             f"{int(flat[np.argmax(bad)])} (have {num_vars})")
        self._lengths.append(np.tile([f.shape[1] for f in families], nrows))
        self._indices.append(flat)
        self._data.append(np.concatenate(values, axis=1).reshape(-1))
        self._rhs.append(rhs)
        start = self.num_rows
        self.num_rows += rhs.shape[0]
        return np.arange(start, self.num_rows)

    def rhs(self) -> np.ndarray:
        return np.concatenate(self._rhs) if self._rhs else np.zeros(0)

    def csr(self, num_vars: int) -> sp.csr_matrix:
        indptr = np.zeros(self.num_rows + 1, dtype=np.int32)
        if self._lengths:
            np.cumsum(np.concatenate(self._lengths), out=indptr[1:])
            indices = np.concatenate(self._indices).astype(np.int32)
            data = np.concatenate(self._data)
        else:
            indices, data = np.zeros(0, dtype=np.int32), np.zeros(0)
        return sp.csr_matrix((data, indices, indptr), shape=(self.num_rows, num_vars))


@dataclass(frozen=True)
class LpSolution:
    """Primal/dual solution. Dual, primal and basis arrays are None unless OPTIMAL.

    col_status / row_status are the final simplex basis as HiGHS basis status
    codes, rows ordered <=-rows first, then equality rows; they are what
    ``solve(..., warm_start=)`` reads.
    """

    status: SolveStatus
    x: np.ndarray | None = None
    objective_value: float = np.nan
    eq_duals: np.ndarray | None = None
    ineq_duals: np.ndarray | None = None
    reduced_costs: np.ndarray | None = None
    col_status: np.ndarray | None = None
    row_status: np.ndarray | None = None
    iterations: int = 0       # simplex iterations this solve took


def with_extra_le_row(problem: LpProblem, idx, coef, rhs: float,
                      new_cost: np.ndarray | None = None) -> LpProblem:
    """Copy a problem, appending one <=-row (and optionally swapping the objective).

    The appended row becomes the LAST inequality row, so its dual is
    ineq_duals[-1] in the new problem's solution.
    """
    n = problem.num_vars
    row = sp.csr_matrix(
        (np.asarray(coef, dtype=float), (np.zeros(len(idx), dtype=int), np.asarray(idx, dtype=int))),
        shape=(1, n),
    )
    return LpProblem(
        c=problem.c if new_cost is None else np.asarray(new_cost, dtype=float),
        A_eq=problem.A_eq,
        b_eq=problem.b_eq,
        A_ub=sp.vstack([problem.A_ub, row], format="csr"),
        b_ub=np.append(problem.b_ub, float(rhs)),
        lb=problem.lb,
        ub=problem.ub,
    )


# linprog(method="highs-ds")'s settings: presolve, dual simplex, no log.
_OPTIONS = (("output_flag", False), ("presolve", "on"), ("solver", "simplex"),
            ("simplex_strategy",
             int(_highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual)))
_BASIS_STATUS = tuple(_highs.HighsBasisStatus(code) for code in range(5))


def _highs_lp(problem: LpProblem):
    """The problem as one HiGHS row block [A_ub; A_eq], column-wise, as linprog lays it out."""
    A = sp.csc_array(sp.vstack((sp.coo_array(problem.A_ub), sp.coo_array(problem.A_eq))))
    model = _highs.HighsLp()
    model.num_col_ = model.a_matrix_.num_col_ = problem.num_vars
    model.num_row_ = model.a_matrix_.num_row_ = A.shape[0]
    model.a_matrix_.format_ = _highs.MatrixFormat.kColwise
    model.a_matrix_.start_ = A.indptr
    model.a_matrix_.index_ = A.indices
    model.a_matrix_.value_ = A.data
    model.col_cost_ = problem.c
    model.col_lower_ = problem.lb
    model.col_upper_ = problem.ub
    model.row_lower_ = np.concatenate((np.full(problem.num_ub, -np.inf), problem.b_eq))
    model.row_upper_ = np.concatenate((problem.b_ub, problem.b_eq))
    return model


def _highs_basis(problem: LpProblem, warm_start: LpSolution):
    if warm_start.col_status is None or warm_start.row_status is None:
        raise ValueError("warm_start must be an OPTIMAL solution carrying a basis")
    have = (warm_start.col_status.size, warm_start.row_status.size)
    want = (problem.num_vars, problem.num_ub + problem.num_eq)
    if have != want:
        raise ValueError(f"warm_start basis has {have[0]} columns and {have[1]} rows; "
                         f"the problem has {want[0]} and {want[1]}")
    basis = _highs.HighsBasis()
    basis.col_status = [_BASIS_STATUS[code] for code in warm_start.col_status.tolist()]
    basis.row_status = [_BASIS_STATUS[code] for code in warm_start.row_status.tolist()]
    return basis


def _status_codes(statuses) -> np.ndarray:
    return np.fromiter(map(int, statuses), dtype=np.int8, count=len(statuses))


def _reduced_costs(problem: LpProblem, eq_duals: np.ndarray,
                  ineq_duals: np.ndarray) -> np.ndarray:
    """c - A_eq'.eq_duals + A_ub'.ineq_duals, from the row duals alone."""
    rc = problem.c.copy()
    if problem.num_eq:
        rc -= problem.A_eq.T @ eq_duals
    if problem.num_ub:
        rc += problem.A_ub.T @ ineq_duals
    return rc


def solve(problem: LpProblem, warm_start: LpSolution | None = None) -> LpSolution:
    """Solve to a vertex with exact basis duals (HiGHS dual simplex).

    warm_start, an OPTIMAL solution of an LP with the same number of
    variables, <=-rows and equality rows, seeds the simplex with its final
    basis; ValueError if the shapes differ. Raises NumericalFailure if the
    backend ends in any state other than optimal, infeasible or unbounded.
    """
    highs = _highs._Highs()
    for option, value in _OPTIONS:
        highs.setOptionValue(option, value)
    highs.passModel(_highs_lp(problem))
    if warm_start is not None:
        if highs.setBasis(_highs_basis(problem, warm_start)) == _highs.HighsStatus.kError:
            raise ValueError("LP backend rejected the warm_start basis")
    highs.run()
    status = highs.getModelStatus()
    iterations = int(highs.getInfo().simplex_iteration_count)
    if status == _highs.HighsModelStatus.kInfeasible:
        return LpSolution(status=SolveStatus.INFEASIBLE, iterations=iterations)
    if status == _highs.HighsModelStatus.kUnbounded:
        return LpSolution(status=SolveStatus.UNBOUNDED, iterations=iterations)
    if status != _highs.HighsModelStatus.kOptimal:
        raise NumericalFailure(f"LP backend ended with status {highs.modelStatusToString(status)}")

    solution = highs.getSolution()
    basis = highs.getBasis()
    x = np.array(solution.col_value)
    row_dual = np.array(solution.row_dual)
    mu = row_dual[problem.num_ub:]
    gamma = -row_dual[:problem.num_ub]
    arrays = dict(
        x=x,
        eq_duals=mu,
        ineq_duals=gamma,
        # Recomputed from the row duals so (x, duals, reduced costs) agree by construction.
        reduced_costs=_reduced_costs(problem, mu, gamma),
        col_status=_status_codes(basis.col_status),
        row_status=_status_codes(basis.row_status),
    )
    for arr in arrays.values():
        arr.flags.writeable = False
    return LpSolution(status=SolveStatus.OPTIMAL, objective_value=float(problem.c @ x),
                      iterations=iterations, **arrays)


def _memo_key(problem: LpProblem, warm_start: LpSolution | None) -> bytes:
    h = hashlib.blake2b(digest_size=32)
    for arr in (problem.c, problem.b_eq, problem.b_ub, problem.lb, problem.ub):
        h.update(repr(arr.shape).encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    for mat in (problem.A_eq, problem.A_ub):
        h.update(repr(mat.shape).encode())
        for arr in (mat.data, mat.indices, mat.indptr):
            h.update(repr(arr.shape).encode())
            h.update(np.ascontiguousarray(arr).tobytes())
    if warm_start is None:
        h.update(b"cold")
    else:
        for arr in (warm_start.col_status, warm_start.row_status):
            h.update(b"-" if arr is None else repr(arr.shape).encode() + arr.tobytes())
    return h.digest()


# Solutions visible to the innermost open solve_memo_scope, by _memo_key; new
# entries go to its first map. A context variable rather than a parameter, so
# the metrics and the scheduler share it without passing it through every
# call; the scope resets it on exit.
_MEMO: ContextVar[ChainMap[bytes, LpSolution] | None] = ContextVar("gridmarg_solve_memo",
                                                                   default=None)


@contextmanager
def solve_memo_scope(nested: bool = False) -> Iterator[None]:
    """Share one fresh solve memo among the memo_solve calls inside the with block.

    With nested=True the block also sees the solutions of the enclosing
    scope, and the ones it adds are dropped when it ends. Outside any scope
    a nested scope memoizes nothing.
    """
    outer = _MEMO.get()
    if nested and outer is None:
        yield
        return
    token = _MEMO.set(outer.new_child() if nested else ChainMap())
    try:
        yield
    finally:
        _MEMO.reset(token)


def memo_solve(problem: LpProblem, warm_start: LpSolution | None = None) -> LpSolution:
    """solve() through the memo of the open scope; a plain solve() outside any scope.

    The key covers the warm-start basis: the same LP solved from another
    basis, or cold instead of warm, is solved again, since it may end at a
    different optimal vertex.
    """
    memo = _MEMO.get()
    if memo is None:
        return solve(problem, warm_start=warm_start)
    key = _memo_key(problem, warm_start)
    if key not in memo:
        memo[key] = solve(problem, warm_start=warm_start)
    return memo[key]


@dataclass(frozen=True)
class ResidualReport:
    """KKT residuals of a reported solution, all computed directly from inputs.

    Complementarity and the duality gap are scaled by max(1, |rhs|) and
    max(1, |objective|) respectively; primal/dual infeasibilities are absolute.
    """

    max_primal_infeasibility: float
    max_dual_infeasibility: float
    max_complementarity: float
    duality_gap: float
    tolerance: float = REPORT_TOL

    @property
    def passed(self) -> bool:
        return (
            self.max_primal_infeasibility <= self.tolerance
            and self.max_dual_infeasibility <= self.tolerance
            and self.max_complementarity <= self.tolerance
            and self.duality_gap <= self.tolerance
        )


def verify_kkt(problem: LpProblem, solution: LpSolution,
               tolerance: float = REPORT_TOL) -> ResidualReport:
    """Check a claimed optimal solution against the four KKT residual groups.

    Always returns a report; never raises on a bad solution. Reduced costs are
    recomputed from the solution's row duals, so a perturbed dual shows up as
    dual infeasibility even if the caller also tampered with reduced_costs.
    """
    if solution.status is not SolveStatus.OPTIMAL or solution.x is None:
        raise ValueError("verify_kkt requires an OPTIMAL solution with a primal point")
    x = solution.x
    mu = solution.eq_duals if solution.eq_duals is not None else np.zeros(problem.num_eq)
    gamma = solution.ineq_duals if solution.ineq_duals is not None else np.zeros(problem.num_ub)

    # Primal feasibility.
    primal = 0.0
    if problem.num_eq:
        primal = max(primal, float(np.max(np.abs(problem.A_eq @ x - problem.b_eq))))
    slack = np.zeros(0)
    if problem.num_ub:
        slack = problem.b_ub - problem.A_ub @ x
        primal = max(primal, float(np.max(-np.minimum(slack, 0.0), initial=0.0)))
    primal = max(primal, float(np.max(problem.lb - x, initial=0.0)))
    finite_ub = np.isfinite(problem.ub)
    if finite_ub.any():
        primal = max(primal, float(np.max((x - problem.ub)[finite_ub], initial=0.0)))

    # Dual feasibility via recomputed reduced costs.
    rc = _reduced_costs(problem, mu, gamma)
    at_lb = np.abs(x - problem.lb) <= 1e-9 * np.maximum(1.0, np.abs(problem.lb))
    at_ub = finite_ub & (np.abs(x - problem.ub) <= 1e-9 * np.maximum(1.0, np.abs(problem.ub)))
    dual = float(np.max(-gamma, initial=0.0))  # <=-row duals must be nonnegative
    interior = ~(at_lb | at_ub)
    if interior.any():
        dual = max(dual, float(np.max(np.abs(rc[interior]))))
    only_lb = at_lb & ~at_ub
    if only_lb.any():
        dual = max(dual, float(np.max(-rc[only_lb], initial=0.0)))
    only_ub = at_ub & ~at_lb
    if only_ub.any():
        dual = max(dual, float(np.max(rc[only_ub], initial=0.0)))

    # Complementary slackness: row duals x slacks, bound duals x bound gaps.
    comp = 0.0
    if problem.num_ub:
        scale = np.maximum(1.0, np.abs(problem.b_ub))
        comp = float(np.max(np.abs(gamma * slack) / scale, initial=0.0))
    lb_gap = x - problem.lb
    comp = max(comp, float(np.max(np.abs(np.maximum(rc, 0.0) * lb_gap)
                                  / np.maximum(1.0, np.abs(problem.lb)), initial=0.0)))
    if finite_ub.any():
        ub_gap = (problem.ub - x)[finite_ub]
        comp = max(comp, float(np.max(np.abs(np.minimum(rc[finite_ub], 0.0) * ub_gap)
                                      / np.maximum(1.0, np.abs(problem.ub[finite_ub])), initial=0.0)))

    # Duality gap: primal objective vs dual objective built from the same duals.
    pobj = float(problem.c @ x)
    dobj = 0.0
    if problem.num_eq:
        dobj += float(problem.b_eq @ mu)
    if problem.num_ub:
        dobj -= float(problem.b_ub @ gamma)
    pos_rc = np.maximum(rc, 0.0)
    neg_rc = np.minimum(rc, 0.0)
    finite_lb = np.isfinite(problem.lb)
    dobj += float(problem.lb[finite_lb] @ pos_rc[finite_lb])
    dobj += float(problem.ub[finite_ub] @ neg_rc[finite_ub])
    gap = abs(pobj - dobj) / max(1.0, abs(pobj))

    return ResidualReport(
        max_primal_infeasibility=primal,
        max_dual_infeasibility=dual,
        max_complementarity=comp,
        duality_gap=gap,
        tolerance=tolerance,
    )


def write_lp_text(problem: LpProblem) -> str:
    """Render the problem in a fixed-layout CPLEX-LP-style text for cross-checking.

    Variables are named v{index}; equality rows e{index}; <=-rows i{index}.
    The layout is deterministic so dumps of the same problem are byte-identical.
    """

    def fmt(v: float) -> str:
        return f"{v:.12g}"

    def terms(row: sp.csr_matrix) -> str:
        parts = []
        for j, v in zip(row.indices, row.data):
            sign = "-" if v < 0 else "+"
            parts.append(f"{sign} {fmt(abs(v))} v{j}")
        return " ".join(parts) if parts else "+ 0 v0"

    lines = ["Minimize", " obj: " + terms(sp.csr_matrix(problem.c)), "Subject To"]
    for i in range(problem.num_eq):
        lines.append(f" e{i}: {terms(problem.A_eq.getrow(i))} = {fmt(problem.b_eq[i])}")
    for i in range(problem.num_ub):
        lines.append(f" i{i}: {terms(problem.A_ub.getrow(i))} <= {fmt(problem.b_ub[i])}")
    lines.append("Bounds")
    for j in range(problem.num_vars):
        lo, hi = problem.lb[j], problem.ub[j]
        if lo == -np.inf and hi == np.inf:
            lines.append(f" v{j} free")
        elif hi == np.inf:
            lines.append(f" {fmt(lo)} <= v{j}")
        elif lo == -np.inf:
            lines.append(f" v{j} <= {fmt(hi)}")
        else:
            lines.append(f" {fmt(lo)} <= v{j} <= {fmt(hi)}")
    lines.append("End")
    return "\n".join(lines) + "\n"
