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
with the same model layout and options as ``linprog(method="highs-ds")``. An
optimal solution also carries its final simplex basis; passing it as
``warm_start`` to the solve of another LP of the same shape (typically the
same matrix with a few bounds or right-hand sides moved) starts the simplex
from that basis instead of from scratch.

Every solve runs in two stages, so that an LP with many optimal vertices
still has one answer, whichever basis the simplex starts from. This is the
perturbation method (Bertsimas & Tsitsiklis, *Introduction to Linear
Optimization*, section 3.4) applied to the costs:

  1. Solve with costs c + TIE_BREAK_EPS * w, cold or from the warm start.
     w is uniform in [1, 2), read from SHAKE-128 of TIE_BREAK_SEED
     (``tie_break_weights``), and is added only to columns with a finite
     lower bound below their upper bound. Generic costs make the optimal
     vertex unique. A status other than optimal is returned as it is.
  2. Restore c (``changeColsCost``) and run again from stage 1's basis, on
     stage 1's HiGHS instance. The duals, reduced costs and objective are
     those of the original LP. Where stage 1's vertex is optimal for c too,
     as in every cost-minimizing solve measured on the synthetic grids,
     this stage takes 0 iterations and x does not move. SRME2's step 2,
     which minimizes emissions under a cost cap, was the measured
     exception: on the synthetic 168 h expansion grid this stage took 470
     to 1,164 iterations, so x was stage 2's, not the canonical vertex. It
     now takes the canonical-basis solve below.

So where stage 2 does not move, a cold and a warm solve of one LP reach the
same x, to round-off (3e-11 MW on the synthetic 336 h expansion grid); on
the toy grids it is the x that linprog finds for the tie-broken costs.
TIE_BREAK_EPS must not be lowered: at 1e-5 and 1e-6 the tie-break no longer
decides the vertex, and cold and warm paths differ by up to 270 MW at 336 h.
The duals can still depend on the basis where the optimum is dual
degenerate; the tie-break settles only the primal side. The weights come
from CPython's builtin ``_sha3`` module rather than numpy.random, whose
import costs about 2 MB of resident memory, or hashlib, whose OpenSSL
backend costs 3.5 MB. An interpreter built without ``_sha3`` takes
hashlib's SHAKE-128, which gives the same bytes.

A canonical-basis solve (``solve(..., canonical_basis=True)``) also settles
the duals: it ends at one optimal basis whatever its start. A basis is
unique only where both the costs and the right-hand sides are generic, so
it adds a right-hand-side tie-break (Bertsimas & Tsitsiklis, ch. 5;
Megiddo 1991 on recovering an optimal basis). It runs in two stages:

  1. From the warm start, or cold, solve with the tie-broken costs and with
     RHS_TIE_BREAK_EPS * v added to every row's right-hand side (v uniform
     in [1, 2) from SHAKE-128 of RHS_TIE_BREAK_SEED,
     ``rhs_tie_break_weights``), the last <=-row relaxed by the caller's
     cap_slack as well, so that a cap on the objective the start minimized
     stays feasible. Costs and right-hand sides are now generic, so this
     LP has one optimal basis, and every start reaches it. The warm start
     may lack that last row; its slack then enters the basis. Column
     bounds are not tie-broken: with every row's right-hand side generic,
     no basic variable sits at a bound. v is indexed by row position, so
     which basis is canonical depends on the row layout where the optimum
     is dual degenerate: moving a limit from a row into a bound can move it.
  2. Restore c and b in a fresh HiGHS instance and solve from stage 1's
     basis. A fresh instance keeps stage 1's internal state (factorization,
     edge weights) out of the path: restored on stage 1's own instance, x
     differed from the fresh instance's by up to 4e-9 on the synthetic
     168 h grids. This stage took 0 iterations on every synthetic 168 h
     grid.

Where the tie-broken rows are infeasible though the LP is not (a row that
restates a fixed column, say), stage 1 runs again with the cost tie-break
alone, and stage 2 starts from that basis, which settles x but not the
duals. From a warm start stage 1 runs primal simplex, forced. A start one
cap row short is primal feasible for b but not quite for the tie-broken b,
so HiGHS's own choice picks dual simplex there, which took 1,380-1,954
iterations on the synthetic 168 h expansion grids against 155-270 for
primal. Dual saves less on the fleet grids (339-584 iterations against
922-1,089) than it loses on the expansion grids. A cold stage 1 starts
from the slack basis, which is not primal feasible, and runs dual simplex:
a cold step 2 took 0.27-0.33 s with dual and 0.89-3.59 s with primal on
the synthetic 168 h grids.

Only SRME2's step 2 (``metrics.srme_dual``) asks for it. Its rates are
duals, and with the cost tie-break alone a warm step 2 moved 9 of 504 SRME2
rates on the synthetic 168 h expansion grid, so it had to run cold. With
the canonical basis, warm and cold rates are bit-identical on the synthetic
168 h grids. Every other warm-started solve feeds outputs that read x
alone, which the cost tie-break already settles, so it keeps the two
stages on one instance and skips the extra model hand-off.

The bindings are scipy's compiled extension ``scipy.optimize._highspy._core``,
loaded from its file instead of imported through ``scipy.optimize``.
Importing a submodule runs every parent package's ``__init__``, and
``scipy.optimize``'s loads ``scipy.linalg``, the optimizers and about 250
other modules: some 40% of the CLI's import time (``python -X importtime``).
scipy's directory is found with ``importlib.util.find_spec``, which runs
no ``__init__``: ``import scipy`` alone costs 1.3 MB and 11-15 ms.
The extension is registered under its canonical name, so a later
``import scipy.optimize`` in the same process (tests, the benchmark's
checks) reuses the module instead of loading it again. ``linprog``, which
only the benchmark's tracer reads from this module, is imported on first
access.

For the same reason no solve imports ``scipy.sparse`` (282 modules, 16 MB).
An LpProblem's constraint matrix (``LpMatrix``) holds each block as plain
numpy CSR arrays (``CsrRows``), and everything the solve path needs is
computed from them: HiGHS receives [A_ub; A_eq] column-wise
(``LpMatrix.columns``), built here exactly as scipy's CSC conversion builds
it for linprog (entries stably sorted by column, and a repeated (row,
column) entry summed in row order), and the products in ``_reduced_costs``
and ``verify_kkt`` add their terms in scipy's order, so every HiGHS input
and every result is the one the scipy.sparse version gave, bit for bit.
``LpProblem.A_eq`` and ``A_ub`` are ``scipy.sparse.csr_matrix`` views over
the same arrays for readers outside the solve path (tests, the benchmark's
checks and tracer); the first access imports scipy.sparse.

Nothing crosses into HiGHS element by element. The model goes in through
the ``passModel`` overload that takes numpy buffers (float64 and int32,
which HiGHS copies in C++), not through a ``HighsLp`` whose fields pybind11
converts one element at a time. The final basis stays HiGHS's own
``HighsBasis`` object, kept on the solution as ``LpSolution.basis`` and
handed back to ``setBasis`` unchanged for a warm start; ``col_status`` and
``row_status``, the same basis as int8 status codes, are built only when
read. A ``HighsBasis`` does not pickle, so neither does an optimal
LpSolution: a sweep worker returns its outcome rows, never a solution.

Every solve builds a fresh HiGHS instance, and an LpProblem is immutable
once built. Problems of one shape share one LpMatrix: the planner assembles
it for a command's first LP of a grid topology, and each build derived from
that LP fills only its own costs, right-hand sides and bounds. The matrix's
arrays are read-only, and its column-wise form is computed on first use,
once per matrix rather than once per solve. A warm start only changes
where the simplex starts, and with the tie-break, not the vertex it
reaches.

A sweep chains warm starts within each group of cells that share a
flexibility mode: those cells build expansion LPs of one shape, so each
cell's base LP is built from, and solved from, the base result of the
group's last cell that succeeded. Modes that give the loads the same
charging windows share one chain. Only the group's first base solve has
no such start; it starts from ``planner.solve_expansion``'s crash basis
where the grid has something to build over more than 96 h, else cold.

Every call of ``solve`` reaches the backend; nothing here remembers a
solve. Where a command needs one result twice, the caller that solved it
hands the decoded result on, and the result carries its model, so a
derived LP starts from it (``planner.solve_from``). Solution arrays are
read-only, so every caller it reaches can share it.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import NumericalFailure

try:  # CPython's own SHAKE-128; hashlib's would load OpenSSL's libcrypto
    from _sha3 import shake_128
except ImportError:  # an interpreter built without it
    from hashlib import shake_128

_HIGHS_MODULE = "scipy.optimize._highspy._core"
_NEEDS_SCIPY = ("gridmarg needs scipy>=1.17,<1.18: it solves through scipy's bundled HiGHS "
                f"bindings ({_HIGHS_MODULE})")


def _load_highs(directory: Path | None = None):
    """Load scipy's HiGHS extension from ``directory`` as ``scipy.optimize._highspy._core``.

    By default the directory is scipy's own, found without running scipy's
    package ``__init__``. The module is registered in ``sys.modules`` under
    its canonical name, so a later ``import scipy.optimize`` reuses it
    instead of loading the extension again and registering its pybind11
    types a second time.
    """
    if directory is None:
        scipy_spec = importlib.util.find_spec("scipy")
        if scipy_spec is None:
            raise ImportError(f"{_NEEDS_SCIPY}, and scipy is not installed")
        directory = Path(scipy_spec.submodule_search_locations[0]) / "optimize" / "_highspy"
    # PathFinder tries every extension suffix this interpreter accepts.
    spec = importlib.machinery.PathFinder.find_spec(_HIGHS_MODULE, [str(directory)])
    try:
        if spec is None:
            raise ImportError(f"no {_HIGHS_MODULE} extension in {directory}")
        module = importlib.util.module_from_spec(spec)
    except ImportError as exc:  # a private scipy module: its layout may change
        raise ImportError(f"{_NEEDS_SCIPY}, which it could not load from {directory}") from exc
    sys.modules[_HIGHS_MODULE] = module
    spec.loader.exec_module(module)
    return module


_highs = sys.modules.get(_HIGHS_MODULE) or _load_highs()


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

# Stage 1 of every solve adds TIE_BREAK_EPS * w to the cost of each column
# with a finite lower bound below its upper bound; w is tie_break_weights().
TIE_BREAK_EPS = 1e-4
TIE_BREAK_SEED = b"gridmarg tie-break v1"
# Stage 1 of a canonical-basis solve also adds RHS_TIE_BREAK_EPS * v to every
# row's right-hand side; v is rhs_tie_break_weights().
RHS_TIE_BREAK_EPS = 1e-5
RHS_TIE_BREAK_SEED = b"gridmarg rhs tie-break v1"


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class CsrRows:
    """A sparse matrix held by rows, as the plain numpy arrays of the CSR layout.

    Row i's entries are data[indptr[i]:indptr[i + 1]], in the columns
    indices[indptr[i]:indptr[i + 1]], in the order they were added; a row
    may name a column more than once. data is float64, indices and indptr
    are int32: the arrays a scipy csr_matrix of the same rows holds.
    """

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    num_cols: int

    @property
    def shape(self) -> tuple[int, int]:
        return (self.indptr.shape[0] - 1, self.num_cols)

    @property
    def nnz(self) -> int:
        return self.data.shape[0]

    def entry_rows(self) -> np.ndarray:
        """The row of each entry."""
        return np.repeat(np.arange(self.shape[0], dtype=np.int32), np.diff(self.indptr))

    # np.bincount adds each weight into its bin in entry order, starting from
    # 0.0: the order scipy's csr_matvec and csc_matvec sum in, so both
    # products equal scipy's bit for bit. (np.add.reduceat may sum pairwise.)
    # With no entries at all, bincount returns integers; hence the astype.

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A @ x."""
        return np.bincount(self.entry_rows(), weights=self.data * x[self.indices],
                           minlength=self.shape[0]).astype(float, copy=False)

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """A.T @ y."""
        return np.bincount(self.indices, weights=self.data * y[self.entry_rows()],
                           minlength=self.num_cols).astype(float, copy=False)

    def to_scipy(self) -> "scipy.sparse.csr_matrix":
        """A scipy.sparse.csr_matrix over the same arrays (imports scipy.sparse)."""
        import scipy.sparse
        return scipy.sparse.csr_matrix((self.data, self.indices, self.indptr), shape=self.shape)


@dataclass(frozen=True, eq=False)
class LpMatrix:
    """The constraint rows of an LP, and what the solve path computes from them once.

    rows_eq / rows_ub hold A_eq and A_ub (possibly with zero rows). One
    matrix is shared by every LpProblem built on it, so its arrays are made
    read-only here, and the column-wise [A_ub; A_eq] that HiGHS receives
    (``columns``) is computed on first use and kept for the matrix's life.
    A_eq / A_ub are scipy.sparse.csr_matrix views of the rows, built on
    first access, for callers outside the solve path.
    """

    rows_eq: CsrRows
    rows_ub: CsrRows

    def __post_init__(self):
        if self.rows_eq.num_cols != self.rows_ub.num_cols:
            raise ValueError(f"A_eq has {self.rows_eq.num_cols} columns and A_ub "
                             f"{self.rows_ub.num_cols}")
        for mat, name in ((self.rows_eq, "A_eq"), (self.rows_ub, "A_ub")):
            if mat.nnz and not np.isfinite(mat.data).all():
                raise ValueError(f"{name} contains non-finite coefficients")
            for arr in (mat.data, mat.indices, mat.indptr):
                arr.flags.writeable = False

    @property
    def num_cols(self) -> int:
        return self.rows_eq.num_cols

    @cached_property
    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """[A_ub; A_eq] column-wise, as linprog lays it out: (column starts, row indices, values).

        The arrays are the ones scipy's csc conversion of the stacked rows
        gives linprog: each column's entries in ascending row order, and a
        repeated (row, column) entry merged into one. HiGHS must never see a
        repeated entry: it aborts the whole process on one.
        """
        ub, eq = self.rows_ub, self.rows_eq
        rows, cols, values = _by_column(
            np.concatenate((ub.entry_rows(), eq.entry_rows() + ub.shape[0])),
            np.concatenate((ub.indices, eq.indices)), np.concatenate((ub.data, eq.data)))
        start = np.zeros(self.num_cols + 1, dtype=np.int32)
        np.cumsum(np.bincount(cols, minlength=self.num_cols), out=start[1:])
        for arr in (start, rows, values):
            arr.flags.writeable = False
        return start, rows, values

    @cached_property
    def A_eq(self) -> "scipy.sparse.csr_matrix":
        return self.rows_eq.to_scipy()

    @cached_property
    def A_ub(self) -> "scipy.sparse.csr_matrix":
        return self.rows_ub.to_scipy()


@dataclass(frozen=True)
class LpProblem:
    """Immutable standard-form LP: a shared constraint matrix and the problem's own vectors.

    matrix holds A_eq and A_ub; rows_eq / rows_ub and A_eq / A_ub read
    through to it. The vectors are owned by the problem; treat them as
    read-only. Bounds default to [0, +inf) per variable.
    """

    c: np.ndarray
    matrix: LpMatrix
    b_eq: np.ndarray
    b_ub: np.ndarray
    lb: np.ndarray
    ub: np.ndarray

    def __post_init__(self):
        n = self.c.shape[0]
        if self.matrix.num_cols != n:
            raise ValueError(
                f"constraint matrices have {self.matrix.num_cols} columns for {n} variables")
        if self.rows_eq.shape[0] != self.b_eq.shape[0]:
            raise ValueError("A_eq rows do not match b_eq length")
        if self.rows_ub.shape[0] != self.b_ub.shape[0]:
            raise ValueError("A_ub rows do not match b_ub length")
        if self.lb.shape[0] != n or self.ub.shape[0] != n:
            raise ValueError("bound vectors do not match variable count")
        if not np.isfinite(self.c).all():
            raise ValueError("objective coefficients must be finite")
        if not (np.isfinite(self.b_eq).all() and np.isfinite(self.b_ub).all()):
            raise ValueError("right-hand sides must be finite")
        # NaN passes the comparison below, and a lower bound of +inf or an upper
        # bound of -inf pins a variable at infinity; HiGHS "solves" both.
        bad = np.isnan(self.lb) | np.isnan(self.ub) | (self.lb == np.inf) | (self.ub == -np.inf)
        if bad.any():
            j = int(np.argmax(bad))
            raise ValueError(f"variable {j} has bounds [{self.lb[j]}, {self.ub[j]}]: a bound "
                             f"must not be NaN, lower +inf or upper -inf")
        if np.any(self.lb > self.ub):
            j = int(np.argmax(self.lb > self.ub))
            raise ValueError(f"variable {j} has lower bound {self.lb[j]} > upper bound {self.ub[j]}")

    @property
    def rows_eq(self) -> CsrRows:
        return self.matrix.rows_eq

    @property
    def rows_ub(self) -> CsrRows:
        return self.matrix.rows_ub

    @property
    def A_eq(self) -> "scipy.sparse.csr_matrix":
        return self.matrix.A_eq

    @property
    def A_ub(self) -> "scipy.sparse.csr_matrix":
        return self.matrix.A_ub

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
        self.num_vars = 0
        # (first variable, count, cost, lb, ub) per add_var(s) call, each value a
        # scalar or one per variable; spread into arrays by build().
        self._vars: list[tuple[int, int, object, object, object]] = []
        self._eq = _RowBlocks()
        self._le = _RowBlocks()

    def add_var(self, cost: float = 0.0, lb: float = 0.0, ub: float = np.inf) -> int:
        return int(self.add_vars(1, float(cost), float(lb), float(ub))[0])

    def add_vars(self, n: int, cost=0.0, lb=0.0, ub=np.inf) -> np.ndarray:
        """Add n variables sharing scalar or per-variable cost/bounds; returns index array."""
        values = []
        for value in (cost, lb, ub):
            if np.ndim(value):   # copied: later edits to the caller's array do not reach the LP
                value = np.array(value, dtype=float)
                if value.shape != (n,):
                    raise ValueError(f"{value.shape} values for {n} variables")
            values.append(value)
        start = self.num_vars
        self.num_vars += n
        self._vars.append((start, n, *values))
        return np.arange(start, self.num_vars)

    def add_eq_rows(self, idx, coef, rhs=0.0) -> np.ndarray:
        """Add one row sum(coef*x[idx]) == rhs per block row; returns the equality row indices.

        rhs is one value per row, or one scalar for every row.
        """
        return self._eq.add(idx, coef, rhs, self.num_vars)

    def add_le_rows(self, idx, coef, rhs=0.0) -> np.ndarray:
        """Add one row sum(coef*x[idx]) <= rhs per block row; returns the inequality row indices.

        rhs is one value per row, or one scalar for every row.
        """
        return self._le.add(idx, coef, rhs, self.num_vars)

    def add_eq(self, idx, coef, rhs: float = 0.0) -> int:
        """Add sum(coef*x[idx]) == rhs; returns the equality row index."""
        return int(self.add_eq_rows(*_one_row(idx, coef), [rhs])[0])

    def add_le(self, idx, coef, rhs: float = 0.0) -> int:
        """Add sum(coef*x[idx]) <= rhs; returns the inequality row index."""
        return int(self.add_le_rows(*_one_row(idx, coef), [rhs])[0])

    def matrix(self) -> LpMatrix:
        """The rows added so far, without costs, bounds or right-hand sides."""
        return LpMatrix(self._eq.csr(self.num_vars), self._le.csr(self.num_vars))

    def build(self) -> LpProblem:
        c, lb, ub = np.empty(self.num_vars), np.empty(self.num_vars), np.empty(self.num_vars)
        for start, n, *values in self._vars:
            for arr, value in zip((c, lb, ub), values):
                arr[start:start + n] = value
        return LpProblem(c=c, matrix=self.matrix(), b_eq=self._eq.rhs(), b_ub=self._le.rhs(),
                         lb=lb, ub=ub)


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
        nrows = families[0].shape[0]
        widths = [f.shape[1] for f in families]
        data = np.empty((nrows, sum(widths)))
        end = 0
        for width, c in zip(widths, coef, strict=True):
            data[:, end:end + width] = c   # broadcast to the family's shape
            end += width
        if np.ndim(rhs) == 0:
            rhs = np.full(nrows * len(families), rhs, dtype=float)
        rhs = np.asarray(rhs, dtype=float).reshape(-1)
        if rhs.shape[0] != nrows * len(families):
            raise ValueError(f"{rhs.shape[0]} right-hand sides for {nrows * len(families)} rows")
        flat = np.concatenate(families, axis=1).reshape(-1)
        bad = (flat < 0) | (flat >= num_vars)
        if bad.any():
            raise ValueError(f"row references undeclared variable index "
                             f"{int(flat[np.argmax(bad)])} (have {num_vars})")
        self._lengths.append(np.tile(widths, nrows))
        self._indices.append(flat)
        self._data.append(data.reshape(-1))
        self._rhs.append(rhs)
        start = self.num_rows
        self.num_rows += rhs.shape[0]
        return np.arange(start, self.num_rows)

    def rhs(self) -> np.ndarray:
        return np.concatenate(self._rhs) if self._rhs else np.zeros(0)

    def csr(self, num_vars: int) -> CsrRows:
        indptr = np.zeros(self.num_rows + 1, dtype=np.int32)
        if self._lengths:
            np.cumsum(np.concatenate(self._lengths), out=indptr[1:])
            indices = np.concatenate(self._indices).astype(np.int32)
            data = np.concatenate(self._data)
        else:
            indices, data = np.zeros(0, dtype=np.int32), np.zeros(0)
        return CsrRows(data, indices, indptr, num_vars)


@dataclass(frozen=True)
class LpSolution:
    """Primal/dual solution. Dual, primal and basis values are None unless OPTIMAL.

    basis is HiGHS's own final simplex basis (a ``HighsBasis``), which
    ``solve(..., warm_start=)`` hands back to HiGHS as it is. col_status /
    row_status are the same basis as read-only int8 arrays of HiGHS basis
    status codes, rows ordered <=-rows first, then equality rows; they are
    built on first read.
    """

    status: SolveStatus
    x: np.ndarray | None = None
    objective_value: float = np.nan
    eq_duals: np.ndarray | None = None
    ineq_duals: np.ndarray | None = None
    reduced_costs: np.ndarray | None = None
    iterations: int = 0       # simplex iterations this solve took
    basis: _highs.HighsBasis | None = field(default=None, repr=False, compare=False)

    @cached_property
    def col_status(self) -> np.ndarray | None:
        return None if self.basis is None else _status_codes(self.basis.col_status)

    @cached_property
    def row_status(self) -> np.ndarray | None:
        return None if self.basis is None else _status_codes(self.basis.row_status)


def with_extra_le_row(problem: LpProblem, idx, coef, rhs: float,
                      new_cost: np.ndarray | None = None) -> LpProblem:
    """Copy a problem, appending one <=-row (and optionally swapping the objective).

    The appended row becomes the LAST inequality row, so its dual is
    ineq_duals[-1] in the new problem's solution. Its entries are sorted by
    column, and a repeated column is summed, as scipy's csr_matrix does.
    """
    n = problem.num_vars
    idx, coef = _one_row(idx, coef)
    if ((idx < 0) | (idx >= n)).any():
        raise ValueError(f"row references a variable index outside 0..{n - 1}")
    _, cols, vals = _by_column(np.zeros(idx.size, dtype=np.int32), idx[0].astype(np.int32),
                               coef[0])
    ub = problem.rows_ub
    indptr = np.append(ub.indptr, np.int32(ub.nnz + cols.shape[0]))
    rows_ub = CsrRows(np.concatenate((ub.data, vals)), np.concatenate((ub.indices, cols)),
                      indptr, n)
    return LpProblem(
        c=problem.c if new_cost is None else np.asarray(new_cost, dtype=float),
        matrix=LpMatrix(problem.rows_eq, rows_ub),
        b_eq=problem.b_eq,
        b_ub=np.append(problem.b_ub, float(rhs)),
        lb=problem.lb,
        ub=problem.ub,
    )


def _by_column(rows: np.ndarray, cols: np.ndarray, data: np.ndarray):
    """Entries (given in row order) stably sorted by column, repeats merged.

    Entries that name the same (row, column) become adjacent; each such run
    is summed into one entry in row order, ((a + b) + c), which is how
    scipy's COO to CSC/CSR conversion merges them.
    """
    order = np.argsort(cols, kind="stable")
    rows, cols, data = rows[order], cols[order], data[order]
    first = np.ones(cols.shape[0], dtype=bool)
    first[1:] = (cols[1:] != cols[:-1]) | (rows[1:] != rows[:-1])
    if first.all():
        return rows, cols, data
    merged = data[first]
    # add.at is unbuffered: it adds the repeats one by one, in order.
    np.add.at(merged, np.cumsum(first)[~first] - 1, data[~first])
    return rows[first], cols[first], merged


# linprog(method="highs-ds")'s settings: presolve, dual simplex, no log.
# Stage 1 of a warm canonical-basis solve runs primal simplex instead.
_OPTIONS = (("output_flag", False), ("presolve", "on"), ("solver", "simplex"))
_DUAL = int(_highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual)
_PRIMAL = int(_highs.simplex_constants.SimplexStrategy.kSimplexStrategyPrimal)
_COLWISE = int(_highs.MatrixFormat.kColwise)
_MINIMIZE = int(_highs.ObjSense.kMinimize)


def _new_highs(strategy: int = _DUAL):
    highs = _highs._Highs()
    for option, value in _OPTIONS:
        highs.setOptionValue(option, value)
    highs.setOptionValue("simplex_strategy", strategy)
    return highs


def _pass_model(highs, problem: LpProblem, cost: np.ndarray,
                b_ub: np.ndarray | None = None, b_eq: np.ndarray | None = None) -> None:
    """Pass the problem to HiGHS as one row block [A_ub; A_eq], column-wise, as linprog lays it out.

    The matrix goes in as problem.matrix.columns; HiGHS copies the numpy
    buffers as they are, and every column is continuous. The objective is
    cost, not problem.c, and b_ub / b_eq, where given, replace the
    problem's right-hand sides. Raises NumericalFailure if HiGHS rejects
    the model.
    """
    start, rows, values = problem.matrix.columns
    b_ub = problem.b_ub if b_ub is None else b_ub
    b_eq = problem.b_eq if b_eq is None else b_eq
    status = highs.passModel(
        problem.num_vars, problem.num_ub + problem.num_eq, values.shape[0], _COLWISE,
        _MINIMIZE, 0.0, cost, problem.lb, problem.ub,
        np.concatenate((np.full(problem.num_ub, -np.inf), b_eq)), np.concatenate((b_ub, b_eq)),
        start, rows, values, np.zeros(problem.num_vars, dtype=np.int32))
    if status == _highs.HighsStatus.kError:
        raise NumericalFailure("LP backend rejected the model")


def _warm_basis(problem: LpProblem, warm_start: LpSolution, cap_row: bool = False):
    """warm_start's HiGHS basis, once its shape is checked against the problem's.

    With cap_row, a start with one <=-row fewer than the problem is also
    taken: the problem's last <=-row is then new, and its slack enters the
    basis. In HiGHS's [A_ub; A_eq] row order that status goes after the
    start's <=-rows, at index num_ub - 1.
    """
    if warm_start.basis is None:
        raise ValueError("warm_start must be an OPTIMAL solution carrying a basis")
    num_ub = warm_start.ineq_duals.shape[0]
    extend = cap_row and num_ub == problem.num_ub - 1
    have = (warm_start.x.shape[0], num_ub + warm_start.eq_duals.shape[0])
    want = (problem.num_vars, problem.num_ub + problem.num_eq)
    if have != (want[0], want[1] - extend):
        raise ValueError(f"warm_start basis has {have[0]} columns and {have[1]} rows; "
                         f"the problem has {want[0]} and {want[1]}")
    if not extend:
        return warm_start.basis
    basis = _highs.HighsBasis()
    basis.col_status = warm_start.basis.col_status
    row_status = warm_start.basis.row_status
    basis.row_status = (row_status[:num_ub] + [_highs.HighsBasisStatus.kBasic]
                        + row_status[num_ub:])
    basis.valid = True
    return basis


def _status_codes(statuses) -> np.ndarray:
    codes = np.fromiter(map(int, statuses), dtype=np.int8, count=len(statuses))
    codes.flags.writeable = False
    return codes


def _reduced_costs(problem: LpProblem, eq_duals: np.ndarray,
                  ineq_duals: np.ndarray) -> np.ndarray:
    """c - A_eq'.eq_duals + A_ub'.ineq_duals, from the row duals alone."""
    rc = problem.c.copy()
    if problem.num_eq:
        rc -= problem.rows_eq.rmatvec(eq_duals)
    if problem.num_ub:
        rc += problem.rows_ub.rmatvec(ineq_duals)
    return rc


def _uniform_weights(seed: bytes, n: int) -> np.ndarray:
    """The first n values of a stream uniform in [1, 2), 53 bits each, read
    from SHAKE-128 of seed. A longer stream starts with a shorter one."""
    bits = np.frombuffer(shake_128(seed).digest(8 * n), dtype="<u8")
    return 1.0 + (bits >> np.uint64(11)) * 2.0 ** -53


def tie_break_weights(n: int) -> np.ndarray:
    """The first n cost tie-break weights (TIE_BREAK_SEED's stream).

    Column j's weight does not depend on how many columns the LP has.
    """
    return _uniform_weights(TIE_BREAK_SEED, n)


def rhs_tie_break_weights(n: int) -> np.ndarray:
    """The first n right-hand-side tie-break weights (RHS_TIE_BREAK_SEED's
    stream), one per row in HiGHS's [A_ub; A_eq] order."""
    return _uniform_weights(RHS_TIE_BREAK_SEED, n)


def _optimal(highs) -> bool:
    return highs.getModelStatus() == _highs.HighsModelStatus.kOptimal


def _iterations(highs) -> int:
    return int(highs.getInfo().simplex_iteration_count)


def _run(problem: LpProblem, cost: np.ndarray, basis, strategy: int = _DUAL,
         b_ub: np.ndarray | None = None, b_eq: np.ndarray | None = None):
    """A fresh HiGHS instance holding the problem with these costs (and
    right-hand sides, where given), run from basis, or cold if it is None."""
    highs = _new_highs(strategy)
    _pass_model(highs, problem, cost, b_ub=b_ub, b_eq=b_eq)
    if basis is not None and highs.setBasis(basis) == _highs.HighsStatus.kError:
        raise ValueError("LP backend rejected the warm_start basis")
    highs.run()
    return highs


def solve(problem: LpProblem, warm_start: LpSolution | None = None, *,
          canonical_basis: bool = False, cap_slack: float = 0.0) -> LpSolution:
    """Solve to the canonical optimal vertex with exact basis duals (HiGHS simplex).

    Stage 1 solves with the tie-broken costs, cold or from warm_start's
    basis; stage 2 restores c and re-solves from stage 1's basis (see the
    module docstring). A stage-1 status other than optimal is returned as it
    is. iterations counts every stage.

    With canonical_basis, the solve also ends at one optimal basis whatever
    its start. Stage 1 then also tie-breaks the right-hand sides and, from a
    warm start, runs primal simplex; stage 2 restores c and b in a fresh
    instance. Where the tie-broken rows are infeasible, stage 1 runs again
    with the cost tie-break alone (see the module docstring). The problem's
    last <=-row is taken to cap another objective at its optimum, and stage
    1 relaxes it by cap_slack on top of its tie-break; a warm start may lack
    that row.

    warm_start, an OPTIMAL solution of an LP with the same number of
    variables, <=-rows and equality rows, seeds the simplex with its final
    basis; ValueError if the shapes differ. Raises NumericalFailure if the
    backend ends in any state other than optimal, infeasible or unbounded.
    """
    cols = np.flatnonzero(np.isfinite(problem.lb) & (problem.lb < problem.ub)).astype(np.int32)
    tilted = problem.c.copy()
    tilted[cols] += TIE_BREAK_EPS * tie_break_weights(problem.num_vars)[cols]
    start = (None if warm_start is None
             else _warm_basis(problem, warm_start, cap_row=canonical_basis))
    if canonical_basis:
        v = RHS_TIE_BREAK_EPS * rhs_tie_break_weights(problem.num_ub + problem.num_eq)
        b_ub = problem.b_ub + v[:problem.num_ub]
        if problem.num_ub:
            b_ub[-1] += cap_slack
        strategy = _DUAL if start is None else _PRIMAL
        highs = _run(problem, tilted, start, strategy, b_ub=b_ub,
                     b_eq=problem.b_eq + v[problem.num_ub:])
        iterations = _iterations(highs)
        # Each instance is dropped before the next is made: an instance keeps
        # its solver's work arrays until it is freed, and two at once would
        # set the command's peak memory.
        if not _optimal(highs):
            del highs
            highs = _run(problem, tilted, start, strategy)
            iterations += _iterations(highs)
        if _optimal(highs):
            basis = highs.getBasis()
            del highs
            highs = _run(problem, problem.c, basis)
            iterations += _iterations(highs)
    else:
        highs = _run(problem, tilted, start)
        iterations = _iterations(highs)
        if _optimal(highs) and cols.size:
            highs.changeColsCost(cols.size, cols, problem.c[cols])
            highs.run()
            iterations += _iterations(highs)
    status = highs.getModelStatus()
    if status == _highs.HighsModelStatus.kInfeasible:
        return LpSolution(status=SolveStatus.INFEASIBLE, iterations=iterations)
    if status == _highs.HighsModelStatus.kUnbounded:
        return LpSolution(status=SolveStatus.UNBOUNDED, iterations=iterations)
    if status != _highs.HighsModelStatus.kOptimal:
        raise NumericalFailure(f"LP backend ended with status {highs.modelStatusToString(status)}")

    solution = highs.getSolution()
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
    )
    for arr in arrays.values():
        arr.flags.writeable = False
    return LpSolution(status=SolveStatus.OPTIMAL, objective_value=float(problem.c @ x),
                      iterations=iterations, basis=highs.getBasis(), **arrays)


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
        primal = max(primal, float(np.max(np.abs(problem.rows_eq.matvec(x) - problem.b_eq))))
    slack = np.zeros(0)
    if problem.num_ub:
        slack = problem.b_ub - problem.rows_ub.matvec(x)
        primal = max(primal, float(np.max(-np.minimum(slack, 0.0), initial=0.0)))
    primal = max(primal, float(np.max(problem.lb - x, initial=0.0)))
    finite_ub = np.isfinite(problem.ub)
    if finite_ub.any():
        primal = max(primal, float(np.max((x - problem.ub)[finite_ub], initial=0.0)))

    # Dual feasibility via recomputed reduced costs.
    rc = _reduced_costs(problem, mu, gamma)
    finite_lb = np.isfinite(problem.lb)
    at_lb = finite_lb & (np.abs(x - problem.lb) <= 1e-9 * np.maximum(1.0, np.abs(problem.lb)))
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
    lb_gap = (x - problem.lb)[finite_lb]
    comp = max(comp, float(np.max(np.abs(np.maximum(rc[finite_lb], 0.0) * lb_gap)
                                  / np.maximum(1.0, np.abs(problem.lb[finite_lb])), initial=0.0)))
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
