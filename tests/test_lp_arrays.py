"""The LP's numpy CSR arrays against scipy.sparse, bit for bit.

lp.py keeps each constraint block as plain CSR arrays and never imports
scipy.sparse on a solve. What it computes from them must equal what the
scipy.sparse calls it replaced gave: the column-wise matrix HiGHS receives,
the reduced costs, the products verify_kkt checks, and the row
with_extra_le_row appends. Random blocks include empty rows, blocks with no
rows and rows that name a column more than once.
"""

import numpy as np
import scipy.sparse as sp
from hypothesis import assume, given
from hypothesis import strategies as st

from gridmarg.lp import (CsrRows, LpMatrix, LpProblem, _highs, _pass_model, _reduced_costs,
                         with_extra_le_row)

MAX_COLS = 5
# Finite values of every sign and scale, so that summation order shows in the bits.
VALUES = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


@st.composite
def csr_rows(draw, num_cols: int, max_rows: int = 4, max_row_len: int = 4) -> CsrRows:
    lengths = draw(st.lists(st.integers(0, max_row_len), max_size=max_rows))
    nnz = sum(lengths)
    indices = draw(st.lists(st.integers(0, num_cols - 1), min_size=nnz, max_size=nnz))
    data = draw(st.lists(VALUES, min_size=nnz, max_size=nnz))
    indptr = np.zeros(len(lengths) + 1, dtype=np.int32)
    np.cumsum(lengths, out=indptr[1:])
    return CsrRows(np.array(data, dtype=float), np.array(indices, dtype=np.int32), indptr,
                   num_cols)


@st.composite
def problems(draw) -> LpProblem:
    n = draw(st.integers(1, MAX_COLS))
    rows_eq, rows_ub = draw(csr_rows(n)), draw(csr_rows(n))
    return LpProblem(c=np.ones(n), matrix=LpMatrix(rows_eq, rows_ub),
                     b_eq=np.zeros(rows_eq.shape[0]), b_ub=np.zeros(rows_ub.shape[0]),
                     lb=np.zeros(n), ub=np.full(n, np.inf))


def vector(size: int):
    return st.lists(VALUES, min_size=size, max_size=size).map(np.array)


def assert_same_bits(ours: np.ndarray, scipys: np.ndarray):
    assert ours.dtype == scipys.dtype and ours.shape == scipys.shape
    assert ours.tobytes() == scipys.tobytes()


def held_matrix(highs) -> tuple:
    """The constraint matrix a HiGHS instance holds: (shape, start, index, value)."""
    matrix = highs.getLp().a_matrix_
    return ((matrix.num_row_, matrix.num_col_), np.array(matrix.start_, dtype=np.int32),
            np.array(matrix.index_, dtype=np.int32), np.array(matrix.value_, dtype=float))


def quiet_highs():
    highs = _highs._Highs()
    highs.setOptionValue("output_flag", False)
    return highs


def assert_highs_holds_scipys_csc(problem: LpProblem):
    """_pass_model leaves HiGHS holding the matrix linprog gives it, bit for bit.

    linprog passes scipy's csc conversion of [A_ub; A_eq]. HiGHS drops
    entries of magnitude <= 1e-9 (an explicit zero left by merging repeated
    entries among them) from any matrix it is given, so the reference is
    that csc matrix passed to HiGHS.
    """
    want = sp.csc_array(sp.vstack((sp.coo_array(problem.A_ub), sp.coo_array(problem.A_eq))))
    ours = quiet_highs()
    _pass_model(ours, problem, problem.c)
    scipys = quiet_highs()
    scipys.passModel(problem.num_vars, want.shape[0], want.nnz,
                     int(_highs.MatrixFormat.kColwise), int(_highs.ObjSense.kMinimize), 0.0,
                     problem.c, problem.lb, problem.ub,
                     np.concatenate((np.full(problem.num_ub, -np.inf), problem.b_eq)),
                     np.concatenate((problem.b_ub, problem.b_eq)),
                     want.indptr, want.indices, want.data,
                     np.zeros(problem.num_vars, dtype=np.int32))
    (shape, *got), (want_shape, *held) = held_matrix(ours), held_matrix(scipys)
    assert shape == want_shape == want.shape
    for ours_arr, scipys_arr in zip(got, held, strict=True):
        assert_same_bits(ours_arr, scipys_arr)


@given(problems())
def test_highs_matrix_is_scipys_csc_of_the_stacked_rows(problem):
    columns = np.concatenate((problem.rows_ub.indices, problem.rows_eq.indices))
    # scipy orders a column's repeated entries with std::sort, which keeps
    # them in row order only on a column of at most 16 entries.
    assume(columns.size == 0 or np.bincount(columns).max() <= 16)
    assert_highs_holds_scipys_csc(problem)


@given(st.data())
def test_products_equal_scipys(data):
    rows = data.draw(csr_rows(data.draw(st.integers(1, MAX_COLS)), max_rows=8, max_row_len=8))
    x, y = data.draw(vector(rows.num_cols)), data.draw(vector(rows.shape[0]))
    scipy_rows = rows.to_scipy()
    assert_same_bits(rows.matvec(x), scipy_rows @ x)
    assert_same_bits(rows.rmatvec(y), scipy_rows.T @ y)


@given(problems(), st.data())
def test_reduced_costs_equal_scipys(problem, data):
    mu, gamma = data.draw(vector(problem.num_eq)), data.draw(vector(problem.num_ub))
    c = data.draw(vector(problem.num_vars))
    problem = LpProblem(c=c, matrix=problem.matrix, b_eq=problem.b_eq, b_ub=problem.b_ub,
                        lb=problem.lb, ub=problem.ub)
    want = c.copy()
    if problem.num_eq:
        want -= problem.A_eq.T @ mu
    if problem.num_ub:
        want += problem.A_ub.T @ gamma
    assert_same_bits(_reduced_costs(problem, mu, gamma), want)


@given(problems(), st.data())
def test_extra_row_equals_scipys_vstack(problem, data):
    n = problem.num_vars
    length = data.draw(st.integers(0, 16))
    idx = data.draw(st.lists(st.integers(0, n - 1), min_size=length, max_size=length))
    coef = data.draw(st.lists(VALUES, min_size=length, max_size=length))
    row = sp.csr_matrix((np.asarray(coef, dtype=float),
                         (np.zeros(length, dtype=int), np.asarray(idx, dtype=int))), shape=(1, n))
    want = sp.vstack([problem.A_ub, row], format="csr")
    extended = with_extra_le_row(problem, idx, coef, 1.0)
    got = extended.A_ub
    assert got.shape == want.shape
    for name in ("data", "indices", "indptr"):
        assert_same_bits(getattr(got, name), getattr(want, name))
    # The column-wise arrays are the ones a fresh conversion of the extended rows gives.
    fresh = LpMatrix(extended.rows_eq, extended.rows_ub).columns
    for ours, theirs in zip(extended.matrix.columns, fresh, strict=True):
        assert_same_bits(ours, theirs)


def test_scipy_views_share_the_problem_arrays():
    rows = CsrRows(np.array([1.0, 2.0]), np.array([1, 0], dtype=np.int32),
                   np.array([0, 2, 2], dtype=np.int32), 3)
    empty = CsrRows(np.zeros(0), np.zeros(0, dtype=np.int32), np.zeros(1, dtype=np.int32), 3)
    problem = LpProblem(c=np.zeros(3), matrix=LpMatrix(rows, empty), b_eq=np.zeros(2),
                        b_ub=np.zeros(0), lb=np.zeros(3), ub=np.ones(3))
    view = problem.A_eq
    assert view is problem.A_eq
    assert view.format == "csr" and view.shape == (2, 3) and problem.A_ub.shape == (0, 3)
    for name in ("data", "indices", "indptr"):
        assert np.shares_memory(getattr(view, name), getattr(rows, name))
    np.testing.assert_array_equal(view.toarray(), [[2.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
