"""The package's HiGHS wrapper.

Solves   min c'x   s.t.   A_eq x = b_eq,  A_ub x <= b_ub,  0 <= x <= upper

with HiGHS's dual simplex (Huangfu & Hall 2018) through scipy's bundled
binding, with the row layout and options of scipy's method "highs", so
results equal scipy's bit for bit. HighsModel keeps one constraint matrix
for many costs and right-hand sides (one per capacity objective, for its
plans and regret records); solve_lp solves one LP once (the extensive form,
mslp.solve_mslp). The per-period allocation LP has its own tableau in alloc.
HighsModel.basis() reads the optimal basis of its last solve, from which
capopt certifies the values of many capacity plans without solving them.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import sparse
from scipy.optimize._highspy import _core  # private: scipy's HiGHS binding

_STATUS = {
    _core.HighsModelStatus.kOptimal: "optimal",
    _core.HighsModelStatus.kInfeasible: "infeasible",
    _core.HighsModelStatus.kUnbounded: "unbounded",
}


@dataclass
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: Optional[np.ndarray]
    objective: Optional[float]
    iterations: int  # HiGHS simplex / IPM iterations


@dataclass(frozen=True)
class Basis:
    """An optimal simplex basis: every other column sits at its lower bound
    0, and every other row at its upper bound (an equality row's value)."""

    cols: np.ndarray  # basic columns
    at_upper: np.ndarray  # nonbasic columns at their upper bound
    rows: np.ndarray  # basic rows (rows: A_ub's, then A_eq's)


class HighsModel:
    """One HiGHS LP with a fixed column box [0, upper] and constraint matrix
    (rows: A_ub's, then A_eq's; dense, sparse or None).

    Every solve passes the model anew, which clears all solver state, so it
    is cold and its result does not depend on earlier solves. (Warm starts,
    or costs changed in place, moved values in the last bits.)
    """

    def __init__(self, upper, A_eq=None, A_ub=None):
        self._upper = upper = np.asarray(upper, dtype=float)
        self._n_ub = 0 if A_ub is None else A_ub.shape[0]
        blocks = [sparse.coo_array(A, dtype=float) for A in (A_ub, A_eq) if A is not None]
        A = sparse.csc_array(sparse.vstack(blocks) if blocks else (0, upper.size))
        self._lp = lp = _core.HighsLp()
        lp.num_row_, lp.num_col_ = A.shape
        mat = lp.a_matrix_
        mat.num_row_, mat.num_col_ = A.shape
        mat.format_ = _core.MatrixFormat.kColwise
        mat.start_, mat.index_, mat.value_ = A.indptr, A.indices, A.data
        lp.col_lower_, lp.col_upper_ = np.zeros(A.shape[1]), self._upper
        self._highs = h = _core._Highs()
        for key, value in (("output_flag", False), ("presolve", "on"), ("simplex_strategy", 1)):
            h.setOptionValue(key, value)  # scipy's settings; strategy 1: dual simplex

    def solve(self, c, b_eq=None, b_ub=None) -> LPResult:
        """Minimize c'x for these right-hand sides: x clipped into the box,
        HiGHS's optimal value. Any outcome other than an optimum,
        infeasibility or unboundedness (a limit, "unbounded or infeasible",
        numerical trouble) raises RuntimeError."""
        eq = np.empty(0) if b_eq is None else b_eq
        lp, h = self._lp, self._highs
        lp.col_cost_ = np.asarray(c, dtype=float)
        lp.row_lower_ = np.concatenate([np.full(self._n_ub, -np.inf), eq])
        lp.row_upper_ = np.concatenate([np.empty(0) if b_ub is None else b_ub, eq])
        h.passModel(lp)
        h.run()
        status = h.getModelStatus()
        info = h.getInfo()
        iterations = int(info.simplex_iteration_count or info.ipm_iteration_count)
        if status not in _STATUS:
            raise RuntimeError(f"HiGHS stopped with model status {status.name}")
        if status != _core.HighsModelStatus.kOptimal:
            return LPResult(_STATUS[status], None, None, iterations)
        x = np.clip(np.asarray(h.getSolution().col_value), 0.0, self._upper)
        return LPResult("optimal", x, float(info.objective_function_value), iterations)

    def basis(self) -> Basis:
        """The basis of the last solve, which must have been optimal."""
        h = self._highs
        b = h.getBasis()
        if not b.valid:
            raise RuntimeError("HiGHS holds no valid basis")
        cols = np.array([int(v) for v in b.col_status])
        rows = np.array([int(v) for v in b.row_status])
        basic, upper = int(_core.HighsBasisStatus.kBasic), int(_core.HighsBasisStatus.kUpper)
        return Basis(
            np.flatnonzero(cols == basic), np.flatnonzero(cols == upper), np.flatnonzero(rows == basic)
        )


def solve_lp(c, A_eq=None, b_eq=None, A_ub=None, b_ub=None, upper=None) -> LPResult:
    """Minimize c'x subject to equalities, inequalities and bounds [0, upper]
    with one HighsModel, solved once. upper may contain np.inf (None: no
    upper bounds)."""
    c = np.asarray(c, dtype=float)
    upper = np.full(c.size, np.inf) if upper is None else upper
    return HighsModel(upper, A_eq, A_ub).solve(c, b_eq, b_ub)
