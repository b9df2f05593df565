"""The package's HiGHS wrapper.

Solves   min c'x   s.t.   A_eq x = b_eq,  A_ub x <= b_ub,  0 <= x <= upper

with HiGHS's dual simplex (Huangfu & Hall 2018) through scipy's bundled
binding, with the row layout of scipy's method "highs" and presolve off, so
results equal linprog(method="highs", options={"presolve": False}) bit for
bit. Presolve is off because on the package's small LPs it is most of a
solve: a feasible 28-row multistage LP takes about 0.11 ms without it and
0.34 ms with it (2-core x86-64 VM). The unpresolved dual simplex also
returns a Farkas ray for every infeasible LP. HighsModel keeps one
constraint matrix for many costs and right-hand sides (one per capacity
objective, for its plans and regret records); solve_lp solves one LP once
(the extensive form, mslp.solve_mslp). The per-period allocation LP has its
own tableau in alloc.

A constraint block is a dense array, a scipy sparse matrix or a CscMatrix:
the compressed columns HiGHS reads, rows ascending within each column and
no stored zeros. HighsModel builds its matrix once as a CscMatrix (a dense
block with numpy; a sparse one canonicalized by scipy) and hands those
arrays to HiGHS's array form of passModel at every solve. A caller that
knows a large matrix's pattern (capopt's extensive form) writes its
CscMatrix directly, so no scipy.sparse assembly runs on the way.

RhsCertifier values one model at many right-hand sides that differ only in
some entries of b_ub (in capopt, a draw's LP at many capacity plans). An
optimal basis stays dual feasible there, and its basic solution and cost are
affine in those entries (Van Slyke & Wets 1969). Where the basic solution of
the best stored basis lies in the bounds within CERT_TOL (1e-9, absolute),
its value is exact up to round-off, within about 1e-13 of HiGHS's; a
degenerate optimum may be certified by any of its bases, each giving the
same value. A Farkas ray of an infeasible solve is a feasibility cut in the
same entries: a right-hand side that violates it by more than RAY_TOL per
unit of the ray is infeasible, which HiGHS's tolerances cannot blur. Every
other right-hand side is solved cold by HiGHS and its basis or ray stored.
The certifiers of one model read its one dense matrix (HighsModel.dense)
and their parameters' right-hand-side terms (HighsModel.rhs_terms), built
on first use.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy import sparse
from scipy.optimize._highspy import _core  # private: scipy's HiGHS binding

_STATUS = {
    _core.HighsModelStatus.kOptimal: "optimal",
    _core.HighsModelStatus.kInfeasible: "infeasible",
    _core.HighsModelStatus.kUnbounded: "unbounded",
}
_COLWISE, _MINIMIZE = int(_core.MatrixFormat.kColwise), int(_core.ObjSense.kMinimize)


@dataclass
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: Optional[np.ndarray]
    objective: Optional[float]
    iterations: int  # HiGHS simplex iterations


@dataclass(frozen=True)
class CscMatrix:
    """A matrix in the compressed-column form HiGHS reads: column j's
    entries are data[indptr[j]:indptr[j + 1]], in rows
    indices[indptr[j]:indptr[j + 1]], ascending, none of them zero."""

    shape: Tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @classmethod
    def of(cls, A) -> "CscMatrix":
        """A dense array or a scipy sparse matrix (duplicates summed, zeros
        dropped) as a CscMatrix; a CscMatrix as it is."""
        if isinstance(A, CscMatrix):
            return A
        if sparse.issparse(A):
            A = sparse.csc_array(A, dtype=float, copy=True)
            A.sum_duplicates()  # sorts each column's rows
            A.eliminate_zeros()
            return cls(A.shape, A.indptr, A.indices, A.data)
        At = np.asarray(A, dtype=float).T
        cols, rows = np.nonzero(At)  # column-major, rows ascending
        indptr = np.zeros(At.shape[0] + 1, dtype=np.int64)
        np.cumsum(np.bincount(cols, minlength=At.shape[0]), out=indptr[1:])
        return cls(At.shape[::-1], indptr, rows, At[cols, rows])

    def columns(self) -> np.ndarray:
        """Each stored entry's column."""
        return np.repeat(np.arange(self.shape[1]), np.diff(self.indptr))

    def toarray(self) -> np.ndarray:
        A = np.zeros(self.shape)
        A[self.indices, self.columns()] = self.data
        return A


def _stack(blocks: List[CscMatrix], n_cols: int) -> CscMatrix:
    """The blocks' rows one under another, as one CscMatrix with n_cols columns."""
    for b in blocks:
        if b.shape[1] != n_cols:
            raise ValueError(f"a constraint block has {b.shape[1]} columns, upper has {n_cols}")
    if len(blocks) == 1:
        return blocks[0]
    offsets = np.cumsum([0] + [b.shape[0] for b in blocks])
    # each block's entries are column-major; a stable sort by column keeps
    # every column's rows in block order, so ascending
    order = np.argsort(np.concatenate([b.columns() for b in blocks]), kind="stable")
    indices = np.concatenate([b.indices + off for b, off in zip(blocks, offsets)])[order]
    data = np.concatenate([b.data for b in blocks])[order]
    indptr = sum((b.indptr for b in blocks), np.zeros(n_cols + 1, dtype=np.int64))
    return CscMatrix((int(offsets[-1]), n_cols), indptr, indices, data)


class HighsModel:
    """One HiGHS LP with a fixed column box [0, upper] and constraint matrix
    (rows: A_ub's, then A_eq's; each a dense array, a scipy sparse matrix,
    a CscMatrix or None). The matrix is built once, as a CscMatrix with no
    stored zeros; HiGHS drops zeros itself, so a solve equals one on the
    matrix with them.

    Every solve passes the model anew, which clears all solver state, so it
    is cold and its result does not depend on earlier solves. (Warm starts,
    or costs changed in place, moved values in the last bits.)
    """

    def __init__(self, upper, A_eq=None, A_ub=None):
        self._upper = upper = np.asarray(upper, dtype=float)
        blocks = [CscMatrix.of(A) for A in (A_ub, A_eq) if A is not None]
        self._n_ub = 0 if A_ub is None else blocks[0].shape[0]
        blocks = blocks or [CscMatrix.of(np.zeros((0, upper.size)))]
        self._A = A = _stack(blocks, upper.size)
        # HiGHS's integer arrays are 32-bit
        self._matrix = (A.indptr.astype(np.int32), A.indices.astype(np.int32), A.data)
        self._lower = np.zeros(upper.size)
        self._integrality = np.zeros(upper.size, dtype=np.int32)  # all continuous
        self._highs = h = _core._Highs()
        for key, value in (("output_flag", False), ("presolve", "off"), ("simplex_strategy", 1)):
            h.setOptionValue(key, value)  # strategy 1: dual simplex
        self._rhs_terms: Dict[Tuple[int, ...], np.ndarray] = {}

    @cached_property
    def dense(self) -> np.ndarray:
        """The constraint matrix as a read-only dense array, built on first
        use: every RhsCertifier of the model reads this one copy."""
        A = self._A.toarray()
        A.flags.writeable = False
        return A

    def rhs_terms(self, rows) -> np.ndarray:
        """The read-only 0/1 matrix D, one row per constraint row and one
        column per entry of rows, with D[rows[k], k] = 1: how an
        RhsCertifier's parameters enter the row upper bounds. Built once per
        distinct rows and shared by the model's certifiers."""
        key = tuple(np.asarray(rows).tolist())
        D = self._rhs_terms.get(key)
        if D is None:
            D = self._rhs_terms[key] = np.zeros((self._A.shape[0], len(key)))
            D[np.array(key, dtype=int), np.arange(len(key))] = 1.0
            D.flags.writeable = False
        return D

    def _row_bounds(self, b_eq, b_ub):
        """HiGHS's row bounds: [-inf, b_ub] for A_ub's rows, then [b_eq, b_eq]."""
        eq = np.empty(0) if b_eq is None else b_eq
        ub = np.empty(0) if b_ub is None else b_ub
        return np.concatenate([np.full(self._n_ub, -np.inf), eq]), np.concatenate([ub, eq])

    def solve(self, c, b_eq=None, b_ub=None) -> LPResult:
        """Minimize c'x for these right-hand sides: x clipped into the box,
        HiGHS's optimal value. Any outcome other than an optimum,
        infeasibility or unboundedness (a limit, "unbounded or infeasible",
        numerical trouble) raises RuntimeError."""
        h, (n_row, n_col) = self._highs, self._A.shape
        start, index, value = self._matrix
        if h.passModel(
            n_col, n_row, value.size, _COLWISE, _MINIMIZE, 0.0,
            np.asarray(c, dtype=float), self._lower, self._upper, *self._row_bounds(b_eq, b_ub),
            start, index, value, self._integrality,
        ) == _core.HighsStatus.kError:
            raise RuntimeError("HiGHS rejected the model")
        h.run()
        status = h.getModelStatus()
        # dual simplex only: no interior-point iterations to add
        iterations = int(h.getInfoValue("simplex_iteration_count")[1])
        if status not in _STATUS:
            raise RuntimeError(f"HiGHS stopped with model status {status.name}")
        if status != _core.HighsModelStatus.kOptimal:
            return LPResult(_STATUS[status], None, None, iterations)
        x = np.clip(np.asarray(h.getSolution().col_value), 0.0, self._upper)
        return LPResult("optimal", x, float(h.getObjectiveValue()), iterations)


CERT_TOL = 1e-9  # absolute bound tolerance of a certified basic solution
RAY_TOL = 1e-6  # Farkas gap per unit of |y| + |A'y| that proves infeasibility
CERT_CHUNK = 256  # right-hand sides certified per vectorized pass


class RhsCertifier:
    """min c'x on model at many right-hand sides: each row p of a matrix P
    replaces the entries rows of b_ub (an array; empty when the model has no
    A_ub). It keeps the optimal basis of each of its feasible solves and the
    Farkas ray of each infeasible one.

    In HiGHS's form, A x - r = 0 with column bounds [0, upper] and row
    bounds [row_lower, row_upper]; only the upper bounds of the rows `rows`
    depend on p. A basis fixes every nonbasic column at 0 or its upper
    bound and every nonbasic row at its upper bound, so the basic variables
    z_B = B^-1 (v0 + D p), B the square basic block of [A | -I], and the
    cost are affine in p: a lower bound on the cost at every p, and the
    exact cost wherever z_B lies in its bounds.

    HiGHS's dual ray y of an infeasible LP is a row vector with y'r = d'x
    for d = A'y, y <= 0 on the rows held at their upper bound (A_ub's). Its
    Farkas gap, the least y'r over the row bounds minus the most d'x over
    the column box, is affine in p too, and every p where it is positive is
    infeasible. A ray that meets an infinite bound on its side (y > 0 on an
    A_ub row, d > 0 on an unbounded column) proves nothing and is dropped.
    """

    def __init__(self, model: HighsModel, c, b_eq, b_ub, rows):
        self._model, self._c = model, np.asarray(c, dtype=float)
        self._b_eq, self._b_ub, self._rows = b_eq, b_ub, rows
        self._A = model.dense
        self._D = model.rhs_terms(rows)  # row upper bounds' p terms
        self._row_lower, self._row_upper = model._row_bounds(b_eq, b_ub)
        self._row_upper[rows] = 0.0
        self._cuts: List[Tuple[float, np.ndarray, np.ndarray, np.ndarray]] = []
        self._rays: List[np.ndarray] = []  # [gap at p = 0, gap's p terms] per unit of ray

    def _add(self) -> int:
        """Store the optimal basis of the model's last solve; returns its index."""
        h = self._model._highs
        b = h.getBasis()
        if not b.valid:
            raise RuntimeError("HiGHS holds no valid basis")
        col_status = np.array([int(v) for v in b.col_status])
        basic, upper = int(_core.HighsBasisStatus.kBasic), int(_core.HighsBasisStatus.kUpper)
        cols, hi = np.flatnonzero(col_status == basic), np.flatnonzero(col_status == upper)
        rows = np.flatnonzero(np.array([int(v) for v in b.row_status]) == basic)
        A, u, c = self._A, self._model._upper, self._c
        m, nc = A.shape[0], cols.size
        nonbasic = np.ones(m, dtype=bool)
        nonbasic[rows] = False
        B_inv = np.linalg.inv(np.hstack([A[:, cols], -np.eye(m)[:, rows]]))
        z0 = B_inv @ (nonbasic * self._row_upper - A[:, hi] @ u[hi])
        G = B_inv @ (nonbasic[:, None] * self._D)
        x0, xG, r0, rG = z0[:nc], G[:nc], z0[nc:], G[nc:]
        # slacks of the basic variables' bounds, each >= 0 where the basis is feasible
        col_hi = u[cols]
        fin = np.isfinite(col_hi)
        row_lo = self._row_lower[rows]
        eq = np.isfinite(row_lo)
        s0 = np.concatenate([x0, col_hi[fin] - x0[fin], r0[eq] - row_lo[eq],
                             self._row_upper[rows] - r0])
        sG = np.vstack([xG, -xG[fin], rG[eq], self._D[rows] - rG])
        c_basic = c[cols]
        self._cuts.append((float(c_basic @ x0 + c[hi] @ u[hi]), c_basic @ xG, s0, sG))
        return len(self._cuts) - 1

    def _check(self, j: int, P: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(certified mask, cost) of basis j at the rows of P."""
        const, grad, s0, sG = self._cuts[j]
        ok = np.min(P @ sG.T + s0, axis=1, initial=np.inf) >= -CERT_TOL
        return ok, P @ grad + const

    def _add_ray(self) -> bool:
        """Store the Farkas ray of the model's last (infeasible) solve;
        False when HiGHS gives none or it proves nothing."""
        h = self._model._highs
        found, y = h.getDualRay()[1:]
        if not found:
            return False
        y = np.asarray(y, dtype=float)
        d, u = self._A.T @ y, self._model._upper
        below, above, up = y < 0, y > 0, d > 0
        # an infinite bound on the ray's side makes the gap -inf
        gap0 = (y[below] @ self._row_upper[below] + y[above] @ self._row_lower[above]
                - d[up] @ u[up])
        if not np.isfinite(gap0):
            return False
        scale = np.abs(y).sum() + np.abs(d).sum()
        self._rays.append(np.concatenate([[gap0], (below * y) @ self._D]) / scale)
        return True

    def _infeasible(self, rays: np.ndarray, P: np.ndarray) -> np.ndarray:
        """Mask of the rows of P that some of these rays proves infeasible."""
        gaps = P @ rays[:, 1:].T + rays[:, 0]
        return np.max(gaps, axis=1, initial=-np.inf) > RAY_TOL

    def costs(self, P: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Each row of P's LP cost, nan where infeasible, and the mask of
        rows HiGHS solved.

        In chunks of CERT_CHUNK rows: a row that a stored ray proves
        infeasible is nan; each other row's best cut over the stored bases
        is certified if that basis's basic columns and rows lie in their
        bounds within CERT_TOL. Every other row is solved cold, in order,
        and its basis or ray stored; the rows still pending are then
        checked against that basis or ray only. A feasibility verdict is
        HiGHS's or a ray's, which HiGHS's cold solve would give too. An
        unbounded LP raises RuntimeError.
        """
        cost = np.full(len(P), np.nan)
        solved = np.zeros(len(P), dtype=bool)
        for lo in range(0, len(P), CERT_CHUNK):
            chunk, out = P[lo : lo + CERT_CHUNK], cost[lo : lo + CERT_CHUNK]
            pending = np.arange(len(chunk))
            if self._rays:
                pending = pending[~self._infeasible(np.array(self._rays), chunk)]
            if self._cuts:
                const = np.array([cut[0] for cut in self._cuts])
                grads = np.array([cut[1] for cut in self._cuts])
                best = np.argmax(chunk[pending] @ grads.T + const, axis=1)
                certified = np.zeros(pending.size, dtype=bool)
                for j in np.unique(best):
                    at = np.flatnonzero(best == j)
                    ok, c = self._check(j, chunk[pending[at]])
                    certified[at[ok]] = True
                    out[pending[at[ok]]] = c[ok]
                pending = pending[~certified]
            while pending.size:
                i, pending = pending[0], pending[1:]
                b_ub = self._b_ub.copy()
                b_ub[self._rows] = chunk[i]
                res = self._model.solve(self._c, self._b_eq, b_ub)
                solved[lo + i] = True
                if res.status == "unbounded":
                    raise RuntimeError(f"unexpected LP status {res.status}")
                if res.status == "optimal":
                    out[i] = res.objective
                    ok, c = self._check(self._add(), chunk[pending])
                    out[pending[ok]] = c[ok]
                    pending = pending[~ok]
                elif self._add_ray():
                    pending = pending[~self._infeasible(self._rays[-1][None], chunk[pending])]
        return cost, solved


def solve_lp(c, A_eq=None, b_eq=None, A_ub=None, b_ub=None, upper=None) -> LPResult:
    """Minimize c'x subject to equalities, inequalities and bounds [0, upper]
    with one HighsModel, solved once. upper may contain np.inf (None: no
    upper bounds)."""
    c = np.asarray(c, dtype=float)
    upper = np.full(c.size, np.inf) if upper is None else upper
    return HighsModel(upper, A_eq, A_ub).solve(c, b_eq, b_ub)
