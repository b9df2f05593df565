"""The package's HiGHS wrapper.

Solves   min c'x   s.t.   A_eq x = b_eq,  A_ub x <= b_ub,  0 <= x <= upper

with scipy's `linprog(method="highs")`. It serves the per-scenario
multistage LP (mslp.solve_mslp) and the extensive-form capacity LP
(capopt.optimize_capacity_exact); rows may be dense arrays or scipy sparse
matrices. The tiny per-period allocation LP has its own dense tableau in
alloc, where linprog's per-call overhead would cost more than the solve.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import linprog

_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


@dataclass
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: Optional[np.ndarray]
    objective: Optional[float]
    iterations: int  # HiGHS simplex / IPM iterations


def solve_lp(c, A_eq=None, b_eq=None, A_ub=None, b_ub=None, upper=None) -> LPResult:
    """Minimize c'x subject to equalities, inequalities and bounds [0, upper].

    upper may contain np.inf (None: no upper bounds). x is clipped into the
    box; the objective is HiGHS's optimal value, which differs from c'x at
    the clipped point only by round-off. Any HiGHS outcome other than an
    optimum, infeasibility or unboundedness (an iteration limit, numerical
    trouble) raises RuntimeError.
    """
    c = np.asarray(c, dtype=float)
    upper = np.full(c.size, np.inf) if upper is None else np.asarray(upper, dtype=float)
    bounds = np.column_stack([np.zeros(c.size), upper])
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds, method="highs")
    if res.status not in _STATUS:
        raise RuntimeError(f"HiGHS stopped with status {res.status}: {res.message}")
    if res.status != 0:
        return LPResult(_STATUS[res.status], None, None, int(res.nit))
    return LPResult("optimal", np.clip(res.x, 0.0, upper), float(res.fun), int(res.nit))
