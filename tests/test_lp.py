"""The HiGHS wrapper: results against a direct linprog call, the status
mapping, clipping into the box, sparse rows, the iteration count, re-solves
of one model, the right-hand-side certifier and the private binding's
methods.

Random problems are drawn fully bounded so the optimal status is never
ambiguous; unboundedness and infeasibility get dedicated hand-built cases.
"""

import inspect
import re
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog
from scipy.optimize._highspy import _core
from scipy.optimize._highspy._core import HighsModelStatus

from drayage import lp
from drayage.lp import HighsModel, RhsCertifier, solve_lp


def _random_problem(rng):
    n = int(rng.integers(2, 12))
    me = int(rng.integers(0, 4))
    mu = int(rng.integers(0, 6))
    c = rng.normal(0, 5, n).round(2)
    upper = rng.uniform(0.5, 10, n).round(2)
    # Feasibility by construction: constraints are anchored at a box point.
    # RHS vectors are exact products, so even an overdetermined equality
    # system stays consistent.
    x0 = rng.uniform(0, 1, n) * upper
    A_eq = rng.normal(0, 2, (me, n)).round(2) if me else None
    b_eq = A_eq @ x0 if me else None
    A_ub = rng.normal(0, 2, (mu, n)).round(2) if mu else None
    b_ub = A_ub @ x0 + rng.uniform(0, 2, mu) if mu else None
    return c, A_eq, b_eq, A_ub, b_ub, upper


def test_matches_external_solver_on_random_bounded_problems():
    rng = np.random.default_rng(7)
    optima = 0
    for _ in range(300):
        c, A_eq, b_eq, A_ub, b_ub, upper = _random_problem(rng)
        mine = solve_lp(c, A_eq, b_eq, A_ub, b_ub, upper)
        ref = linprog(
            c,
            A_ub=A_ub,
            b_ub=b_ub,
            A_eq=A_eq,
            b_eq=b_eq,
            bounds=[(0, u) for u in upper],
            method="highs",
        )
        assert mine.status == "optimal"
        assert ref.status == 0
        assert mine.objective == pytest.approx(ref.fun, abs=1e-7, rel=1e-9)
        # The reported point must actually attain the objective and be feasible.
        assert mine.objective == pytest.approx(float(c @ mine.x), abs=1e-9)
        if A_eq is not None:
            assert np.allclose(A_eq @ mine.x, b_eq, atol=1e-7)
        if A_ub is not None:
            assert np.all(A_ub @ mine.x <= b_ub + 1e-7)
        assert np.all(mine.x >= -1e-9)
        assert np.all(mine.x <= upper + 1e-9)
        optima += 1
    assert optima == 300


def test_detects_infeasible_random_problems():
    rng = np.random.default_rng(21)
    found = 0
    for _ in range(200):
        n = int(rng.integers(2, 8))
        c = rng.normal(0, 3, n)
        upper = rng.uniform(0.5, 4, n)
        # Require a sum strictly above the reachable maximum.
        A_eq = np.ones((1, n))
        b_eq = np.array([upper.sum() + 1.0])
        res = solve_lp(c, A_eq, b_eq, None, None, upper)
        assert res.status == "infeasible"
        found += 1
    assert found == 200


def test_detects_unbounded_direction():
    res = solve_lp(
        c=np.array([-1.0, 0.0]),
        A_ub=np.array([[0.0, 1.0]]),
        b_ub=np.array([5.0]),
        upper=np.array([np.inf, np.inf]),
    )
    assert res.status == "unbounded"


def test_pure_box_problem():
    res = solve_lp(
        c=np.array([3.0, -2.0, 0.0]), upper=np.array([4.0, 5.0, np.inf])
    )
    assert res.status == "optimal"
    assert res.x == pytest.approx([0.0, 5.0, 0.0])
    assert res.objective == pytest.approx(-10.0)


def test_known_transportation_optimum():
    # Two supplies of 3 each to one demand of 4, rates 2 and 5: take all of
    # the cheap source first.
    c = np.array([2.0, 5.0])
    A_eq = np.array([[1.0, 1.0]])
    b_eq = np.array([4.0])
    upper = np.array([3.0, 3.0])
    res = solve_lp(c, A_eq, b_eq, None, None, upper)
    assert res.status == "optimal"
    assert res.x == pytest.approx([3.0, 1.0])
    assert res.objective == pytest.approx(11.0)


def test_equality_and_inequality_mix():
    # min x1 + x2  s.t.  x1 + x2 = 2, x1 <= 1.5, x2 <= 1.5, x1 - x2 <= 0.5
    c = np.array([1.0, 1.0])
    res = solve_lp(
        c,
        A_eq=np.array([[1.0, 1.0]]),
        b_eq=np.array([2.0]),
        A_ub=np.array([[1.0, -1.0]]),
        b_ub=np.array([0.5]),
        upper=np.array([1.5, 1.5]),
    )
    assert res.status == "optimal"
    assert res.objective == pytest.approx(2.0)


def test_degenerate_problem_terminates():
    # Many redundant equalities pin the same point; must not cycle.
    n = 4
    c = np.array([1.0, 2.0, 3.0, 4.0])
    A_eq = np.vstack([np.ones(n), np.ones(n), 2 * np.ones(n)])
    b_eq = np.array([2.0, 2.0, 4.0])
    res = solve_lp(c, A_eq, b_eq, None, None, np.full(n, 2.0))
    assert res.status == "optimal"
    assert res.objective == pytest.approx(2.0)


def test_deterministic_vertex():
    rng = np.random.default_rng(3)
    c, A_eq, b_eq, A_ub, b_ub, upper = _random_problem(rng)
    first = solve_lp(c, A_eq, b_eq, A_ub, b_ub, upper)
    second = solve_lp(c, A_eq, b_eq, A_ub, b_ub, upper)
    assert first.status == second.status == "optimal"
    assert np.array_equal(first.x, second.x)
    assert first.objective == second.objective


def test_zero_upper_bound_variable_stays_fixed():
    c = np.array([-5.0, 1.0])
    A_ub = np.array([[1.0, 1.0]])
    b_ub = np.array([3.0])
    upper = np.array([0.0, 10.0])
    res = solve_lp(c, None, None, A_ub, b_ub, upper)
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(0.0, abs=1e-12)


class _Stopped:
    """Stands in for the model's HiGHS object: delegates every call to the
    real one but reports the given model status, solution and info."""

    def __init__(self, highs, status, col_value=None, objective=0.0, iterations=0):
        self._highs = highs
        self._status = status
        self._solution = SimpleNamespace(col_value=col_value)
        self._info = SimpleNamespace(
            objective_function_value=objective,
            simplex_iteration_count=iterations,
            ipm_iteration_count=0,
        )

    def __getattr__(self, name):
        return getattr(self._highs, name)

    def getModelStatus(self):
        return self._status

    def getSolution(self):
        return self._solution

    def getInfo(self):
        return self._info


# linprog's status codes of the HiGHS model statuses other than an optimum,
# infeasibility and unboundedness: 1 for a limit, 4 for everything else
_OTHER_STATUSES = {
    1: ["kIterationLimit", "kTimeLimit"],
    4: ["kUnboundedOrInfeasible", "kSolveError", "kNotset", "kObjectiveBound", "kUnknown"],
}


@pytest.mark.parametrize("status", [1, 4])
def test_other_highs_statuses_raise(status):
    model = HighsModel(np.array([1.0]))
    for name in _OTHER_STATUSES[status]:
        model._highs = _Stopped(model._highs, getattr(HighsModelStatus, name))
        with pytest.raises(RuntimeError, match=f"status {name}"):
            model.solve(np.array([1.0]))


def test_x_is_clipped_into_the_box():
    model = HighsModel(np.array([1.0, 2.0, np.inf]))
    model._highs = _Stopped(
        model._highs, HighsModelStatus.kOptimal,
        col_value=[-1e-12, 2.0 + 1e-12, 3.0], objective=-1.0, iterations=2,
    )
    res = model.solve(np.array([1.0, 1.0, -1.0]))
    assert res.status == "optimal"
    assert res.x.tolist() == [0.0, 2.0, 3.0]
    assert res.objective == -1.0
    assert res.iterations == 2


def test_highs_binding_has_every_method_lp_calls():
    # lp.py drives a private scipy class; a scipy release that renames or
    # drops one of these methods fails here by name
    called = set(re.findall(r"\bh\.(\w+)\(", inspect.getsource(lp)))
    assert called == {
        "setOptionValue", "passModel", "run", "getModelStatus", "getInfo", "getSolution",
        "getBasis", "getDualRay",
    }
    missing = sorted(name for name in called if not hasattr(_core._Highs, name))
    assert missing == []


def test_certified_costs_match_fresh_solves():
    # a random subset of A_ub's rows as the parameters: at the solved
    # right-hand side the stored basis certifies HiGHS's value, and at
    # perturbed ones every value is within 1e-9 of a fresh solve, with the
    # same feasibility verdict
    rng = np.random.default_rng(21)
    counts = {"certified": 0, "solved": 0, "infeasible": 0}
    for _ in range(100):
        c, A_eq, b_eq, A_ub, b_ub, upper = _random_problem(rng)
        b_ub = np.empty(0) if b_ub is None else b_ub
        rows = np.flatnonzero(rng.uniform(size=b_ub.size) < 0.6)
        model = HighsModel(upper, A_eq, A_ub)
        ref = model.solve(c, b_eq, b_ub)
        cert = RhsCertifier(model, c, b_eq, b_ub, rows)
        at_ref, solved = cert.costs(np.tile(b_ub[rows], (2, 1)))
        assert solved.tolist() == [True, False]
        assert at_ref[0] == ref.objective
        assert at_ref[1] == pytest.approx(ref.objective, abs=1e-9)
        P = b_ub[rows] + rng.uniform(-3, 1, (20, rows.size))
        cost, solved = cert.costs(P)
        for p, v, s in zip(P, cost, solved):
            fresh_b_ub = b_ub.copy()
            fresh_b_ub[rows] = p
            fresh = HighsModel(upper, A_eq, A_ub).solve(c, b_eq, fresh_b_ub)
            assert np.isnan(v) == (fresh.status == "infeasible")
            if fresh.status == "optimal":
                assert v == pytest.approx(fresh.objective, abs=1e-9)
            counts["infeasible" if np.isnan(v) else "solved" if s else "certified"] += 1
    assert min(counts.values()) > 50


def test_model_solves_match_one_shot_solves():
    # one model re-solved for other costs and right-hand sides, infeasible
    # ones among them, gives each one-shot solve's result bit for bit
    rng = np.random.default_rng(13)
    n, me, mu = 6, 2, 4
    A_eq = rng.normal(0, 2, (me, n)).round(2)
    A_ub = rng.normal(0, 2, (mu, n)).round(2)
    upper = rng.uniform(0.5, 10, n).round(2)
    model = HighsModel(upper, A_eq, A_ub)
    statuses = set()
    for _ in range(60):
        c = rng.normal(0, 5, n).round(2)
        x0 = rng.uniform(0, 1, n) * upper
        b_eq = A_eq @ x0 + rng.choice([0.0, 50.0], p=[0.8, 0.2])
        b_ub = A_ub @ x0 + rng.uniform(0, 2, mu)
        mine = model.solve(c, b_eq, b_ub)
        ref = solve_lp(c, A_eq, b_eq, A_ub, b_ub, upper)
        statuses.add(mine.status)
        assert mine.status == ref.status
        assert mine.objective == ref.objective
        assert mine.iterations == ref.iterations
        if ref.x is not None:
            assert np.array_equal(mine.x, ref.x)
    assert statuses == {"optimal", "infeasible"}


def test_sparse_rows_match_dense():
    rng = np.random.default_rng(11)
    for _ in range(20):
        c, A_eq, b_eq, A_ub, b_ub, upper = _random_problem(rng)
        dense = solve_lp(c, A_eq, b_eq, A_ub, b_ub, upper)
        sp = solve_lp(
            c,
            None if A_eq is None else sparse.csr_matrix(A_eq),
            b_eq,
            None if A_ub is None else sparse.csr_matrix(A_ub),
            b_ub,
            upper,
        )
        assert sp.status == dense.status == "optimal"
        assert sp.objective == pytest.approx(dense.objective, abs=1e-9)
        assert np.all((sp.x >= 0.0) & (sp.x <= upper))


def test_iterations_are_highs_iterations():
    rng = np.random.default_rng(5)
    c, A_eq, b_eq, A_ub, b_ub, upper = _random_problem(rng)
    ref = linprog(
        c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
        bounds=[(0, u) for u in upper], method="highs", options={"presolve": False},
    )
    res = solve_lp(c, A_eq, b_eq, A_ub, b_ub, upper)
    assert res.iterations == ref.nit
    infeasible = solve_lp(
        np.ones(2), A_eq=np.ones((1, 2)), b_eq=np.array([5.0]), upper=np.ones(2)
    )
    assert infeasible.status == "infeasible"
    assert infeasible.x is None and infeasible.objective is None
