"""Capacity-plan search: maximize value minus reservation cost over a box.

Objectives (CapacityObjective):
  LP-valued   weighted average of per-scenario LP values (wait-and-see);
              scenario_objective for one scenario, sample_objective for a sample
  DP-valued   value of the sample-average Bellman recursion over a SampleSet

An LP-valued objective is one LP layout plus a row of costs and right-hand
sides per scenario. Its exact optimum (optimize_capacity_exact, the SAA path:
optimize_capacity_saa, ``--mode saa``) is one extensive-form LP over the
capacity choice and every scenario's operations.

The quasi-Newton searches run scipy's L-BFGS-B on central-difference
gradients, over raw capacities (optimize_capacity) or per-source quadratic
profiles (optimize_capacity_quadratic). The landscape is piecewise linear and
concave, so kink points can stall a single descent; each search restarts
from seeded random points and keeps the best. The raw search then polishes
on the integer lattice around the rounded incumbent.

The Monte Carlo sweep (monte_carlo_search) values its plans through
CapacityObjective.plan_values: per draw, one lp.RhsCertifier over the cap
rows' right-hand sides values each plan from a stored optimal basis that
certifies it, answers it infeasible from a stored Farkas ray, or solves it
cold. The sweep keeps one set of certifiers for its whole sample.

Infeasible capacity plans (too little capacity to respect storage bounds
under some scenario) evaluate to a large negative penalty with a mild upward
slope in total capacity, steering the search back toward feasibility.
"""

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import minimize

from .dp import solve_expected
from .lp import CERT_CHUNK, CscMatrix, HighsModel, LPResult, RhsCertifier, solve_lp
from .model import CapacityPlan, Instance, Scenario
from .mslp import InfeasibleLP, build_mslp, scenario_rows
from .scenario import SampleSet, sample_scenarios

PENALTY = 1.0e7
PENALTY_SLOPE = 10.0  # reward per TEU of total capacity inside the penalty


def _caps_to_plan(instance: Instance, caps: np.ndarray) -> CapacityPlan:
    return CapacityPlan(
        capacity={
            s.id: tuple(float(v) for v in caps[k])
            for k, s in enumerate(instance.sources)
        }
    )


def total_flow(scenario: Scenario) -> float:
    """Total exogenous volume: all inflows plus all outflows over the horizon."""
    flow = 0.0
    for z in scenario.realizations:
        flow += sum(z.inflow.values()) + sum(z.outflow.values())
    return float(flow)


def _sum_in_order(terms: Sequence[float]) -> float:
    # One left-to-right sum over the scenarios. The fixed order keeps values
    # bit-identical across Python versions: from 3.12, sum() of floats uses
    # compensated summation.
    total = 0.0
    for v in terms:
        total += v
    return total


# ---------------------------------------------------------------------------
# Objective


@dataclass(eq=False)
class CapacityObjective:
    """V-estimate minus linear reservation cost over the capacity box.

    Exactly one of weighted_scenarios (LP-valued) and sample_set (DP-valued)
    is given. Both value the best achievable initial state. Capacity is
    priced at each source's reservation_rate; the box is action_max per
    source per period. source_ids, rates, rates_array and box_upper are
    derived once; the two arrays are read-only, as callers share them.

    An LP-valued objective has fixed recourse (Van Slyke & Wets 1969): only
    the costs and right-hand sides of a draw's multistage LP depend on the
    draw. It builds one layout, the first draw's zero-plan MultistageLP,
    and mslp.scenario_rows writes arrays costs, b_eq and b_ub on it whose
    row k is draw k's (weight weights[k]). A plan writes its capacities
    into a copy of a b_ub row at cap_index (cap_matrix: those rows of A_ub).
    Every LP it solves (plan values, operability, the regret optimum) is
    solved cold, in this process, on one lp.HighsModel of the layout built
    on first use; nothing goes through lp.solve_lp or mslp.solve_mslp.
    plan_values values a batch of plans from the optimal bases and Farkas
    rays of a few of those solves. close() drops the model.
    """

    instance: Instance
    weighted_scenarios: Tuple[Tuple[Scenario, float], ...] = ()
    sample_set: Optional[SampleSet] = None
    dropped_scenarios: int = field(default=0, init=False, repr=False)
    _model: Optional[HighsModel] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if bool(self.weighted_scenarios) == (self.sample_set is not None):
            raise ValueError("give exactly one of weighted_scenarios and sample_set")
        inst = self.instance
        self.source_ids = tuple(s.id for s in inst.sources)
        self.rates = {s.id: tuple(float(v) for v in s.reservation_rate) for s in inst.sources}
        self.rates_array = np.array([self.rates[sid] for sid in self.source_ids])
        self.box_upper = np.full((len(inst.sources), inst.horizon), float(inst.bounds.action_max))
        self.rates_array.setflags(write=False)
        self.box_upper.setflags(write=False)
        if self.sample_set is not None:
            return
        scenarios = [sc for sc, _ in self.weighted_scenarios]
        zero = _caps_to_plan(inst, np.zeros_like(self.box_upper))
        self.layout = build_mslp(inst, scenarios[0], zero, initial="free")
        self.costs, self.b_eq, self.b_ub = scenario_rows(self.layout, inst, scenarios)
        self.weights = [float(w) for _, w in self.weighted_scenarios]
        self.cap_index = self.layout.cap_row_index(self.source_ids)
        self.cap_matrix = self.layout.A_ub[self.cap_index]

    def flow_denominator(self) -> float:
        """Weighted total exogenous flow (cost-per-TEU denominator): over the
        scenarios, or over each period's draws of the sample set."""
        if self.sample_set is None:
            terms = [w * total_flow(sc) for sc, w in self.weighted_scenarios]
        else:
            s = self.sample_set
            terms = [w * (sum(z.inflow.values()) + sum(z.outflow.values()))
                     for zs, ws in zip(s.realizations, s.weights) for z, w in zip(zs, ws)]
        return _sum_in_order(terms) or 1.0

    @property
    def model(self) -> HighsModel:  # the layout's, built on first use
        if self._model is None:
            self._model = HighsModel(self.layout.upper, self.layout.A_eq, self.layout.A_ub)
        return self._model

    def solve_at(self, k: int, caps: np.ndarray, c=None) -> LPResult:
        """Draw k at caps, with costs c (default its own row), solved cold on
        the layout's model; RuntimeError unless optimal or infeasible."""
        b_ub = self.b_ub[k].copy()
        b_ub[self.cap_index] = np.ravel(caps)
        res = self.model.solve(self.costs[k] if c is None else c, self.b_eq[k], b_ub)
        if res.status not in ("optimal", "infeasible"):
            raise RuntimeError(f"unexpected LP status {res.status}")
        return res

    def value_of_caps(self, caps: np.ndarray) -> Optional[float]:
        """V estimate at a capacity array; None when infeasible."""
        if self.sample_set is None:
            terms = []
            for k, w in enumerate(self.weights):
                res = self.solve_at(k, caps)
                if res.status == "infeasible":
                    return None
                terms.append(w * -res.objective)
            return _sum_in_order(terms)
        table, _ = solve_expected(
            self.instance, self.sample_set, _caps_to_plan(self.instance, caps)
        )
        return table.best_initial_state()[1]

    def certifiers(self) -> List[RhsCertifier]:
        """One lp.RhsCertifier per draw over the cap rows' right-hand sides."""
        return [
            RhsCertifier(self.model, c, b_eq, b_ub, self.cap_index)
            for c, b_eq, b_ub in zip(self.costs, self.b_eq, self.b_ub)
        ]

    def plan_values(
        self, plans: np.ndarray, certifiers: List[RhsCertifier]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """V estimates of many capacity arrays (axis 0: plans) of an
        LP-valued objective, from certified bases and rays (lp.RhsCertifier).

        Returns the values (nan where infeasible) and a mask of the plans
        that needed a HiGHS solve under some draw. certifiers holds one
        certifier per draw, as certifiers() makes them; the bases and rays
        they store carry over to later calls. A plan is valued under draw k
        only if every earlier draw operates it, as in value_of_caps, and
        the weighted draws are summed in value_of_caps' order.
        """
        if self.sample_set is not None:
            raise ValueError("certified plan values need an LP-valued objective")
        X = np.asarray(plans, dtype=float).reshape(len(plans), -1)
        live = np.ones(len(X), dtype=bool)
        solved = np.zeros(len(X), dtype=bool)
        terms = []
        for draw, w in zip(certifiers, self.weights):
            cost = np.full(len(X), np.nan)
            at = np.flatnonzero(live)
            cost[at], solved_k = draw.costs(X[at])
            solved[at] |= solved_k
            live &= ~np.isnan(cost)
            terms.append(w * -cost)
        return _sum_in_order(terms), solved

    def _keep(self, draws: List[int]) -> None:
        """Keep only these draws, reweighted uniformly; count the rest as dropped."""
        w = 1.0 / len(draws)
        self.dropped_scenarios = len(self.weights) - len(draws)
        self.weighted_scenarios = tuple((self.weighted_scenarios[k][0], w) for k in draws)
        self.weights = [w] * len(draws)
        self.costs, self.b_eq, self.b_ub = (a[draws] for a in (self.costs, self.b_eq, self.b_ub))

    def close(self):
        self._model = None


def scenario_objective(instance: Instance, scenario: Scenario) -> CapacityObjective:
    return CapacityObjective(instance, weighted_scenarios=((scenario, 1.0),))


def sample_objective(
    instance: Instance, scenarios: Sequence[Scenario]
) -> CapacityObjective:
    """Uniform-weight expected-LP objective over the operable sub-sample.

    Capacity enters a draw's LP only through its cap rows, so a draw that is
    infeasible at box_upper is infeasible at every plan in the box; keeping
    it would pin the whole objective at the penalty value and erase the
    argmax. The objective writes every draw's rows into one layout; the
    draws that fail at box_upper are dropped (count kept as
    dropped_scenarios) and the kept rows reweighted to 1/kept. Per-plan
    infeasibility inside the box still penalizes as usual. Raises
    InfeasibleLP when no draw is operable.
    """
    obj = CapacityObjective(instance, weighted_scenarios=tuple((sc, 1.0) for sc in scenarios))
    box = obj.box_upper
    kept = [k for k in range(len(scenarios)) if obj.solve_at(k, box).status == "optimal"]
    if not kept:
        raise InfeasibleLP("no operable scenario in the sample")
    obj._keep(kept)
    return obj


def reservation_cost(plan: CapacityPlan, rates: Dict[int, Tuple[float, ...]]) -> float:
    """v(x): sum over sources and periods of rate times reserved TEU."""
    total = 0.0
    for sid, caps in plan.capacity.items():
        r = rates[sid]
        if len(r) != len(caps):
            raise ValueError(f"rate/capacity length mismatch for source {sid}")
        total += float(np.dot(r, caps))
    return total


def objective(plan: CapacityPlan, obj: CapacityObjective) -> float:
    """V-estimate minus reservation cost; raises InfeasibleLP when undefined."""
    value = obj.value_of_caps(plan.as_array(obj.source_ids))
    if value is None:
        raise InfeasibleLP("capacity plan infeasible for the objective's scenarios")
    return value - reservation_cost(plan, obj.rates)


# ---------------------------------------------------------------------------
# Quasi-Newton search


FD_STEP = 1e-3  # finite-difference step of the search gradient
GRAD_TOL = 1e-4  # L-BFGS-B projected-gradient threshold


@dataclass(frozen=True)
class OptConfig:
    max_iter: int = 60
    restarts: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError(f"max_iter is {self.max_iter}; need max_iter >= 1")
        if self.restarts < 0:
            raise ValueError(f"restarts is {self.restarts}; need restarts >= 0")


@dataclass
class OptimizationResult:
    best_plan: CapacityPlan
    best_objective: float
    total_cost: float
    iterations: int
    gradient_evaluations: int
    function_evaluations: int
    trace: List[Tuple[int, float, float]]  # (iter, objective, grad norm)
    lp_objective: Optional[float] = None  # exact path: extensive-form LP cost
    dropped_scenarios: int = 0  # inoperable draws left out of the objective


@dataclass
class _Search:
    """Restarted L-BFGS-B ascent of the penalized objective over a vector x.

    to_caps maps x to a capacity array. Every capacity array scored, alone
    or for a gradient, counts as one function evaluation.
    """

    obj: CapacityObjective
    to_caps: Callable[[np.ndarray], np.ndarray]
    config: OptConfig
    iterations: int = 0
    nfev: int = 0
    njev: int = 0

    def score(self, caps: np.ndarray) -> float:
        """Value minus reservation cost; the penalty where infeasible."""
        self.nfev += 1
        v = self.obj.value_of_caps(caps)
        if v is None:
            return -PENALTY + PENALTY_SLOPE * float(np.sum(caps))
        return v - float(np.sum(self.obj.rates_array * caps))

    def grad(self, x: np.ndarray) -> np.ndarray:
        """Central differences, forward only where the backward point has a
        capacity below 0."""
        self.njev += 1
        h = FD_STEP
        g, f_x = np.empty(x.size), None
        for k in range(x.size):
            up, dn = x.copy(), x.copy()
            up[k] += h
            dn[k] -= h
            f_up, dn_caps = self.score(self.to_caps(up)), self.to_caps(dn)
            if np.all(dn_caps >= 0.0):
                g[k] = (f_up - self.score(dn_caps)) / (2 * h)
            else:
                f_x = self.score(self.to_caps(x)) if f_x is None else f_x
                g[k] = (f_up - f_x) / h
        return g

    def run(self, x0: np.ndarray, draw, bounds):
        """L-BFGS-B from x0 and from config.restarts starts draw(rng) makes.

        Returns the best (x, objective, trace); the trace holds one row of
        (iter, objective, inf-norm of the gradient) per iteration.
        """
        rng = np.random.Generator(np.random.Philox(self.config.seed))
        starts = [x0] + [draw(rng) for _ in range(self.config.restarts)]
        best_x, best_f, best_trace = None, -np.inf, []
        for x_start in starts:
            trace: List[Tuple[int, float, float]] = []
            last = {"f": None, "g": np.zeros(x_start.size)}

            def fun(x):
                last["f"] = self.score(self.to_caps(x))
                return -last["f"]

            def jac(x):
                last["g"] = self.grad(x)
                return -last["g"]

            def cb(xk):
                trace.append((len(trace), last["f"], float(np.linalg.norm(last["g"], np.inf))))

            res = minimize(
                fun,
                x_start,
                jac=jac,
                method="L-BFGS-B",
                bounds=bounds,
                callback=cb,
                options={
                    "maxiter": self.config.max_iter,
                    "ftol": 1e-12,
                    "gtol": GRAD_TOL,
                },
            )
            self.iterations += int(res.nit)
            if -float(res.fun) > best_f:
                best_x, best_f, best_trace = np.asarray(res.x), -float(res.fun), trace
        return best_x, best_f, best_trace

    def result(self, caps: np.ndarray, f: float, trace) -> OptimizationResult:
        return OptimizationResult(
            best_plan=_caps_to_plan(self.obj.instance, caps),
            best_objective=float(f),
            total_cost=float(-f),
            iterations=self.iterations,
            gradient_evaluations=self.njev,
            function_evaluations=self.nfev,
            trace=trace,
        )


def optimize_capacity(
    obj: CapacityObjective,
    start: CapacityPlan,
    config: OptConfig = OptConfig(),
) -> OptimizationResult:
    """L-BFGS-B ascent from start plus seeded restarts; best plan kept.

    The final incumbent is whichever of {raw optimum, integer polish of the
    rounded optimum (it moves only on a strict gain, so never below the
    rounding), start} scores best: never a plan scoring below the start.
    """
    upper = obj.box_upper
    shape = upper.shape
    search = _Search(obj, lambda x: x.reshape(shape), config)
    start_caps = start.as_array(obj.source_ids)
    best_x, best_f, best_trace = search.run(
        start_caps.ravel(),
        lambda rng: rng.uniform(size=upper.size) * upper.ravel(),
        list(zip(np.zeros(upper.size), upper.ravel())),
    )

    # candidate set: raw optimum, integer polish from its rounding, start
    cand_caps = best_x.reshape(shape)
    candidates = [(best_f, cand_caps)]
    cur = np.clip(np.rint(cand_caps), 0.0, upper)
    cur_f = search.score(cur)
    for _ in range(200):
        improved = False
        flat = cur.ravel()
        for k in range(flat.size):
            for step in (1.0, -1.0):
                trial = flat.copy()
                trial[k] += step
                if trial[k] < 0 or trial[k] > upper.ravel()[k]:
                    continue
                tf = search.score(trial.reshape(shape))
                if tf > cur_f + 1e-9:
                    cur_f, flat = tf, trial
                    improved = True
        cur = flat.reshape(shape)
        if not improved:
            break
    if best_trace and cur_f > best_trace[-1][1]:
        best_trace = best_trace + [(len(best_trace), cur_f, 0.0)]
    candidates.append((cur_f, cur))

    f_start = search.score(start_caps)
    candidates.append((f_start, start_caps))  # never regress below the start
    best_f, best_caps = max(candidates, key=lambda kv: kv[0])
    return search.result(best_caps, best_f, best_trace)


MC_CHUNK = 256 * CERT_CHUNK  # plans drawn, valued and written per pass


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """min/q1/median/mean/q3/max with linear-interpolation quantiles."""
    if len(values) == 0:
        raise ValueError("cannot summarize an empty list")
    arr = np.asarray(values, dtype=float)
    q1, med, q3 = np.quantile(arr, [0.25, 0.5, 0.75], method="linear")
    return {
        "min": float(arr.min()),
        "q1": float(q1),
        "median": float(med),
        "mean": float(arr.mean()),
        "q3": float(q3),
        "max": float(arr.max()),
    }


def monte_carlo_search(
    obj: CapacityObjective,
    count: int,
    seed: int,
    samples_out: Optional[str] = None,
) -> Tuple[CapacityPlan, Dict]:
    """Uniform integer-grid search over capacity plans.

    Returns the best (lowest total cost) plan and summary statistics for
    total cost and cost-per-TEU across feasible samples; infeasible samples
    are excluded and counted. samples_out streams per-sample rows to CSV.
    It is the one CSV the package writes outside the CLI: the sample (up to
    10^6 rows) is written chunk by chunk as it is valued, never held whole,
    and one %-template per chunk formats 65,536 rows in about 116 ms against
    162 ms through csv.writer (median of 7, 2-core x86-64 VM).

    The sample is drawn from one Philox stream and valued in chunks of
    MC_CHUNK plans, so memory holds one chunk and one cost per plan. An
    LP-valued objective values the plans through plan_values with one set
    of certifiers (lp.RhsCertifier) for the whole sample: a certified value
    differs from HiGHS's only in the last bits, and an infeasible verdict is
    HiGHS's or a stored Farkas ray's. The stats count the plans valued
    without a solve (certified) and those that took a fresh solve
    (lp_solves; on a DP-valued objective, which has no certificate, every
    plan).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    inst = obj.instance
    high = obj.box_upper.astype(int) + 1
    rng = np.random.Generator(np.random.Philox(seed))
    rates = obj.rates_array.ravel()
    draws = obj.certifiers() if obj.sample_set is None else None
    costs = np.empty(count)  # nan where infeasible
    lp_solves, best = 0, None
    with open(samples_out, "w") if samples_out is not None else nullcontext() as writer:
        if writer is not None:
            cols = [
                f"x_{sid}_{t}" for sid in obj.source_ids for t in range(1, inst.horizon + 1)
            ]
            writer.write("sample_id," + ",".join(cols) + ",feasible,total_cost\n")
        for lo in range(0, count, MC_CHUNK):
            samples = rng.integers(0, high, size=(min(MC_CHUNK, count - lo),) + high.shape)
            if draws is not None:
                values, solved = obj.plan_values(samples, draws)
            else:
                values = np.array([obj.value_of_caps(x.astype(float)) for x in samples], float)
                solved = np.ones(len(samples), dtype=bool)
            lp_solves += int(solved.sum())
            flat = samples.reshape(len(samples), -1)
            chunk = costs[lo : lo + len(samples)]
            chunk[:] = -(values - (rates * flat).sum(axis=1))
            if not np.isnan(chunk).all():
                k = int(np.nanargmin(chunk))
                if best is None or chunk[k] < best[0]:
                    best = (chunk[k], samples[k].astype(float))
            if writer is not None:
                row = "%d," * (2 + flat.shape[1]) + "%s\n"  # id, caps, feasible, cost
                ids = range(lo, lo + len(flat))
                ok = (~np.isnan(chunk)).tolist()
                writer.write("".join(
                    row % (k, *plan, f, repr(c) if f else "")
                    for k, plan, f, c in zip(ids, flat.tolist(), ok, chunk.tolist())
                ))

    if best is None:
        raise InfeasibleLP("no feasible capacity sample found")
    feas_costs = costs[~np.isnan(costs)]
    stats = {
        "total_cost": summarize(feas_costs),
        "cost_per_teu": summarize(feas_costs / obj.flow_denominator()),
        "feasible": int(feas_costs.size),
        "infeasible": int(count - feas_costs.size),
        "certified": count - lp_solves,
        "lp_solves": lp_solves,
    }
    return _caps_to_plan(inst, best[1]), stats


def quadratic_parameterization(
    beta: Dict[int, Tuple[float, float, float]],
    horizon: int,
    box: Dict[int, float],
) -> CapacityPlan:
    """Per-source capacity profile b0 + b1*t + b2*t^2, clamped to [0, box[sid]]."""
    capacity = {}
    for sid, (b0, b1, b2) in beta.items():
        hi = float(box[sid])
        caps = []
        for t in range(1, horizon + 1):
            caps.append(float(min(max(b0 + b1 * t + b2 * t * t, 0.0), hi)))
        capacity[sid] = tuple(caps)
    return CapacityPlan(capacity=capacity)


def optimize_capacity_quadratic(
    obj: CapacityObjective,
    config: OptConfig = OptConfig(),
) -> OptimizationResult:
    """Search over per-source (b0, b1, b2) profiles instead of raw capacities.

    Cuts the decision dimension from n*tau to 3n; the profile is clamped to
    [0, box] per coordinate before evaluation, so its finite differences
    are always central.
    """
    sids = obj.source_ids
    upper = obj.box_upper
    xmax = float(np.max(upper))
    box_by_source = {sid: float(np.max(upper[k])) for k, sid in enumerate(sids)}

    def to_caps(beta_flat: np.ndarray) -> np.ndarray:
        beta = {
            sid: tuple(beta_flat[3 * k : 3 * k + 3]) for k, sid in enumerate(sids)
        }
        plan = quadratic_parameterization(beta, obj.instance.horizon, box_by_source)
        return plan.as_array(sids)

    search = _Search(obj, to_caps, config)
    best_x, best_f, best_trace = search.run(
        np.array([xmax / 2, 0.0, 0.0] * len(sids)),
        lambda rng: rng.uniform(-xmax, xmax, size=3 * len(sids)),
        [(-2 * xmax, 2 * xmax)] * (3 * len(sids)),
    )
    return search.result(to_caps(best_x), best_f, best_trace)


def _diagonal(block: CscMatrix, n: int, nx: int, cap_rows=None) -> CscMatrix:
    """nx first-stage columns, then n copies of block down the diagonal.
    With cap_rows, first-stage column j holds -1 in row cap_rows[j] of
    every copy; without, the first-stage columns are empty."""
    m, k = block.shape
    copy_rows = m * np.arange(n)
    if cap_rows is None:
        lead_ptr, lead_rows = np.zeros(nx + 1, dtype=np.int64), np.empty(0, dtype=np.int64)
    else:
        lead_ptr = n * np.arange(nx + 1)
        lead_rows = (np.asarray(cap_rows)[:, None] + copy_rows).ravel()
    copy_ptr = block.indptr[-1] * np.arange(n)[:, None] + block.indptr[1:]
    return CscMatrix(
        (n * m, nx + n * k),
        np.concatenate([lead_ptr, lead_ptr[-1] + copy_ptr.ravel()]),
        np.concatenate([lead_rows, (block.indices + copy_rows[:, None]).ravel()]),
        np.concatenate([np.full(lead_rows.size, -1.0), np.tile(block.data, n)]),
    )


def extensive_form(obj: CapacityObjective):
    """The extensive-form LP of an LP-valued objective as lp.solve_lp's
    arguments (c, A_eq, b_eq, A_ub, b_ub, upper): the first-stage
    capacities, then one copy of the layout per weighted draw, costs scaled
    by its weight and cap rows reading moves - x <= 0. The matrices are
    CscMatrix arrays written from the layout's column pattern: a block's
    columns are the layout's entries, its rows offset by the block."""
    layout, n = obj.layout, len(obj.weights)
    nx = len(obj.cap_index)
    block_costs = np.array(obj.weights)[:, None] * obj.costs
    c = np.concatenate([obj.rates_array.ravel(), block_costs.ravel()])
    upper = np.concatenate([obj.box_upper.ravel(), np.tile(layout.upper, n)])
    A_ub = _diagonal(CscMatrix.of(layout.A_ub), n, nx, obj.cap_index)
    A_eq = _diagonal(CscMatrix.of(layout.A_eq), n, nx)
    return c, A_eq, obj.b_eq.ravel(), A_ub, obj.b_ub.ravel(), upper


def optimize_capacity_exact(obj: CapacityObjective) -> OptimizationResult:
    """Exact optimum of an LP-valued objective as one extensive-form LP
    (extensive_form), solved once with lp.solve_lp.

    First-stage capacities x in [0, box_upper] are priced at the reservation
    rates. Every weighted scenario adds one multistage-LP block whose cost is
    scaled by its weight and whose cap rows read moves - x <= 0: the
    deterministic equivalent of the two-stage stochastic LP (Van Slyke &
    Wets 1969; for SAA, Kleywegt, Shapiro & Homem-de-Mello 2002).

    Where a rate is >= 0 the returned capacity is the largest per-block
    usage. That still admits every block's solution x_b, so each x_b stays
    optimal at the returned plan, and it pins the plan where the LP is
    indifferent, such as a zero-rate spot source. So total_cost is read from
    the one solve: the plan's reservation cost plus the weighted sum of
    c_b x_b, with no block solved again. It differs from lp_objective,
    HiGHS's optimal cost, only by round-off. Raises InfeasibleLP when no
    plan in the box operates every scenario.
    """
    if obj.sample_set is not None:
        raise ValueError("the exact LP needs an LP-valued objective")
    n, nx = len(obj.weights), len(obj.cap_index)
    rates = obj.rates_array.ravel()
    box = obj.box_upper.ravel()
    res = solve_lp(*extensive_form(obj))
    if res.status == "infeasible":
        raise InfeasibleLP("no capacity plan in the box operates every scenario")
    if res.status != "optimal":
        raise RuntimeError(f"extensive-form LP {res.status}")

    usage = np.zeros(nx)
    operations = 0.0
    for w, c, x_b in zip(obj.weights, obj.costs, res.x[nx:].reshape(n, -1)):
        usage = np.maximum(usage, obj.cap_matrix @ x_b)
        operations += w * float(c @ x_b)
    caps = np.where(rates >= 0.0, np.clip(usage, 0.0, box), res.x[:nx])
    plan = _caps_to_plan(obj.instance, caps.reshape(obj.box_upper.shape))
    total = reservation_cost(plan, obj.rates) + operations
    return OptimizationResult(
        best_plan=plan,
        best_objective=-total,
        total_cost=total,
        iterations=res.iterations,
        gradient_evaluations=0,
        function_evaluations=1,
        trace=[(0, -total, 0.0)],
        lp_objective=res.objective,
        dropped_scenarios=obj.dropped_scenarios,
    )


def optimize_capacity_saa(
    instance: Instance,
    n_scenarios: int,
    seed: int,
    config: OptConfig = OptConfig(),
) -> OptimizationResult:
    """Exact SAA capacity plan over N seeded scenarios.

    Draws no plan can operate are dropped (sample_objective); the rest are
    solved as one extensive-form LP (optimize_capacity_exact). config is
    accepted for the callers that pass one and is not read: the exact solve
    has no search settings.
    """
    if n_scenarios < 1:
        raise ValueError("need at least one scenario")
    scenarios = sample_scenarios(instance, n_scenarios, seed)
    return optimize_capacity_exact(sample_objective(instance, scenarios))
