"""Capacity-plan search: maximize value minus reservation cost over a box.

Evaluator modes:
  "scenario"   one fixed scenario, LP value (deterministic)
  "expected"   weighted average of per-scenario LP values (wait-and-see)
  "saa-dp"     value of the sample-average Bellman recursion

The LP-valued modes have an exact optimum: optimize_capacity_exact solves
the capacity choice and every scenario's operations as one extensive-form
LP. It is the SAA path (optimize_capacity_saa, ``--mode saa``).

The quasi-Newton path runs scipy's L-BFGS-B on central-difference gradients
of the LP-relaxed objective. The landscape is piecewise linear and concave,
so kink points can stall a single descent; the optimizer therefore restarts
from seeded random plans and keeps the best, then polishes on the integer
lattice around the rounded incumbent.

Infeasible capacity plans (too little capacity to respect storage bounds
under some scenario) evaluate to a large negative penalty with a mild upward
slope in total capacity, steering the search back toward feasibility.
"""

import math
import os
from contextlib import nullcontext
from dataclasses import dataclass, field
from multiprocessing import get_context
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse
from scipy.optimize import linprog, minimize

from .dp import solve_expected
from .model import CapacityPlan, Instance, Scenario
from .mslp import InfeasibleLP, MultistageLP, build_mslp, solve_mslp
from .scenario import SampleSet

PENALTY = 1.0e7
PENALTY_SLOPE = 10.0  # reward per TEU of total capacity inside the penalty


def _zero_plan(instance: Instance) -> CapacityPlan:
    return CapacityPlan(
        capacity={s.id: (0.0,) * instance.horizon for s in instance.sources}
    )


def _caps_to_plan(instance: Instance, caps: np.ndarray) -> CapacityPlan:
    return CapacityPlan(
        capacity={
            s.id: tuple(float(v) for v in caps[k])
            for k, s in enumerate(instance.sources)
        }
    )


def _box_plan(instance: Instance) -> CapacityPlan:
    """Every source at action_max in every period: the loosest plan."""
    shape = (len(instance.sources), instance.horizon)
    return _caps_to_plan(instance, np.full(shape, float(instance.bounds.action_max)))


def _plan_to_caps(instance: Instance, plan: CapacityPlan) -> np.ndarray:
    return np.array(
        [[float(v) for v in plan.capacity[s.id]] for s in instance.sources]
    )


def total_flow(scenario: Scenario) -> float:
    """Total exogenous volume: all inflows plus all outflows over the horizon."""
    flow = 0.0
    for z in scenario.realizations:
        flow += sum(z.inflow.values()) + sum(z.outflow.values())
    return float(flow)


# ---------------------------------------------------------------------------
# LP evaluation: serial for one plan, forked workers for a batch of plans

_W: Dict = {}


def _cpu_count() -> int:
    """CPUs this process may run on: the worker count of the batch pool."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _worker_init(templates, source_ids):
    # the forked worker inherits the parent's templates; nothing is pickled
    _W["templates"] = templates
    _W["source_ids"] = source_ids


def _sum_in_order(terms: Sequence[float]) -> float:
    # One left-to-right sum over the scenarios, the same loop in the parent
    # and in every worker, so pooled and serial values are bit-identical.
    total = 0.0
    for v in terms:
        total += v
    return total


def _points(templates, source_ids, caps_batch) -> List[Optional[float]]:
    """Weighted value per capacity array; None where a scenario is infeasible."""
    out: List[Optional[float]] = []
    for caps in caps_batch:
        terms = []
        for tpl, w in templates:
            try:
                terms.append(w * (-solve_mslp(tpl.with_caps_array(caps, source_ids)).cost))
            except InfeasibleLP:
                terms = None
                break
        out.append(None if terms is None else _sum_in_order(terms))
    return out


def _worker_points(caps_batch) -> List[Optional[float]]:
    return _points(_W["templates"], _W["source_ids"], caps_batch)


class _LPEvaluator:
    """Wait-and-see LP value of capacity arrays.

    One plan is solved in this process. A batch of plans (the Monte Carlo
    sweep, a finite-difference gradient) is split over a fork pool with one
    worker per usable CPU; on one CPU it is solved here as well.
    """

    def __init__(
        self,
        instance: Instance,
        weighted_scenarios: Sequence[Tuple[Scenario, float]],
        initial: str = "free",
    ):
        self.instance = instance
        self.weighted = list(weighted_scenarios)
        self.initial = initial
        self.source_ids = [s.id for s in instance.sources]
        self._pool = None
        self._templates = None

    def templates(self) -> List[Tuple[MultistageLP, float]]:
        """One zero-plan multistage LP per weighted scenario, with its weight,
        built once on first use.

        Capacity enters only through the cap rows' right-hand sides, so each
        evaluation fills them in (with_caps_array) instead of rebuilding.
        """
        if self._templates is None:
            zero = _zero_plan(self.instance)
            self._templates = [
                (build_mslp(self.instance, sc, zero, initial=self.initial), w)
                for sc, w in self.weighted
            ]
        return self._templates

    def value(self, caps: np.ndarray) -> Optional[float]:
        """Weighted value, or None when any scenario is infeasible at caps."""
        return _points(self.templates(), self.source_ids, [caps])[0]

    def value_batch(self, caps_list: Sequence[np.ndarray]) -> List[Optional[float]]:
        """Evaluate many capacity arrays; parallel across points."""
        workers = _cpu_count()
        if workers < 2 or len(caps_list) < 2:
            return _points(self.templates(), self.source_ids, caps_list)
        if self._pool is None:
            self._pool = get_context("fork").Pool(
                workers,
                initializer=_worker_init,
                initargs=(self.templates(), self.source_ids),
            )
        chunk = max(1, math.ceil(len(caps_list) / (workers * 4)))
        batches = [caps_list[k : k + chunk] for k in range(0, len(caps_list), chunk)]
        return [v for part in self._pool.map(_worker_points, batches) for v in part]

    def close(self):
        if self._pool is not None:
            self._pool.terminate()
            self._pool = None


# ---------------------------------------------------------------------------
# Objective


@dataclass(eq=False)
class CapacityObjective:
    """V-estimate minus linear reservation cost over the capacity box.

    rates default to each source's reservation_rate; box_upper defaults to
    action_max per source per period (the sampling grid of the search).
    initial "free" evaluates the best achievable initial state, "fixed" pins
    instance.initial_state.
    """

    instance: Instance
    mode: str = "scenario"
    weighted_scenarios: Tuple[Tuple[Scenario, float], ...] = ()
    sample_set: Optional[SampleSet] = None
    rates: Optional[Dict[int, Tuple[float, ...]]] = None
    box_upper: Optional[np.ndarray] = None
    initial: str = "free"
    dropped_scenarios: int = field(default=0, init=False, repr=False)
    _evaluator: Optional[_LPEvaluator] = field(default=None, repr=False, init=False)

    def __post_init__(self):
        if self.mode not in ("scenario", "expected", "saa-dp"):
            raise ValueError(f"unknown evaluator mode {self.mode!r}")
        if self.rates is None:
            self.rates = {
                s.id: tuple(float(v) for v in s.reservation_rate)
                for s in self.instance.sources
            }
        if self.box_upper is None:
            n = len(self.instance.sources)
            self.box_upper = np.full(
                (n, self.instance.horizon), float(self.instance.bounds.action_max)
            )

    @property
    def source_ids(self) -> List[int]:
        return [s.id for s in self.instance.sources]

    def rates_array(self) -> np.ndarray:
        return np.array([self.rates[sid] for sid in self.source_ids])

    def flow_denominator(self) -> float:
        """Weighted total exogenous flow (cost-per-TEU denominator)."""
        return float(
            sum(w * total_flow(sc) for sc, w in self.weighted_scenarios) or 1.0
        )

    def _lp_evaluator(self) -> _LPEvaluator:
        if self._evaluator is None:
            self._evaluator = _LPEvaluator(
                self.instance, self.weighted_scenarios, initial=self.initial
            )
        return self._evaluator

    def value_of_caps(self, caps: np.ndarray) -> Optional[float]:
        """V estimate at a capacity array; None when infeasible."""
        if self.mode in ("scenario", "expected"):
            return self._lp_evaluator().value(caps)
        table, _ = solve_expected(
            self.instance, self.sample_set, _caps_to_plan(self.instance, caps)
        )
        if self.initial == "free":
            return table.best_initial_state()[1]
        return table.value(1, self.instance.initial_state)

    def close(self):
        if self._evaluator is not None:
            self._evaluator.close()
            self._evaluator = None


def scenario_objective(instance: Instance, scenario: Scenario, **kw) -> CapacityObjective:
    return CapacityObjective(
        instance, mode="scenario", weighted_scenarios=((scenario, 1.0),), **kw
    )


def operable_scenario(
    instance: Instance, scenario: Scenario, initial: str = "free"
) -> bool:
    """True when some capacity plan admits a feasible LP for this scenario.

    Capacity enters the LP only through per-source cap rows, so feasibility
    at the box plan (caps = action_max everywhere) decides feasibility over
    the whole box: a scenario rejected there is rejected by the hard storage
    bounds themselves and no plan can operate it.
    """
    try:
        solve_mslp(build_mslp(instance, scenario, _box_plan(instance), initial=initial))
        return True
    except InfeasibleLP:
        return False


def sample_objective(
    instance: Instance, scenarios: Sequence[Scenario], **kw
) -> CapacityObjective:
    """Uniform-weight expected-LP objective over the operable sub-sample.

    A draw that is infeasible at the box plan is infeasible at every plan,
    so keeping it would pin the whole objective at the penalty value and
    erase the argmax. Such draws are dropped (count kept on the returned
    objective) and the weights renormalized; per-plan infeasibility inside
    the box still penalizes as usual.
    """
    initial = kw.get("initial", "free")
    kept = tuple(
        sc for sc in scenarios if operable_scenario(instance, sc, initial)
    )
    if not kept:
        raise InfeasibleLP("no operable scenario in the sample")
    w = 1.0 / len(kept)
    obj = CapacityObjective(
        instance,
        mode="expected",
        weighted_scenarios=tuple((sc, w) for sc in kept),
        **kw,
    )
    obj.dropped_scenarios = len(scenarios) - len(kept)
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
    caps = _plan_to_caps(obj.instance, plan)
    value = obj.value_of_caps(caps)
    if value is None:
        raise InfeasibleLP("capacity plan infeasible for the objective's scenarios")
    return value - reservation_cost(plan, obj.rates)


# ---------------------------------------------------------------------------
# Quasi-Newton search


@dataclass(frozen=True)
class OptConfig:
    fd_step: float = 1e-3
    tolerance: float = 1e-4  # projected-gradient threshold
    max_iter: int = 60
    restarts: int = 8
    seed: int = 0
    polish: bool = True  # integer coordinate descent around the rounded best


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

    def trace_to_csv(self, path: str) -> None:
        with open(path, "w") as f:
            f.write("iter,objective,grad_norm\n")
            for it, obj, gn in self.trace:
                f.write(f"{it},{float(obj)!r},{float(gn)!r}\n")


def _penalized(obj: CapacityObjective, res_rates: np.ndarray, caps: np.ndarray) -> float:
    value = obj.value_of_caps(caps)
    if value is None:
        return -PENALTY + PENALTY_SLOPE * float(np.sum(caps))
    return value - float(np.sum(res_rates * caps))


def _ascend(f, grad, x0: np.ndarray, bounds, config: OptConfig):
    """One L-BFGS-B ascent of f from x0; returns the scipy result and a
    per-iteration trace of (iter, objective, inf-norm of the gradient)."""
    trace: List[Tuple[int, float, float]] = []
    last = {"f": None, "g": np.zeros(x0.size)}

    def fun(x):
        v = f(x)
        last["f"] = v
        return -v

    def jac(x):
        g = grad(x)
        last["g"] = g
        return -g

    def cb(xk):
        trace.append((len(trace), last["f"], float(np.linalg.norm(last["g"], np.inf))))

    res = minimize(
        fun,
        x0,
        jac=jac,
        method="L-BFGS-B",
        bounds=bounds,
        callback=cb,
        options={
            "maxiter": config.max_iter,
            "ftol": 1e-12,
            "gtol": config.tolerance,
        },
    )
    return res, trace


def optimize_capacity(
    obj: CapacityObjective,
    start: CapacityPlan,
    config: OptConfig = OptConfig(),
) -> OptimizationResult:
    """L-BFGS-B ascent from start plus seeded restarts; best plan kept.

    The final incumbent is reported from {raw optimum, rounded optimum,
    integer polish of the rounded optimum}, whichever scores best. Never
    returns a plan scoring below the start.
    """
    inst = obj.instance
    shape = (len(inst.sources), inst.horizon)
    res_rates = obj.rates_array()
    lower = np.zeros(shape)
    upper = np.asarray(obj.box_upper, dtype=float)
    nfev = 0
    njev = 0

    def f(caps_flat: np.ndarray) -> float:
        nonlocal nfev
        nfev += 1
        return _penalized(obj, res_rates, caps_flat.reshape(shape))

    def grad(caps_flat: np.ndarray) -> np.ndarray:
        # central differences, one-sided at the lower box face
        nonlocal njev
        njev += 1
        h = config.fd_step
        points = []
        specs = []
        for k in range(caps_flat.size):
            lo_ok = caps_flat[k] - h >= 0.0
            up = caps_flat.copy()
            up[k] += h
            points.append(up.reshape(shape))
            if lo_ok:
                dn = caps_flat.copy()
                dn[k] -= h
                points.append(dn.reshape(shape))
            specs.append(lo_ok)
        if obj.mode in ("scenario", "expected"):
            raw = obj._lp_evaluator().value_batch(points)
            vals = []
            for caps, v in zip(points, raw):
                if v is None:
                    vals.append(-PENALTY + PENALTY_SLOPE * float(np.sum(caps)))
                else:
                    vals.append(v - float(np.sum(res_rates * caps)))
        else:
            vals = [_penalized(obj, res_rates, caps) for caps in points]
        nonlocal nfev
        nfev += len(points)
        g = np.zeros(caps_flat.size)
        pos = 0
        f0 = None
        for k, lo_ok in enumerate(specs):
            if lo_ok:
                g[k] = (vals[pos] - vals[pos + 1]) / (2 * h)
                pos += 2
            else:
                if f0 is None:
                    f0 = f(caps_flat)
                g[k] = (vals[pos] - f0) / h
                pos += 1
        return g

    bounds = list(zip(lower.ravel(), upper.ravel()))
    rng = np.random.Generator(np.random.Philox(config.seed))
    starts = [_plan_to_caps(inst, start).ravel()]
    for _ in range(config.restarts):
        starts.append((rng.uniform(size=lower.size) * upper.ravel()))

    best_x, best_f = None, -np.inf
    best_trace: List[Tuple[int, float, float]] = []
    iterations = 0
    for x0 in starts:
        res, trace = _ascend(f, grad, x0, bounds, config)
        iterations += int(res.nit)
        fx = -float(res.fun)
        if fx > best_f:
            best_f, best_x = fx, np.asarray(res.x)
            best_trace = trace

    # candidate set: raw optimum, its rounding, optional integer polish
    cand_caps = best_x.reshape(shape)
    candidates = [(best_f, cand_caps)]
    rounded = np.clip(np.rint(cand_caps), lower, upper)
    f_rounded = _penalized(obj, res_rates, rounded)
    nfev += 1
    candidates.append((f_rounded, rounded))
    if config.polish:
        cur, cur_f = rounded.copy(), f_rounded
        for _ in range(200):
            improved = False
            flat = cur.ravel()
            for k in range(flat.size):
                for step in (1.0, -1.0):
                    trial = flat.copy()
                    trial[k] += step
                    if trial[k] < 0 or trial[k] > upper.ravel()[k]:
                        continue
                    tf = _penalized(obj, res_rates, trial.reshape(shape))
                    nfev += 1
                    if tf > cur_f + 1e-9:
                        cur_f, flat = tf, trial
                        improved = True
            cur = flat.reshape(shape)
            if not improved:
                break
        if best_trace and cur_f > best_trace[-1][1]:
            best_trace = best_trace + [(len(best_trace), cur_f, 0.0)]
        candidates.append((cur_f, cur))

    start_caps = _plan_to_caps(inst, start)
    f_start = _penalized(obj, res_rates, start_caps)
    nfev += 1
    candidates.append((f_start, start_caps))  # never regress below the start
    best_f, best_caps = max(candidates, key=lambda kv: kv[0])
    return OptimizationResult(
        best_plan=_caps_to_plan(inst, best_caps),
        best_objective=float(best_f),
        total_cost=float(-best_f),
        iterations=iterations,
        gradient_evaluations=njev,
        function_evaluations=nfev,
        trace=best_trace,
    )


def monte_carlo_search(
    obj: CapacityObjective,
    count: int,
    seed: int,
    box: Optional[np.ndarray] = None,
    samples_out: Optional[str] = None,
) -> Tuple[CapacityPlan, Dict]:
    """Uniform integer-grid search over capacity plans.

    Returns the best (lowest total cost) plan and summary statistics for
    total cost and cost-per-TEU across feasible samples; infeasible samples
    are excluded and counted. samples_out streams per-sample rows to CSV.
    """
    from .evaluation import summarize

    if count < 1:
        raise ValueError("count must be >= 1")
    inst = obj.instance
    upper = np.asarray(obj.box_upper if box is None else box, dtype=float)
    shape = upper.shape
    rng = np.random.Generator(np.random.Philox(seed))
    samples = rng.integers(0, upper.astype(int) + 1, size=(count,) + shape)
    res_rates = obj.rates_array()
    denom = obj.flow_denominator()

    evaluator = obj._lp_evaluator() if obj.mode in ("scenario", "expected") else None
    costs = np.empty(count)
    feasible = np.zeros(count, dtype=bool)
    chunk = 4096
    with open(samples_out, "w") if samples_out is not None else nullcontext() as writer:
        if writer is not None:
            cols = [
                f"x_{sid}_{t}" for sid in obj.source_ids for t in range(1, inst.horizon + 1)
            ]
            writer.write("sample_id," + ",".join(cols) + ",feasible,total_cost\n")
        for lo in range(0, count, chunk):
            batch = [samples[k].astype(float) for k in range(lo, min(lo + chunk, count))]
            if evaluator is not None:
                vals = evaluator.value_batch(batch)
            else:
                vals = [obj.value_of_caps(c) for c in batch]
            for off, v in enumerate(vals):
                k = lo + off
                if v is not None:
                    feasible[k] = True
                    costs[k] = -(v - float(np.sum(res_rates * samples[k])))
                if writer is not None:
                    flat = ",".join(str(int(c)) for c in samples[k].ravel())
                    val = repr(float(costs[k])) if v is not None else ""
                    writer.write(f"{k},{flat},{int(v is not None)},{val}\n")

    feas_costs = costs[feasible]
    if feas_costs.size == 0:
        raise InfeasibleLP("no feasible capacity sample found")
    best_k = int(np.flatnonzero(feasible)[np.argmin(feas_costs)])
    stats = {
        "total_cost": summarize(list(feas_costs)),
        "cost_per_teu": summarize(list(feas_costs / denom)),
        "feasible": int(feasible.sum()),
        "infeasible": int(count - feasible.sum()),
    }
    best_plan = _caps_to_plan(inst, samples[best_k].astype(float))
    return best_plan, stats


def quadratic_parameterization(
    beta: Dict[int, Tuple[float, float, float]],
    horizon: int,
    box: Dict[int, float],
) -> CapacityPlan:
    """Per-source capacity profile b0 + b1*t + b2*t^2, clamped to [0, box]."""
    capacity = {}
    for sid, (b0, b1, b2) in beta.items():
        hi = float(box[sid]) if not np.isscalar(box) else float(box)
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
    [0, box] per coordinate before evaluation.
    """
    inst = obj.instance
    tau = inst.horizon
    sids = obj.source_ids
    res_rates = obj.rates_array()
    xmax = float(np.max(obj.box_upper))
    box_by_source = {
        sid: float(np.max(np.asarray(obj.box_upper)[k]))
        for k, sid in enumerate(sids)
    }

    def plan_of(beta_flat: np.ndarray) -> CapacityPlan:
        beta = {
            sid: tuple(beta_flat[3 * k : 3 * k + 3]) for k, sid in enumerate(sids)
        }
        return quadratic_parameterization(beta, tau, box_by_source)

    nfev = 0
    njev = 0

    def value(beta_flat: np.ndarray) -> float:
        nonlocal nfev
        nfev += 1
        return _penalized(obj, res_rates, _plan_to_caps(inst, plan_of(beta_flat)))

    def grad(beta_flat: np.ndarray) -> np.ndarray:
        nonlocal njev
        njev += 1
        h = config.fd_step
        g = np.zeros(beta_flat.size)
        for k in range(beta_flat.size):
            up = beta_flat.copy()
            up[k] += h
            dn = beta_flat.copy()
            dn[k] -= h
            g[k] = (value(up) - value(dn)) / (2 * h)
        return g

    bounds = [(-2 * xmax, 2 * xmax)] * (3 * len(sids))
    rng = np.random.Generator(np.random.Philox(config.seed))
    starts = [np.array([xmax / 2, 0.0, 0.0] * len(sids))]
    for _ in range(config.restarts):
        starts.append(rng.uniform(-xmax, xmax, size=3 * len(sids)))

    best_beta, best_f = starts[0], -np.inf
    best_trace: List[Tuple[int, float, float]] = []
    iterations = 0
    for x0 in starts:
        res, trace = _ascend(value, grad, x0, bounds, config)
        iterations += int(res.nit)
        if -res.fun > best_f:
            best_f, best_beta = -float(res.fun), np.asarray(res.x)
            best_trace = trace
    plan = plan_of(best_beta)
    return OptimizationResult(
        best_plan=plan,
        best_objective=float(best_f),
        total_cost=float(-best_f),
        iterations=iterations,
        gradient_evaluations=njev,
        function_evaluations=nfev,
        trace=best_trace,
    )


def optimize_capacity_exact(obj: CapacityObjective) -> OptimizationResult:
    """Exact optimum of an LP-valued objective as one extensive-form LP.

    First-stage capacities x in [0, box_upper] are priced at the reservation
    rates. Every weighted scenario adds one multistage-LP block whose cost is
    scaled by its weight and whose cap rows read moves - x <= 0: the
    deterministic equivalent of the two-stage stochastic LP (Van Slyke &
    Wets 1969; for SAA, Kleywegt, Shapiro & Homem-de-Mello 2002).

    Where a rate is >= 0 the returned capacity is the largest per-block
    usage. That still admits every block's solution, so it stays optimal,
    and it pins the plan where the LP is indifferent, such as a zero-rate
    spot source. total_cost re-evaluates the plan with objective(), as the
    searches report theirs, so it differs from lp_objective, the LP's
    optimal cost, only by round-off. Raises InfeasibleLP when no plan in
    the box operates every scenario.
    """
    if obj.mode not in ("scenario", "expected") or not obj.weighted_scenarios:
        raise ValueError("the exact LP needs an LP-valued objective with scenarios")
    inst = obj.instance
    tau = inst.horizon
    keys = [(sid, t) for sid in obj.source_ids for t in range(1, tau + 1)]
    nx = len(keys)
    blocks = obj._lp_evaluator().templates()
    # the row layout depends on the instance only, so it is the same in every block
    rows = [blocks[0][0].cap_rows[key] for key in keys]
    couple = sparse.csr_matrix(
        (-np.ones(nx), (rows, np.arange(nx))), shape=(blocks[0][0].A_ub.shape[0], nx)
    )
    A_ub = sparse.hstack(
        [
            sparse.vstack([couple] * len(blocks)),
            sparse.block_diag([lp.A_ub for lp, _ in blocks]),
        ],
        format="csr",
    )
    n_eq = sum(lp.A_eq.shape[0] for lp, _ in blocks)
    A_eq = sparse.hstack(
        [
            sparse.csr_matrix((n_eq, nx)),
            sparse.block_diag([lp.A_eq for lp, _ in blocks]),
        ],
        format="csr",
    )
    rates = obj.rates_array().ravel()
    box = np.asarray(obj.box_upper, dtype=float).ravel()
    upper = np.concatenate([box] + [lp.upper for lp, _ in blocks])
    res = linprog(
        np.concatenate([rates] + [w * lp.c for lp, w in blocks]),
        A_ub=A_ub,
        b_ub=np.concatenate([lp.b_ub for lp, _ in blocks]),
        A_eq=A_eq,
        b_eq=np.concatenate([lp.b_eq for lp, _ in blocks]),
        bounds=np.column_stack([np.zeros_like(upper), upper]),
        method="highs",
    )
    if res.status == 2:
        raise InfeasibleLP("no capacity plan in the box operates every scenario")
    if res.status != 0:
        raise RuntimeError(f"extensive-form LP failed: {res.message}")

    usage = np.zeros(nx)
    offset = nx
    for lp, _ in blocks:
        n = lp.c.size
        usage = np.maximum(usage, lp.A_ub[rows] @ res.x[offset : offset + n])
        offset += n
    caps = np.where(rates >= 0.0, np.clip(usage, 0.0, box), res.x[:nx])
    plan = _caps_to_plan(inst, caps.reshape(len(obj.source_ids), tau))
    best = objective(plan, obj)
    return OptimizationResult(
        best_plan=plan,
        best_objective=best,
        total_cost=-best,
        iterations=int(res.nit),
        gradient_evaluations=0,
        function_evaluations=1,
        trace=[(0, best, 0.0)],
        lp_objective=float(res.fun),
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
    from .scenario import sample_scenarios

    if n_scenarios < 1:
        raise ValueError("need at least one scenario")
    scenarios = sample_scenarios(instance, n_scenarios, seed)
    return optimize_capacity_exact(sample_objective(instance, scenarios))
