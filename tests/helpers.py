"""Shared builders and brute-force oracles for the test suite.

Micro instances keep the exhaustive oracles cheap: stock bounds <= 3, horizon
<= 2, and at most three stochastic components (8 support points). The oracles
here deliberately avoid the vectorized sweep internals: policy enumeration
recurses over raw states and actions, and the allocation oracle enumerates
integer move vectors, so agreement with the production code is meaningful.
"""

import itertools
from typing import Dict, List, Optional, Tuple

import numpy as np

from drayage.alloc import (
    INFEASIBLE,
    AllocationProblem,
    holding_cost,
    lane_costs,
    solve_allocation,
    transition,
)
from drayage.dp import StateIndexer, Trajectory, TrajectoryStep, terminal_value
from drayage.model import (
    Bounds,
    CapacityPlan,
    CostSpec,
    ExogenousRealization,
    Instance,
    Network,
    Scenario,
    Source,
    SystemState,
    UncertaintySpec,
    validate_instance,
)
from drayage.scenario import realization_key, sample_scenarios


def _two_point(rng, lo, hi) -> Dict[int, float]:
    a, b = sorted(rng.choice(np.arange(lo, hi + 1), size=2, replace=False))
    p = round(float(rng.uniform(0.2, 0.8)), 2)
    return {int(a): p, int(b): round(1.0 - p, 2)}


def micro_instance(
    rng: np.random.Generator,
    n_entries: int = 1,
    n_exits: int = 1,
    horizon: int = 2,
    stock_bound: int = 3,
    action_max: int = 3,
) -> Instance:
    """Random tiny instance with at most 8 exogenous support points.

    Only the first entry's inflow, the first exit's outflow, and the spot
    rate are stochastic (two-point each); any further locations get constant
    flows so the support stays at 2^3.
    """
    entries = tuple(range(1, n_entries + 1))
    exits = tuple(range(n_entries + 1, n_entries + n_exits + 1))
    lanes = tuple((i, j) for i in entries for j in exits)

    inflow_dist = {}
    for k, i in enumerate(entries):
        if k == 0:
            inflow_dist[i] = _two_point(rng, 0, stock_bound)
        else:
            inflow_dist[i] = {int(rng.integers(0, stock_bound + 1)): 1.0}
    outflow_dist = {}
    for k, j in enumerate(exits):
        if k == 0:
            outflow_dist[j] = _two_point(rng, 0, stock_bound)
        else:
            outflow_dist[j] = {int(rng.integers(0, stock_bound + 1)): 1.0}

    exec_cost = {
        lane: tuple(round(float(rng.uniform(2, 20)), 2) for _ in range(horizon))
        for lane in lanes
    }
    strategic = Source(
        id=1,
        kind="strategic",
        lanes=lanes,
        execution_cost=exec_cost,
        reservation_rate=tuple(
            round(float(rng.uniform(0.5, 10)), 2) for _ in range(horizon)
        ),
    )
    spot = Source(
        id=2,
        kind="spot",
        lanes=lanes,
        execution_cost=None,
        reservation_rate=tuple(0.0 for _ in range(horizon)),
    )
    lo_rate = round(float(rng.uniform(2, 10)), 2)
    hi_rate = round(lo_rate + float(rng.uniform(1, 15)), 2)
    p = round(float(rng.uniform(0.2, 0.8)), 2)
    spot_dist = {lo_rate: p, hi_rate: round(1.0 - p, 2)}

    bounds = Bounds(
        entry_max={i: stock_bound for i in entries},
        exit_max={j: stock_bound for j in exits},
        exit_backorder_max={j: stock_bound for j in exits},
        action_max=action_max,
    )
    costs = CostSpec(
        entry_holding={i: round(float(rng.uniform(1, 8)), 1) for i in entries},
        exit_holding={j: round(float(rng.uniform(1, 8)), 1) for j in exits},
        exit_backorder={j: round(float(rng.uniform(4, 16)), 1) for j in exits},
        terminal_slopes=tuple(
            round(float(rng.uniform(1, 12)), 1)
            for _ in range(n_entries + 2 * n_exits)
        ),
    )
    initial = SystemState(
        entry_stock={i: int(rng.integers(0, stock_bound + 1)) for i in entries},
        exit_stock={
            j: int(rng.integers(-stock_bound, stock_bound + 1)) for j in exits
        },
    )
    instance = Instance(
        network=Network(entries=entries, exits=exits, lanes=lanes),
        sources=(strategic, spot),
        bounds=bounds,
        costs=costs,
        uncertainty=UncertaintySpec(
            inflow_dist=inflow_dist,
            outflow_dist=outflow_dist,
            spot_rate_dist={2: spot_dist},
        ),
        horizon=horizon,
        initial_state=initial,
    )
    assert validate_instance(instance) == []
    return instance


def micro_scenario(rng: np.random.Generator, instance: Instance) -> Scenario:
    return sample_scenarios(instance, 1, int(rng.integers(0, 2**31)))[0]


def dry_scenario(instance: Instance) -> Scenario:
    """No inflow and an outflow of 8 in every period at the first entry and
    exit. On the reference capacity instance the exit bound is violated under
    every capacity plan, so the LP rejects this draw even at the box caps."""
    spot = instance.spot_sources[0]
    z = ExogenousRealization(
        inflow={instance.network.entries[0]: 0},
        outflow={instance.network.exits[0]: 8},
        spot_rates={spot.id: {spot.lanes[0]: 7.0}},
    )
    return Scenario((z,) * instance.horizon)


def relaxation_triple(
    rng: np.random.Generator,
) -> Tuple[Instance, Scenario, CapacityPlan]:
    """Instance/scenario/plan triple on which the LP bounds the DP provably.

    Stock bounds are widened until no reachable trajectory from the initial
    state can hit them (entries only fill by inflow, exits only by moves), so
    the clamped dynamics and the hard-bounded LP agree on the feasible set and
    -cost >= V1(initial) is a theorem rather than a tendency. Zero moves stay
    feasible for any capacity plan, so no infeasibility skips are needed.
    """
    horizon = int(rng.integers(2, 4))
    action_max = int(rng.integers(2, 5))
    inflow = _two_point(rng, 0, 3)
    outflow = _two_point(rng, 0, 3)
    e0 = int(rng.integers(0, 3))
    x0 = int(rng.integers(-2, 3))
    slack = int(rng.integers(0, 3))
    bounds = Bounds(
        entry_max={1: e0 + horizon * max(inflow) + slack},
        exit_max={2: max(x0, 0) + horizon * action_max + slack},
        exit_backorder_max={2: max(-x0, 0) + horizon * max(outflow) + slack},
        action_max=action_max,
    )
    lanes = ((1, 2),)
    exec_cost = {
        lanes[0]: tuple(round(float(rng.uniform(2, 20)), 2) for _ in range(horizon))
    }
    strategic = Source(1, "strategic", lanes, exec_cost,
                       tuple(round(float(rng.uniform(0.5, 10)), 2) for _ in range(horizon)))
    spot = Source(2, "spot", lanes, None, tuple(0.0 for _ in range(horizon)))
    lo = round(float(rng.uniform(2, 10)), 2)
    hi = round(lo + float(rng.uniform(1, 15)), 2)
    p = round(float(rng.uniform(0.2, 0.8)), 2)
    instance = Instance(
        network=Network(entries=(1,), exits=(2,), lanes=lanes),
        sources=(strategic, spot),
        bounds=bounds,
        costs=CostSpec(
            entry_holding={1: round(float(rng.uniform(1, 8)), 1)},
            exit_holding={2: round(float(rng.uniform(1, 8)), 1)},
            exit_backorder={2: round(float(rng.uniform(4, 16)), 1)},
            terminal_slopes=tuple(
                round(float(rng.uniform(1, 12)), 1) for _ in range(3)
            ),
        ),
        uncertainty=UncertaintySpec(
            inflow_dist={1: inflow},
            outflow_dist={2: outflow},
            spot_rate_dist={2: {lo: p, hi: round(1.0 - p, 2)}},
        ),
        horizon=horizon,
        initial_state=SystemState({1: e0}, {2: x0}),
    )
    assert validate_instance(instance) == []
    scenario = micro_scenario(rng, instance)
    plan = random_plan(rng, instance)
    return instance, scenario, plan


def random_plan(rng: np.random.Generator, instance: Instance) -> CapacityPlan:
    amax = instance.bounds.action_max
    return CapacityPlan(
        capacity={
            s.id: tuple(int(rng.integers(0, amax + 1)) for _ in range(instance.horizon))
            for s in instance.sources
        }
    )


# ---------------------------------------------------------------------------
# Oracles


def all_states(instance: Instance) -> List[SystemState]:
    """Every grid point: entries in [0, max], exits in [-backorder, max]."""
    axes = []
    for i in instance.network.entries:
        axes.append([(0, i, v) for v in range(instance.bounds.entry_max[i] + 1)])
    for j in instance.network.exits:
        lo = -instance.bounds.exit_backorder_max[j]
        hi = instance.bounds.exit_max[j]
        axes.append([(1, j, v) for v in range(lo, hi + 1)])
    states = []
    for combo in itertools.product(*axes):
        entry = {loc: v for kind, loc, v in combo if kind == 0}
        exit_ = {loc: v for kind, loc, v in combo if kind == 1}
        states.append(SystemState(entry, exit_))
    return states


def enumerate_policy_value(
    instance: Instance,
    scenario: Scenario,
    plan: CapacityPlan,
    state: SystemState,
    period: int = 1,
    gamma: float = 1.0,
    memo: Optional[Dict] = None,
) -> float:
    """Exhaustive action-sequence recursion, independent of the dp sweep.

    ``memo`` keeps V(period, state) by (period, entry stocks, exit stocks).
    Pass one dict to every start state of one (instance, scenario, plan,
    gamma), and they share their continuations instead of enumerating them
    again; without it each call enumerates afresh.
    """
    if period > instance.horizon:
        return terminal_value(state, instance.costs)
    memo = {} if memo is None else memo
    key = (period, tuple(sorted(state.entry_stock.items())), tuple(sorted(state.exit_stock.items())))
    if key in memo:
        return memo[key]
    z = scenario.realizations[period - 1]
    caps = plan_caps_at(plan, period)
    best = -np.inf
    for a in range(instance.bounds.action_max + 1):
        alloc = solve_allocation(build_problem(state, a, z, caps, instance, period))
        if alloc is INFEASIBLE:
            continue
        cost = holding_cost(state, instance.costs) + alloc.cost
        nxt = transition(state, alloc.lane_totals(), z, instance.bounds)
        v = -cost + gamma * enumerate_policy_value(
            instance, scenario, plan, nxt, period + 1, gamma, memo
        )
        if v > best:
            best = v
    memo[key] = best
    return best


def build_problem(
    state: SystemState,
    action: float,
    realization: ExogenousRealization,
    caps: Dict[int, float],
    instance: Instance,
    period: int = 1,
) -> AllocationProblem:
    """The allocation problem of one state and action in one period
    (1-based): the state-level reference the DP's stage tables are checked
    against."""
    avail = {
        i: state.entry_stock[i] + realization.inflow[i] for i in instance.network.entries
    }
    space = {
        j: instance.bounds.exit_max[j] - state.exit_stock[j]
        for j in instance.network.exits
    }
    return AllocationProblem(
        total_volume=action,
        lane_costs=lane_costs(instance, realization, period),
        source_caps={k: float(v) for k, v in caps.items()},
        entry_available=avail,
        exit_space=space,
    )


def plan_caps_at(plan: CapacityPlan, period: int) -> Dict[int, float]:
    """Per-source capacity column for a 1-based period."""
    return {k: v[period - 1] for k, v in plan.capacity.items()}


def brute_force_allocation(problem: AllocationProblem) -> Optional[float]:
    """Minimum cost over all integer move vectors, or None when infeasible."""
    keys = sorted(problem.lane_costs.keys())
    total = int(round(problem.total_volume))
    if any(v < -1e-9 for v in problem.entry_available.values()):
        return None
    if any(v < -1e-9 for v in problem.exit_space.values()):
        return None
    ranges = []
    for sid, lane in keys:
        hi = int(min(problem.source_caps[sid], total))
        ranges.append(range(hi + 1))
    best = None
    for combo in itertools.product(*ranges):
        if sum(combo) != total:
            continue
        by_source: Dict[int, int] = {}
        by_entry: Dict[int, int] = {}
        by_exit: Dict[int, int] = {}
        for (sid, lane), m in zip(keys, combo):
            by_source[sid] = by_source.get(sid, 0) + m
            by_entry[lane[0]] = by_entry.get(lane[0], 0) + m
            by_exit[lane[1]] = by_exit.get(lane[1], 0) + m
        if any(v > problem.source_caps[s] + 1e-9 for s, v in by_source.items()):
            continue
        if any(
            by_entry.get(i, 0) > avail + 1e-9
            for i, avail in problem.entry_available.items()
        ):
            continue
        if any(
            by_exit.get(j, 0) > space + 1e-9
            for j, space in problem.exit_space.items()
        ):
            continue
        cost = sum(problem.lane_costs[k] * m for k, m in zip(keys, combo))
        if best is None or cost < best:
            best = cost
    return best


def loop_policy_values(instance, policy, sample, plan, gamma: float = 1.0) -> np.ndarray:
    """Fixed-policy values by a direct allocation solve per state and draw.

    The per-state loop the stage tables replaced, kept as the reference:
    same accumulation order (-holding, then += w * (-cost + gamma * V') per
    distinct realization), so the results must agree bit for bit.
    """
    indexer = StateIndexer.for_instance(instance)
    tau = instance.horizon
    values = np.empty((tau + 1, indexer.n_states))
    states = indexer.all_states()
    values[tau] = [terminal_value(s, instance.costs) for s in states]
    for t in range(tau, 0, -1):
        folded: Dict[Tuple, List] = {}
        for z, w in zip(sample.realizations[t - 1], sample.weights[t - 1]):
            folded.setdefault(realization_key(z, instance), [z, 0.0])[1] += w
        caps = plan_caps_at(plan, t)
        for si, state in enumerate(states):
            a = int(policy.actions[t - 1, si])
            total = -holding_cost(state, instance.costs)
            for z, w in folded.values():
                sol = solve_allocation(build_problem(state, a, z, caps, instance, t))
                assert sol is not INFEASIBLE
                nxt = transition(state, sol.lane_totals(), z, instance.bounds)
                total += w * (-sol.cost + gamma * values[t, indexer.index_of(nxt)])
            values[t - 1, si] = total
    return values


def undefined_action_message(instance, policy, sample, plan) -> Optional[str]:
    """The UndefinedPolicyState message evaluate_policy owes the policy, or
    None, by a direct allocation solve per state and distinct draw.

    Periods are checked from the last one back, as the evaluation runs, and
    states in index order: the first action outside 0..action_max, or not
    allocatable under some draw of its period, is named.
    """
    indexer = StateIndexer.for_instance(instance)
    for t in range(instance.horizon, 0, -1):
        draws = {realization_key(z, instance): z for z in sample.realizations[t - 1]}
        caps = plan_caps_at(plan, t)
        for si, state in enumerate(indexer.all_states()):
            a = int(policy.actions[t - 1, si])
            if not 0 <= a <= instance.bounds.action_max or any(
                solve_allocation(build_problem(state, a, z, caps, instance, t)) is INFEASIBLE
                for z in draws.values()
            ):
                return f"policy action {a} infeasible at period {t} state {state}"
    return None


def direct_rollout(instance, policy, scenario, plan, start):
    """A rollout that solves every step's allocation directly.

    The per-step loop rollout ran before it read the stage-table memo, kept
    as the reference: the trajectories must agree bit for bit (``repr``).
    """
    state, steps, total = start, [], 0.0
    for t, z in enumerate(scenario.realizations, start=1):
        a = policy.action(t, state)
        sol = solve_allocation(build_problem(state, a, z, plan_caps_at(plan, t), instance, t))
        assert sol is not INFEASIBLE
        imm = holding_cost(state, instance.costs) + sol.cost
        nxt = transition(state, sol.lane_totals(), z, instance.bounds)
        steps.append(TrajectoryStep(t, state, a, sol.lane_totals(), imm, nxt))
        total += imm
        state = nxt
    return Trajectory(tuple(steps), total - terminal_value(state, instance.costs))


def loop_ranks(values: np.ndarray) -> np.ndarray:
    """1-based average ranks by a walk over the stably sorted values: the
    tie loop evaluation._ranks ran before it read np.unique's counts."""
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(len(values))
    sorted_vals = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks
