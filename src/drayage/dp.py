"""Backward-induction dynamic programming over the integer state grid.

Values follow the sign convention V = negative cumulative cost (bigger is
better); solvers therefore maximize. Three entry points share one kernel:

  solve_scenario   one fixed realization per period (perfect information)
  solve_expected   weighted realizations per period (exact expectation when
                   the SampleSet enumerates the support, SAA otherwise)
  evaluate_policy  the same tables read at a fixed policy's actions

The kernel builds, for each period t and distinct realization z, a stage
table over (action a, state s): cost[a, s], the transport cost of moving a
units at s (inf when no allocation exists), and next[a, s], the index of the
state reached. Each table is consumed as soon as it is built. The sweeps take
a weighted sum over z and a maximum over the actions allocatable under every
z; evaluate_policy gathers at the policy's actions. Single-entry single-exit
instances fill the table in closed form (the cost depends only on the action
and z, the successor is clip arithmetic). Networks fill it from allocation
solves memoized per period on (a, min(avail, a), min(space, a), spot rates):
no lane carries more than a, so larger bounds never bind, solve_allocation
solves exactly that clipped problem, and all states sharing it share one
solve. rollout reads each step's allocation through the same memo, keyed the
same way, so single-lane and network rollouts take one path.

solve_expected's policy keeps the kernel that built it (PolicyTable.kernel).
evaluate_policy and rollout reuse that kernel, memo included, when they are
called with the instance and plan it was built for, and build a new one
otherwise; solve_scenario's policies carry none.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .alloc import (
    INFEASIBLE,
    AllocationProblem,
    build_problem,
    holding_cost,
    lane_costs,
    lane_flows,
    plan_caps_at,
    solve_allocation,
    split_volume,
    transition,
)
from .model import (
    STRATEGIC,
    CapacityPlan,
    CostSpec,
    ExogenousRealization,
    Instance,
    Scenario,
    SystemState,
)
from .scenario import SampleSet, realization_key


class UndefinedPolicyState(Exception):
    """A rollout reached a (period, state) the policy cannot act on."""


# ---------------------------------------------------------------------------
# State grid indexing


@dataclass(frozen=True)
class StateIndexer:
    """Mixed-radix flattening of the state grid, entries first then exits.

    Exit coordinates are offset by the backorder bound so indices start at 0.
    """

    entry_ids: Tuple[int, ...]
    exit_ids: Tuple[int, ...]
    entry_sizes: Tuple[int, ...]
    exit_sizes: Tuple[int, ...]
    exit_offsets: Tuple[int, ...]

    @staticmethod
    def for_instance(instance: Instance) -> "StateIndexer":
        b = instance.bounds
        entries = instance.network.entries
        exits = instance.network.exits
        return StateIndexer(
            entry_ids=entries,
            exit_ids=exits,
            entry_sizes=tuple(b.entry_max[i] + 1 for i in entries),
            exit_sizes=tuple(
                b.exit_backorder_max[j] + b.exit_max[j] + 1 for j in exits
            ),
            exit_offsets=tuple(b.exit_backorder_max[j] for j in exits),
        )

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.entry_sizes + self.exit_sizes

    @property
    def n_states(self) -> int:
        n = 1
        for s in self.shape:
            n *= s
        return n

    def index_of(self, state: SystemState) -> int:
        digits = [state.entry_stock[i] for i in self.entry_ids]
        digits += [
            state.exit_stock[j] + off
            for j, off in zip(self.exit_ids, self.exit_offsets)
        ]
        idx = 0
        for d, size in zip(digits, self.shape):
            if d < 0 or d >= size:
                raise ValueError(f"state outside grid: {state}")
            idx = idx * size + d
        return idx

    def state_of(self, index: int) -> SystemState:
        digits = []
        for size in reversed(self.shape):
            digits.append(index % size)
            index //= size
        digits.reverse()
        ne = len(self.entry_ids)
        return SystemState(
            entry_stock={i: digits[k] for k, i in enumerate(self.entry_ids)},
            exit_stock={
                j: digits[ne + k] - self.exit_offsets[k]
                for k, j in enumerate(self.exit_ids)
            },
        )

    def all_states(self) -> List[SystemState]:
        return [self.state_of(i) for i in range(self.n_states)]


# ---------------------------------------------------------------------------
# Tables and trajectories


@dataclass
class ValueTable:
    """Dense values per period; row t-1 holds period t, last row is terminal."""

    horizon: int
    indexer: StateIndexer
    values: np.ndarray  # shape (horizon + 1, n_states)

    def value(self, period: int, state: SystemState) -> float:
        if not 1 <= period <= self.horizon + 1:
            raise ValueError(f"period {period} outside 1..{self.horizon + 1}")
        return float(self.values[period - 1, self.indexer.index_of(state)])

    def best_initial_state(self) -> Tuple[SystemState, float]:
        """Argmax of V_1 over the grid (ties: lowest state index)."""
        i = int(np.argmax(self.values[0]))
        return self.indexer.state_of(i), float(self.values[0, i])

    def to_csv(self, path: str) -> None:
        _table_to_csv(path, self, self.values, "value", range(1, self.horizon + 2))


@dataclass
class PolicyTable:
    """Action per period and state.

    ``kernel`` is the stage-table kernel of the solve_expected call that made
    the policy (None otherwise). It keeps that call's allocation memo alive
    for evaluate_policy and rollout to read: about 450 B per entry, 534
    entries on the network-policy benchmark instance.
    """

    horizon: int
    indexer: StateIndexer
    actions: np.ndarray  # shape (horizon, n_states), int
    kernel: Optional["_StageTables"] = field(default=None, repr=False, compare=False)

    def action(self, period: int, state: SystemState) -> int:
        if not 1 <= period <= self.horizon:
            raise UndefinedPolicyState(f"no policy for period {period}")
        return int(self.actions[period - 1, self.indexer.index_of(state)])

    def to_csv(self, path: str) -> None:
        _table_to_csv(path, self, self.actions, "action", range(1, self.horizon + 1))


def _state_columns(indexer: StateIndexer, idx: int) -> Tuple[str, str]:
    st = indexer.state_of(idx)
    entry = "|".join(str(st.entry_stock[i]) for i in indexer.entry_ids)
    exit_ = "|".join(str(st.exit_stock[j]) for j in indexer.exit_ids)
    return entry, exit_


def _table_to_csv(path, table, data, value_name, periods) -> None:
    # multi-location stocks are |-joined inside the entry/exit columns
    with open(path, "w") as f:
        f.write(f"t,entry,exit,{value_name}\n")
        cast = int if np.issubdtype(data.dtype, np.integer) else float
        for row, t in enumerate(periods):
            for idx in range(table.indexer.n_states):
                entry, exit_ = _state_columns(table.indexer, idx)
                f.write(f"{t},{entry},{exit_},{cast(data[row, idx])!r}\n")


@dataclass(frozen=True)
class TrajectoryStep:
    period: int
    state: SystemState
    action: int
    lane_totals: Dict
    immediate_cost: float
    next_state: SystemState


@dataclass(frozen=True)
class Trajectory:
    steps: Tuple[TrajectoryStep, ...]
    total_cost: float

    def to_csv(self, path: str) -> None:
        with open(path, "w") as f:
            f.write("t,entry,exit,action,immediate_cost,next_entry,next_exit\n")
            for s in self.steps:
                e = "|".join(str(v) for _, v in sorted(s.state.entry_stock.items()))
                x = "|".join(str(v) for _, v in sorted(s.state.exit_stock.items()))
                ne = "|".join(
                    str(v) for _, v in sorted(s.next_state.entry_stock.items())
                )
                nx = "|".join(
                    str(v) for _, v in sorted(s.next_state.exit_stock.items())
                )
                f.write(
                    f"{s.period},{e},{x},{s.action},"
                    f"{float(s.immediate_cost)!r},{ne},{nx}\n"
                )


# ---------------------------------------------------------------------------
# Stage primitives


def terminal_value(state: SystemState, costs: CostSpec) -> float:
    """-alpha . (entry stocks, exit positive parts, exit negative parts).

    Slope order: sorted entry ids, then sorted exit ids twice (positive then
    negative parts), matching CostSpec.terminal_slopes.
    """
    parts: List[float] = []
    for _, v in sorted(state.entry_stock.items()):
        parts.append(float(v))
    exits = sorted(state.exit_stock.items())
    for _, v in exits:
        parts.append(float(max(v, 0)))
    for _, v in exits:
        parts.append(float(-min(v, 0)))
    slopes = costs.terminal_slopes
    if len(slopes) != len(parts):
        raise ValueError("terminal slope vector does not match state dimension")
    return -float(np.dot(slopes, parts))


def _max_feasible_action(state, realization, caps, instance) -> int:
    """Largest feasible total volume; the feasible set is {0..result}.

    Scaling any feasible flow down stays feasible, so feasibility is monotone
    in the total and one upward scan suffices.
    """
    best = 0
    for a in range(1, instance.bounds.action_max + 1):
        prob = build_problem(state, a, realization, caps, instance)
        if solve_allocation(prob) is INFEASIBLE:
            break
        best = a
    return best


def feasible_actions(
    state: SystemState,
    realization: ExogenousRealization,
    caps: Dict[int, float],
    instance: Instance,
) -> List[int]:
    """Ordered action set {0..A*} under the allocation LP at this state."""
    return list(range(_max_feasible_action(state, realization, caps, instance) + 1))


# ---------------------------------------------------------------------------
# Stage tables

PeriodData = List[Tuple[ExogenousRealization, float]]  # (realization, weight)


def _collapse(data: PeriodData, instance: Instance) -> PeriodData:
    # duplicate draws fold into multiplicity weights; identical Bellman sums
    merged: Dict[Tuple, List] = {}
    order: List[Tuple] = []
    for z, w in data:
        k = realization_key(z, instance)
        if k not in merged:
            merged[k] = [z, 0.0]
            order.append(k)
        merged[k][1] += w
    return [(merged[k][0], merged[k][1]) for k in order]


def _terminal_row(instance: Instance, indexer: StateIndexer) -> np.ndarray:
    row = np.empty(indexer.n_states)
    for i in range(indexer.n_states):
        row[i] = terminal_value(indexer.state_of(i), instance.costs)
    return row


def _single_lane_ids(instance: Instance):
    if len(instance.network.entries) == 1 and len(instance.network.exits) == 1:
        return instance.network.entries[0], instance.network.exits[0]
    return None


def _lane_cost_table(
    instance: Instance, z: ExogenousRealization, caps: Dict[int, float], period: int
) -> np.ndarray:
    """Transport cost per action for the single-lane case; inf = beyond caps."""
    lane = instance.network.lanes[0]
    ids, cap_list, rate_list = [], [], []
    for s in instance.sources:
        if lane not in s.lanes:
            continue
        ids.append(s.id)
        cap_list.append(float(caps.get(s.id, 0.0)))
        if s.kind == STRATEGIC:
            rate_list.append(float(s.execution_cost[lane][period - 1]))
        else:
            rate_list.append(float(z.spot_rates[s.id][lane]))
    amax = instance.bounds.action_max
    out = np.full(amax + 1, np.inf)
    for a in range(amax + 1):
        res = split_volume(float(a), cap_list, rate_list)
        if res is None:
            break
        out[a] = res[0]
    return out


class _StageTables:
    """The Bellman kernel (see the module docstring) for one instance and plan.

    ``table(t, z)`` returns ``cost[a, s]`` (inf = no allocation) and
    ``next[a, s]``; ``allocation(t, a, state, z)`` returns one state's
    allocation. Network tables and allocations share one memo across calls.
    """

    def __init__(self, instance: Instance, plan: CapacityPlan):
        self.instance = instance
        self.plan = plan
        self.indexer = idx = StateIndexer.for_instance(instance)
        self.n_actions = instance.bounds.action_max + 1
        self.lane = _single_lane_ids(instance)
        digits = np.array(np.unravel_index(np.arange(idx.n_states), idx.shape)).T
        ne = len(idx.entry_ids)
        self.entry = digits[:, :ne]
        self.exit = digits[:, ne:] - np.array(idx.exit_offsets)
        self._memo: Dict[Tuple, Tuple[Tuple[float, ...], object]] = {}

    def holding(self) -> np.ndarray:
        """``holding_cost`` of every state, summed in the same order."""
        c, idx = self.instance.costs, self.indexer
        h = np.zeros(idx.n_states)
        for k, i in enumerate(idx.entry_ids):
            h = h + c.entry_holding[i] * self.entry[:, k]
        for k, j in enumerate(idx.exit_ids):
            x = self.exit[:, k]
            h = h + np.where(x >= 0, c.exit_holding[j] * x, c.exit_backorder[j] * -x)
        return h

    def table(
        self, t: int, z: ExogenousRealization, actions: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Stage tables of period t under z.

        With ``actions`` (one per state), a network table is filled only at
        those entries; the rest stay infeasible.
        """
        caps = plan_caps_at(self.plan, t)
        if self.lane is not None:
            return self._lane_table(t, z, caps)
        return self._network_table(t, z, caps, actions)

    def _lane_table(self, t, z, caps):
        i, j = self.lane
        b = self.instance.bounds
        back = b.exit_backorder_max[j]
        cost = _lane_cost_table(self.instance, z, caps, t)[:, None]
        a = np.arange(self.n_actions)[:, None]
        e, s = self.entry[:, 0], self.exit[:, 0]
        e_next = np.clip(e - a + z.inflow[i], 0, b.entry_max[i])
        s_next = np.clip(s + a - z.outflow[j], -back, b.exit_max[j]) + back
        feasible = (a <= e + z.inflow[i]) & (a <= b.exit_max[j] - s)
        nxt = e_next * self.indexer.exit_sizes[0] + s_next
        return np.where(feasible, cost, np.inf), nxt

    def _network_table(self, t, z, caps, actions):
        inst, idx = self.instance, self.indexer
        b = inst.bounds
        ne = len(idx.entry_ids)
        q = np.array([z.inflow[i] for i in idx.entry_ids])
        d = np.array([z.outflow[j] for j in idx.exit_ids])
        e_max = np.array([b.entry_max[i] for i in idx.entry_ids])
        x_max = np.array([b.exit_max[j] for j in idx.exit_ids])
        back = np.array(idx.exit_offsets)
        bounds = np.hstack([self.entry + q, x_max - self.exit])  # avail | space
        costs = lane_costs(inst, z, t)
        src_caps = {k: float(v) for k, v in caps.items()}
        rates = realization_key(z, inst)[2]

        n = idx.n_states
        cost = np.full((self.n_actions, n), np.inf)
        nxt = np.zeros((self.n_actions, n), dtype=int)
        # a sweep tries a only where a - 1 was feasible (feasibility is monotone in a)
        alive = np.arange(n)
        for a in range(self.n_actions):
            states = alive if actions is None else np.flatnonzero(actions == a)
            if not states.size:
                continue
            clipped, inv = np.unique(
                np.minimum(bounds[states], a), axis=0, return_inverse=True
            )
            sols = np.array(
                [self._solve(t, a, row, rates, costs, src_caps)[0] for row in clipped.tolist()]
            )[inv.reshape(-1)]
            ok = np.isfinite(sols[:, 0])
            alive, sols = states[ok], sols[ok]
            cost[a, alive] = sols[:, 0]
            # alloc.transition's arithmetic, vectorized
            e_next = np.rint(np.clip(self.entry[alive] - sols[:, 1 : 1 + ne] + q, 0, e_max))
            x_next = np.rint(np.clip(self.exit[alive] + sols[:, 1 + ne :] - d, -back, x_max))
            digits = np.hstack([e_next, x_next + back]).astype(int)
            nxt[a, alive] = np.ravel_multi_index(tuple(digits.T), idx.shape)
        return cost, nxt

    def allocation(self, t: int, a: int, state: SystemState, z: ExogenousRealization):
        """solve_allocation of a units at ``state`` under z in period t, through the memo."""
        idx, b = self.indexer, self.instance.bounds
        row = [min(state.entry_stock[i] + z.inflow[i], a) for i in idx.entry_ids]
        row += [min(b.exit_max[j] - state.exit_stock[j], a) for j in idx.exit_ids]
        caps = {k: float(v) for k, v in plan_caps_at(self.plan, t).items()}
        rates = realization_key(z, self.instance)[2]
        return self._solve(t, a, row, rates, lane_costs(self.instance, z, t), caps)[1]

    def _solve(self, t, a, row, rates, costs, src_caps):
        """((cost, moves out of each entry, moves into each exit), Allocation).

        The cost is inf and the allocation INFEASIBLE when none exists.
        """
        key = (t, a, tuple(row), rates)
        hit = self._memo.get(key)
        if hit is None:
            idx = self.indexer
            ne = len(idx.entry_ids)
            sol = solve_allocation(
                AllocationProblem(
                    total_volume=a,
                    lane_costs=costs,
                    source_caps=src_caps,
                    entry_available=dict(zip(idx.entry_ids, row[:ne])),
                    exit_space=dict(zip(idx.exit_ids, row[ne:])),
                )
            )
            if sol is INFEASIBLE:
                flows = (np.inf,) + (0.0,) * len(row)
            else:
                out, into = lane_flows(sol.lane_totals())
                flows = (
                    (sol.cost,)
                    + tuple(out.get(i, 0.0) for i in idx.entry_ids)
                    + tuple(into.get(j, 0.0) for j in idx.exit_ids)
                )
            hit = self._memo[key] = (flows, sol)
        return hit


# ---------------------------------------------------------------------------
# The backward sweep and policy evaluation


def _check_periods(instance: Instance, per_period: List[PeriodData]) -> None:
    """Input checks of every sweep: one period per stage, weights summing to 1."""
    if len(per_period) != instance.horizon:
        raise ValueError("sample periods do not match horizon")
    for t, data in enumerate(per_period, start=1):
        w = sum(w for _, w in data)
        if abs(w - 1.0) > 1e-9:
            raise ValueError(f"period {t} weights sum to {w}, expected 1")


def _sample_periods(sample: SampleSet) -> List[PeriodData]:
    return [
        list(zip(sample.realizations[t], sample.weights[t]))
        for t in range(sample.periods)
    ]


def _sweep(instance, per_period, plan):
    """Backward induction over the stage tables.

    An action is kept at a state only if it is allocatable under every
    realization of the period (feasibility is monotone in the action, so the
    kept set is {0..A*}). Single-lane sweeps take the first maximum; network
    sweeps move to a larger action only on a gain above 1e-12, so LP
    round-off never decides a tie. Returns the value and policy tables and
    the kernel that filled them.
    """
    _check_periods(instance, per_period)
    kernel = _StageTables(instance, plan)
    indexer = kernel.indexer
    tau, n, n_act = instance.horizon, indexer.n_states, kernel.n_actions
    hold = kernel.holding()
    values = np.empty((tau + 1, n))
    values[tau] = _terminal_row(instance, indexer)
    actions = np.zeros((tau, n), dtype=int)

    for t in range(tau, 0, -1):
        acc = np.zeros((n_act, n))
        ok = np.ones((n_act, n), dtype=bool)
        for z, w in _collapse(per_period[t - 1], instance):
            cost, nxt = kernel.table(t, z)
            finite = np.isfinite(cost)
            ok &= finite
            acc += w * (-np.where(finite, cost, 0.0) + values[t][nxt])
        ok = np.logical_and.accumulate(ok, axis=0)
        if kernel.lane is not None:
            acc = np.where(ok, acc, -np.inf)
            best_a = np.argmax(acc, axis=0)  # first max = smallest action
            best_v = np.take_along_axis(acc, best_a[None], 0)[0]
        else:
            best_v = np.full(n, -np.inf)
            best_a = np.zeros(n, dtype=int)
            for a in range(n_act):
                better = ok[a] & (acc[a] > best_v + 1e-12)
                best_v = np.where(better, acc[a], best_v)
                best_a[better] = a
        values[t - 1] = -hold + best_v
        actions[t - 1] = best_a

    return ValueTable(tau, indexer, values), PolicyTable(tau, indexer, actions), kernel


def solve_scenario(
    instance: Instance,
    scenario: Scenario,
    plan: CapacityPlan,
) -> Tuple[ValueTable, PolicyTable]:
    """Perfect-information DP along one scenario."""
    if len(scenario.realizations) != instance.horizon:
        raise ValueError("scenario length does not match horizon")
    per_period = [[(z, 1.0)] for z in scenario.realizations]
    return _sweep(instance, per_period, plan)[:2]


def solve_expected(
    instance: Instance,
    sample: SampleSet,
    plan: CapacityPlan,
) -> Tuple[ValueTable, PolicyTable]:
    """Weighted-sample Bellman recursion (exact when sample enumerates).

    An action is kept only if the allocation LP is feasible under every
    realization sampled at that period. The policy keeps the sweep's kernel,
    so evaluate_policy and rollout under the same instance and plan solve no
    allocation the sweep already solved.
    """
    values, policy, kernel = _sweep(instance, _sample_periods(sample), plan)
    policy.kernel = kernel
    return values, policy


def _policy_kernel(policy: PolicyTable, instance: Instance, plan: CapacityPlan) -> _StageTables:
    """The policy's own kernel if it was built for this instance and plan, else a new one."""
    kernel = policy.kernel
    if kernel is not None and kernel.instance == instance and kernel.plan == plan:
        return kernel
    return _StageTables(instance, plan)


def evaluate_policy(
    instance: Instance,
    policy: PolicyTable,
    sample: SampleSet,
    plan: CapacityPlan,
) -> ValueTable:
    """Value of a FIXED policy under the sample weights (no maximization).

    Reads the stage tables at the policy's actions. On a network those come
    from the allocation memo of the policy's kernel when the policy was
    solved by solve_expected for this instance and plan (on the policy's own
    sample no allocation is solved again); otherwise from a new kernel.
    Raises UndefinedPolicyState when an action is not allocatable under some
    realization of its period.
    """
    per_period = _sample_periods(sample)
    _check_periods(instance, per_period)
    kernel = _policy_kernel(policy, instance, plan)
    indexer = kernel.indexer
    tau, n = instance.horizon, indexer.n_states
    if policy.actions.shape != (tau, n):
        raise ValueError(f"policy table shape {policy.actions.shape}, expected {(tau, n)}")
    cols = np.arange(n)
    hold = kernel.holding()
    values = np.empty((tau + 1, n))
    values[tau] = _terminal_row(instance, indexer)
    for t in range(tau, 0, -1):
        acts = policy.actions[t - 1]
        undefined = (acts < 0) | (acts >= kernel.n_actions)
        rows = np.clip(acts, 0, kernel.n_actions - 1)
        total = -hold
        for z, w in _collapse(per_period[t - 1], instance):
            cost, nxt = kernel.table(t, z, rows)
            c = cost[rows, cols]
            undefined |= ~np.isfinite(c)
            c = np.where(undefined, 0.0, c)
            total = total + w * (-c + values[t][nxt[rows, cols]])
        if undefined.any():
            si = int(np.argmax(undefined))
            raise UndefinedPolicyState(
                f"policy action {int(acts[si])} infeasible at period {t} "
                f"state {indexer.state_of(si)}"
            )
        values[t - 1] = total
    return ValueTable(tau, indexer, values)


# ---------------------------------------------------------------------------
# Rollout and surfaces


def rollout(
    instance: Instance,
    policy: PolicyTable,
    scenario: Scenario,
    plan: CapacityPlan,
    start: SystemState,
) -> Trajectory:
    """Execute the policy along a scenario; total = costs - terminal value.

    Each step's allocation is read through the kernel's memo, as in
    evaluate_policy: the policy's own kernel when solve_expected built it for
    this instance and plan (so an on-sample network step solves nothing),
    else a new kernel. Raises UndefinedPolicyState when the recorded action
    is not allocatable under this scenario's realization (possible
    off-sample).
    """
    if len(scenario.realizations) != instance.horizon:
        raise ValueError("scenario length does not match horizon")
    kernel = _policy_kernel(policy, instance, plan)
    state = start
    steps = []
    total = 0.0
    for t in range(1, instance.horizon + 1):
        z = scenario.realizations[t - 1]
        a = policy.action(t, state)
        sol = kernel.allocation(t, a, state, z)
        if sol is INFEASIBLE:
            raise UndefinedPolicyState(
                f"policy action {a} infeasible at period {t} state {state}"
            )
        imm = holding_cost(state, instance.costs) + sol.cost
        nxt = transition(state, sol.lane_totals(), z, instance.bounds)
        steps.append(TrajectoryStep(t, state, a, sol.lane_totals(), imm, nxt))
        total += imm
        state = nxt
    total -= terminal_value(state, instance.costs)
    return Trajectory(tuple(steps), total)


@dataclass(frozen=True)
class ValueSurface:
    period: int
    entry_levels: np.ndarray
    exit_levels: np.ndarray
    values: np.ndarray  # shape (len(entry_levels), len(exit_levels))

    def argmax_state(self) -> Tuple[int, int]:
        k = int(np.argmax(self.values))
        r, c = divmod(k, self.values.shape[1])
        return int(self.entry_levels[r]), int(self.exit_levels[c])

    def to_csv(self, path: str) -> None:
        with open(path, "w") as f:
            f.write("entry,exit,value\n")
            for r, e in enumerate(self.entry_levels):
                for c, s in enumerate(self.exit_levels):
                    f.write(f"{e},{s},{float(self.values[r, c])!r}\n")


def value_surface(table: ValueTable, period: int) -> ValueSurface:
    """Entry x exit value grid for one period (single-location only)."""
    idx = table.indexer
    if len(idx.entry_ids) != 1 or len(idx.exit_ids) != 1:
        raise ValueError("value surface requires one entry and one exit")
    ne, ns = idx.entry_sizes[0], idx.exit_sizes[0]
    if not 1 <= period <= table.horizon + 1:
        raise ValueError(f"period {period} outside 1..{table.horizon + 1}")
    grid = table.values[period - 1].reshape(ne, ns)
    return ValueSurface(
        period=period,
        entry_levels=np.arange(ne),
        exit_levels=np.arange(ns) - idx.exit_offsets[0],
        values=grid.copy(),
    )
