"""Backward-induction dynamic programming over the integer state grid.

Values follow the sign convention V = negative cumulative cost (bigger is
better); solvers therefore maximize. Three entry points share one kernel:

  solve_scenario   one fixed realization per period (perfect information)
  solve_expected   weighted realizations per period (exact expectation when
                   the SampleSet enumerates the support, SAA otherwise)
  evaluate_policy  the same tables read at a fixed policy's actions

The kernel's one table method, tables(t, zs), returns for each distinct
realization z of period t a stage table over (action a, state s):
cost[z, a, s], the transport cost of moving a units at s (inf when no
allocation exists), and next[z, a, s], the index of the state reached. The
finite entries of a state's column are its feasible actions under z,
{0..A*}; nothing else in the package decides that set. The sweep reads it
period by period: a weighted sum over z, realization by realization, and a
maximum over the actions allocatable under every z, with one tie rule for
every network shape. evaluate_policy passes the policy's actions and gets
only those entries, cost[z, s] and next[z, s], summed in order after hold.
Both read a period's tables through stage_rows, which builds them for
chunks of realizations of at most TABLE_BYTES, so peak memory does not grow
with the sample.

Every table reads its allocations from one memo, keyed per period on (a,
min(avail, a), min(space, a), spot rates): no lane carries more than a, so
larger bounds never bind and all states sharing a clipped row share one
solve. A value holds the allocation's (cost, moves out of each entry, moves
into each exit) and its moves per lane. Each lookup sends its misses, as
limits rows, to one solve_allocations call against the period's cost and
cap vectors. A network table for the sweep looks up one action at a time,
over the states where the action below it was feasible. At a policy's
actions, a network lookup takes every (realization, state) of a stage (the
period's realizations with the same spot rates) at once, each row at its
state's action, and computes the successors over (realizations, states). A
single-lane table looks up every action at once at unclipped bounds (a, a),
since its cost depends only on the action and the spot rates, and
broadcasts it over the states, whose feasibility and successors are clip
arithmetic over a broadcast action grid. rollout reads each step's cost and
lane totals through the same memo, so an on-sample step solves nothing.

solve_expected's policy keeps the kernel that built it (PolicyTable.kernel).
evaluate_policy and rollout reuse that kernel, memo included, when they are
called with the instance and plan it was built for, and build a new one
otherwise; solve_scenario's policies carry none.

The module returns tables and trajectories; the CLI (drayage solve-policy)
writes them as CSV.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .alloc import (
    allocation_layout,
    holding_cost,
    lane_costs,
    lane_flows,
    lane_totals,
    solve_allocations,
    transition,
)
from .model import (
    CapacityPlan,
    CostSpec,
    ExogenousRealization,
    Instance,
    Scenario,
    SystemState,
)
from .scenario import SampleSet


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
    shape: Tuple[int, ...]
    exit_offsets: Tuple[int, ...]

    @staticmethod
    def for_instance(instance: Instance) -> "StateIndexer":
        b = instance.bounds
        entries = instance.network.entries
        exits = instance.network.exits
        return StateIndexer(
            entry_ids=entries,
            exit_ids=exits,
            shape=tuple(b.entry_max[i] + 1 for i in entries)
            + tuple(b.exit_backorder_max[j] + b.exit_max[j] + 1 for j in exits),
            exit_offsets=tuple(b.exit_backorder_max[j] for j in exits),
        )

    @property
    def n_states(self) -> int:
        return math.prod(self.shape)

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


@dataclass
class PolicyTable:
    """Action per period and state.

    ``kernel`` is the stage-table kernel of the solve_expected call that made
    the policy (None otherwise). It keeps that call's allocation memo alive
    for evaluate_policy and rollout to read. Clearing the memo frees
    (tracemalloc, started before the solve) about 310 B per entry on the
    network-policy benchmark instance (534 entries) and 470 B on a generated
    2 x 2 network (12,679 entries); a bundled single-lane example holds 88.
    """

    horizon: int
    indexer: StateIndexer
    actions: np.ndarray  # shape (horizon, n_states), int
    kernel: Optional["_StageTables"] = field(default=None, repr=False, compare=False)

    def action(self, period: int, state: SystemState) -> int:
        if not 1 <= period <= self.horizon:
            raise UndefinedPolicyState(f"no policy for period {period}")
        return int(self.actions[period - 1, self.indexer.index_of(state)])


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


# ---------------------------------------------------------------------------
# Stage tables

PeriodData = Sequence[Tuple[ExogenousRealization, float]]  # (realization, weight)
TABLE_BYTES = 1 << 22  # bytes of stage tables built at once (_StageTables.stage_rows)


def _unique_rows(rows: np.ndarray, a: int) -> Tuple[np.ndarray, np.ndarray]:
    """np.unique(rows, axis=0, return_inverse=True) for integer rows in 0..a.

    Each row is read as one number in base (the rows' largest value) + 1,
    first column most significant, so the codes sort as the rows do
    lexicographically. Where those numbers would not fit in int64,
    np.unique(axis=0) sorts the rows themselves, to the same rows and inverse.
    """
    low, high = (int(rows.min()), int(rows.max())) if rows.size else (0, 0)
    if not 0 <= low <= high <= a:
        raise ValueError(f"clipped bounds outside 0..{a}")
    base = high + 1
    if base ** rows.shape[1] > 2**63:
        found, inv = np.unique(rows, axis=0, return_inverse=True)
        return found, inv.reshape(-1)
    codes = rows @ base ** np.arange(rows.shape[1] - 1, -1, -1)
    _, first, inv = np.unique(codes, return_index=True, return_inverse=True)
    return rows[first], inv


class _StageTables:
    """The Bellman kernel (see the module docstring) for one instance and plan.

    ``tables(t, zs)`` returns ``cost[k, a, s]`` (inf = no allocation, so the
    finite part of column s is the state's feasible action set under zs[k])
    and ``next[k, a, s]``; ``tables(t, zs, actions)`` returns only each
    state's entry at its own action, ``cost[k, s]`` and ``next[k, s]``;
    ``stage_rows`` reads either realization by realization, in bounded chunks.
    ``allocation(t, a, state, z)`` returns one state's allocation cost and
    lane totals. The memo keeps each allocation's moves per lane, in the
    order each lane first appears in the layout's keys (``_lanes``), the
    order alloc.lane_totals sums them in. ``hold`` and ``terminal`` are every
    state's holding_cost and terminal_value, derived on first use (a rollout
    reads neither). ``lane`` is the (entry, exit) pair of a single-lane
    instance (None on networks) and selects the table's arithmetic.

    The allocation LP is laid out by alloc.allocation_layout, in ascending
    id order whatever order the network lists its locations in: the
    tableau's row order picks among cost-tied vertices. ValueError unless
    the plan covers every source and period.
    """

    def __init__(self, instance: Instance, plan: CapacityPlan):
        self.instance = instance
        self.plan = plan
        self.indexer = idx = StateIndexer.for_instance(instance)
        self.n_actions = instance.bounds.action_max + 1
        net = instance.network
        one_lane = len(net.entries) == len(net.exits) == 1
        self.lane = (net.entries[0], net.exits[0]) if one_lane else None
        digits = np.array(np.unravel_index(np.arange(idx.n_states), idx.shape)).T
        ne = len(idx.entry_ids)
        b = instance.bounds
        self._e_max = np.array([b.entry_max[i] for i in idx.entry_ids])
        self._x_max = np.array([b.exit_max[j] for j in idx.exit_ids])
        self._back = np.array(idx.exit_offsets)
        # each digit's place value in a state index
        self._radix = np.array([math.prod(idx.shape[k + 1 :]) for k in range(len(idx.shape))])
        self.entry = digits[:, :ne]
        self.exit = digits[:, ne:] - self._back
        self._spot_lanes = [(s.id, lane) for s in instance.spot_sources for lane in s.lanes]
        self._keys, self._sources, self._cols = allocation_layout(
            [(s.id, lane) for s in instance.sources for lane in s.lanes],
            [s.id for s in instance.sources], idx.entry_ids, idx.exit_ids)
        # takes a memo row (volume, then limits in indexer order) to the layout's id order
        self._order = np.concatenate([[0], 1 + np.argsort(idx.entry_ids),
                                      1 + ne + np.argsort(idx.exit_ids)])
        for k in self._sources:
            have = len(plan.capacity.get(k, ()))
            if have < instance.horizon:
                raise ValueError(f"plan has no capacity for source {k} in period {have + 1}")
        self._lanes = tuple(dict.fromkeys(lane for _, lane in self._keys))
        self._memo: Dict[Tuple, Tuple[Tuple[float, ...], Tuple[float, ...]]] = {}
        self._stages: Dict[Tuple, Tuple] = {}

    @cached_property
    def _state_rows(self) -> Tuple[np.ndarray, np.ndarray]:
        """holding_cost and terminal_value of every state, in one pass over
        the states (building them costs more than both rules)."""
        costs, states = self.instance.costs, self.indexer.all_states()
        return (np.array([holding_cost(s, costs) for s in states]),
                np.array([terminal_value(s, costs) for s in states]))

    @property
    def hold(self) -> np.ndarray:
        return self._state_rows[0]

    @property
    def terminal(self) -> np.ndarray:
        return self._state_rows[1]

    def tables(
        self, t: int, zs: Sequence[ExogenousRealization], actions: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Stage tables of period t under each z of zs: cost and next as two
        (len(zs), n_actions, n_states) arrays, or, given each state's action
        ``actions[s]`` (in 0..n_actions-1), two (len(zs), n_states) arrays
        of each state's entry at its action."""
        stages = [self._stage(t, z) for z in zs]
        if self.lane is None:
            if actions is not None:
                return self._network_at(t, zs, stages, actions)
            cost, nxt = zip(*(self._network_table(t, z, stage) for z, stage in zip(zs, stages)))
            return np.array(cost), np.array(nxt)
        costs = {rates: self._lane_costs(t, stage)
                 for rates, stage in {stage[0]: stage for stage in stages}.items()}
        a = np.arange(self.n_actions)[:, None] if actions is None else actions
        i, j = self.lane
        flows = (len(zs),) + (1,) * a.ndim  # realizations lead, a's shape follows
        q = np.array([z.inflow[i] for z in zs]).reshape(flows)
        d = np.array([z.outflow[j] for z in zs]).reshape(flows)
        feasible, nxt = self._lane_moves(a, q, d)
        cost = np.array([costs[stage[0]] for stage in stages])[:, a]
        return np.where(feasible, cost, np.inf), nxt

    def stage_rows(self, t: int, data: PeriodData, actions: Optional[np.ndarray] = None):
        """(weight, cost, next) of each (realization, weight) of data, in
        order: tables(t, zs, actions) read realization by realization. The
        tables are built for chunks of realizations of at most TABLE_BYTES
        (at least one realization; 16 bytes per entry, or per state and
        limits-row column at actions), so a period's tables never all exist
        at once."""
        width = self.n_actions if actions is None else len(self.indexer.shape) + 1
        step = max(1, TABLE_BYTES // (16 * width * self.indexer.n_states))
        for lo in range(0, len(data), step):
            part = data[lo : lo + step]
            yield from zip([w for _, w in part], *self.tables(t, [z for z, _ in part], actions))

    def _stage(self, t: int, z: ExogenousRealization):
        """The memo's inputs for period t under z: (spot rates, cost per
        column, cap per source), built once per period and spot rates, which
        the memo's keys already take to fix the costs."""
        rates = tuple(z.spot_rates[s][lane] for s, lane in self._spot_lanes)
        stage = self._stages.get((t, rates))
        if stage is None:
            costs = lane_costs(self.instance, z, t)
            stage = self._stages[t, rates] = (
                rates,
                np.array([costs[key] for key in self._keys]),
                np.array([float(self.plan.capacity[k][t - 1]) for k in self._sources]),
            )
        return stage

    def _lane_costs(self, t, stage) -> np.ndarray:
        """The transport cost of every action on the one lane, through the
        memo: bounds of at least a never bind, so the key (a, a) serves every
        state with that much stock and space, and _lane_moves masks the others."""
        solved = self._solve(t, [(a, (a, a)) for a in range(self.n_actions)], stage)
        return np.array([flows[0] for flows, _ in solved])

    def _lane_moves(self, a, q, d) -> Tuple[np.ndarray, np.ndarray]:
        """Feasibility and next-state index of moving a on the one lane from
        every state under inflow q and outflow d, broadcast against the states: an
        (n_actions, 1) grid with (len(zs), 1, 1) flows, or (n_states,) with (len(zs), 1)."""
        # np.int64 bounds: a Python int bound makes np.clip on integers slower
        e_max, x_max, back = self._e_max[0], self._x_max[0], self._back[0]
        e, s = self.entry[:, 0], self.exit[:, 0]
        e_next = np.clip(e - a + q, np.int64(0), e_max)
        s_next = np.clip(s + a - d, -back, x_max) + back
        feasible = (a <= e + q) & (a <= x_max - s)
        return feasible, e_next * self.indexer.shape[1] + s_next

    def _network_table(self, t, z, stage):
        """One network stage table under z, as tables() returns it for one z.
        A sweep tries a only where a - 1 was feasible (feasibility is
        monotone in a)."""
        n = self.indexer.n_states
        q = np.array([z.inflow[i] for i in self.indexer.entry_ids])
        d = np.array([z.outflow[j] for j in self.indexer.exit_ids])
        # action (set per a below) | avail | space
        bounds = np.hstack([np.zeros((n, 1), dtype=int), self.entry + q, self._x_max - self.exit])
        cost = np.full((self.n_actions, n), np.inf)
        nxt = np.zeros((self.n_actions, n), dtype=int)
        alive = np.arange(n)
        for a in range(self.n_actions):
            if not alive.size:
                break
            rows = np.minimum(bounds[alive], a)
            rows[:, 0] = a
            sols = self._flows(t, rows, stage)
            ok = np.isfinite(sols[:, 0])
            alive, sols = alive[ok], sols[ok]
            cost[a, alive] = sols[:, 0]
            nxt[a, alive] = self._next_index(self.entry[alive], self.exit[alive], sols, q, d)
        return cost, nxt

    def _network_at(self, t, zs, stages, actions):
        """The network tables at each state's own action, as tables(t, zs,
        actions) returns them. Per stage (spot rates), the limits rows of
        every (realization, state) of its realizations, each at the state's
        action, go through one memo lookup, and the transitions are computed
        over (realizations, states) at once."""
        idx = self.indexer
        n, ne, nx = idx.n_states, len(idx.entry_ids), len(idx.exit_ids)
        q = np.array([[z.inflow[i] for i in idx.entry_ids] for z in zs]).reshape(-1, 1, ne)
        d = np.array([[z.outflow[j] for j in idx.exit_ids] for z in zs]).reshape(-1, 1, nx)
        acts = actions[:, None]
        space = np.minimum(self._x_max - self.exit, acts)  # the same under every z
        cost = np.full((len(zs), n), np.inf)
        nxt = np.zeros((len(zs), n), dtype=int)
        by_stage: Dict[Tuple, List[int]] = {}
        for k, stage in enumerate(stages):
            by_stage.setdefault(stage[0], []).append(k)
        for ks in by_stage.values():
            m = len(ks)
            rows = np.concatenate([
                np.broadcast_to(acts, (m, n, 1)),
                np.minimum(self.entry + q[ks], acts),
                np.broadcast_to(space, (m, n, nx)),
            ], axis=2)
            sols = self._flows(t, rows.reshape(m * n, -1), stages[ks[0]]).reshape(m, n, -1)
            cost[ks] = sols[..., 0]  # inf where no allocation exists
            at = self._next_index(self.entry, self.exit, sols, q[ks], d[ks])
            nxt[ks] = np.where(np.isfinite(sols[..., 0]), at, 0)
        return cost, nxt

    def _flows(self, t, rows, stage) -> np.ndarray:
        """(cost, moves out of each entry, moves into each exit) of each
        limits row (action, clipped availability and space) in period t,
        through the memo: the distinct rows go to one _solve call."""
        found, inv = _unique_rows(rows, self.n_actions - 1)
        solved = self._solve(t, [(row[0], row[1:]) for row in found.tolist()], stage)
        return np.array([flows for flows, _ in solved])[inv]

    def _next_index(self, entry, exit, sols, q, d) -> np.ndarray:
        """alloc.transition's arithmetic, vectorized: the index of the state
        reached from (entry, exit) stocks after the moves of sols (as
        _flows returns them) and inflow q and outflow d, broadcast together."""
        ne = len(self.indexer.entry_ids)
        back = self._back
        e_next = np.rint(np.clip(entry - sols[..., 1 : 1 + ne] + q, 0.0, self._e_max))
        x_next = np.rint(np.clip(exit + sols[..., 1 + ne :] - d, -back, self._x_max))
        return np.concatenate([e_next, x_next + back], axis=-1).astype(int) @ self._radix

    def allocation(self, t: int, a: int, state: SystemState, z: ExogenousRealization):
        """(cost, lane totals) of moving a units at ``state`` under z in
        period t, through the memo; the cost is inf when no allocation exists."""
        idx, b = self.indexer, self.instance.bounds
        row = [min(state.entry_stock[i] + z.inflow[i], a) for i in idx.entry_ids]
        row += [min(b.exit_max[j] - state.exit_stock[j], a) for j in idx.exit_ids]
        (flows, totals), = self._solve(t, [(a, row)], self._stage(t, z))
        return flows[0], dict(zip(self._lanes, totals))

    def _solve(self, t, problems, stage):
        """((cost, moves out of each entry, moves into each exit), moves per
        lane in _lanes order) of each (action, clipped row) in period t,
        through the memo; all the misses go to one solve_allocations call,
        one (action, *clipped row) limits row each, whatever their actions.

        When no allocation exists the cost is inf, every flow 0.0 and the
        lane totals empty.
        """
        rates, costs, caps = stage
        memo = self._memo
        keys = [(t, a, tuple(row), rates) for a, row in problems]
        miss = [key for key in keys if key not in memo]
        if miss:
            idx = self.indexer
            limits = np.array([(a, *row) for _, a, row, _ in miss], dtype=float)[:, self._order]
            cost, moves = solve_allocations(costs, caps, self._cols, limits)
            totals = lane_totals(self._keys, moves.T)
            out, into = lane_flows(totals)
            zero = np.zeros(len(miss))
            flows = np.column_stack([cost] + [out.get(i, zero) for i in idx.entry_ids]
                                    + [into.get(j, zero) for j in idx.exit_ids])
            per_lane = np.column_stack(list(totals.values()))
            infeasible = ((np.inf,) + (0.0,) * (flows.shape[1] - 1), ())  # shared by the batch
            for key, f, m, ok in zip(miss, flows.tolist(), per_lane.tolist(), cost < np.inf):
                memo[key] = (tuple(f), tuple(m)) if ok else infeasible
        return [memo[key] for key in keys]


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


def _sweep(instance, per_period, plan):
    """Backward induction over the stage tables.

    An action is kept at a state only if it is allocatable under every
    realization of the period (feasibility is monotone in the action, so the
    kept set is {0..A*}). The scan over the kept actions moves to a larger
    one only on a gain above 1e-12: exact ties keep the smallest action, and
    LP round-off never decides a tie. Returns the value and policy tables
    and the kernel that filled them.
    """
    _check_periods(instance, per_period)
    kernel = _StageTables(instance, plan)
    indexer = kernel.indexer
    tau, n, n_act = instance.horizon, indexer.n_states, kernel.n_actions
    values = np.empty((tau + 1, n))
    values[tau] = kernel.terminal
    actions = np.zeros((tau, n), dtype=int)

    for t in range(tau, 0, -1):
        acc = np.zeros((n_act, n))
        ok = np.ones((n_act, n), dtype=bool)
        for w, cost, nxt in kernel.stage_rows(t, per_period[t - 1]):
            finite = np.isfinite(cost)
            ok &= finite
            acc += w * (-np.where(finite, cost, 0.0) + values[t][nxt])
        del cost, nxt  # views of the last chunk's tables: free them before the next period's
        ok = np.logical_and.accumulate(ok, axis=0)
        best_v = np.full(n, -np.inf)
        best_a = np.zeros(n, dtype=int)
        for a in range(n_act):
            better = ok[a] & (acc[a] > best_v + 1e-12)
            best_v = np.where(better, acc[a], best_v)
            best_a[better] = a
        values[t - 1] = -kernel.hold + best_v
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
    values, policy, kernel = _sweep(instance, sample.distinct(instance), plan)
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

    Reads the stage tables at the policy's actions, one pass per period over
    all of its realizations. Those come from the allocation memo of the
    policy's kernel when the policy was solved by solve_expected for this
    instance and plan (on the policy's own sample no allocation is solved
    again); otherwise from a new kernel.
    Raises UndefinedPolicyState when an action is not allocatable under some
    realization of its period.
    """
    per_period = sample.distinct(instance)
    _check_periods(instance, per_period)
    kernel = _policy_kernel(policy, instance, plan)
    indexer = kernel.indexer
    tau, n = instance.horizon, indexer.n_states
    if policy.actions.shape != (tau, n):
        raise ValueError(f"policy table shape {policy.actions.shape}, expected {(tau, n)}")
    values = np.empty((tau + 1, n))
    values[tau] = kernel.terminal
    for t in range(tau, 0, -1):
        acts = policy.actions[t - 1]
        at = np.clip(acts, np.int64(0), np.int64(kernel.n_actions - 1))
        defined = np.ones(n, dtype=bool)
        # in realization order after the holding cost; np.sum would move the last bits
        total = -kernel.hold
        for w, cost, nxt in kernel.stage_rows(t, per_period[t - 1], at):
            defined &= np.isfinite(cost)
            total = total + w * (-cost + values[t][nxt])
        undefined = (acts < 0) | (acts >= kernel.n_actions) | ~defined
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
    this instance and plan (so an on-sample step solves nothing),
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
        cost, totals = kernel.allocation(t, a, state, z)
        if cost == np.inf:
            raise UndefinedPolicyState(
                f"policy action {a} infeasible at period {t} state {state}"
            )
        imm = holding_cost(state, instance.costs) + cost
        nxt = transition(state, totals, z, instance.bounds)
        steps.append(TrajectoryStep(t, state, a, totals, imm, nxt))
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


def value_surface(table: ValueTable, period: int) -> ValueSurface:
    """Entry x exit value grid for one period (single-location only)."""
    idx = table.indexer
    if len(idx.entry_ids) != 1 or len(idx.exit_ids) != 1:
        raise ValueError("value surface requires one entry and one exit")
    ne, ns = idx.shape
    if not 1 <= period <= table.horizon + 1:
        raise ValueError(f"period {period} outside 1..{table.horizon + 1}")
    grid = table.values[period - 1].reshape(ne, ns)
    return ValueSurface(
        period=period,
        entry_levels=np.arange(ne),
        exit_levels=np.arange(ns) - idx.exit_offsets[0],
        values=grid.copy(),
    )
