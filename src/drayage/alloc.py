"""Per-period allocation, its rates, and the state transition.

lane_costs is the one rule for a source's $/TEU on a lane in a period; the
DP's allocation problems and mslp.build_mslp both price moves with it.

The allocation problem distributes a total move volume A_t across (source,
lane) pairs at minimal cost subject to: total volume matches A_t, per-source
capacity, per-entry availability (current stock plus inflow), per-exit space
(storage bound minus current stock), and nonnegativity. Infeasibility is a
signal: the action A_t is excluded from the feasible action set rather than
penalized; the DP's stage tables (dp._StageTables) decide that set.
Single-lane problems have a closed form (split_volume), the rest a dense
tableau (tableau_simplex). Infeasibility of the rest is decided first from
the summed limits of each constraint family (source caps, entry
availability, exit space): each family holds every (source, lane) column in
at most one row, so a volume above a covering family's sum cannot be moved.
The problems that pass go to the tableau, whose phase 1 decides. Its fixed
pivot rule decides which cost-tied allocation, and so which next state, the
DP sees; that, not speed, is why it stays (one reused lp.HighsModel solves
these LPs faster, at other vertices).

The state transition applies the per-lane move totals and the realized
inflows/outflows, clamping to the stock bounds. Excess inflow above an entry
bound is lost without penalty; this closes a gap the underlying model leaves
open and is a deliberate design decision.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .model import (
    Bounds,
    CapacityPlan,
    CostSpec,
    ExogenousRealization,
    Instance,
    Lane,
    SPOT,
    SystemState,
)


class Infeasible:
    """Marker: no allocation satisfies the constraints at this action."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "Infeasible"


INFEASIBLE = Infeasible()


@dataclass(frozen=True)
class AllocationProblem:
    total_volume: float
    lane_costs: Dict[Tuple[int, Lane], float]  # (source id, lane) -> $/TEU
    source_caps: Dict[int, float]
    entry_available: Dict[int, float]
    exit_space: Dict[int, float]


@dataclass(frozen=True)
class Allocation:
    moves: Dict[Tuple[int, Lane], float]
    cost: float

    def lane_totals(self) -> Dict[Lane, float]:
        out: Dict[Lane, float] = {}
        for (_, lane), m in self.moves.items():
            out[lane] = out.get(lane, 0.0) + m
        return out


def holding_cost(state: SystemState, costs: CostSpec) -> float:
    """sum_i CW_i*S_i + sum_j (CD_j*max(S_j,0) + CB_j*(-min(S_j,0)))."""
    total = 0.0
    for i, s in state.entry_stock.items():
        total += costs.entry_holding[i] * s
    for j, s in state.exit_stock.items():
        if s >= 0:
            total += costs.exit_holding[j] * s
        else:
            total += costs.exit_backorder[j] * (-s)
    return total


def split_volume(
    total: float, caps: List[float], rates: List[float]
) -> Optional[Tuple[float, List[float]]]:
    """Cheapest-first split of a volume across sources sharing one lane.

    Returns (cost, per-source moves) or None when total exceeds the summed
    caps. Rate ties break toward the earlier source, matching the sorted
    variable order the simplex would use.
    """
    if total > sum(caps) + 1e-9:
        return None
    order = sorted(range(len(caps)), key=lambda k: (rates[k], k))
    left = total
    moves = [0.0] * len(caps)
    cost = 0.0
    for k in order:
        take = min(left, caps[k])
        moves[k] = take
        cost += take * rates[k]
        left -= take
        if left <= 1e-12:
            break
    return cost, moves


EPS = 1e-9


def _pivot(T: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    other = T[:, col].copy()
    other[row] = 0.0
    T -= np.outer(other, T[row])


def tableau_simplex(c, A_eq, b_eq, A_ub, b_ub) -> Optional[np.ndarray]:
    """Minimize c'x s.t. A_eq x = b_eq, A_ub x <= b_ub, x >= 0; None if infeasible.

    Two-phase dense tableau over [x | slacks | artificials]. Pricing is
    Dantzig (most improving reduced cost) until a run of degenerate pivots
    suggests cycling, then Bland (lowest index) until the objective moves
    again; the ratio test breaks ties toward the lowest basic variable index.
    The pivot sequence is deterministic, so repeated solves of the same data
    return the same vertex. Raises RuntimeError on an unbounded objective,
    which a volume-matching allocation LP never has.
    """
    c = np.asarray(c, dtype=float)
    n, n_ub = c.size, len(b_ub)
    A = np.vstack([
        np.hstack([np.reshape(A_ub, (n_ub, n)), np.eye(n_ub)]),
        np.hstack([np.reshape(A_eq, (len(b_eq), n)), np.zeros((len(b_eq), n_ub))]),
    ])
    b = np.concatenate([b_ub, b_eq]).astype(float)
    neg = b < 0  # normalize to b >= 0 so the artificial start is feasible
    A[neg] *= -1.0
    b[neg] *= -1.0
    m = A.shape[0]
    ns = n + n_ub  # structural + slack count
    T = np.hstack([A, np.eye(m)])
    basis = np.arange(ns, ns + m)
    basic = np.arange(ns + m) >= ns
    xval = np.r_[np.zeros(ns), b]

    def run_phase(cost, allowed):
        """Pivot until no allowed column improves cost; False if unbounded."""
        stalled = 0
        for _ in range(50000):
            gain = -(cost - cost[basis] @ T)  # minus the reduced costs
            gain[basic | ~allowed] = -np.inf
            if stalled < 40:
                enter = int(np.argmax(gain))
            else:  # Bland fallback: first improving index
                improving = gain > EPS
                enter = int(np.argmax(improving)) if improving.any() else 0
            if gain[enter] <= EPS:
                return True
            col = T[:, enter]
            up = col > EPS
            ratios = np.full(len(basis), np.inf)
            ratios[up] = np.maximum(xval[basis][up] / col[up], 0.0)
            step = ratios.min(initial=np.inf)
            if not np.isfinite(step):
                return False
            cand = np.where(ratios <= step + EPS)[0]
            leave_row = int(cand[np.argmin(basis[cand])])
            stalled = stalled + 1 if step <= EPS else 0
            xval[basis] -= step * col
            xval[enter] = step
            out = basis[leave_row]
            xval[out] = 0.0
            basic[out], basic[enter] = False, True
            basis[leave_row] = enter
            _pivot(T, leave_row, enter)
        raise RuntimeError("simplex iteration limit exceeded")

    # Phase 1: drive the artificials to zero.
    run_phase(np.r_[np.zeros(ns), np.ones(m)], np.ones(ns + m, dtype=bool))
    if xval[ns:].sum() > 1e-7:
        return None

    # Pivot out artificials left basic at level zero; drop redundant rows.
    keep = np.ones(m, dtype=bool)
    for i in range(m):
        if basis[i] >= ns:
            cols = np.flatnonzero(~basic[:ns] & (np.abs(T[i, :ns]) > 1e-7))
            if not cols.size:
                keep[i] = False
                continue
            j = int(cols[0])
            xval[basis[i]] = 0.0
            basic[basis[i]], basic[j] = False, True
            basis[i] = j
            _pivot(T, i, j)
    T, basis = T[keep], basis[keep]

    # Phase 2 over structural and slack columns only.
    if not run_phase(np.r_[c, np.zeros(n_ub + m)], np.arange(ns + m) < ns):
        raise RuntimeError("allocation LP unbounded")
    return np.clip(xval[:n], 0.0, np.inf)


def solve_allocation(problem: AllocationProblem):
    """Cost-minimal feasible allocation, or INFEASIBLE.

    Single-lane problems use a closed-form greedy fill; general problems go
    through tableau_simplex. A general problem whose volume exceeds, by more
    than 1e-7, the summed limits of a constraint family that covers every
    (source, lane) column (every source capped, or every lane's entry or
    exit given a limit) is INFEASIBLE without a tableau: phase 1 would reject
    it at that margin. Otherwise phase 1 decides. The simplex sees entry
    availability and exit space clipped to the total volume: no lane can
    carry more, so the feasible set is the same, and among cost-tied
    allocations the one returned then depends only on the clipped problem.
    The DP's stage tables rely on this to share one solve between all states
    with equal clipped bounds.
    """
    A = float(problem.total_volume)
    keys = sorted(problem.lane_costs.keys())
    if A <= 1e-12:
        feasible = all(v >= 0 for v in problem.entry_available.values()) and all(
            v >= 0 for v in problem.exit_space.values()
        )
        if not feasible:
            return INFEASIBLE
        return Allocation({k: 0.0 for k in keys}, 0.0)

    lanes = {lane for (_, lane) in keys}
    if len(lanes) == 1:
        (lane,) = lanes
        i, j = lane
        if A > problem.entry_available.get(i, 0.0) + 1e-9:
            return INFEASIBLE
        if A > problem.exit_space.get(j, 0.0) + 1e-9:
            return INFEASIBLE
        caps = [problem.source_caps[k] for (k, _) in keys]
        rates = [problem.lane_costs[key] for key in keys]
        split = split_volume(A, caps, rates)
        if split is None:
            return INFEASIBLE
        cost, moves = split
        return Allocation({key: m for key, m in zip(keys, moves)}, cost)

    # General case: one variable per (source, lane), one 0/1 row per source
    # cap, entry availability and exit space (the last two clipped to A).
    # A family whose rows cover every column bounds sum(x) = A by its summed
    # limits; phase 1 would leave at least the excess in its artificials and
    # reject above 1e-7, so the same margin answers such a problem here.
    locs = [(k, i, j) for (k, (i, j)) in keys]
    families = (
        (0, problem.source_caps, np.inf),
        (1, problem.entry_available, A),
        (2, problem.exit_space, A),
    )
    for col, limits, most in families:
        used = {loc[col] for loc in locs}
        if used <= limits.keys():
            if A > sum(min(limits[loc], most) for loc in sorted(used)) + 1e-7:
                return INFEASIBLE
    c = np.array([problem.lane_costs[k] for k in keys])
    where = np.array(locs)
    rows, rhs = [], []
    for col, limits, most in families:
        for loc, limit in sorted(limits.items()):
            row = (where[:, col] == loc).astype(float)
            if row.any():
                rows.append(row)
                rhs.append(min(limit, most))
    x = tableau_simplex(c, np.ones((1, len(keys))), np.array([A]), rows, rhs)
    if x is None:
        return INFEASIBLE
    return Allocation({k: float(v) for k, v in zip(keys, x)}, float(c @ x))


def lane_costs(
    instance: Instance, realization: ExogenousRealization, period: int = 1
) -> Dict[Tuple[int, Lane], float]:
    """$/TEU per (source id, lane) in one period (1-based)."""
    out: Dict[Tuple[int, Lane], float] = {}
    for s in instance.sources:
        for lane in s.lanes:
            if s.kind == SPOT:
                out[(s.id, lane)] = realization.spot_rates[s.id][lane]
            else:
                out[(s.id, lane)] = s.execution_cost[lane][period - 1]
    return out


def build_problem(
    state: SystemState,
    action: float,
    realization: ExogenousRealization,
    caps: Dict[int, float],
    instance: Instance,
    period: int = 1,
) -> AllocationProblem:
    """Assemble the allocation problem for one period (1-based): the
    state-level reference the tests check the DP's stage tables against (the
    package itself has no caller)."""
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


def lane_flows(
    lane_totals: Dict[Lane, float]
) -> Tuple[Dict[int, float], Dict[int, float]]:
    """Moves out of each entry and into each exit (locations without a move are absent)."""
    out_by_entry: Dict[int, float] = {}
    in_by_exit: Dict[int, float] = {}
    for (i, j), m in lane_totals.items():
        out_by_entry[i] = out_by_entry.get(i, 0.0) + m
        in_by_exit[j] = in_by_exit.get(j, 0.0) + m
    return out_by_entry, in_by_exit


def transition(
    state: SystemState,
    lane_totals: Dict[Lane, float],
    realization: ExogenousRealization,
    bounds: Bounds,
) -> SystemState:
    """Apply moves and flows, clamping each stock into its bounds."""
    out_by_entry, in_by_exit = lane_flows(lane_totals)
    entry = {}
    for i, s in state.entry_stock.items():
        raw = s - out_by_entry.get(i, 0.0) + realization.inflow[i]
        entry[i] = int(round(min(max(raw, 0.0), bounds.entry_max[i])))
    exit_ = {}
    for j, s in state.exit_stock.items():
        raw = s + in_by_exit.get(j, 0.0) - realization.outflow[j]
        lo, hi = -bounds.exit_backorder_max[j], bounds.exit_max[j]
        exit_[j] = int(round(min(max(raw, lo), hi)))
    return SystemState(entry, exit_)


def plan_caps_at(plan: CapacityPlan, period: int) -> Dict[int, float]:
    """Per-source capacity column for a 1-based period."""
    return {k: v[period - 1] for k, v in plan.capacity.items()}
