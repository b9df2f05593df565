"""Per-period allocation, its rates, and the state transition.

lane_costs is the one rule for a source's $/TEU on a lane in a period; the
DP's allocation problems and mslp.build_mslp both price moves with it.

The allocation problem distributes a total move volume A_t across (source,
lane) pairs at minimal cost subject to: total volume matches A_t, per-source
capacity, per-entry availability (current stock plus inflow), per-exit space
(storage bound minus current stock), and nonnegativity. Infeasibility is a
signal: the action A_t is excluded from the feasible action set rather than
penalized; the DP's stage tables (dp._StageTables) decide that set.
Every problem, on one lane or many, is decided the same way. Infeasibility
is decided first from the summed limits of each constraint family (source
caps, entry availability, exit space): each family holds every (source,
lane) column in at most one row, so a volume above a covering family's sum
cannot be moved. The problems that pass go to a dense tableau
(tableau_simplex), whose phase 1 decides. Its fixed pivot rule decides
which cost-tied allocation, and so which next state, the DP sees; that, not
speed, is why it stays (one reused lp.HighsModel solves these LPs faster, at
other vertices).
solve_allocations(problem, limits) answers one problem at each row of a
matrix of (volume, availability, space) limits, as the DP's states and
actions need, so a batch shares costs and caps by construction. The tableau
pivots the rows in lockstep, each on its own tableau and basis, so every row
gets the vertex it gets alone, bit for bit. solve_allocation is a batch of
one.

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


EPS = 1e-9


def _pivot(T: np.ndarray, k: np.ndarray, rows: np.ndarray, col: np.ndarray) -> None:
    """Pivot each stacked tableau T[k] on row rows[k] of its entering column,
    whose entries before the pivot are col[k] (col is overwritten)."""
    piv = T[k, rows] / col[k, rows][:, None]
    T[k, rows] = piv
    col[k, rows] = 0.0
    T -= col[:, :, None] * piv[:, None, :]


def _run_phase(T, basis, xb, cost) -> np.ndarray:
    """Pivot each problem until no column improves its cost.

    A column whose cost is inf never enters. The stacked tableaus, bases
    and basic values (xb, by row) are updated in place. Returns a mask that
    is False where a problem's objective is unbounded. A problem leaves the
    batch when it stops; the others go on pivoting.
    """
    live = np.arange(len(T))
    bounded = np.ones(len(T), dtype=bool)
    moved = np.full(len(T), -1)  # the last iteration whose pivot moved the objective
    t, bas, xv = T, basis, xb  # the live problems' rows
    k = np.arange(len(T))
    for it in range(50000):
        # Minus the reduced costs; a stacked matmul is bit-equal to each 1-D
        # v @ T. A basic column stays an exact unit vector, so its gain is
        # exactly 0 and it never enters. Columns that cost inf gain -inf.
        gain = np.matmul(cost[bas[:, None, :]], t)[:, 0] - cost
        enter = gain.argmax(axis=1)  # Dantzig
        if it >= 40 and it - 1 - moved.min() >= 40:  # Bland after 40 stalled pivots
            enter = np.where(it - 1 - moved < 40, enter, (gain > EPS).argmax(axis=1))
        col = t[k, :, enter]
        ratios = np.divide(xv, col, out=np.full(col.shape, np.inf), where=col > EPS)
        np.maximum(ratios, 0.0, out=ratios)
        step = ratios.min(axis=1)
        best = gain[k, enter]
        if best.min() <= EPS or step.max() == np.inf:
            go = (best > EPS) & (step < np.inf)
            stop = ~go
            bounded[live[stop & (best > EPS)]] = False
            done = live[stop]
            T[done], basis[done], xb[done] = t[stop], bas[stop], xv[stop]
            live, t, bas, xv = live[go], t[go], bas[go], xv[go]
            if not live.size:
                return bounded
            k, moved, enter = k[: live.size], moved[go], enter[go]
            col, ratios, step = col[go], ratios[go], step[go]
        # ratio-test ties go to the lowest basic variable index
        leave = np.where(ratios <= step[:, None] + EPS, bas, cost.size).argmin(axis=1)
        moved[step > EPS] = it
        xv -= step[:, None] * col
        xv[k, leave] = step
        bas[k, leave] = enter
        _pivot(t, k, leave, col)
    raise RuntimeError("simplex iteration limit exceeded")


def tableau_simplex(c, A_eq, b_eq, A_ub, b_ub) -> List[Optional[np.ndarray]]:
    """Minimize c'x s.t. A_eq x = b_eq[k], A_ub x <= b_ub[k], x >= 0, for each k.

    A batch of LPs that share costs and matrices: b_eq and b_ub hold one row
    of right-hand sides per problem. Returns one x per problem, None where
    it is infeasible. Two-phase dense tableau over [x | slacks |
    artificials]. Pricing is Dantzig (most improving reduced cost) until a
    run of degenerate pivots suggests cycling, then Bland (lowest index)
    until the objective moves again; the ratio test breaks ties toward the
    lowest basic variable index. The pivot sequence is deterministic, so
    repeated solves of the same data return the same vertex. The problems
    pivot in lockstep, each on its own tableau, basis and stall count: every
    step is elementwise or a comparison within one problem, so a problem
    gets the same vertex, bit for bit, in any batch. Raises RuntimeError on
    an unbounded objective, which a volume-matching allocation LP never has.
    """
    c = np.asarray(c, dtype=float)
    b = np.concatenate([np.asarray(b_ub, dtype=float), np.asarray(b_eq, dtype=float)], axis=1)
    (K, m), n = b.shape, c.size
    if not K:
        return []
    n_ub = np.shape(b_ub)[1]
    ns = n + n_ub  # structural + slack count
    N = ns + m
    A = np.zeros((m, N))
    A[:n_ub, :n] = np.reshape(A_ub, (n_ub, n))
    A[n_ub:, :n] = np.reshape(A_eq, (m - n_ub, n))
    A[:n_ub, n:ns] = np.eye(n_ub)  # slacks
    A[:, ns:] = np.eye(m)  # artificials
    T = A[None].repeat(K, axis=0)
    neg = b < 0  # normalize to b >= 0 so the artificial start is feasible
    if neg.any():
        T[neg, :ns] *= -1.0
    basis = np.arange(ns, N)[None].repeat(K, axis=0)
    xb = np.where(neg, -b, b)

    # Phase 1: drive the artificials to zero.
    _run_phase(T, basis, xb, (np.arange(N) >= ns).astype(float))
    xval = np.zeros((K, N))
    xval[np.arange(K)[:, None], basis] = xb
    feasible = np.flatnonzero([not x[ns:].sum() > 1e-7 for x in xval])
    T, basis, xb = T[feasible], basis[feasible], xb[feasible]
    basic = np.zeros((feasible.size, N), dtype=bool)
    basic[np.arange(feasible.size)[:, None], basis] = True

    # Pivot out artificials left basic at level zero, row by row; mark
    # redundant rows for dropping.
    keep = np.ones(basis.shape, dtype=bool)
    for i in np.flatnonzero((basis >= ns).any(axis=0)):
        art = basis[:, i] >= ns
        cols = ~basic[:, :ns] & (np.abs(T[:, i, :ns]) > 1e-7)
        has = cols.any(axis=1)
        keep[art & ~has, i] = False
        p = np.flatnonzero(art & has)
        if p.size:
            j = cols[p].argmax(axis=1)
            xb[p, i] = 0.0
            basic[p, basis[p, i]], basic[p, j] = False, True
            basis[p, i] = j
            sub, q = T[p], np.arange(p.size)
            _pivot(sub, q, np.full(p.size, i), sub[q, :, j])
            T[p] = sub

    # Phase 2 over structural and slack columns only (the artificials cost
    # inf), one batch per set of kept rows.
    out: List[Optional[np.ndarray]] = [None] * K
    groups: Dict[bytes, List[int]] = {}
    for at, rows in enumerate(keep):
        groups.setdefault(rows.tobytes(), []).append(at)
    cost = np.concatenate([c, np.zeros(n_ub), np.full(m, np.inf)])
    for rows, p in groups.items():
        rows = np.frombuffer(rows, dtype=bool)
        bg, xg = basis[p][:, rows], xb[p][:, rows]
        if not _run_phase(T[p][:, rows], bg, xg, cost).all():
            raise RuntimeError("allocation LP unbounded")
        x = np.zeros((len(p), N))
        x[np.arange(len(p))[:, None], bg] = xg
        out_rows = np.clip(x[:, :n], 0.0, np.inf)
        for at, xk in zip(feasible[p], out_rows):
            out[at] = xk
    return out


def solve_allocation(problem: AllocationProblem):
    """Cost-minimal feasible allocation, or INFEASIBLE (solve_allocations of one row)."""
    row = [problem.total_volume, *problem.entry_available.values(), *problem.exit_space.values()]
    return solve_allocations(problem, [row])[0]


def solve_allocations(problem: AllocationProblem, limits) -> list:
    """Cost-minimal feasible allocation, or INFEASIBLE, of problem at each row of limits.

    A row is (volume, entry limits..., exit limits...): its values replace
    total_volume, then those of entry_available and exit_space in the
    dicts' key order (ValueError unless limits is 2-D with one column for
    the volume and one per key; ValueError naming a source, entry or exit
    of lane_costs that has no limit). A negative source cap makes every row
    INFEASIBLE. A zero-volume row moves nothing, so it is answered alone:
    INFEASIBLE only where one of its limits is negative. Any other row whose
    volume exceeds, by more than 1e-7, the summed limits of a constraint
    family (source caps, entry availability, exit space) is INFEASIBLE: each
    family covers every (source, lane) column, so phase 1 would reject it at
    that margin. The other rows go through tableau_simplex in one batch,
    whose phase 1 decides, on one lane as on many. The simplex sees entry
    availability and exit space clipped to the row's volume: no lane can
    carry more, so the feasible set is the same, and the allocation returned
    among cost-tied ones depends only on the clipped row. The DP's stage
    tables rely on this to share one solve between all states with equal
    clipped bounds.
    """
    entries, exits = list(problem.entry_available), list(problem.exit_space)
    caps = problem.source_caps
    for k, (i, j) in problem.lane_costs:
        for name, loc, listed in (("source", k, caps), ("entry", i, entries), ("exit", j, exits)):
            if loc not in listed:
                raise ValueError(f"lane cost {(k, (i, j))} uses {name} {loc}, which has no limit")
    L = np.asarray(limits, dtype=float)
    if not len(L):
        return []
    width = 1 + len(entries) + len(exits)
    if L.ndim != 2 or L.shape[1] != width:
        raise ValueError(f"limits need 2-D rows of width {width} (the volume, then the "
                         f"problem's entry and exit locations); got shape {L.shape}")
    K = len(L)
    keys = sorted(problem.lane_costs)
    if any(v < 0 for v in caps.values()):  # no x >= 0 has x_k <= cap_k < 0
        return [INFEASIBLE] * K
    A = L[:, 0]
    idle = A <= 1e-12
    zero = Allocation({k: 0.0 for k in keys}, 0.0)
    out = [zero if ok else INFEASIBLE for ok in idle & (L[:, 1:] >= 0).all(axis=1)]

    # One variable per (source, lane), one 0/1 row per source cap, entry
    # availability and exit space (the last two clipped to the volume). Each
    # family's rows cover every column, so its summed limits bound sum(x) =
    # A; phase 1 would leave at least the excess in its artificials and
    # reject above 1e-7, so the same margin answers such a row here. The
    # caps are scalars, the same for every row.
    locs = [(k, i, j) for (k, (i, j)) in keys]
    where = np.array(locs)
    clipped = np.minimum(L[:, 1:], A[:, None]).T
    clip = (dict(zip(entries, clipped)), dict(zip(exits, clipped[len(entries):])))
    ok = ~idle
    rows, rhs = [], []
    for col, family in enumerate((caps, *clip)):
        ok &= A <= sum(family[loc] for loc in sorted({loc[col] for loc in locs})) + 1e-7
        for loc in sorted(family):
            row = where[:, col] == loc
            if row.any():
                rows.append(row)
                rhs.append(family[loc])
    b_ub = np.empty((K, len(rhs)))
    for r, v in enumerate(rhs):
        b_ub[:, r] = v
    todo = np.flatnonzero(ok)
    if todo.size:
        c = np.array([problem.lane_costs[k] for k in keys])
        xs = tableau_simplex(c, np.ones((1, len(keys))), A[todo, None], rows, b_ub[todo])
        for at, x in zip(todo, xs):
            if x is not None:
                out[at] = Allocation({k: float(v) for k, v in zip(keys, x)}, float(c @ x))
    return out


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
