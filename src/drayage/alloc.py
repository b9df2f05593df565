"""Per-period allocation, its rates, and the state transition.

lane_costs is the one rule for a source's $/TEU on a lane in a period; the
DP's allocation problems and mslp.build_mslp both price moves with it.

The allocation problem distributes a total move volume A_t across (source,
lane) pairs at minimal cost subject to: total volume matches A_t, per-source
capacity, per-entry availability (current stock plus inflow), per-exit space
(storage bound minus current stock), and nonnegativity. Infeasibility is a
signal: the action A_t is excluded from the feasible action set rather than
penalized; the DP's stage tables (dp._StageTables) decide that set.
Every problem, on one lane or many, is decided the same way: by the summed
limits of each constraint family (source caps, entry availability, exit
space), each of which covers every (source, lane) column, and then by a
dense tableau (tableau_simplex), whose phase 1 decides. Its fixed pivot
rule decides which cost-tied allocation, and so which next state, the DP
sees; that, not speed, is why it stays (one reused lp.HighsModel solves
these LPs faster, at other vertices).

solve_allocations works on arrays: a cost per (source, lane) column, a cap
per source, and one (volume, availability, space) limits row per problem,
as the DP's states and actions need, so a batch shares costs and caps by
construction. The tableau pivots the rows in lockstep, each on its own
tableau and basis, so every row gets the vertex it gets alone, bit for bit.
solve_allocation is the dict form of one problem (AllocationProblem in,
Allocation or INFEASIBLE out); lane_totals sums moves per lane for both.

The state transition applies the per-lane move totals and the realized
inflows/outflows, clamping to the stock bounds. Excess inflow above an entry
bound is lost without penalty; this closes a gap the underlying model leaves
open and is a deliberate design decision.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .model import (
    Bounds,
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
        return lane_totals(self.moves, self.moves.values())


def lane_totals(keys: Sequence[Tuple[int, Lane]], moves) -> Dict[Lane, object]:
    """The moves on each lane, summed over its (source, lane) keys in order.

    moves holds one entry per key: a float, or an array (one value per
    problem) that is summed elementwise.
    """
    out: Dict[Lane, object] = {}
    for (_, lane), m in zip(keys, moves):
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


def allocation_layout(keys, sources, entries, exits):
    """solve_allocations' layout of the (source, lane) keys: the sorted keys
    (its columns), the sorted sources (the order of caps) and cols, for
    limits rows that hold the volume, then the entries' limits, then the
    exits', each in ascending id order. ValueError naming a source, entry or
    exit of a key that is not listed.
    """
    ids = [sorted(x) for x in (sources, entries, exits)]
    for k, (i, j) in keys:
        for name, loc, listed in zip(("source", "entry", "exit"), (k, i, j), ids):
            if loc not in listed:
                raise ValueError(f"lane cost {(k, (i, j))} uses {name} {loc}, which has no limit")
    keys, (sources, entries, exits) = sorted(keys), ids
    cols = [(sources.index(k), 1 + entries.index(i), 1 + len(entries) + exits.index(j))
            for k, (i, j) in keys]
    return keys, sources, np.array(cols, dtype=int).reshape(-1, 3)


def solve_allocation(problem: AllocationProblem):
    """Cost-minimal feasible allocation, or INFEASIBLE: solve_allocations of
    one row in allocation_layout (ValueError naming a source, entry or exit
    of lane_costs that has no limit)."""
    keys, sources, cols = allocation_layout(problem.lane_costs, problem.source_caps,
                                            problem.entry_available, problem.exit_space)
    row = [problem.total_volume, *(v for _, v in sorted(problem.entry_available.items())),
           *(v for _, v in sorted(problem.exit_space.items()))]
    cost, moves = solve_allocations([problem.lane_costs[k] for k in keys],
                                    [problem.source_caps[k] for k in sources], cols, [row])
    if cost[0] == np.inf:
        return INFEASIBLE
    return Allocation(dict(zip(keys, moves[0].tolist())), float(cost[0]))


def solve_allocations(costs, caps, cols, limits) -> Tuple[np.ndarray, np.ndarray]:
    """Cost-minimal feasible allocation at each row of limits: cost (K,),
    inf where a row is infeasible, and moves (K, n_cols), zero there.

    Column c is a (source, lane) pair at costs[c] $/TEU; cols[c] holds its
    source's index into caps and the limits columns of its entry and exit. A
    limits row is the volume, then the entry availability and exit space
    limits (ValueError unless limits is 2-D and holds every column cols
    names). Each family's rows go into the tableau in ascending index order,
    and that order picks the vertex among cost-tied allocations: lay the
    problem out with allocation_layout, in ascending id order.

    A negative cap makes every row infeasible; a zero-volume row moves
    nothing and is infeasible only where a limit is negative. The tableau
    sees availability and space clipped to the volume (no lane carries
    more), so the vertex depends only on the clipped row, and the DP's stage
    tables share one solve between all states with equal clipped bounds.
    Each family of rows covers every column, so a row whose volume exceeds a
    family's summed limits by more than 1e-7, phase 1's margin, is
    infeasible without a tableau; the others go through tableau_simplex in
    one batch.
    """
    c = np.asarray(costs, dtype=float)
    caps = np.asarray(caps, dtype=float)
    cols = np.asarray(cols, dtype=int).reshape(c.size, 3)
    L = np.asarray(limits, dtype=float)
    K = len(L)
    cost, moves = np.full(K, np.inf), np.zeros((K, c.size))
    if not K:
        return cost, moves
    width = 1 + cols[:, 1:].max(initial=0)
    if L.ndim != 2 or L.shape[1] < width:
        raise ValueError(f"limits need 2-D rows of at least {width} columns (the volume "
                         f"and every limit cols names); got shape {L.shape}")
    if (caps < 0).any():  # no x >= 0 has x_k <= cap_k < 0
        return cost, moves
    A = L[:, 0]
    idle = A <= 1e-12
    cost[idle & (L[:, 1:] >= 0).all(axis=1)] = 0.0

    # one 0/1 row per location that holds a column, in ascending index order
    clipped = np.minimum(L, A[:, None])
    ok = ~idle
    rows, rhs = [], []
    for family, limit in enumerate((np.broadcast_to(caps, (K, caps.size)), clipped, clipped)):
        at = cols[:, family]
        used = sorted(set(at.tolist()))
        ok &= A <= sum(limit[:, r] for r in used) + 1e-7
        for r in used:
            rows.append(at == r)
            rhs.append(limit[:, r])
    todo = np.flatnonzero(ok)
    if todo.size:
        b_ub = np.column_stack(rhs)[todo]
        xs = tableau_simplex(c, np.ones((1, c.size)), A[todo, None], rows, b_ub)
        for at, x in zip(todo, xs):
            if x is not None:
                cost[at] = float(c @ x)
                moves[at] = x
    return cost, moves


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


def lane_flows(totals: Dict[Lane, float]) -> Tuple[Dict[int, float], Dict[int, float]]:
    """Moves out of each entry and into each exit (locations without a move are absent)."""
    out_by_entry: Dict[int, float] = {}
    in_by_exit: Dict[int, float] = {}
    for (i, j), m in totals.items():
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

