"""Deterministic-equivalent multistage LP for one fixed scenario.

Continuous relaxation of the per-scenario control problem: moves are real,
state balance holds as equalities with hard bounds (no clamping), and the
exit stock is split into nonnegative parts splus - sminus. Used as the
differentiable surrogate for capacity search and as a relaxation cross-check
on the DP. solve_mslp solves it with HiGHS through lp.solve_lp, as
capopt.optimize_capacity_exact does the stacked blocks; capacity plans and
regret records are solved on a CapacityObjective's lp.HighsModel instead,
one layout with a row of costs and right-hand sides per scenario.

The relaxation bounds the DP only along unclamped trajectories. The DP
transition (alloc.transition) clamps stocks into their bounds, dropping entry
overflow and backorders beyond the bound free of charge, while the LP keeps
the bounds as hard constraints. Where the DP's optimal path clamps, the LP
can be infeasible or its cost can exceed the DP cost.

Moves are priced by alloc.lane_costs, as the DP prices them. Only c, b_eq
and b_ub depend on the scenario, and scenario_rows alone writes those
entries. Each move column has a single 1 among the cap rows, in its
source-period's row.

Costs are minimized here; callers that want the value convention negate.
"""

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .alloc import lane_costs
from .lp import solve_lp
from .model import CapacityPlan, Instance, Lane, Scenario

INTEGRALITY_TOL = 1e-7


class InfeasibleLP(Exception):
    """The scenario cannot be operated within bounds at these capacities."""


def _terminal_slope_maps(instance: Instance):
    entries = instance.network.entries
    exits = instance.network.exits
    slopes = instance.costs.terminal_slopes
    ne, nj = len(entries), len(exits)
    if len(slopes) != ne + 2 * nj:
        raise ValueError("terminal slope vector does not match network size")
    a_entry = {i: slopes[k] for k, i in enumerate(sorted(entries))}
    a_plus = {j: slopes[ne + k] for k, j in enumerate(sorted(exits))}
    a_minus = {j: slopes[ne + nj + k] for k, j in enumerate(sorted(exits))}
    return a_entry, a_plus, a_minus


@dataclass
class MultistageLP:
    horizon: int
    c: np.ndarray
    A_eq: np.ndarray
    b_eq: np.ndarray
    A_ub: np.ndarray
    b_ub: np.ndarray
    upper: np.ndarray
    move_cols: Dict[Tuple[int, Lane, int], int]  # (source, lane, period)
    entry_cols: Dict[Tuple[int, int], int]  # (entry, period 1..tau+1)
    splus_cols: Dict[Tuple[int, int], int]
    sminus_cols: Dict[Tuple[int, int], int]
    cap_rows: Dict[Tuple[int, int], int]  # (source, period) -> A_ub row
    entry_rows: Dict[Tuple[int, int], int]  # (entry, period) -> A_eq balance row
    exit_rows: Dict[Tuple[int, int], int]  # (exit, period) -> A_eq balance row
    avail_rows: Dict[Tuple[int, int], int]  # (entry, period) -> A_ub availability row

    def cap_row_index(self, source_ids: Sequence[int]) -> List[int]:
        """The cap rows of A_ub, source by source, period by period."""
        return [self.cap_rows[(sid, t)] for sid in source_ids for t in range(1, self.horizon + 1)]


@dataclass(frozen=True)
class MSLPSolution:
    cost: float
    moves: Dict[Tuple[int, Lane, int], float]
    states: Tuple[Dict[str, Dict[int, float]], ...]  # index t-1 -> period t
    integral: bool


def build_mslp(
    instance: Instance,
    scenario: Scenario,
    plan: CapacityPlan,
    initial: str = "fixed",
) -> MultistageLP:
    """Assemble the per-scenario LP.

    initial "fixed" pins period-1 state to instance.initial_state via
    equality rows; "free" leaves it a decision within bounds, realizing the
    best-initial-state value in one solve.

    The layout (matrices, column box, index maps, the cap rows' plan) is
    built without the scenario; scenario_rows then writes its c, b_eq and
    b_ub. In the package, only capopt.CapacityObjective calls this, once per
    objective, at the zero plan with a free initial state: it keeps the LP
    as its layout and has scenario_rows write every scenario's rows into it.
    """
    if initial not in ("fixed", "free"):
        raise ValueError(f"unknown initial mode {initial!r}")
    tau, net, b, costs = instance.horizon, instance.network, instance.bounds, instance.costs
    a_entry, a_plus, a_minus = _terminal_slope_maps(instance)
    periods = range(1, tau + 1)
    stages = range(1, tau + 2)  # the stocks run one period past the horizon

    cvec: List[float] = []
    upper: List[float] = []

    def add_cols(keys, cost, ub) -> Dict:
        """One column per key, appended in key order; returns key -> column."""
        start = len(cvec)
        cvec.extend(map(float, cost))
        upper.extend(map(float, ub))
        return dict(zip(keys, range(start, len(cvec))))

    keys = [(s.id, lane, t) for s in instance.sources for lane in sorted(s.lanes) for t in periods]
    move_cols = add_cols(keys, [0.0] * len(keys), [np.inf] * len(keys))

    def stock_cols(locs, holding, terminal, bound):
        keys = [(k, t) for k in locs for t in stages]
        cost = [holding[k] if t <= tau else terminal[k] for k, t in keys]
        return add_cols(keys, cost, [bound[k] for k, _ in keys])

    entry_cols = stock_cols(net.entries, costs.entry_holding, a_entry, b.entry_max)
    splus_cols = stock_cols(net.exits, costs.exit_holding, a_plus, b.exit_max)
    sminus_cols = stock_cols(net.exits, costs.exit_backorder, a_minus, b.exit_backorder_max)

    # the move columns of each period out of each entry and into each exit
    out_of: Dict[Tuple[int, int], List[int]] = {(t, i): [] for t in periods for i in net.entries}
    into: Dict[Tuple[int, int], List[int]] = {(t, j): [] for t in periods for j in net.exits}
    for (_, (i, j), t), col in move_cols.items():
        out_of[(t, i)].append(col)
        into[(t, j)].append(col)

    # rows are ({column: coefficient}, right-hand side); a scenario's flow
    # rows hold 0.0 until scenario_rows writes its flows
    eq_rows: List[Tuple[Dict[int, float], float]] = []
    ub_rows: List[Tuple[Dict[int, float], float]] = []
    entry_rows, exit_rows, avail_rows, cap_rows = {}, {}, {}, {}

    if initial == "fixed":
        s1 = instance.initial_state
        for i in net.entries:
            eq_rows.append(({entry_cols[(i, 1)]: 1.0}, float(s1.entry_stock[i])))
        for j in net.exits:
            v = s1.exit_stock[j]
            eq_rows.append(({splus_cols[(j, 1)]: 1.0}, float(max(v, 0))))
            eq_rows.append(({sminus_cols[(j, 1)]: 1.0}, float(-min(v, 0))))

    for t in periods:
        # entry balance: e[i,t+1] - e[i,t] + outbound moves = inflow
        for i in net.entries:
            entry_rows[(i, t)] = len(eq_rows)
            eq_rows.append(({entry_cols[(i, t + 1)]: 1.0, entry_cols[(i, t)]: -1.0,
                             **dict.fromkeys(out_of[(t, i)], 1.0)}, 0.0))
        # exit balance: (sp - sm)[t+1] - (sp - sm)[t] - inbound moves = -outflow
        for j in net.exits:
            exit_rows[(j, t)] = len(eq_rows)
            eq_rows.append(({splus_cols[(j, t + 1)]: 1.0, sminus_cols[(j, t + 1)]: -1.0,
                             splus_cols[(j, t)]: -1.0, sminus_cols[(j, t)]: 1.0,
                             **dict.fromkeys(into[(t, j)], -1.0)}, 0.0))

    for s in instance.sources:
        for t in periods:
            cap_rows[(s.id, t)] = len(ub_rows)
            row = {move_cols[(s.id, lane, t)]: 1.0 for lane in sorted(s.lanes)}
            ub_rows.append((row, float(plan.capacity[s.id][t - 1])))
    for t in periods:
        # availability: outbound moves <= e[i,t] + inflow
        for i in net.entries:
            avail_rows[(i, t)] = len(ub_rows)
            ub_rows.append(({entry_cols[(i, t)]: -1.0, **dict.fromkeys(out_of[(t, i)], 1.0)}, 0.0))
        # space before outflow: inbound moves + (sp - sm)[t] <= exit bound
        for j in net.exits:
            ub_rows.append(({splus_cols[(j, t)]: 1.0, sminus_cols[(j, t)]: -1.0,
                             **dict.fromkeys(into[(t, j)], 1.0)}, float(b.exit_max[j])))
        # the scalar action grid caps total volume per period
        out = [col for i in net.entries for col in out_of[(t, i)]]
        ub_rows.append((dict.fromkeys(out, 1.0), float(b.action_max)))

    def densify(rows):
        A = np.zeros((len(rows), len(cvec)))
        for r, (row, _) in enumerate(rows):
            A[r, list(row)] = list(row.values())
        return A, np.array([v for _, v in rows])

    (A_eq, b_eq), (A_ub, b_ub) = densify(eq_rows), densify(ub_rows)
    lp = MultistageLP(
        horizon=tau, c=np.array(cvec), A_eq=A_eq, b_eq=b_eq, A_ub=A_ub, b_ub=b_ub,
        upper=np.array(upper), move_cols=move_cols, entry_cols=entry_cols,
        splus_cols=splus_cols, sminus_cols=sminus_cols, cap_rows=cap_rows,
        entry_rows=entry_rows, exit_rows=exit_rows, avail_rows=avail_rows,
    )
    lp.c, lp.b_eq, lp.b_ub = (rows[0] for rows in scenario_rows(lp, instance, [scenario]))
    return lp


def scenario_rows(
    lp: MultistageLP, instance: Instance, scenarios: Sequence[Scenario]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Arrays costs, b_eq and b_ub whose row k is scenarios[k]'s c, b_eq
    and b_ub on lp's layout: lp's own vectors with the scenario's move costs
    (alloc.lane_costs), its inflows on the entry-balance and availability
    rows and minus its outflows on the exit-balance rows written in. Raises
    ValueError for a scenario whose length is not the horizon.
    """
    moves, entry, avail, exit_ = [], [], [], []
    for sc in scenarios:
        z = sc.realizations
        if len(z) != lp.horizon:
            raise ValueError("scenario length does not match horizon")
        rates = [lane_costs(instance, zt, t) for t, zt in enumerate(z, 1)]
        moves += [rates[t - 1][(sid, lane)] for sid, lane, t in lp.move_cols]
        entry += [float(z[t - 1].inflow[i]) for i, t in lp.entry_rows]
        avail += [float(z[t - 1].inflow[i]) for i, t in lp.avail_rows]
        # negate before converting: an outflow of 0 gives +0.0, not -0.0
        exit_ += [float(-z[t - 1].outflow[j]) for j, t in lp.exit_rows]
    n = len(scenarios)
    costs, b_eq, b_ub = (np.tile(v, (n, 1)) for v in (lp.c, lp.b_eq, lp.b_ub))
    for rows, at, values in ((costs, lp.move_cols, moves), (b_eq, lp.entry_rows, entry),
                             (b_ub, lp.avail_rows, avail), (b_eq, lp.exit_rows, exit_)):
        rows[:, list(at.values())] = np.reshape(values, (n, len(at)))
    return costs, b_eq, b_ub


def solve_mslp(lp: MultistageLP) -> MSLPSolution:
    """Primal optimum; reports whether the optimal moves are integral."""
    res = solve_lp(
        lp.c, A_eq=lp.A_eq, b_eq=lp.b_eq, A_ub=lp.A_ub, b_ub=lp.b_ub, upper=lp.upper
    )
    if res.status == "infeasible":
        raise InfeasibleLP("scenario LP infeasible at these capacities")
    if res.status != "optimal":
        raise RuntimeError(f"unexpected LP status {res.status}")
    x = res.x
    moves = {key: float(x[col]) for key, col in lp.move_cols.items()}
    integral = all(abs(v - round(v)) <= INTEGRALITY_TOL for v in moves.values())

    def stocks(cols, t):
        return {k: float(x[col]) for (k, tt), col in cols.items() if tt == t}

    states = tuple(
        {"entry": stocks(lp.entry_cols, t), "exit_plus": stocks(lp.splus_cols, t),
         "exit_minus": stocks(lp.sminus_cols, t)}
        for t in range(1, lp.horizon + 2)
    )
    return MSLPSolution(cost=float(res.objective), moves=moves, states=states, integral=integral)
