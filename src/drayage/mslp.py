"""Deterministic-equivalent multistage LP for one fixed scenario.

Continuous relaxation of the per-scenario control problem: moves are real,
state balance holds as equalities with hard bounds (no clamping), and the
exit stock is split into nonnegative parts splus - sminus. Used as the
differentiable surrogate for capacity search and as a relaxation cross-check
on the DP. solve_mslp solves it with HiGHS through lp.solve_lp, as
capopt.optimize_capacity_exact does the stacked blocks; capacity plans and
regret records are solved on a CapacityObjective's lp.HighsModel instead.

The relaxation bounds the DP only along unclamped trajectories. The DP
transition (alloc.transition) clamps stocks into their bounds, dropping entry
overflow and backorders beyond the bound free of charge, while the LP keeps
the bounds as hard constraints. Where the DP's optimal path clamps, the LP
can be infeasible or its cost can exceed the DP cost.

Costs are minimized here; callers that want the value convention negate.
"""

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .lp import solve_lp
from .model import (
    STRATEGIC,
    CapacityPlan,
    Instance,
    Lane,
    Scenario,
)

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

    def cap_row_index(self, source_ids: Sequence[int]) -> List[int]:
        """The cap rows of A_ub, source by source, period by period."""
        return [self.cap_rows[(sid, t)] for sid in source_ids for t in range(1, self.horizon + 1)]

    def with_caps_array(self, caps: np.ndarray, source_ids: Sequence[int]) -> "MultistageLP":
        """Same LP with the capacity right-hand sides set to caps, an array
        shaped (len(source_ids), horizon) (cheap re-solve)."""
        b = self.b_ub.copy()
        b[self.cap_row_index(source_ids)] = np.ravel(caps)
        return dataclasses.replace(self, b_ub=b)

    def cap_usage(self, x: np.ndarray, source_ids: Sequence[int]) -> np.ndarray:
        """Capacity the solution x uses: the cap rows' activity, flat in
        cap_row_index order."""
        return self.A_ub[self.cap_row_index(source_ids)] @ x


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

    In the package, only capopt.CapacityObjective.templates calls this: it
    builds each scenario's LP once at the zero plan, and every capacity
    evaluation, the operability check, the extensive form and the regret
    record's optimum and achieved value (evaluation.regret_profile) start
    from that template. Only c, b_eq and b_ub depend on the scenario.
    """
    if len(scenario.realizations) != instance.horizon:
        raise ValueError("scenario length does not match horizon")
    if initial not in ("fixed", "free"):
        raise ValueError(f"unknown initial mode {initial!r}")
    tau = instance.horizon
    net = instance.network
    b = instance.bounds
    costs = instance.costs
    a_entry, a_plus, a_minus = _terminal_slope_maps(instance)

    cvec: List[float] = []
    upper: List[float] = []
    move_cols: Dict[Tuple[int, Lane, int], int] = {}
    entry_cols: Dict[Tuple[int, int], int] = {}
    splus_cols: Dict[Tuple[int, int], int] = {}
    sminus_cols: Dict[Tuple[int, int], int] = {}

    def add_col(cost, ub):
        cvec.append(float(cost))
        upper.append(np.inf if ub is None else float(ub))
        return len(cvec) - 1

    for s in instance.sources:
        for lane in sorted(s.lanes):
            for t in range(1, tau + 1):
                if s.kind == STRATEGIC:
                    rate = s.execution_cost[lane][t - 1]
                else:
                    rate = scenario.realizations[t - 1].spot_rates[s.id][lane]
                move_cols[(s.id, lane, t)] = add_col(rate, None)
    for i in net.entries:
        for t in range(1, tau + 2):
            cost = costs.entry_holding[i] if t <= tau else a_entry[i]
            entry_cols[(i, t)] = add_col(cost, b.entry_max[i])
    for j in net.exits:
        for t in range(1, tau + 2):
            cost = costs.exit_holding[j] if t <= tau else a_plus[j]
            splus_cols[(j, t)] = add_col(cost, b.exit_max[j])
    for j in net.exits:
        for t in range(1, tau + 2):
            cost = costs.exit_backorder[j] if t <= tau else a_minus[j]
            sminus_cols[(j, t)] = add_col(cost, b.exit_backorder_max[j])

    n = len(cvec)
    eq_rows: List[Tuple[Dict[int, float], float]] = []
    ub_rows: List[Tuple[Dict[int, float], float]] = []

    if initial == "fixed":
        s1 = instance.initial_state
        for i in net.entries:
            eq_rows.append(({entry_cols[(i, 1)]: 1.0}, float(s1.entry_stock[i])))
        for j in net.exits:
            v = s1.exit_stock[j]
            eq_rows.append(({splus_cols[(j, 1)]: 1.0}, float(max(v, 0))))
            eq_rows.append(({sminus_cols[(j, 1)]: 1.0}, float(-min(v, 0))))

    for t in range(1, tau + 1):
        z = scenario.realizations[t - 1]
        # entry balance: e[i,t+1] - e[i,t] + outbound moves = inflow
        for i in net.entries:
            row = {entry_cols[(i, t + 1)]: 1.0, entry_cols[(i, t)]: -1.0}
            for (sid, lane, tt), col in move_cols.items():
                if tt == t and lane[0] == i:
                    row[col] = row.get(col, 0.0) + 1.0
            eq_rows.append((row, float(z.inflow[i])))
        # exit balance: (sp - sm)[t+1] - (sp - sm)[t] - inbound moves = -outflow
        for j in net.exits:
            row = {
                splus_cols[(j, t + 1)]: 1.0,
                sminus_cols[(j, t + 1)]: -1.0,
                splus_cols[(j, t)]: -1.0,
                sminus_cols[(j, t)]: 1.0,
            }
            for (sid, lane, tt), col in move_cols.items():
                if tt == t and lane[1] == j:
                    row[col] = row.get(col, 0.0) - 1.0
            eq_rows.append((row, float(-z.outflow[j])))

    cap_rows: Dict[Tuple[int, int], int] = {}
    for s in instance.sources:
        for t in range(1, tau + 1):
            row = {}
            for lane in sorted(s.lanes):
                row[move_cols[(s.id, lane, t)]] = 1.0
            cap_rows[(s.id, t)] = len(ub_rows)
            ub_rows.append((row, float(plan.capacity[s.id][t - 1])))
    for t in range(1, tau + 1):
        z = scenario.realizations[t - 1]
        # availability: outbound moves <= e[i,t] + inflow
        for i in net.entries:
            row = {entry_cols[(i, t)]: -1.0}
            for (sid, lane, tt), col in move_cols.items():
                if tt == t and lane[0] == i:
                    row[col] = row.get(col, 0.0) + 1.0
            ub_rows.append((row, float(z.inflow[i])))
        # space before outflow: inbound moves + (sp - sm)[t] <= exit bound
        for j in net.exits:
            row = {splus_cols[(j, t)]: 1.0, sminus_cols[(j, t)]: -1.0}
            for (sid, lane, tt), col in move_cols.items():
                if tt == t and lane[1] == j:
                    row[col] = row.get(col, 0.0) + 1.0
            ub_rows.append((row, float(b.exit_max[j])))
        # the scalar action grid caps total volume per period
        row = {col: 1.0 for (sid, lane, tt), col in move_cols.items() if tt == t}
        ub_rows.append((row, float(b.action_max)))

    def densify(rows):
        A = np.zeros((len(rows), n))
        rhs = np.zeros(len(rows))
        for r, (row, v) in enumerate(rows):
            for col, coef in row.items():
                A[r, col] = coef
            rhs[r] = v
        return A, rhs

    A_eq, b_eq = densify(eq_rows)
    A_ub, b_ub = densify(ub_rows)
    return MultistageLP(
        horizon=tau,
        c=np.array(cvec),
        A_eq=A_eq,
        b_eq=b_eq,
        A_ub=A_ub,
        b_ub=b_ub,
        upper=np.array(upper),
        move_cols=move_cols,
        entry_cols=entry_cols,
        splus_cols=splus_cols,
        sminus_cols=sminus_cols,
        cap_rows=cap_rows,
    )


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
    states = []
    for t in range(1, lp.horizon + 2):
        states.append(
            {
                "entry": {
                    i: float(x[col])
                    for (i, tt), col in lp.entry_cols.items()
                    if tt == t
                },
                "exit_plus": {
                    j: float(x[col])
                    for (j, tt), col in lp.splus_cols.items()
                    if tt == t
                },
                "exit_minus": {
                    j: float(x[col])
                    for (j, tt), col in lp.sminus_cols.items()
                    if tt == t
                },
            }
        )
    return MSLPSolution(
        cost=float(res.objective),
        moves=moves,
        states=tuple(states),
        integral=integral,
    )
