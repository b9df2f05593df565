"""Reference LP values computed apart from the drayage solvers.

The per-scenario multistage LP is written out here a second time, from the
model's definition rather than from ``drayage.mslp``, and solved with HiGHS
through ``scipy.optimize.linprog``. The benchmark checks the program's plan
costs against it, and gets the exact sample-average (SAA) capacity optimum
from it as one extensive-form LP: first-stage capacities x in
[0, action_max], one scenario block per draw, block cap rows
``moves - x <= 0`` (Kleywegt, Shapiro & Homem-de-Mello 2002).

Column layout of one block: moves per (source, sorted lane, period), then
entry stock per (entry, period 1..tau+1), then exit positive and negative
parts per (exit, period 1..tau+1).
"""

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from drayage.model import STRATEGIC


@dataclass
class Block:
    c: np.ndarray
    A_eq: sparse.csr_matrix
    b_eq: np.ndarray
    A_ub: sparse.csr_matrix  # availability, space and action rows
    b_ub: np.ndarray
    C: sparse.csr_matrix  # cap rows: row k*tau + t-1 sums moves of source k at t
    lo: np.ndarray
    hi: np.ndarray


def scenario_block(instance, scenario, initial: str = "free") -> Block:
    """One scenario's LP; ``initial`` "fixed" pins the period-1 stocks."""
    tau = instance.horizon
    net, b, costs = instance.network, instance.bounds, instance.costs
    entries, exits = sorted(net.entries), sorted(net.exits)
    slopes = costs.terminal_slopes
    ne, nx = len(entries), len(exits)
    term_e = dict(zip(entries, slopes[:ne]))
    term_p = dict(zip(exits, slopes[ne : ne + nx]))
    term_m = dict(zip(exits, slopes[ne + nx :]))

    c: List[float] = []
    lo: List[float] = []
    hi: List[float] = []

    def col(cost, upper):
        c.append(float(cost))
        lo.append(0.0)
        hi.append(float(upper))
        return len(c) - 1

    moves = []  # (source index, lane, period, column)
    for k, s in enumerate(instance.sources):
        for lane in sorted(s.lanes):
            for t in range(1, tau + 1):
                if s.kind == STRATEGIC:
                    rate = s.execution_cost[lane][t - 1]
                else:
                    rate = scenario.realizations[t - 1].spot_rates[s.id][lane]
                moves.append((k, lane, t, col(rate, np.inf)))
    e = {
        (i, t): col(costs.entry_holding[i] if t <= tau else term_e[i], b.entry_max[i])
        for i in entries
        for t in range(1, tau + 2)
    }
    sp = {
        (j, t): col(costs.exit_holding[j] if t <= tau else term_p[j], b.exit_max[j])
        for j in exits
        for t in range(1, tau + 2)
    }
    sm = {
        (j, t): col(
            costs.exit_backorder[j] if t <= tau else term_m[j], b.exit_backorder_max[j]
        )
        for j in exits
        for t in range(1, tau + 2)
    }
    if initial == "fixed":
        s1 = instance.initial_state
        for i in entries:
            lo[e[(i, 1)]] = hi[e[(i, 1)]] = s1.entry_stock[i]
        for j in exits:
            v = s1.exit_stock[j]
            lo[sp[(j, 1)]] = hi[sp[(j, 1)]] = max(v, 0)
            lo[sm[(j, 1)]] = hi[sm[(j, 1)]] = -min(v, 0)
    elif initial != "free":
        raise ValueError(f"unknown initial mode {initial!r}")

    eq, b_eq, ub, b_ub = [], [], [], []
    for t in range(1, tau + 1):
        z = scenario.realizations[t - 1]
        out_t = [(lane, m) for _, lane, tt, m in moves if tt == t]
        for i in entries:
            row = {e[(i, t + 1)]: 1.0, e[(i, t)]: -1.0}
            row.update({m: 1.0 for lane, m in out_t if lane[0] == i})
            eq.append(row)
            b_eq.append(z.inflow[i])
            avail = {e[(i, t)]: -1.0}
            avail.update({m: 1.0 for lane, m in out_t if lane[0] == i})
            ub.append(avail)
            b_ub.append(z.inflow[i])
        for j in exits:
            row = {sp[(j, t + 1)]: 1.0, sm[(j, t + 1)]: -1.0, sp[(j, t)]: -1.0, sm[(j, t)]: 1.0}
            row.update({m: -1.0 for lane, m in out_t if lane[1] == j})
            eq.append(row)
            b_eq.append(-z.outflow[j])
            space = {sp[(j, t)]: 1.0, sm[(j, t)]: -1.0}
            space.update({m: 1.0 for lane, m in out_t if lane[1] == j})
            ub.append(space)
            b_ub.append(b.exit_max[j])
        ub.append({m: 1.0 for _, m in out_t})
        b_ub.append(b.action_max)
    caps = [{} for _ in range(len(instance.sources) * tau)]
    for k, _, t, m in moves:
        caps[k * tau + t - 1][m] = 1.0

    n = len(c)
    return Block(
        c=np.array(c),
        A_eq=_rows(eq, n),
        b_eq=np.array(b_eq, dtype=float),
        A_ub=_rows(ub, n),
        b_ub=np.array(b_ub, dtype=float),
        C=_rows(caps, n),
        lo=np.array(lo),
        hi=np.array(hi),
    )


def _rows(rows, n) -> sparse.csr_matrix:
    data, ri, ci = [], [], []
    for r, row in enumerate(rows):
        for k, v in row.items():
            ri.append(r)
            ci.append(k)
            data.append(v)
    return sparse.csr_matrix((data, (ri, ci)), shape=(len(rows), n))


def _highs(c, A_eq, b_eq, A_ub, b_ub, lo, hi):
    res = linprog(
        c,
        A_ub=A_ub,
        b_ub=b_ub,
        A_eq=A_eq,
        b_eq=b_eq,
        bounds=np.column_stack([lo, hi]),
        method="highs",
    )
    if res.status == 2:
        return None
    if res.status != 0:
        raise RuntimeError(f"HiGHS status {res.status}: {res.message}")
    return res


def caps_vector(instance, plan) -> np.ndarray:
    """Plan capacities flattened in block cap-row order."""
    return np.array(
        [float(v) for s in instance.sources for v in plan.capacity[s.id]]
    )


def operating_cost(instance, scenario, caps: np.ndarray, initial: str = "free") -> Optional[float]:
    """Optimal LP operating cost at fixed capacities, or None when infeasible."""
    blk = scenario_block(instance, scenario, initial)
    res = _highs(
        blk.c,
        blk.A_eq,
        blk.b_eq,
        sparse.vstack([blk.A_ub, blk.C]),
        np.concatenate([blk.b_ub, caps]),
        blk.lo,
        blk.hi,
    )
    return None if res is None else float(res.fun)


def _rates(instance) -> np.ndarray:
    return np.array([float(r) for s in instance.sources for r in s.reservation_rate])


def reservation(instance, caps: np.ndarray) -> float:
    return float(_rates(instance) @ caps)


def box_caps(instance) -> np.ndarray:
    n = len(instance.sources) * instance.horizon
    return np.full(n, float(instance.bounds.action_max))


def operable(instance, scenarios: Sequence) -> list:
    """Draws some plan can operate: feasible at the all-action_max box."""
    box = box_caps(instance)
    return [sc for sc in scenarios if operating_cost(instance, sc, box) is not None]


def plan_total_cost(instance, scenarios: Sequence, caps: np.ndarray) -> Optional[float]:
    """Mean LP operating cost over the scenarios plus reservation cost."""
    costs = [operating_cost(instance, sc, caps) for sc in scenarios]
    if any(v is None for v in costs):
        return None
    return float(np.mean(costs)) + reservation(instance, caps)


def saa_optimum(instance, scenarios: Sequence) -> float:
    """Exact SAA total cost: min over x of reservation + mean operating cost."""
    blocks = [scenario_block(instance, sc) for sc in scenarios]
    n = len(blocks)
    nx = len(instance.sources) * instance.horizon
    c = np.concatenate([_rates(instance)] + [blk.c / n for blk in blocks])
    zero_eq = sparse.csr_matrix((sum(b.A_eq.shape[0] for b in blocks), nx))
    zero_ub = sparse.csr_matrix((sum(b.A_ub.shape[0] for b in blocks), nx))
    A_eq = sparse.hstack([zero_eq, sparse.block_diag([b.A_eq for b in blocks])])
    A_ub = sparse.vstack(
        [
            sparse.hstack([zero_ub, sparse.block_diag([b.A_ub for b in blocks])]),
            sparse.hstack(
                [
                    sparse.vstack([-sparse.identity(nx)] * n),
                    sparse.block_diag([b.C for b in blocks]),
                ]
            ),
        ]
    )
    b_ub = np.concatenate([b.b_ub for b in blocks] + [np.zeros(nx * n)])
    lo = np.concatenate([np.zeros(nx)] + [b.lo for b in blocks])
    hi = np.concatenate([box_caps(instance)] + [b.hi for b in blocks])
    res = _highs(c, A_eq.tocsr(), np.concatenate([b.b_eq for b in blocks]), A_ub.tocsr(), b_ub, lo, hi)
    if res is None:
        raise RuntimeError("extensive-form SAA LP infeasible")
    return float(res.fun)
