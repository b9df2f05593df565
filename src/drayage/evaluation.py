"""Regret profiles, generalization diagnostics, and summary statistics.

Each scenario of a regret profile gets one one-scenario CapacityObjective,
so its multistage LP is built once, from the objective's template. The
achieved value is capopt.objective at the shared plan. The per-scenario
optimum is exact: the same template at the box caps, with the reservation
rates folded into the move costs (capopt.folded_scenario_lp), collapses the
joint (capacity, operations) minimum to one LP. This keeps the dominance
property regret >= 0 exact up to LP tolerance, which a finite-difference
quasi-Newton search cannot guarantee on a piecewise-linear landscape.
"""

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .capopt import (CapacityObjective, _caps_to_plan, folded_scenario_lp, objective,
                     scenario_objective)
from .model import CapacityPlan, Instance, Scenario
from .mslp import InfeasibleLP, solve_mslp

REGRET_TOL = 1e-4


@dataclass(frozen=True)
class RegretRecord:
    scenario_id: int
    optimal_objective: float
    achieved_objective: float
    regret: float


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """min/q1/median/mean/q3/max with linear-interpolation quantiles."""
    if len(values) == 0:
        raise ValueError("cannot summarize an empty list")
    arr = np.asarray(values, dtype=float)
    q1, med, q3 = np.quantile(arr, [0.25, 0.5, 0.75], method="linear")
    return {
        "min": float(arr.min()),
        "q1": float(q1),
        "median": float(med),
        "mean": float(arr.mean()),
        "q3": float(q3),
        "max": float(arr.max()),
    }


# ---------------------------------------------------------------------------
# Per-scenario optimum


def per_scenario_optimum(obj: CapacityObjective) -> Tuple[CapacityPlan, float]:
    """Best capacity plan and objective for a one-scenario LP objective.

    One solve of folded_scenario_lp; the plan reserves what the optimum
    moves. When even the box plan cannot operate the scenario, no plan can,
    and the result is the box plan with objective -inf.
    """
    try:
        sol = solve_mslp(folded_scenario_lp(obj))
    except InfeasibleLP:
        return _caps_to_plan(obj.instance, obj.box_upper), -math.inf
    used = defaultdict(float)
    for (sid, _lane, t), v in sol.moves.items():
        used[sid, t] += v
    capacity = {
        sid: tuple(float(used[sid, t]) for t in range(1, obj.instance.horizon + 1))
        for sid in obj.source_ids
    }
    return CapacityPlan(capacity=capacity), -sol.cost


# ---------------------------------------------------------------------------
# Regret


def regret_profile(
    instance: Instance,
    shared_plan: CapacityPlan,
    scenarios: Sequence[Scenario],
) -> List[RegretRecord]:
    """One record per scenario: per-scenario optimum minus shared-plan value.

    A scenario the shared plan cannot operate gets achieved = -inf and
    regret = +inf; downstream reports skip non-finite regrets.
    """
    records = []
    for sid, sc in enumerate(scenarios):
        obj = scenario_objective(instance, sc)
        _, opt_value = per_scenario_optimum(obj)
        try:
            achieved = objective(shared_plan, obj)
        except InfeasibleLP:
            achieved = -math.inf
        records.append(
            RegretRecord(
                scenario_id=sid,
                optimal_objective=opt_value,
                achieved_objective=achieved,
                regret=opt_value - achieved,
            )
        )
    return records


def _ranks(values: np.ndarray) -> np.ndarray:
    # average ranks for ties
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


def _spearman(a: np.ndarray, b: np.ndarray) -> float:
    ra, rb = _ranks(a), _ranks(b)
    sa, sb = ra.std(), rb.std()
    if sa == 0.0 or sb == 0.0:
        return 1.0 if np.array_equal(ra, rb) else 0.0
    return float(np.corrcoef(ra, rb)[0, 1])


def generalization_report(
    in_sample: Sequence[RegretRecord],
    out_sample: Sequence[RegretRecord],
    path: Optional[str] = None,
) -> Dict:
    """Matched-quantile (Q-Q) comparison of in- vs out-of-sample regret."""
    if not in_sample or not out_sample:
        raise ValueError("both record lists must be nonempty")
    r_in = np.array([r.regret for r in in_sample])
    r_out = np.array([r.regret for r in out_sample])
    skipped = int((~np.isfinite(r_in)).sum() + (~np.isfinite(r_out)).sum())
    r_in = r_in[np.isfinite(r_in)]
    r_out = r_out[np.isfinite(r_out)]
    if r_in.size == 0 or r_out.size == 0:
        raise ValueError("no finite regrets to compare")
    levels = np.linspace(0.0, 1.0, 101)
    q_in = np.quantile(r_in, levels, method="linear")
    q_out = np.quantile(r_out, levels, method="linear")
    pairs = list(zip(q_in.tolist(), q_out.tolist()))
    deviation = float(np.median(np.abs(q_in - q_out)))
    report = {
        "quantile_pairs": pairs,
        "spearman": _spearman(q_in, q_out),
        "median_abs_diagonal_deviation": deviation,
        "skipped_nonfinite": skipped,
    }
    if path:
        with open(path, "w") as f:
            f.write("percentile,in_sample,out_sample\n")
            for lv, (qi, qo) in zip(levels, pairs):
                f.write(f"{float(lv)!r},{float(qi)!r},{float(qo)!r}\n")
    return report


def regret_to_csv(
    records: Sequence[Tuple[str, RegretRecord]], path: str
) -> None:
    """Rows of (sample label, record) -> regret.csv."""
    with open(path, "w") as f:
        f.write("scenario_id,optimal,achieved,regret,sample\n")
        for label, r in records:
            f.write(
                f"{r.scenario_id},{float(r.optimal_objective)!r},"
                f"{float(r.achieved_objective)!r},{float(r.regret)!r},{label}\n"
            )


def summary_to_csv(stats: Dict[str, Dict[str, float]], path: str) -> None:
    """Nested {group: {stat: value}} -> summary.csv rows."""
    with open(path, "w") as f:
        f.write("group,stat,value\n")
        for group in sorted(stats):
            for stat, value in stats[group].items():
                f.write(f"{group},{stat},{value!r}\n")
