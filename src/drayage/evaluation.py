"""Regret profiles and generalization diagnostics.

The summary statistics (summarize) live in capopt, beside the Monte Carlo
sweep that reports them, and are re-exported here.

A regret profile is one LP-valued CapacityObjective over all its scenarios:
one multistage-LP layout with a row of costs and right-hand sides per
scenario, and both numbers of a record are solved on the objective's one
HiGHS model. The achieved value is the scenario's row at the shared plan.
The per-scenario optimum is exact: the same row at the box caps, with the
reservation rates folded into the move costs, collapses the joint
(capacity, operations) minimum to one LP. This keeps the dominance property
regret >= 0 exact up to LP tolerance, which a finite-difference
quasi-Newton search cannot guarantee on a piecewise-linear landscape.
"""

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .capopt import CapacityObjective, _caps_to_plan, reservation_cost, summarize
from .model import CapacityPlan, Instance, Scenario


@dataclass(frozen=True, slots=True)
class RegretRecord:
    scenario_id: int
    optimal_objective: float
    achieved_objective: float
    regret: float


# ---------------------------------------------------------------------------
# Per-scenario optimum


def _folded_costs(obj: CapacityObjective, costs: np.ndarray) -> np.ndarray:
    """Cost rows of obj with each move's reservation rate added: each move
    column sits in exactly one cap row, its source-period's."""
    return costs + obj.rates_array.ravel() @ obj.cap_matrix


def per_scenario_optimum(obj: CapacityObjective, k: int = 0) -> Tuple[CapacityPlan, float]:
    """Best capacity plan and objective for scenario k of an LP objective alone.

    Draw k at the box caps with the reservation rates added to the move
    costs, solved on the objective's model: with rates >= 0 the best
    reservation is the usage, so this is optimize_capacity_exact's one-block
    extensive form with the capacity columns folded away. The plan reserves
    what the optimum uses. When even the box plan cannot operate the
    scenario, no plan can, and the result is the box plan with objective -inf.
    """
    box = obj.box_upper
    res = obj.solve_at(k, box, _folded_costs(obj, obj.costs[k]))
    if res.status == "infeasible":
        return _caps_to_plan(obj.instance, box), -math.inf
    usage = obj.cap_matrix @ res.x
    return _caps_to_plan(obj.instance, usage.reshape(box.shape)), -res.objective


# ---------------------------------------------------------------------------
# Regret


def regret_profile(
    instance: Instance,
    shared_plan: CapacityPlan,
    scenarios: Sequence[Scenario],
) -> List[RegretRecord]:
    """One record per scenario: per-scenario optimum minus shared-plan value.

    The optimum is per_scenario_optimum's value, from the same folded costs
    (folded once for the whole profile); its plan is not built. A scenario
    only the shared plan cannot operate gets achieved = -inf and regret =
    +inf; one no plan can operate (a cap above action_max is redundant, so
    the box is the best plan) gets optimal = achieved = -inf and regret NaN,
    with no achieved solve. Reports skip both.
    """
    if not scenarios:
        return []
    obj = CapacityObjective(instance, weighted_scenarios=tuple((sc, 1.0) for sc in scenarios))
    caps = shared_plan.as_array(obj.source_ids)
    reserved = reservation_cost(shared_plan, obj.rates)
    folded = _folded_costs(obj, obj.costs)
    records = []
    for k in range(len(scenarios)):
        best = obj.solve_at(k, obj.box_upper, folded[k])
        opt_value = -math.inf if best.status == "infeasible" else -best.objective
        res = None if opt_value == -math.inf else obj.solve_at(k, caps)
        # 0.0 - objective, as value_of_caps sums it: an objective of 0 gives +0.0
        value = None if res is None or res.status == "infeasible" else 0.0 - res.objective
        achieved = -math.inf if value is None else value - reserved
        records.append(RegretRecord(k, opt_value, achieved, opt_value - achieved))
    return records


def _ranks(values: np.ndarray) -> np.ndarray:
    # 1-based ranks; tied values share the mean of their positions
    _, inv, counts = np.unique(values, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return (ends - (counts - 1) / 2)[inv]


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
