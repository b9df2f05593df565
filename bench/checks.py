"""Correctness checks on workload outputs. Each returns a list of messages,
empty when the check holds; none of them runs inside a timed section."""

import math
from typing import List, Sequence

import numpy as np

import oracle

# The paper's single-lane study: baseline and tuned plan costs on the
# demonstration scenario, and the range of the capacity-grid cost.
BASELINE_COST = 557.2
TUNED_COST = 439.2
REDUCTION_PCT = 21.2
QN_MAX_COST = 439.7
GRID_MIN_COST = 439.1
GRID_MAX_COST = 1671.6
NONFINITE_SHARE = 0.02


def saa_plan(instance, scenarios, caps: np.ndarray, plan_cost: float) -> List[str]:
    """The reported SAA plan cost is the plan's true mean LP cost over the
    operable draws plus reservation, and no lower than the exact optimum."""
    msgs = []
    kept = oracle.operable(instance, scenarios)
    if not kept:
        return ["no operable scenario in the SAA draw"]
    truth = oracle.plan_total_cost(instance, kept, caps)
    if truth is None:
        msgs.append("SAA plan is infeasible on an operable in-sample scenario")
    elif abs(plan_cost - truth) > 1e-6:
        msgs.append(f"SAA plan cost {plan_cost!r} != HiGHS mean cost {truth!r}")
    exact = oracle.saa_optimum(instance, kept)
    if plan_cost < exact - 1e-6:
        msgs.append(f"SAA plan cost {plan_cost!r} below the exact SAA optimum {exact!r}")
    return msgs


def regrets(records: Sequence, spearman: float) -> List[str]:
    msgs = []
    nonfinite = 0
    for r in records:
        if math.isfinite(r.regret):
            if r.regret < -1e-4:
                msgs.append(f"negative regret {r.regret!r} on scenario {r.scenario_id}")
        else:
            nonfinite += 1
            if r.optimal_objective != -math.inf:
                msgs.append(
                    f"non-finite regret with finite optimum on scenario {r.scenario_id}"
                )
    if nonfinite > NONFINITE_SHARE * len(records):
        msgs.append(f"{nonfinite} of {len(records)} regrets non-finite")
    if not spearman >= 0.95:
        msgs.append(f"in/out quantile Spearman {spearman!r} < 0.95")
    return msgs


def policy_evaluation(solved_values: np.ndarray, evaluated_values: np.ndarray) -> List[str]:
    """evaluate_policy of the optimal policy reproduces the optimal values."""
    gap = float(np.max(np.abs(solved_values - evaluated_values)))
    if not gap <= 1e-9:
        return [f"evaluate_policy differs from solve_expected by {gap!r}"]
    return []


def clamps(instance, scenario, trajectory) -> bool:
    """True when a DP trajectory leaves the stock bounds before clamping.

    The DP transition drops entry overflow and backorders beyond the bound
    free of charge; the multistage LP forbids both. Only an unclamped
    optimal trajectory is a feasible LP point, so only there does the LP
    bound the perfect-information DP value.
    """
    b = instance.bounds
    for step, z in zip(trajectory.steps, scenario.realizations):
        for i, s in step.state.entry_stock.items():
            moved = sum(m for (ii, _), m in step.lane_totals.items() if ii == i)
            if not 0 <= s - moved + z.inflow[i] <= b.entry_max[i]:
                return True
        for j, s in step.state.exit_stock.items():
            moved = sum(m for (_, jj), m in step.lane_totals.items() if jj == j)
            if not -b.exit_backorder_max[j] <= s + moved - z.outflow[j] <= b.exit_max[j]:
                return True
    return False


def relaxation(instance, scenario, plan, dp_value: float) -> List[str]:
    """The negated LP cost bounds the perfect-information DP value of an
    unclamped trajectory (see ``clamps``)."""
    cost = oracle.operating_cost(
        instance, scenario, oracle.caps_vector(instance, plan), initial="fixed"
    )
    if cost is None:
        return ["LP relaxation infeasible where the DP found a policy"]
    if -cost < dp_value - 1e-6:
        return [f"-LP cost {-cost!r} below DP value {dp_value!r}"]
    return []


def rollout(pi_value: float, rollout_cost: float) -> List[str]:
    """No policy beats perfect information on its own scenario."""
    if pi_value < -rollout_cost - 1e-9:
        return [f"perfect-information value {pi_value!r} < -rollout cost {-rollout_cost!r}"]
    return []


def reference_costs(baseline: float, tuned: float, searched: float) -> List[str]:
    msgs = []
    if abs(baseline - BASELINE_COST) > 0.1:
        msgs.append(f"baseline plan cost {baseline!r} != {BASELINE_COST}")
    if abs(tuned - TUNED_COST) > 0.1:
        msgs.append(f"tuned plan cost {tuned!r} != {TUNED_COST}")
    pct = 100.0 * (baseline - tuned) / baseline
    if abs(pct - REDUCTION_PCT) > 0.2:
        msgs.append(f"reduction {pct!r}% != {REDUCTION_PCT}%")
    if not searched <= QN_MAX_COST:
        msgs.append(f"quasi-Newton search cost {searched!r} > {QN_MAX_COST}")
    return msgs


def plan_cost(instance, scenario, caps: np.ndarray, reported: float) -> List[str]:
    """A plan's reported total cost on one scenario equals its HiGHS cost."""
    cost = oracle.operating_cost(instance, scenario, caps)
    if cost is None:
        return [f"plan with reported cost {reported!r} is infeasible"]
    truth = cost + oracle.reservation(instance, caps)
    if abs(reported - truth) > 1e-6:
        return [f"plan cost {reported!r} != HiGHS cost {truth!r}"]
    return []


def monte_carlo(costs: Sequence, count: int, stats: dict) -> List[str]:
    """Per-sample costs (None = infeasible) from the sweep's samples file."""
    msgs = []
    feasible = [c for c in costs if c is not None]
    if len(costs) != count:
        msgs.append(f"{len(costs)} samples written, {count} requested")
    if stats["feasible"] + stats["infeasible"] != count:
        msgs.append("feasible plus infeasible samples != count")
    if stats["feasible"] != len(feasible):
        msgs.append("feasible count disagrees with the samples file")
    bad = [c for c in feasible if not GRID_MIN_COST <= c <= GRID_MAX_COST]
    if bad:
        msgs.append(
            f"{len(bad)} feasible costs outside [{GRID_MIN_COST}, {GRID_MAX_COST}], "
            f"e.g. {bad[0]!r}"
        )
    if feasible and abs(min(feasible) - stats["total_cost"]["min"]) > 1e-9:
        msgs.append("summary minimum disagrees with the samples file")
    return msgs
