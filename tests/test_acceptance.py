"""Acceptance gate: nine numbered criteria, one test (one pass/fail line) each.

Budget-sensitive pieces run at CI scale by default: criterion 3 samples
M=10^4 capacity vectors and checks the bound form of the grid statistics;
setting DRAYAGE_FULL_MC=1 escalates to the full M=10^6 sweep and adds the
interior statistics. Criterion 8 solves the genuine N=1000 sample-average
plan exactly, as one extensive-form LP, single-threaded.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from drayage import dp, evaluation, reference
from drayage.alloc import INFEASIBLE, solve_allocation
from drayage.capopt import (
    OptConfig,
    objective,
    monte_carlo_search,
    optimize_capacity,
    optimize_capacity_saa,
    scenario_objective,
)
from drayage.model import SystemState, exogenous_support_size, state_space_size
from drayage.mslp import build_mslp, solve_mslp
from drayage.scenario import build_sample_set, sample_scenarios
import test_properties
from helpers import (
    all_states,
    brute_force_allocation,
    build_problem,
    enumerate_policy_value,
    micro_instance,
    micro_scenario,
    plan_caps_at,
    random_plan,
    relaxation_triple,
)

BASE_TOTAL = 557.2
TUNED_TOTAL = 439.2
IMPROVEMENT_PCT = 21.2
GRID_MAX_TOTAL = 1671.5


def test_criterion_1_headline_costs(capacity_instance, demo_scenario):
    """Baseline caps cost 557.2, tuned caps 439.2, a 21.2% reduction; <10 s."""
    t0 = time.monotonic()
    obj = scenario_objective(capacity_instance, demo_scenario)
    try:
        total_base = -objective(reference.baseline_plan(), obj)
        total_tuned = -objective(reference.tuned_plan(), obj)
    finally:
        obj.close()
    elapsed = time.monotonic() - t0

    assert total_base == pytest.approx(BASE_TOTAL, abs=0.1)
    assert total_tuned == pytest.approx(TUNED_TOTAL, abs=0.1)
    improvement = 100.0 * (total_base - total_tuned) / total_base
    assert improvement == pytest.approx(IMPROVEMENT_PCT, abs=0.2)
    assert elapsed < 10.0


def test_criterion_2_optimizer_reaches_tuned_cost(capacity_instance, demo_scenario):
    """Quasi-Newton search from the baseline caps lands at <= 439.7; <60 s."""
    t0 = time.monotonic()
    obj = scenario_objective(capacity_instance, demo_scenario)
    try:
        res = optimize_capacity(
            obj,
            reference.baseline_plan(),
            config=OptConfig(restarts=1, max_iter=25, seed=0),
        )
    finally:
        obj.close()
    elapsed = time.monotonic() - t0

    assert res.total_cost <= 439.7
    assert elapsed < 60.0


def test_criterion_3_capacity_grid_statistics(capacity_instance, demo_scenario):
    """Uniform capacity sampling reproduces the cost-grid statistics.

    Sampling the grid is not exhaustive, so min/max are asserted as bounds
    (sampled min >= 439.2 - 0.1, sampled max <= 1671.5 + 0.1) plus the tuned
    plan re-evaluating to 439.2 +- 0.1. The full M=10^6 run (DRAYAGE_FULL_MC=1)
    also pins min cost-per-TEU and the interior statistics within 2%.
    """
    full = os.environ.get("DRAYAGE_FULL_MC") == "1"
    count = 1_000_000 if full else 10_000

    obj = scenario_objective(capacity_instance, demo_scenario)
    try:
        _, stats = monte_carlo_search(obj, count=count, seed=0)
        total_tuned = -objective(reference.tuned_plan(), obj)
        denom = obj.flow_denominator()
    finally:
        obj.close()

    tc, cp = stats["total_cost"], stats["cost_per_teu"]
    assert tc["min"] >= TUNED_TOTAL - 0.1
    assert tc["max"] <= GRID_MAX_TOTAL + 0.1
    assert total_tuned == pytest.approx(TUNED_TOTAL, abs=0.1)
    # one shared flow denominator, so the per-TEU summary is total/flow
    assert denom == pytest.approx(40.0, abs=1e-9)
    assert cp["min"] == pytest.approx(tc["min"] / denom, abs=1e-9)
    assert stats["feasible"] + stats["infeasible"] == count

    if full:
        assert tc["min"] == pytest.approx(TUNED_TOTAL, abs=0.1)
        assert cp["min"] == pytest.approx(10.98, abs=0.01)
        assert tc["median"] == pytest.approx(566.2, rel=0.02)
        assert tc["mean"] == pytest.approx(579.6, rel=0.02)
        assert tc["max"] == pytest.approx(GRID_MAX_TOTAL, rel=0.02)


def test_criterion_4_cardinalities(capacity_instance):
    """Exact state, support, scenario, and capacity-grid counts."""
    inst = capacity_instance
    assert state_space_size(inst) == 231
    assert exogenous_support_size(inst) == 18

    scenario_count = exogenous_support_size(inst) ** inst.horizon
    assert scenario_count == 104_976

    levels = inst.bounds.action_max + 1
    grid_count = levels ** (len(inst.sources) * inst.horizon)
    assert grid_count == 214_358_881


def test_criterion_5_micro_instance_equivalence():
    """DP equals exhaustive policy enumeration; allocation equals brute force.

    >= 20 random micro instances (stock bounds <= 3, horizon <= 2, support
    <= 8), each checked at every grid state, plus integer brute-force
    comparison of the allocation solver on random subproblems. < 30 s.
    """
    t0 = time.monotonic()
    rng = np.random.default_rng(1905)
    shapes = [(1, 1), (2, 1), (1, 2)]
    for trial in range(20):
        n_entries, n_exits = shapes[trial % len(shapes)]
        inst = micro_instance(rng, n_entries=n_entries, n_exits=n_exits)
        scenario = micro_scenario(rng, inst)
        plan = random_plan(rng, inst)

        table, _ = dp.solve_scenario(inst, scenario, plan)
        memo = {}  # continuations shared by this instance's start states
        for state in all_states(inst):
            expect = enumerate_policy_value(inst, scenario, plan, state, memo=memo)
            assert table.value(1, state) == pytest.approx(expect, abs=1e-9)

        states = all_states(inst)
        for _ in range(10):
            state = states[int(rng.integers(0, len(states)))]
            period = int(rng.integers(1, inst.horizon + 1))
            z = scenario.realizations[period - 1]
            a = int(rng.integers(0, inst.bounds.action_max + 1))
            problem = build_problem(
                state, a, z, plan_caps_at(plan, period), inst, period
            )
            got = solve_allocation(problem)
            expect = brute_force_allocation(problem)
            if got is INFEASIBLE:
                assert expect is None
            else:
                assert expect is not None
                assert got.cost == pytest.approx(expect, abs=1e-9)
    assert time.monotonic() - t0 < 30.0


def test_criterion_6_relaxation_bound():
    """-LP cost >= DP value at the initial state on 100 random triples.

    Equality must hold whenever the LP solution is integral. Tolerance 1e-6.
    """
    rng = np.random.default_rng(424)
    integral_hits = 0
    for _ in range(100):
        inst, scenario, plan = relaxation_triple(rng)
        table, _ = dp.solve_scenario(inst, scenario, plan)
        v1 = table.value(1, inst.initial_state)
        sol = solve_mslp(build_mslp(inst, scenario, plan, initial="fixed"))
        assert -sol.cost >= v1 - 1e-6
        if sol.integral:
            integral_hits += 1
            assert -sol.cost == pytest.approx(v1, abs=1e-6)
    assert integral_hits >= 10  # the equality branch is genuinely exercised


def _exact_expected_dp(instance, sample, plan, gamma=1.0):
    """Independent scalar exact-expectation recursion over one entry/exit.

    Mirrors the production accumulation order exactly -- per (state, action)
    the realization terms w*(-c + gamma*V_next) are summed in first-seen
    support order with the holding cost applied once outside the sum, and
    value ties break toward the smaller action -- so bit-for-bit equality of
    the float tables is well-defined. Everything else (greedy split cost,
    clamped transition, feasibility cut) is recomputed from first principles.
    """
    i = instance.network.entries[0]
    j = instance.network.exits[0]
    b = instance.bounds
    ne = b.entry_max[i] + 1
    back = b.exit_backorder_max[j]
    ns = back + b.exit_max[j] + 1
    amax = b.action_max
    tau = instance.horizon
    slopes = instance.costs.terminal_slopes

    values = np.empty((tau + 1, ne * ns))
    actions = np.zeros((tau, ne * ns), dtype=int)
    for e in range(ne):
        for k in range(ns):
            s = k - back
            parts = [float(e), float(max(s, 0)), float(-min(s, 0))]
            values[tau, e * ns + k] = -float(np.dot(slopes, parts))

    lane = instance.network.lanes[0]
    he = instance.costs.entry_holding[i]
    hd = instance.costs.exit_holding[j]
    hb = instance.costs.exit_backorder[j]

    for t in range(tau, 0, -1):
        caps = {
            sid: float(per_t[t - 1]) for sid, per_t in plan.capacity.items()
        }
        # fold duplicate draws onto their first occurrence (order preserved)
        folded = []
        seen = {}
        for z, w in zip(sample.realizations[t - 1], sample.weights[t - 1]):
            key = (
                tuple(sorted(z.inflow.items())),
                tuple(sorted(z.outflow.items())),
                tuple(
                    (sid, lane_key, rate)
                    for sid, lanes in sorted(z.spot_rates.items())
                    for lane_key, rate in sorted(lanes.items())
                ),
            )
            if key in seen:
                folded[seen[key]][1] += w
            else:
                seen[key] = len(folded)
                folded.append([z, w])

        # per-realization action costs by cheapest-first greedy fill
        zcosts = []
        q_min = np.inf
        cap_total = np.inf
        for z, _ in folded:
            pairs = []
            for src in instance.sources:
                if lane not in src.lanes:
                    continue
                if src.kind == "strategic":
                    r = float(src.execution_cost[lane][t - 1])
                else:
                    r = float(z.spot_rates[src.id][lane])
                pairs.append((r, caps.get(src.id, 0.0)))
            pairs.sort(key=lambda rc: rc[0])
            capsum = sum(c for _, c in pairs)
            costs = np.full(amax + 1, np.inf)
            for a in range(amax + 1):
                if a > capsum + 1e-9:
                    break
                left = float(a)
                c = 0.0
                for r, cap_k in pairs:
                    take = min(left, cap_k)
                    c += take * r
                    left -= take
                    if left <= 1e-12:
                        break
                costs[a] = c
            zcosts.append(costs)
            cap_total = min(cap_total, float(np.sum(np.isfinite(costs)) - 1))
            q_min = min(q_min, z.inflow[i])

        vnext = values[t]
        for e in range(ne):
            for k in range(ns):
                s = k - back
                space = b.exit_max[j] - s
                a_cap = min(min(e + q_min, space), cap_total)
                best_v = -np.inf
                best_a = 0
                for a in range(amax + 1):
                    if a > a_cap:
                        break
                    acc = 0.0
                    for (z, w), costs in zip(folded, zcosts):
                        c = costs[a] if np.isfinite(costs[a]) else 0.0
                        en = min(max(e - a + z.inflow[i], 0), ne - 1)
                        sn = min(max(s + a - z.outflow[j], -back), b.exit_max[j])
                        acc += w * (-c + gamma * vnext[en * ns + (sn + back)])
                    if acc > best_v:
                        best_v = acc
                        best_a = a
                hold = he * e + hd * max(s, 0) + hb * (-min(s, 0))
                values[t - 1, e * ns + k] = -hold + best_v
                actions[t - 1, e * ns + k] = best_a

    return values, actions


def test_criterion_7_saa_consistency(capacity_instance):
    """Enumerated expectation is bit-exact; iid value error shrinks with N."""
    inst = capacity_instance
    exact_sample = build_sample_set(inst, 0, seed=0, mode="enumerate")

    for plan in (reference.baseline_plan(), reference.tuned_plan()):
        table, policy = dp.solve_expected(inst, exact_sample, plan)
        values, actions = _exact_expected_dp(inst, exact_sample, plan)
        assert np.array_equal(table.values, values)
        assert np.array_equal(policy.actions, actions)

    plan = reference.baseline_plan()
    table, _ = dp.solve_expected(inst, exact_sample, plan)
    probe = SystemState(entry_stock={1: 0}, exit_stock={2: 8})
    exact_value = table.value(1, probe)

    mean_errors = []
    for n in (10, 100, 1000):
        errs = []
        for seed in range(20):
            sample = build_sample_set(inst, n, seed=seed, mode="iid")
            vt, _ = dp.solve_expected(inst, sample, plan)
            errs.append(abs(vt.value(1, probe) - exact_value))
        mean_errors.append(float(np.mean(errs)))
    assert mean_errors[0] > mean_errors[1] > mean_errors[2]


def test_criterion_8_regret_generalization(capacity_instance):
    """The N=1000 sample-average plan has nonnegative regrets in and out of
    sample, and the in/out regret quantiles align (Spearman >= 0.95); <30 min.

    Scenarios no capacity plan can operate (hard storage bounds) produce
    optimal = achieved = -inf and a non-finite regret; those must be rare,
    must never stem from a finite optimum, and are skipped by the report.
    """
    t0 = time.monotonic()
    inst = capacity_instance
    res = optimize_capacity_saa(
        inst,
        1000,
        seed=0,
        config=OptConfig(restarts=0, max_iter=6, seed=0),
    )

    in_sample = sample_scenarios(inst, 1000, 0)  # the optimizer's own draws
    out_sample = sample_scenarios(inst, 1000, 1)
    rec_in = evaluation.regret_profile(inst, res.best_plan, in_sample)
    rec_out = evaluation.regret_profile(inst, res.best_plan, out_sample)
    assert len(rec_in) == len(rec_out) == 1000

    nonfinite = 0
    for rec in rec_in + rec_out:
        if np.isfinite(rec.regret):
            assert rec.regret >= -1e-4
        else:
            nonfinite += 1
            assert rec.optimal_objective == -np.inf
    assert nonfinite <= 0.02 * 2000

    report = evaluation.generalization_report(rec_in, rec_out)
    assert report["spearman"] >= 0.95
    assert time.monotonic() - t0 < 1800.0


def test_criterion_9_invariant_suites(property_outcomes):
    """Randomized invariant properties (>=1000 cases each) pass wholesale.

    Every property test of test_properties.py must have passed in this
    session: conftest records their outcomes and runs this test after them.
    When some of them did not run here (say under -k criterion_9), a child
    pytest runs the whole file instead.
    """
    names = {name for name in vars(test_properties) if name.startswith("test_")}
    if names <= set(property_outcomes):
        failed = sorted(name for name in names if property_outcomes[name] != "passed")
        assert not failed, f"property tests that did not pass: {failed}"
        return
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            str(Path(__file__).parent / "test_properties.py"),
            "-q",
            "-p",
            "no:cacheprovider",
        ],
        cwd=str(Path(__file__).parent.parent),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
