"""Per-scenario linear program: pinned optima, duality with the DP, and an
independent HiGHS cross-check."""

import dataclasses

import numpy as np
import pytest

from drayage.alloc import lane_costs
from drayage.capopt import sample_objective, scenario_objective
from drayage.dp import solve_scenario
from drayage.evaluation import per_scenario_optimum
from drayage import reference
from drayage.model import (
    CapacityPlan,
    ExogenousRealization,
    Scenario,
    generate_default_plan,
    generate_instance,
)
from drayage.mslp import INTEGRALITY_TOL, InfeasibleLP, build_mslp, scenario_rows, solve_mslp
from drayage.scenario import sample_scenarios

from helpers import relaxation_triple


# ---------------------------------------------------------------------------
# Pinned reference optima (demo scenario)


@pytest.mark.parametrize(
    "plan_name,initial,expected",
    [
        ("baseline", "fixed", 505.52),
        ("baseline", "free", 462.46),
        ("tuned", "fixed", 403.52),
        ("tuned", "free", 403.52),
    ],
)
def test_reference_optima(
    capacity_instance, demo_scenario, baseline_plan, tuned_plan,
    plan_name, initial, expected,
):
    plan = baseline_plan if plan_name == "baseline" else tuned_plan
    sol = solve_mslp(build_mslp(capacity_instance, demo_scenario, plan, initial=initial))
    assert sol.cost == pytest.approx(expected, abs=1e-9)
    assert sol.integral


def test_joint_capacity_operations_optimum(capacity_instance, demo_scenario):
    # Reservation priced into the move rates over a full-size capacity box
    # collapses the joint (caps, moves) minimization into one LP.
    plan, value = per_scenario_optimum(scenario_objective(capacity_instance, demo_scenario))
    assert value == pytest.approx(-439.2, abs=1e-9)
    caps = np.array([plan.capacity[s.id] for s in capacity_instance.sources])
    assert np.all(np.abs(caps - np.round(caps)) <= INTEGRALITY_TOL)


def test_fixed_initial_never_cheaper_than_free(
    capacity_instance, demo_scenario, baseline_plan
):
    fixed = solve_mslp(build_mslp(capacity_instance, demo_scenario, baseline_plan))
    free = solve_mslp(
        build_mslp(capacity_instance, demo_scenario, baseline_plan, initial="free")
    )
    assert fixed.cost >= free.cost - 1e-9


# ---------------------------------------------------------------------------
# Relaxation bound against the DP


def test_lp_bounds_dp_value_on_clamp_free_triples():
    rng = np.random.Generator(np.random.Philox(20240811))
    integral_hits = 0
    for trial in range(30):
        inst, scen, plan = relaxation_triple(rng)
        sol = solve_mslp(build_mslp(inst, scen, plan))
        vt, _ = solve_scenario(inst, scen, plan)
        v1 = vt.value(1, inst.initial_state)
        assert -sol.cost >= v1 - 1e-6
        if sol.integral:
            assert -sol.cost == pytest.approx(v1, abs=1e-6)
            integral_hits += 1
    assert integral_hits >= 10  # unimodular structure should make most integral


def test_free_mode_meets_best_initial_state(
    capacity_instance, demo_scenario, tuned_plan
):
    sol = solve_mslp(
        build_mslp(capacity_instance, demo_scenario, tuned_plan, initial="free")
    )
    vt, _ = solve_scenario(capacity_instance, demo_scenario, tuned_plan)
    _, best = vt.best_initial_state()
    assert -sol.cost == pytest.approx(best, abs=1e-6)


# ---------------------------------------------------------------------------
# Solution structure


def _reconstruct_cost(instance, scenario, sol):
    costs = instance.costs
    total = 0.0
    for (sid, lane, t), m in sol.moves.items():
        src = next(s for s in instance.sources if s.id == sid)
        if src.kind == "strategic":
            rate = src.execution_cost[lane][t - 1]
        else:
            rate = scenario.realizations[t - 1].spot_rates[sid][lane]
        total += rate * m
    tau = instance.horizon
    for t in range(1, tau + 1):
        st = sol.states[t - 1]
        total += sum(costs.entry_holding[i] * v for i, v in st["entry"].items())
        total += sum(costs.exit_holding[j] * v for j, v in st["exit_plus"].items())
        total += sum(costs.exit_backorder[j] * v for j, v in st["exit_minus"].items())
    slopes = costs.terminal_slopes
    final = sol.states[tau]
    parts = [v for _, v in sorted(final["entry"].items())]
    parts += [v for _, v in sorted(final["exit_plus"].items())]
    parts += [v for _, v in sorted(final["exit_minus"].items())]
    total += float(np.dot(slopes, parts))
    return total


def test_objective_reconstructs_from_solution(
    capacity_instance, demo_scenario, baseline_plan
):
    sol = solve_mslp(build_mslp(capacity_instance, demo_scenario, baseline_plan))
    assert _reconstruct_cost(capacity_instance, demo_scenario, sol) == pytest.approx(
        sol.cost, abs=1e-9
    )


def test_objective_reconstructs_on_random_triples():
    rng = np.random.Generator(np.random.Philox(8))
    for _ in range(10):
        inst, scen, plan = relaxation_triple(rng)
        sol = solve_mslp(build_mslp(inst, scen, plan))
        assert _reconstruct_cost(inst, scen, sol) == pytest.approx(sol.cost, abs=1e-9)


def test_exit_split_complementary(capacity_instance, demo_scenario, baseline_plan):
    # Positive holding rates on both parts keep s+ and s- from overlapping.
    sol = solve_mslp(build_mslp(capacity_instance, demo_scenario, baseline_plan))
    for st in sol.states:
        for j, sp in st["exit_plus"].items():
            assert sp * st["exit_minus"][j] <= 1e-9


def test_balance_chain_residuals(capacity_instance, demo_scenario, baseline_plan):
    sol = solve_mslp(build_mslp(capacity_instance, demo_scenario, baseline_plan))
    tau = capacity_instance.horizon
    for t in range(1, tau + 1):
        z = demo_scenario.realizations[t - 1]
        for i in capacity_instance.network.entries:
            out = sum(
                m for (sid, lane, tt), m in sol.moves.items()
                if tt == t and lane[0] == i
            )
            lhs = sol.states[t]["entry"][i]
            rhs = sol.states[t - 1]["entry"][i] + z.inflow[i] - out
            assert lhs == pytest.approx(rhs, abs=1e-9)
        for j in capacity_instance.network.exits:
            inbound = sum(
                m for (sid, lane, tt), m in sol.moves.items()
                if tt == t and lane[1] == j
            )
            net_next = sol.states[t]["exit_plus"][j] - sol.states[t]["exit_minus"][j]
            net_now = sol.states[t - 1]["exit_plus"][j] - sol.states[t - 1]["exit_minus"][j]
            assert net_next == pytest.approx(net_now + inbound - z.outflow[j], abs=1e-9)


def test_moves_respect_caps_and_action_bound(
    capacity_instance, demo_scenario, tuned_plan
):
    sol = solve_mslp(build_mslp(capacity_instance, demo_scenario, tuned_plan))
    tau = capacity_instance.horizon
    for t in range(1, tau + 1):
        total = 0.0
        for s in capacity_instance.sources:
            used = sum(
                m for (sid, lane, tt), m in sol.moves.items()
                if sid == s.id and tt == t
            )
            assert used <= tuned_plan.capacity[s.id][t - 1] + 1e-9
            total += used
        assert total <= capacity_instance.bounds.action_max + 1e-9


# ---------------------------------------------------------------------------
# Infeasibility and input validation


def test_zero_capacity_is_infeasible(capacity_instance, demo_scenario):
    # Cumulative inflow overruns the entry bound unless boxes move out.
    zero = CapacityPlan(
        capacity={
            s.id: (0,) * capacity_instance.horizon
            for s in capacity_instance.sources
        }
    )
    with pytest.raises(InfeasibleLP):
        solve_mslp(build_mslp(capacity_instance, demo_scenario, zero))


def test_bad_initial_mode_rejected(capacity_instance, demo_scenario, baseline_plan):
    with pytest.raises(ValueError):
        build_mslp(capacity_instance, demo_scenario, baseline_plan, initial="pinned")


def test_scenario_length_mismatch_rejected(
    capacity_instance, demo_scenario, baseline_plan
):
    short = Scenario(realizations=demo_scenario.realizations[:1])
    with pytest.raises(ValueError):
        build_mslp(capacity_instance, short, baseline_plan)


def test_with_plan_reprices_capacity_rows(
    capacity_instance, demo_scenario, baseline_plan, tuned_plan
):
    # refilling the cap rows' right-hand sides equals a build at the new plan
    lp = build_mslp(capacity_instance, demo_scenario, baseline_plan)
    sids = [s.id for s in capacity_instance.sources]
    b_ub = lp.b_ub.copy()
    b_ub[lp.cap_row_index(sids)] = tuned_plan.as_array(sids).ravel()
    retargeted = dataclasses.replace(lp, b_ub=b_ub)
    direct = build_mslp(capacity_instance, demo_scenario, tuned_plan)
    assert np.array_equal(retargeted.b_ub, direct.b_ub)
    assert solve_mslp(retargeted).cost == pytest.approx(403.52, abs=1e-9)


# ---------------------------------------------------------------------------
# Layout shared by every scenario of a capacity objective and the regret fold


def _layout_instance(shape):
    if shape is None:
        return reference.example_instance("capacity")
    n_entries, n_exits = shape
    return generate_instance(3, dict(
        n_entries=n_entries, n_exits=n_exits, n_bids=2, n_spot=1, horizon=3,
        cost_mean=20.0, cost_sd=5.0, cost_min=1.0, capacity_levels=4,
    ))


def _shifted(scenario):
    """Every flow and spot rate one higher: other costs and right-hand sides."""
    return Scenario(tuple(
        ExogenousRealization(
            {k: v + 1 for k, v in z.inflow.items()},
            {k: v + 1 for k, v in z.outflow.items()},
            {sid: {lane: r + 1.0 for lane, r in lanes.items()}
             for sid, lanes in z.spot_rates.items()},
            z.probability,
        )
        for z in scenario.realizations
    ))


@pytest.mark.parametrize("initial", ["fixed", "free"])
@pytest.mark.parametrize("shape", [None, (2, 1), (1, 2), (2, 2)],
                         ids=["capacity", "2x1", "1x2", "2x2"])
def test_cap_rows_and_shared_layout(shape, initial):
    inst = _layout_instance(shape)
    scen = sample_scenarios(inst, 1, 0)[0]
    plan = generate_default_plan(0, inst)
    lp = build_mslp(inst, scen, plan, initial=initial)
    sids = [s.id for s in inst.sources]
    tau = inst.horizon
    # each move column meets exactly one cap row, its own source-period's, with a 1
    cap_index = np.array(lp.cap_row_index(sids))
    for (sid, _, t), col in lp.move_cols.items():
        hit = cap_index[np.flatnonzero(lp.A_ub[cap_index, col])]
        assert hit.tolist() == [lp.cap_rows[(sid, t)]]
        assert lp.A_ub[lp.cap_rows[(sid, t)], col] == 1.0
    # the cap rows' activity is the per-(source, period) sum of the move columns
    x = np.random.Generator(np.random.Philox(0)).uniform(0.0, 5.0, lp.c.size)
    usage = np.zeros((len(sids), tau))
    for (sid, _, t), col in lp.move_cols.items():
        usage[sids.index(sid), t - 1] += x[col]
    assert np.allclose(lp.A_ub[cap_index] @ x, usage.ravel(), rtol=0.0, atol=1e-12)
    # another scenario changes only the costs and the right-hand sides
    other = build_mslp(inst, _shifted(scen), plan, initial=initial)
    for name in ("A_eq", "A_ub", "upper"):
        assert np.array_equal(getattr(lp, name), getattr(other, name))
    for name in ("move_cols", "entry_cols", "splus_cols", "sminus_cols", "cap_rows"):
        assert getattr(lp, name) == getattr(other, name)
    for name in ("c", "b_eq", "b_ub"):
        assert not np.array_equal(getattr(lp, name), getattr(other, name))


def _no_outflow(scenario):
    return Scenario(tuple(
        dataclasses.replace(z, outflow=dict.fromkeys(z.outflow, 0)) for z in scenario.realizations
    ))


@pytest.mark.parametrize("initial", ["fixed", "free"])
@pytest.mark.parametrize("shape", [None, (2, 1), (1, 2), (2, 2)],
                         ids=["capacity", "2x1", "1x2", "2x2"])
def test_scenario_rows_equal_per_scenario_builds(shape, initial):
    inst = _layout_instance(shape)
    assert inst.spot_sources
    scenarios = sample_scenarios(inst, 5, 1)
    scenarios.insert(2, _no_outflow(scenarios[0]))
    plan = generate_default_plan(0, inst)
    layout = build_mslp(inst, scenarios[0], plan, initial=initial)
    costs, b_eq, b_ub = scenario_rows(layout, inst, scenarios)
    assert costs.shape == (len(scenarios), layout.c.size)
    for k, sc in enumerate(scenarios):
        own = build_mslp(inst, sc, plan, initial=initial)
        for rows, name in ((costs, "c"), (b_eq, "b_eq"), (b_ub, "b_ub")):
            assert rows[k].tobytes() == getattr(own, name).tobytes()
        # the written entries are the scenario's own flows and move costs
        z = sc.realizations
        for (i, t), row in layout.entry_rows.items():
            assert b_eq[k, row] == b_ub[k, layout.avail_rows[(i, t)]] == z[t - 1].inflow[i]
        for (j, t), row in layout.exit_rows.items():
            assert b_eq[k, row] == -z[t - 1].outflow[j]
            assert not np.signbit(b_eq[k, row]) or z[t - 1].outflow[j] > 0
        for (sid, lane, t), col in layout.move_cols.items():
            assert costs[k, col] == lane_costs(inst, z[t - 1], t)[(sid, lane)]


def test_scenario_rows_check_every_length(capacity_instance, demo_scenario):
    lp = build_mslp(capacity_instance, demo_scenario, generate_default_plan(0, capacity_instance))
    reals = demo_scenario.realizations
    for bad in (Scenario(reals[:-1]), Scenario(reals + reals[:1])):
        for k in range(3):
            batch = [demo_scenario] * 3
            batch[k] = bad
            with pytest.raises(ValueError, match="scenario length does not match horizon"):
                scenario_rows(lp, capacity_instance, batch)
            with pytest.raises(ValueError, match="scenario length does not match horizon"):
                sample_objective(capacity_instance, batch)


# ---------------------------------------------------------------------------
# Independent solver cross-check


def test_against_reference_solver(capacity_instance, demo_scenario, baseline_plan):
    linprog = pytest.importorskip("scipy.optimize").linprog
    for initial in ("fixed", "free"):
        lp = build_mslp(capacity_instance, demo_scenario, baseline_plan, initial=initial)
        mine = solve_mslp(lp)
        ref = linprog(
            lp.c, A_ub=lp.A_ub, b_ub=lp.b_ub, A_eq=lp.A_eq, b_eq=lp.b_eq,
            bounds=[(0, u if np.isfinite(u) else None) for u in lp.upper],
            method="highs",
        )
        assert ref.status == 0
        assert mine.cost == pytest.approx(ref.fun, abs=1e-7)
