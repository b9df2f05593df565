"""Backward-induction solver: pinned values, oracles, and structural checks."""

import csv
from dataclasses import replace

import numpy as np
import pytest

from drayage import alloc, cli
from drayage.dp import (
    PolicyTable,
    StateIndexer,
    UndefinedPolicyState,
    _StageTables,
    _unique_rows,
    evaluate_policy,
    rollout,
    solve_expected,
    solve_scenario,
    terminal_value,
    value_surface,
)
from drayage.model import (
    STRATEGIC,
    CapacityPlan,
    Scenario,
    SystemState,
    generate_default_plan,
    generate_instance,
)
from drayage.scenario import SampleSet, build_sample_set, realization_key
from drayage import reference

from helpers import (
    all_states,
    build_problem,
    direct_rollout,
    dry_scenario,
    enumerate_policy_value,
    loop_policy_values,
    micro_instance,
    plan_caps_at,
    random_plan,
    undefined_action_message,
)


S08 = SystemState(entry_stock={1: 0}, exit_stock={2: 8})


def scenario_sample_set(scenario):
    """Wrap a single scenario as a weight-1 SampleSet (for evaluate_policy)."""
    return SampleSet(
        realizations=tuple((z,) for z in scenario.realizations),
        weights=tuple((1.0,) for _ in scenario.realizations),
        seed=0,
        mode="iid",
    )


# ---------------------------------------------------------------------------
# Pinned reference values (demo scenario, single-lane reference instances)


def test_tuned_plan_value_and_rollout(capacity_instance, demo_scenario, tuned_plan):
    vt, pt = solve_scenario(capacity_instance, demo_scenario, tuned_plan)
    assert vt.value(1, S08) == pytest.approx(-403.52, abs=1e-9)
    best_state, best_val = vt.best_initial_state()
    assert best_state == S08
    assert best_val == pytest.approx(-403.52, abs=1e-9)
    traj = rollout(capacity_instance, pt, demo_scenario, tuned_plan, S08)
    assert traj.total_cost == pytest.approx(403.52, abs=1e-9)
    # total = sum of immediate costs minus the terminal salvage term
    final = traj.steps[-1].next_state
    recomputed = sum(s.immediate_cost for s in traj.steps) - terminal_value(
        final, capacity_instance.costs
    )
    assert traj.total_cost == pytest.approx(recomputed, abs=1e-12)


def test_baseline_plan_values(capacity_instance, demo_scenario, baseline_plan):
    vt, pt = solve_scenario(capacity_instance, demo_scenario, baseline_plan)
    assert vt.value(1, S08) == pytest.approx(-505.52, abs=1e-9)
    best_state, best_val = vt.best_initial_state()
    assert best_state == SystemState(entry_stock={1: 0}, exit_stock={2: 6})
    assert best_val == pytest.approx(-462.46, abs=1e-9)
    traj = rollout(capacity_instance, pt, demo_scenario, baseline_plan, best_state)
    assert traj.total_cost == pytest.approx(462.46, abs=1e-9)


def test_policy_study_rollout_cost(policy_instance, demo_scenario, baseline_plan):
    # Higher contracted execution rate: same moves cost more end to end.
    vt, pt = solve_scenario(policy_instance, demo_scenario, baseline_plan)
    assert vt.value(1, S08) == pytest.approx(-584.2, abs=1e-9)
    traj = rollout(policy_instance, pt, demo_scenario, baseline_plan, S08)
    assert traj.total_cost == pytest.approx(584.2, abs=1e-9)


def test_value_surface_argmax_sequence(policy_instance, demo_scenario, baseline_plan):
    # The optimal pre-positioning drifts toward (0,0) as the horizon closes.
    vt, _ = solve_scenario(policy_instance, demo_scenario, baseline_plan)
    expected = {1: (0, 6), 2: (0, 8), 3: (0, 8), 4: (0, 0)}
    for t, argmax in expected.items():
        surface = value_surface(vt, t)
        r, c = divmod(int(np.argmax(surface.values)), surface.values.shape[1])
        assert (int(surface.entry_levels[r]), int(surface.exit_levels[c])) == argmax


# ---------------------------------------------------------------------------
# Terminal values and state indexing


def test_terminal_value_demo_points(capacity_instance):
    costs = capacity_instance.costs
    assert terminal_value(SystemState({1: 0}, {2: 0}), costs) == 0.0
    assert terminal_value(SystemState({1: 2}, {2: 3}), costs) == -(15 * 2 + 12 * 3)
    assert terminal_value(SystemState({1: 0}, {2: -4}), costs) == -(24 * 4)


def test_state_indexer_roundtrip(capacity_instance):
    idx = StateIndexer.for_instance(capacity_instance)
    assert idx.n_states == 231
    seen = set()
    for i in range(idx.n_states):
        st = idx.state_of(i)
        assert idx.index_of(st) == i
        seen.add((st.entry_stock[1], st.exit_stock[2]))
    assert len(seen) == idx.n_states


def test_state_indexer_rejects_out_of_grid(capacity_instance):
    idx = StateIndexer.for_instance(capacity_instance)
    with pytest.raises(ValueError):
        idx.index_of(SystemState({1: 11}, {2: 0}))
    with pytest.raises(ValueError):
        idx.index_of(SystemState({1: 0}, {2: -11}))


@pytest.mark.parametrize("case", ["policy", "capacity", "network"])
def test_kernel_rows_equal_the_scalar_rules(case):
    # the kernel's vectorized holding and terminal rows, bit for bit
    if case == "network":
        inst, _, plan = _generated_network()
    else:
        inst, plan = reference.example_instance(case), reference.baseline_plan()
    kernel = _StageTables(inst, plan)
    idx = kernel.indexer
    assert kernel.hold.shape == kernel.terminal.shape == (idx.n_states,)
    for i in range(idx.n_states):
        st = idx.state_of(i)
        assert kernel.hold[i] == alloc.holding_cost(st, inst.costs), st
        assert kernel.terminal[i] == terminal_value(st, inst.costs), st


# ---------------------------------------------------------------------------
# Exhaustive-enumeration oracle on micro instances


def test_micro_instances_match_policy_enumeration():
    rng = np.random.Generator(np.random.Philox(20240807))
    checked = 0
    for trial in range(8):
        inst = micro_instance(rng, n_entries=1, n_exits=1, horizon=2)
        scen = Scenario(
            realizations=tuple(
                build_sample_set(inst, 1, int(rng.integers(1 << 30))).realizations[t][0]
                for t in range(inst.horizon)
            )
        )
        plan = random_plan(rng, inst)
        vt, pt = solve_scenario(inst, scen, plan)
        memo = {}
        for state in all_states(inst):
            expected = enumerate_policy_value(inst, scen, plan, state, memo=memo)
            assert vt.value(1, state) == pytest.approx(expected, abs=1e-9)
            checked += 1
    assert checked >= 100


def test_micro_multilocation_matches_enumeration():
    # 2x1 network exercises the generic (multi-lane) sweep path.
    rng = np.random.Generator(np.random.Philox(77))
    inst = micro_instance(rng, n_entries=2, n_exits=1, horizon=2, stock_bound=2)
    scen = Scenario(
        realizations=tuple(
            build_sample_set(inst, 1, 5).realizations[t][0]
            for t in range(inst.horizon)
        )
    )
    plan = random_plan(rng, inst)
    vt, _ = solve_scenario(inst, scen, plan)
    memo = {}
    for state in all_states(inst):
        expected = enumerate_policy_value(inst, scen, plan, state, memo=memo)
        assert vt.value(1, state) == pytest.approx(expected, abs=1e-9)


# ---------------------------------------------------------------------------
# Policy evaluation consistency (rollforward reproduces the sweep)


def test_evaluate_policy_reproduces_scenario_values(
    capacity_instance, demo_scenario, tuned_plan
):
    vt, pt = solve_scenario(capacity_instance, demo_scenario, tuned_plan)
    ev = evaluate_policy(
        capacity_instance, pt, scenario_sample_set(demo_scenario), tuned_plan
    )
    assert np.allclose(ev.values, vt.values, atol=1e-6)


def test_evaluate_policy_reproduces_expected_values(capacity_instance, tuned_plan):
    sample = build_sample_set(capacity_instance, 0, 0, mode="enumerate")
    vt, pt = solve_expected(capacity_instance, sample, tuned_plan)
    ev = evaluate_policy(capacity_instance, pt, sample, tuned_plan)
    assert np.allclose(ev.values, vt.values, atol=1e-6)


def test_evaluate_policy_suboptimal_is_dominated(
    capacity_instance, demo_scenario, tuned_plan
):
    vt, pt = solve_scenario(capacity_instance, demo_scenario, tuned_plan)
    zero = PolicyTable(pt.horizon, pt.indexer, np.zeros_like(pt.actions))
    ev = evaluate_policy(
        capacity_instance, zero, scenario_sample_set(demo_scenario), tuned_plan
    )
    assert np.all(ev.values <= vt.values + 1e-9)
    assert ev.value(1, S08) < vt.value(1, S08)


def _network_case():
    rng = np.random.Generator(np.random.Philox(11))
    inst = micro_instance(rng, n_entries=2, n_exits=1, horizon=2, stock_bound=2)
    return inst, build_sample_set(inst, 4, 3), random_plan(rng, inst)


def test_network_evaluate_policy_reproduces_sweep():
    inst, sample, plan = _network_case()
    vt, pt = solve_expected(inst, sample, plan)
    ev = evaluate_policy(inst, pt, sample, plan)
    assert np.max(np.abs(ev.values - vt.values)) <= 1e-9


def test_evaluate_policy_equals_per_state_loop(capacity_instance, tuned_plan):
    # the gather keeps the loop's arithmetic: equal to the last bit
    sample = build_sample_set(capacity_instance, 0, 0, mode="enumerate")
    _, pt = solve_expected(capacity_instance, sample, tuned_plan)
    ev = evaluate_policy(capacity_instance, pt, sample, tuned_plan)
    assert np.array_equal(ev.values, loop_policy_values(capacity_instance, pt, sample, tuned_plan))

    inst, sample, plan = _network_case()
    _, pt = solve_expected(inst, sample, plan)
    ev = evaluate_policy(inst, pt, sample, plan)
    assert np.array_equal(ev.values, loop_policy_values(inst, pt, sample, plan))


def test_evaluate_policy_at_actions_equals_per_state_loop(
    policy_instance, baseline_plan, tuned_plan
):
    # one pass per period at the policy's actions keeps the loop's sums bit for bit
    inst = policy_instance
    folded = build_sample_set(inst, 6, 1)
    assert any(len(p) < 6 for p in folded.distinct(inst))  # duplicate draws fold
    _, own = solve_expected(inst, folded, tuned_plan)
    # solved on the support, evaluated on another sample: the policy's own
    # kernel, and a fresh one for the same policy without it
    _, full = solve_expected(inst, build_sample_set(inst, 0, 0, mode="enumerate"), baseline_plan)
    other = build_sample_set(inst, 4, 3)
    bare = PolicyTable(full.horizon, full.indexer, full.actions)
    # a solve_scenario policy carries no kernel
    scenario = reference.example_scenario(inst)
    _, perfect = solve_scenario(inst, scenario, tuned_plan)
    cases = [
        (own, folded, tuned_plan),
        (full, other, baseline_plan),
        (bare, other, baseline_plan),
        (perfect, scenario_sample_set(scenario), tuned_plan),
    ]
    for policy, sample, plan in cases:
        got = evaluate_policy(inst, policy, sample, plan).values
        assert np.array_equal(got, loop_policy_values(inst, policy, sample, plan))


def test_stage_tables_at_actions_equal_the_full_tables_gathered(policy_instance, tuned_plan):
    # tables(t, zs, actions) is tables(t, zs) read at each state's action,
    # at the policy's actions and at random ones (infeasible ones included)
    cases = [
        (policy_instance, build_sample_set(policy_instance, 0, 0, mode="enumerate"), tuned_plan),
        (policy_instance, build_sample_set(policy_instance, 50, 0, mode="iid"), tuned_plan),
        _network_case(),
    ]
    inst, sample, plan = _generated_network()
    net = inst.network
    inst = replace(inst, network=replace(net, entries=net.entries[::-1], exits=net.exits[::-1]))
    cases.append((inst, sample, plan))
    rng = np.random.default_rng(0)
    for inst, sample, plan in cases:
        _, pt = solve_expected(inst, sample, plan)
        kernel = _StageTables(inst, plan)
        cols = np.arange(kernel.indexer.n_states)
        for t, period in enumerate(sample.distinct(inst), start=1):
            zs = [z for z, _ in period]
            cost, nxt = kernel.tables(t, zs)
            assert cost.shape == nxt.shape == (len(zs), kernel.n_actions, len(cols))
            drawn = rng.integers(0, kernel.n_actions, len(cols))
            for acts in (pt.actions[t - 1], drawn):
                got_cost, got_next = kernel.tables(t, zs, acts)
                assert np.array_equal(got_cost, cost[:, acts, cols])
                assert np.array_equal(got_next, nxt[:, acts, cols])


def test_evaluate_policy_names_the_first_undefined_action(policy_instance, tuned_plan):
    # infeasible and out-of-range actions, in periods with several
    # realizations, raise naming the same period, state and action as the
    # direct solves, checking periods from the last one back
    cases = []
    single = build_sample_set(policy_instance, 3, 2)
    assert all(len(p) > 1 for p in single.distinct(policy_instance))
    cases.append((policy_instance, single, tuned_plan))
    cases.append(_network_case())
    for inst, sample, plan in cases:
        _, pt = solve_expected(inst, sample, plan)
        policies = [_all_at_action_max(pt, inst)]
        for bad in (-1, inst.bounds.action_max + 1):
            for t, si in ((inst.horizon, 3), (1, pt.indexer.n_states // 2)):
                acts = pt.actions.copy()
                acts[t - 1, si] = bad
                policies.append(PolicyTable(pt.horizon, pt.indexer, acts))
        for policy in policies:
            want = undefined_action_message(inst, policy, sample, plan)
            assert want is not None
            with pytest.raises(UndefinedPolicyState) as err:
                evaluate_policy(inst, policy, sample, plan)
            assert str(err.value) == want
    forced = _all_at_action_max(solve_expected(*cases[0])[1], policy_instance)
    with pytest.raises(UndefinedPolicyState) as err:
        evaluate_policy(policy_instance, forced, single, tuned_plan)
    assert str(err.value) == (
        "policy action 10 infeasible at period 4 state "
        "SystemState(entry_stock={1: 0}, exit_stock={2: -10})"
    )


def _all_at_action_max(policy, instance):
    return PolicyTable(
        policy.horizon,
        policy.indexer,
        np.full_like(policy.actions, instance.bounds.action_max),
    )


def test_evaluate_policy_infeasible_action_raises_single_lane(
    capacity_instance, demo_scenario, tuned_plan
):
    # at a full exit yard no positive move fits
    _, pt = solve_scenario(capacity_instance, demo_scenario, tuned_plan)
    forced = _all_at_action_max(pt, capacity_instance)
    with pytest.raises(UndefinedPolicyState, match="period 4 state"):
        evaluate_policy(
            capacity_instance, forced, scenario_sample_set(demo_scenario), tuned_plan
        )


def test_evaluate_policy_infeasible_action_raises_network():
    inst, sample, plan = _network_case()
    _, pt = solve_expected(inst, sample, plan)
    with pytest.raises(UndefinedPolicyState, match="period 2 state"):
        evaluate_policy(inst, _all_at_action_max(pt, inst), sample, plan)


def test_evaluate_policy_rejects_bad_samples(capacity_instance, tuned_plan):
    sample = build_sample_set(capacity_instance, 4, 9)
    _, pt = solve_expected(capacity_instance, sample, tuned_plan)
    halved = SampleSet(
        realizations=sample.realizations,
        weights=((0.5,) * len(sample.weights[0]),) + sample.weights[1:],
        seed=9,
        mode="iid",
    )
    with pytest.raises(ValueError, match="period 1 weights"):
        evaluate_policy(capacity_instance, pt, halved, tuned_plan)
    short = SampleSet(sample.realizations[:-1], sample.weights[:-1], 9, "iid")
    with pytest.raises(ValueError, match="periods"):
        evaluate_policy(capacity_instance, pt, short, tuned_plan)


def _generated_network():
    """Generated 2 entries x 2 exits, levels 2, 3 iid draws per period."""
    shape = dict(n_entries=2, n_exits=2, n_bids=2, n_spot=1, horizon=2,
                 cost_mean=12.0, cost_sd=4.0, cost_min=2.0, capacity_levels=2)
    inst = generate_instance(0, shape)
    return inst, build_sample_set(inst, 3, 0, mode="iid"), generate_default_plan(0, inst)


def _sample_paths(sample, count, seed):
    """Scenarios made of one sampled realization per period."""
    rng = np.random.default_rng(seed)
    return [
        Scenario(tuple(zs[int(rng.integers(len(zs)))] for zs in sample.realizations))
        for _ in range(count)
    ]


def test_network_sweep_solves_each_clipped_problem_at_most_once(
    monkeypatch, capacity_instance, baseline_plan
):
    calls = []  # one entry per limits row solved
    real = alloc.solve_allocations

    def counting(costs, caps, cols, limits):
        calls.extend(limits)
        return real(costs, caps, cols, limits)

    monkeypatch.setattr("drayage.dp.solve_allocations", counting)
    one_lane = [
        (capacity_instance, build_sample_set(capacity_instance, n, 0, mode=mode), baseline_plan)
        for mode, n in (("enumerate", 0), ("iid", 20))
    ]
    for inst, sample, plan in [_network_case(), _generated_network()] + one_lane:
        calls.clear()
        _, pt = solve_expected(inst, sample, plan)

        distinct = set()
        b = inst.bounds
        for t in range(1, inst.horizon + 1):
            for z in sample.realizations[t - 1]:
                for state in StateIndexer.for_instance(inst).all_states():
                    avail = [state.entry_stock[i] + z.inflow[i] for i in inst.network.entries]
                    space = [b.exit_max[j] - state.exit_stock[j] for j in inst.network.exits]
                    for a in range(b.action_max + 1):
                        distinct.add((
                            t,
                            a,
                            tuple(min(v, a) for v in avail),
                            tuple(min(v, a) for v in space),
                            realization_key(z, inst),
                        ))
        assert 0 < len(calls) <= len(distinct)

        # evaluation and on-sample rollouts read the sweep's memo: no solve
        calls.clear()
        ev = evaluate_policy(inst, pt, sample, plan)
        paths = _sample_paths(sample, 20, 5)
        trajs = [rollout(inst, pt, sc, plan, inst.initial_state) for sc in paths]
        assert calls == []
        bare = PolicyTable(pt.horizon, pt.indexer, pt.actions)
        assert ev.values.tobytes() == evaluate_policy(inst, bare, sample, plan).values.tobytes()
        for sc, traj in zip(paths, trajs):
            assert repr(traj) == repr(direct_rollout(inst, pt, sc, plan, inst.initial_state))


def test_unique_row_codes_match_axis_0_unique():
    # the stage tables' 1-D row codes give np.unique(axis=0)'s rows and inverse
    rng = np.random.default_rng(37)
    for a in range(6):
        for width in (1, 2, 3, 4):
            rows = rng.integers(0, a + 1, (int(rng.integers(1, 80)), width))
            got, inv = _unique_rows(rows, a)
            want, want_inv = np.unique(rows, axis=0, return_inverse=True)
            assert np.array_equal(got, want)
            assert np.array_equal(inv, want_inv.reshape(-1))
    with pytest.raises(ValueError, match="outside"):
        _unique_rows(np.array([[0, 3]]), 2)
    with pytest.raises(ValueError, match="outside"):
        _unique_rows(np.array([[-1, 0]]), 2)


def test_unique_rows_fall_back_to_axis_0_unique_where_codes_overflow():
    # base-501 codes of 8 columns pass 2**63 (501**7 still fits): both paths
    # give np.unique(axis=0)'s rows and inverse
    rng = np.random.default_rng(3)
    for width in (7, 8):
        rows = rng.integers(0, 501, (300, width))
        rows[0, 0] = 500
        rows[1:100, 1:] = 0  # rows tied up to the first column
        rows = np.vstack([rows, rows[::7]])  # and duplicates
        got, inv = _unique_rows(rows, 500)
        want, want_inv = np.unique(rows, axis=0, return_inverse=True)
        assert np.array_equal(got, want)
        assert np.array_equal(inv, want_inv.reshape(-1))
    assert 501**7 < 2**63 < 501**8


def _at_action_networks():
    """Generated 1 x 2, 2 x 1, 3 x 1 and 2 x 2 (2 spot sources) networks,
    levels 2, 3 iid draws per period, each also with its locations listed in
    reverse."""
    cases = []
    for seed, (ne, nx, n_bids, n_spot) in enumerate([(1, 2, 2, 1), (2, 1, 2, 1),
                                                     (3, 1, 2, 1), (2, 2, 1, 2)]):
        shape = dict(n_entries=ne, n_exits=nx, n_bids=n_bids, n_spot=n_spot, horizon=2,
                     cost_mean=12.0, cost_sd=4.0, cost_min=2.0, capacity_levels=2)
        inst = generate_instance(seed, shape)
        net = inst.network
        rev = replace(inst, network=replace(net, entries=net.entries[::-1], exits=net.exits[::-1]))
        for inst in (inst, rev):
            plan = generate_default_plan(seed, inst)
            cases.append((inst, build_sample_set(inst, 3, seed, mode="iid"), plan))
    return cases


def test_network_tables_at_actions_equal_a_loop_over_realizations_and_states(monkeypatch):
    # each (realization, state) entry at the state's action equals that one
    # allocation looked up alone and alloc.transition's next state, infeasible
    # entries (cost inf, next 0) included. On the policy's own kernel and
    # sample nothing is solved; a fresh kernel on another sample solves its
    # misses in at most one solve_allocations call per stage
    calls = []
    real = alloc.solve_allocations

    def spy(costs, caps, cols, limits):
        calls.append(len(limits))
        return real(costs, caps, cols, limits)

    monkeypatch.setattr("drayage.dp.solve_allocations", spy)
    rng = np.random.default_rng(8)
    for inst, sample, plan in _at_action_networks():
        _, pt = solve_expected(inst, sample, plan)
        oracle = _StageTables(inst, plan)
        states = oracle.indexer.all_states()
        fresh = _StageTables(inst, plan)
        other = build_sample_set(inst, 4, 99, mode="iid")
        infeasible = 0
        for kernel, smp in ((pt.kernel, sample), (fresh, other)):
            for t, period in enumerate(smp.distinct(inst), start=1):
                zs = [z for z, _ in period]
                drawn = rng.integers(0, kernel.n_actions, len(states))
                for acts in (pt.actions[t - 1], drawn):
                    calls.clear()
                    cost, nxt = kernel.tables(t, zs, acts)
                    if kernel is pt.kernel and acts is pt.actions[t - 1]:
                        assert calls == []
                    assert len(calls) <= len({kernel._stage(t, z)[0] for z in zs})
                    want_cost = np.zeros_like(cost)
                    want_next = np.zeros_like(nxt)
                    for k, z in enumerate(zs):
                        for s, (a, state) in enumerate(zip(acts.tolist(), states)):
                            c, totals = oracle.allocation(t, a, state, z)
                            want_cost[k, s] = c
                            if c < np.inf:
                                want_next[k, s] = oracle.indexer.index_of(
                                    alloc.transition(state, totals, z, inst.bounds))
                    assert np.array_equal(cost, want_cost)
                    assert np.array_equal(nxt, want_next)
                    infeasible += int(np.isinf(cost).sum())
        assert infeasible > 0
        assert len(fresh._memo) > 0


def _sweep_and_evaluations(inst, sample, plan):
    """Bytes of the values and policy of solve_expected and of evaluate_policy
    on the sample and, without the kernel, on another one (or the
    UndefinedPolicyState message)."""
    vt, pt = solve_expected(inst, sample, plan)
    out = [vt.values.tobytes(), pt.actions.tobytes()]
    bare = PolicyTable(pt.horizon, pt.indexer, pt.actions)
    for policy, smp in ((pt, sample), (bare, build_sample_set(inst, 3, 5))):
        try:
            out.append(evaluate_policy(inst, policy, smp, plan).values.tobytes())
        except UndefinedPolicyState as err:
            out.append(str(err))
    return out


def test_table_budget_changes_no_bit(monkeypatch, capacity_instance, tuned_plan):
    # with TABLE_BYTES 1 every chunk is one realization: sweeps and
    # evaluations are bit-identical to the one-chunk runs
    cases = _at_action_networks() + [(capacity_instance, build_sample_set(
        capacity_instance, 0, 0, mode="enumerate"), tuned_plan)]
    whole = [_sweep_and_evaluations(*case) for case in cases]
    assert any(isinstance(w[-1], str) for w in whole)
    assert any(isinstance(w[-1], bytes) for w in whole)
    sizes = []
    real = _StageTables.tables

    def recording(self, t, zs, actions=None):
        sizes.append(len(zs))
        return real(self, t, zs, actions)

    monkeypatch.setattr(_StageTables, "tables", recording)
    monkeypatch.setattr("drayage.dp.TABLE_BYTES", 1)
    assert [_sweep_and_evaluations(*case) for case in cases] == whole
    assert set(sizes) == {1}


def test_network_sweep_sends_no_infeasible_problem_to_the_tableau(monkeypatch):
    # over-volume actions are answered from the constraint families' sums,
    # and in these networks every other problem is feasible
    results = []  # one entry per problem of every batch
    real = alloc.tableau_simplex

    def counting(*args):
        xs = real(*args)
        results.extend(xs)
        return xs

    monkeypatch.setattr("drayage.alloc.tableau_simplex", counting)
    for inst, sample, plan in (_network_case(), _generated_network()):
        results.clear()
        solve_expected(inst, sample, plan)
        assert results
        assert all(x is not None for x in results)


def test_policy_kernel_serves_only_its_own_instance_and_plan():
    inst, sample, plan = _network_case()
    _, pt = solve_expected(inst, sample, plan)
    assert pt.kernel is not None and "kernel" not in repr(pt)
    bare = PolicyTable(pt.horizon, pt.indexer, pt.actions)
    assert bare == pt  # the kernel is not part of the policy's identity
    assert solve_scenario(inst, _sample_paths(sample, 1, 0)[0], plan)[1].kernel is None

    # more capacity and dearer strategic rates keep every action allocatable
    wider = CapacityPlan({k: tuple(c + 1 for c in v) for k, v in plan.capacity.items()})
    dearer = replace(inst, sources=tuple(
        replace(s, execution_cost={lane: tuple(3.0 * r + 1.0 for r in rates)
                                   for lane, rates in s.execution_cost.items()})
        if s.kind == STRATEGIC else s
        for s in inst.sources
    ))
    own = evaluate_policy(inst, pt, sample, plan).values
    for other_inst, other_plan in ((inst, wider), (dearer, plan)):
        got = evaluate_policy(other_inst, pt, sample, other_plan).values
        assert got.tobytes() == evaluate_policy(other_inst, bare, sample, other_plan).values.tobytes()
        assert not np.array_equal(got, own)
        for sc in _sample_paths(sample, 4, 1):
            assert repr(rollout(other_inst, pt, sc, other_plan, inst.initial_state)) == repr(
                direct_rollout(other_inst, pt, sc, other_plan, inst.initial_state)
            )


def test_stage_key_is_the_realization_keys_spot_rates(
    policy_instance, capacity_instance, baseline_plan
):
    # the kernel keys its stages and memo on the spot rates read from its own
    # (source, lane) list; they must be realization_key's, or memo keys and
    # SampleSet.distinct folding would disagree
    cases = [
        (policy_instance, build_sample_set(policy_instance, 0, 0, mode="enumerate"), baseline_plan),
        (capacity_instance, build_sample_set(capacity_instance, 30, 1), baseline_plan),
    ]
    shape = dict(n_entries=2, n_exits=2, n_bids=1, n_spot=2, horizon=2,
                 cost_mean=12.0, cost_sd=4.0, cost_min=2.0, capacity_levels=2)
    for seed in (0, 1):
        inst = generate_instance(seed, shape)
        assert sum(len(s.lanes) for s in inst.spot_sources) > 2
        cases.append((inst, build_sample_set(inst, 5, seed), generate_default_plan(seed, inst)))
    for inst, sample, plan in cases:
        _, pt = solve_expected(inst, sample, plan)
        kernel = pt.kernel
        for t, period in enumerate(sample.distinct(inst), start=1):
            keys = [realization_key(z, inst) for z, _ in period]
            assert len(set(keys)) == len(keys)
            assert [kernel._stage(t, z)[0] for z, _ in period] == [k[2] for k in keys]
            rates = {k[2] for k in keys}
            assert {r for s, r in kernel._stages if s == t} == rates
            assert {key[3] for key in kernel._memo if key[0] == t} == rates


def test_memo_allocations_hold_on_networks_listed_out_of_id_order():
    # the tableau's rows go in ascending location id, whatever order the
    # network lists its entries and exits in: on reversed 2 x 2 networks
    # every memo entry equals a direct solve at a state that reads it
    shape = dict(n_entries=2, n_exits=2, n_bids=2, n_spot=1, horizon=2,
                 cost_mean=12.0, cost_sd=4.0, cost_min=2.0, capacity_levels=2)
    for seed in range(3):
        inst = generate_instance(seed, shape)
        net = inst.network
        inst = replace(inst, network=replace(net, entries=net.entries[::-1], exits=net.exits[::-1]))
        assert inst.network.entries == tuple(sorted(inst.network.entries, reverse=True))
        plan = generate_default_plan(seed, inst)
        sample = build_sample_set(inst, 3, seed, mode="iid")
        _, pt = solve_expected(inst, sample, plan)
        kernel, b = pt.kernel, inst.bounds

        # one (state, realization) per memo key
        found = {}
        for t, period in enumerate(sample.distinct(inst), start=1):
            for z, _ in period:
                rates = kernel._stage(t, z)[0]
                for state in kernel.indexer.all_states():
                    for a in range(b.action_max + 1):
                        row = tuple(min(state.entry_stock[i] + z.inflow[i], a)
                                    for i in inst.network.entries)
                        row += tuple(min(b.exit_max[j] - state.exit_stock[j], a)
                                     for j in inst.network.exits)
                        found.setdefault((t, a, row, rates), (state, z))
        assert set(kernel._memo) <= set(found)
        lanes = sorted(inst.network.lanes)
        for t, a, row, rates in list(kernel._memo):
            state, z = found[t, a, row, rates]
            cost, totals = kernel.allocation(t, a, state, z)
            want = alloc.solve_allocation(
                build_problem(state, a, z, plan_caps_at(plan, t), inst, t)
            )
            if want is alloc.INFEASIBLE:
                assert cost == np.inf
                continue
            want_totals = want.lane_totals()
            assert set(totals) == set(want_totals)
            assert np.array_equal([cost], [want.cost])
            assert np.array_equal([totals.get(l, 0.0) for l in lanes],
                                  [want_totals.get(l, 0.0) for l in lanes])


def test_kernel_rejects_a_plan_without_every_period_of_every_source(
    capacity_instance, baseline_plan
):
    sample = build_sample_set(capacity_instance, 0, 0, mode="enumerate")
    tau = capacity_instance.horizon
    short = CapacityPlan({k: v[: tau - 2] for k, v in baseline_plan.capacity.items()})
    first = min(baseline_plan.capacity)
    with pytest.raises(ValueError, match=f"source {first} in period {tau - 1}"):
        solve_expected(capacity_instance, sample, short)
    last = max(baseline_plan.capacity)
    missing = CapacityPlan({k: v for k, v in baseline_plan.capacity.items() if k != last})
    with pytest.raises(ValueError, match=f"source {last} in period 1"):
        solve_expected(capacity_instance, sample, missing)


# ---------------------------------------------------------------------------
# Sampling modes


def test_single_sample_set_equals_scenario_solve(capacity_instance, tuned_plan):
    sample = build_sample_set(capacity_instance, 1, 424242)
    scen = Scenario(realizations=tuple(zs[0] for zs in sample.realizations))
    v1, p1 = solve_expected(capacity_instance, sample, tuned_plan)
    v2, p2 = solve_scenario(capacity_instance, scen, tuned_plan)
    assert np.array_equal(v1.values, v2.values)
    assert np.array_equal(p1.actions, p2.actions)


def test_enumerate_mode_is_deterministic(capacity_instance, tuned_plan):
    sample = build_sample_set(capacity_instance, 0, 0, mode="enumerate")
    v1, p1 = solve_expected(capacity_instance, sample, tuned_plan)
    v2, p2 = solve_expected(capacity_instance, sample, tuned_plan)
    assert np.array_equal(v1.values, v2.values)
    assert np.array_equal(p1.actions, p2.actions)


def test_solve_expected_rejects_bad_weights(capacity_instance, tuned_plan):
    sample = build_sample_set(capacity_instance, 4, 9)
    broken = SampleSet(
        realizations=sample.realizations,
        weights=tuple((0.5,) * len(w) for w in sample.weights),
        seed=9,
        mode="iid",
    )
    with pytest.raises(ValueError):
        solve_expected(capacity_instance, broken, tuned_plan)


def test_horizon_mismatch_rejected(capacity_instance, demo_scenario, tuned_plan):
    short = Scenario(realizations=demo_scenario.realizations[:2])
    with pytest.raises(ValueError):
        solve_scenario(capacity_instance, short, tuned_plan)


# ---------------------------------------------------------------------------
# Monotonicity in capacity


def test_values_monotone_in_capacity(capacity_instance, demo_scenario, baseline_plan):
    vt, _ = solve_scenario(capacity_instance, demo_scenario, baseline_plan)
    bumped = CapacityPlan(
        capacity={
            sid: tuple(c + 2 for c in caps)
            for sid, caps in baseline_plan.capacity.items()
        }
    )
    vb, _ = solve_scenario(capacity_instance, demo_scenario, bumped)
    assert np.all(vb.values >= vt.values - 1e-9)


# ---------------------------------------------------------------------------
# Feasible actions and rollout failure modes


def test_feasible_actions_contiguous(capacity_instance, demo_scenario, tuned_plan):
    kernel = _StageTables(capacity_instance, tuned_plan)
    (cost,), _ = kernel.tables(1, demo_scenario.realizations[:1])
    acts = np.flatnonzero(np.isfinite(cost[:, kernel.indexer.index_of(S08)])).tolist()
    assert acts == list(range(len(acts)))
    assert acts[0] == 0


def test_rollout_off_sample_raises(capacity_instance, demo_scenario, tuned_plan):
    vt, pt = solve_scenario(capacity_instance, demo_scenario, tuned_plan)
    assert pt.action(1, S08) > 0  # plan moves boxes it will not have
    with pytest.raises(UndefinedPolicyState):
        rollout(capacity_instance, pt, dry_scenario(capacity_instance), tuned_plan, S08)
    # the same through the kernel a solve_expected policy carries
    _, pe = solve_expected(capacity_instance, scenario_sample_set(demo_scenario), tuned_plan)
    assert pe.kernel is not None and pe.action(1, S08) > 0
    with pytest.raises(UndefinedPolicyState):
        rollout(capacity_instance, pe, dry_scenario(capacity_instance), tuned_plan, S08)


def test_kernel_less_rollout_reads_no_terminal_row(monkeypatch):
    # a solve_scenario policy carries no kernel; its rollout builds one but
    # reads only allocations, so terminal_value runs once, at the last state
    inst, sample, plan = _generated_network()
    sc = _sample_paths(sample, 1, 0)[0]
    _, pt = solve_scenario(inst, sc, plan)
    assert pt.kernel is None
    calls = []
    real = terminal_value
    monkeypatch.setattr(
        "drayage.dp.terminal_value", lambda state, costs: calls.append(state) or real(state, costs)
    )
    traj = rollout(inst, pt, sc, plan, inst.initial_state)
    assert calls == [traj.steps[-1].next_state]


def test_policy_table_rejects_bad_period(capacity_instance, demo_scenario, tuned_plan):
    _, pt = solve_scenario(capacity_instance, demo_scenario, tuned_plan)
    with pytest.raises(UndefinedPolicyState):
        pt.action(5, S08)


# ---------------------------------------------------------------------------
# Surfaces and CSV exports


def test_value_surface_needs_single_location():
    rng = np.random.Generator(np.random.Philox(3))
    inst = micro_instance(rng, n_entries=2, n_exits=1, horizon=1, stock_bound=1)
    scen = Scenario(
        realizations=tuple(
            build_sample_set(inst, 1, 2).realizations[t][0]
            for t in range(inst.horizon)
        )
    )
    vt, _ = solve_scenario(inst, scen, random_plan(rng, inst))
    with pytest.raises(ValueError):
        value_surface(vt, 1)


def test_value_surface_period_bounds(capacity_instance, demo_scenario, tuned_plan):
    vt, _ = solve_scenario(capacity_instance, demo_scenario, tuned_plan)
    with pytest.raises(ValueError):
        value_surface(vt, 0)
    with pytest.raises(ValueError):
        value_surface(vt, 6)
    surf = value_surface(vt, 5)  # terminal row is also viewable
    assert surf.values.shape == (11, 21)


def test_csv_exports_roundtrip(
    example_dir, capacity_instance, demo_scenario, tuned_plan
):
    # drayage solve-policy writes the tables and trajectory this solve returns
    vt, pt = solve_scenario(capacity_instance, demo_scenario, tuned_plan)
    traj = rollout(capacity_instance, pt, demo_scenario, tuned_plan, S08)
    out = example_dir / "run"
    assert cli.main(["solve-policy", "--instance", str(example_dir / "inst.json"),
                     "--scenario", str(example_dir / "scenario.json"),
                     "--plan", str(example_dir / "tuned_plan.json"), "--out", str(out)]) == 0
    assert capacity_instance.initial_state == S08  # the CLI rolls out from here

    with open(out / "value.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == (capacity_instance.horizon + 1) * vt.indexer.n_states
    probe = next(r for r in rows if r["t"] == "1" and r["entry"] == "0" and r["exit"] == "8")
    assert float(probe["value"]) == vt.value(1, S08)

    with open(out / "policy.csv") as f:
        prows = list(csv.DictReader(f))
    assert len(prows) == capacity_instance.horizon * pt.indexer.n_states
    pprobe = next(
        r for r in prows if r["t"] == "1" and r["entry"] == "0" and r["exit"] == "8"
    )
    assert int(pprobe["action"]) == pt.action(1, S08)

    with open(out / "trajectory.csv") as f:
        trows = list(csv.DictReader(f))
    assert len(trows) == capacity_instance.horizon
    assert sum(float(r["immediate_cost"]) for r in trows) == pytest.approx(
        traj.total_cost + terminal_value(traj.steps[-1].next_state, capacity_instance.costs),
        abs=1e-9,
    )

    with open(out / "value_surface_t1.csv") as f:
        srows = list(csv.DictReader(f))
    assert len(srows) == 231
    sprobe = next(r for r in srows if r["entry"] == "0" and r["exit"] == "8")
    assert float(sprobe["value"]) == vt.value(1, S08)


def test_repeated_solves_bit_identical(capacity_instance, demo_scenario, baseline_plan):
    v1, p1 = solve_scenario(capacity_instance, demo_scenario, baseline_plan)
    v2, p2 = solve_scenario(capacity_instance, demo_scenario, baseline_plan)
    assert np.array_equal(v1.values, v2.values)
    assert np.array_equal(p1.actions, p2.actions)
