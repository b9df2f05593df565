"""Per-period allocation solver against integer brute force, its dense
tableau against HiGHS, plus cost and transition semantics."""

import numpy as np
import pytest
from scipy.optimize import linprog

from helpers import (
    brute_force_allocation,
    build_problem,
    micro_instance,
    micro_scenario,
    plan_caps_at,
)
from drayage import alloc
from drayage.alloc import (
    INFEASIBLE,
    AllocationProblem,
    holding_cost,
    solve_allocation,
    solve_allocations,
    tableau_simplex,
    transition,
)
from drayage.model import SystemState


def test_holding_cost_reference_values(capacity_instance):
    costs = capacity_instance.costs
    # Entry idle at 0, eight units waiting at the exit: 8 * 12.
    assert holding_cost(SystemState({1: 0}, {2: 8}), costs) == pytest.approx(96.0)
    # Two at entry (2*15) plus a backorder of three (3*24).
    assert holding_cost(SystemState({1: 2}, {2: -3}), costs) == pytest.approx(102.0)
    assert holding_cost(SystemState({1: 0}, {2: 0}), costs) == 0.0


def _one_lane(volume, caps, rates, avail=10.0, space=10.0):
    """Sources 1, 2, ... on lane (1, 2), with the given caps and rates."""
    return AllocationProblem(
        volume,
        {(k, (1, 2)): r for k, r in enumerate(rates, start=1)},
        dict(enumerate(caps, start=1)),
        {1: avail},
        {2: space},
    )


def test_one_lane_fills_the_cheaper_source_first():
    got = solve_allocation(_one_lane(6.0, [4.0, 4.0], [14.7, 7.0]))
    assert got.moves == {(1, (1, 2)): 2.0, (2, (1, 2)): 4.0}
    assert got.cost == pytest.approx(57.4)


def test_one_lane_rate_tie_costs_rate_times_volume():
    # which tied source moves what is the tableau's choice; every output
    # reads only the cost and the lane total
    got = solve_allocation(_one_lane(3.0, [2.0, 2.0], [5.0, 5.0]))
    assert got.cost == pytest.approx(15.0)
    assert got.lane_totals() == {(1, 2): pytest.approx(3.0)}


def test_one_lane_volume_above_the_caps_is_infeasible():
    assert solve_allocation(_one_lane(9.0, [4.0, 4.0], [1.0, 2.0])) is INFEASIBLE


def test_margin_verdict_does_not_depend_on_the_lane_count():
    # a limit 5e-8 short of the volume is within phase 1's 1e-7 on one lane
    # as with an unused second lane; 2e-7 short is not
    for short, feasible in ((5e-8, True), (2e-7, False)):
        for limit in ("avail", "cap"):
            caps = {1: 3.0 - short if limit == "cap" else 9.0}
            avail = 3.0 - short if limit == "avail" else 9.0
            one = AllocationProblem(3.0, {(1, (1, 3)): 5.0}, caps, {1: avail}, {3: 9.0})
            two = AllocationProblem(3.0, {(1, (1, 3)): 5.0, (1, (2, 3)): 5.0}, caps,
                                    {1: avail, 2: 0.0}, {3: 9.0})
            got = [solve_allocation(p) for p in (one, two)]
            assert [g is not INFEASIBLE for g in got] == [feasible] * 2, (short, limit)
            if feasible:
                assert got[0].moves[(1, (1, 3))] == got[1].moves[(1, (1, 3))] == 3.0 - short
                assert got[0].cost == got[1].cost


def test_allocation_matches_brute_force_single_lane():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n_src = int(rng.integers(1, 4))
        total = int(rng.integers(0, 7))
        problem = AllocationProblem(
            total_volume=float(total),
            lane_costs={
                (k, (1, 2)): round(float(rng.uniform(1, 20)), 2)
                for k in range(1, n_src + 1)
            },
            source_caps={k: float(rng.integers(0, 6)) for k in range(1, n_src + 1)},
            entry_available={1: float(rng.integers(0, 8))},
            exit_space={2: float(rng.integers(0, 8))},
        )
        mine = solve_allocation(problem)
        oracle = brute_force_allocation(problem)
        if oracle is None:
            assert mine is INFEASIBLE
        else:
            assert mine is not INFEASIBLE
            assert mine.cost == pytest.approx(oracle, abs=1e-9)


def test_allocation_matches_brute_force_multi_lane():
    rng = np.random.default_rng(6)
    for _ in range(60):
        inst = micro_instance(rng, n_entries=2, n_exits=2)
        sc = micro_scenario(rng, inst)
        z = sc.realizations[0]
        state = SystemState(
            {i: int(rng.integers(0, 4)) for i in inst.network.entries},
            {j: int(rng.integers(-3, 4)) for j in inst.network.exits},
        )
        caps = {s.id: float(rng.integers(0, 4)) for s in inst.sources}
        action = int(rng.integers(0, inst.bounds.action_max + 1))
        problem = build_problem(state, action, z, caps, inst, period=1)
        mine = solve_allocation(problem)
        oracle = brute_force_allocation(problem)
        if oracle is None:
            assert mine is INFEASIBLE
        else:
            assert mine is not INFEASIBLE
            assert mine.cost == pytest.approx(oracle, abs=1e-9)


def test_allocation_cost_monotone_in_volume_and_caps():
    rng = np.random.default_rng(8)
    for _ in range(50):
        costs = {
            (1, (1, 2)): round(float(rng.uniform(1, 20)), 2),
            (2, (1, 2)): round(float(rng.uniform(1, 20)), 2),
        }
        caps = {1: float(rng.integers(1, 5)), 2: float(rng.integers(1, 5))}
        avail = {1: 10.0}
        space = {2: 10.0}
        prev = 0.0
        for a in range(int(sum(caps.values())) + 1):
            r = solve_allocation(AllocationProblem(a, costs, caps, avail, space))
            assert r is not INFEASIBLE
            assert r.cost >= prev - 1e-9
            prev = r.cost
        # Raising one cap can only keep or lower the cost at fixed volume.
        a = int(sum(caps.values()))
        base = solve_allocation(AllocationProblem(a, costs, caps, avail, space))
        looser = dict(caps)
        looser[1] += 2.0
        relaxed = solve_allocation(AllocationProblem(a, costs, looser, avail, space))
        assert relaxed.cost <= base.cost + 1e-9


def test_moves_reconstruct_cost():
    rng = np.random.default_rng(11)
    for _ in range(100):
        inst = micro_instance(rng, n_entries=2, n_exits=1)
        sc = micro_scenario(rng, inst)
        state = SystemState(
            {i: int(rng.integers(0, 4)) for i in inst.network.entries},
            {j: int(rng.integers(-3, 4)) for j in inst.network.exits},
        )
        caps = {s.id: float(rng.integers(0, 4)) for s in inst.sources}
        problem = build_problem(state, 2, sc.realizations[0], caps, inst)
        r = solve_allocation(problem)
        if r is INFEASIBLE:
            continue
        rebuilt = sum(problem.lane_costs[k] * m for k, m in r.moves.items())
        assert rebuilt == pytest.approx(r.cost, abs=1e-9)


def _allocation_lp(rng):
    """Random allocation-shaped LP: x >= 0 with no upper bounds, one
    volume row sum(x) = total, and 0/1 capacity rows with integer limits
    (integer data makes degenerate vertices common)."""
    n = int(rng.integers(2, 9))
    c = rng.uniform(1, 20, n).round(2)
    A_ub = (rng.uniform(size=(int(rng.integers(1, 7)), n)) < 0.5).astype(float)
    b_ub = rng.integers(0, 6, A_ub.shape[0]).astype(float)
    return c, np.ones((1, n)), np.array([float(rng.integers(1, 8))]), A_ub, b_ub


def test_tableau_matches_highs_on_allocation_lps():
    rng = np.random.default_rng(17)
    infeasible = 0
    for _ in range(300):
        c, A_eq, b_eq, A_ub, b_ub = _allocation_lp(rng)
        (x,) = tableau_simplex(c, A_eq, [b_eq], A_ub, [b_ub])
        ref = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, method="highs")
        assert ref.status in (0, 2)
        if ref.status == 2:
            assert x is None
            infeasible += 1
            continue
        assert x is not None
        assert float(c @ x) == pytest.approx(ref.fun, abs=1e-7)
        assert np.all(x >= 0.0)
        assert np.allclose(A_eq @ x, b_eq, atol=1e-9)
        assert np.all(A_ub @ x <= b_ub + 1e-9)
    assert 0 < infeasible < 300


def test_tableau_detects_infeasible_volume():
    # three units over two sources capped at one each
    (x,) = tableau_simplex(
        np.array([1.0, 2.0]), np.ones((1, 2)), [[3.0]], np.eye(2), [np.ones(2)]
    )
    assert x is None


def test_tableau_degenerate_problem_terminates():
    # Redundant volume rows pin the same point, and duplicated capacity rows
    # make every vertex degenerate; phase 1 must drop the redundant rows
    # and neither phase may cycle.
    c = np.array([1.0, 2.0, 3.0, 4.0])
    A_eq = np.vstack([np.ones(4), np.ones(4), 2 * np.ones(4)])
    b_eq = np.array([2.0, 2.0, 4.0])
    A_ub = np.vstack([np.eye(4), np.eye(4)])
    b_ub = np.full(8, 2.0)
    (x,) = tableau_simplex(c, A_eq, [b_eq], A_ub, [b_ub])
    assert x.tolist() == [2.0, 0.0, 0.0, 0.0]


def test_tableau_same_vertex_on_repeat():
    # cost-tied sources: the vertex returned must not vary between solves
    c = np.array([5.0, 5.0, 5.0])
    args = (np.ones((1, 3)), [[4.0]], np.eye(3), [np.full(3, 3.0)])
    (first,) = tableau_simplex(c, *args)
    (second,) = tableau_simplex(c, *args)
    assert np.array_equal(first, second)
    assert float(c @ first) == pytest.approx(20.0)


def test_tableau_batch_solves_each_problem_as_alone(monkeypatch):
    # Batches share costs, source caps and the volume A, and vary entry
    # availability, exit space and how A splits between the two sources.
    # The volume row and the two split rows are dependent, so phase 1 drops
    # one of them as redundant, which one depending on the split; integer
    # data makes degenerate vertices common. Every problem must get its
    # batch-of-one vertex, or None, bit for bit.
    phases = []
    real = alloc._run_phase

    def counting(T, *args):
        phases.append(len(T))
        return real(T, *args)

    monkeypatch.setattr("drayage.alloc._run_phase", counting)
    rng = np.random.default_rng(29)
    seen = {"infeasible": 0, "degenerate": 0, "split phase 2": 0}
    for _ in range(60):
        n_entries, n_exits = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        cols = [(k, i, j) for k in range(2) for i in range(n_entries) for j in range(n_exits)]
        c = rng.integers(1, 6, len(cols)).astype(float)  # integer costs tie often
        A = float(rng.integers(2, 7))
        A_ub = np.array([[float(col[d] == v) for col in cols]
                         for d, size in enumerate((2, n_entries, n_exits)) for v in range(size)])
        first = A_ub[0]
        A_eq = np.vstack([np.ones(len(cols)), first, 1.0 - first])
        K = 12
        b_ub = np.hstack([
            np.tile(rng.integers(1, 6, 2).astype(float), (K, 1)),
            np.minimum(rng.integers(0, 7, (K, n_entries + n_exits)), A),
        ])
        split = rng.integers(0, A + 1, K).astype(float)
        b_eq = np.column_stack([np.full(K, A), split, A - split])
        phases.clear()
        xs = tableau_simplex(c, A_eq, b_eq, A_ub, b_ub)
        seen["split phase 2"] += len(phases) > 2  # phase 1 plus two or more groups
        for k, x in enumerate(xs):
            (one,) = tableau_simplex(c, A_eq, b_eq[k : k + 1], A_ub, b_ub[k : k + 1])
            assert (x is None) == (one is None)
            if x is None:
                seen["infeasible"] += 1
                continue
            assert x.tobytes() == one.tobytes()
            positive = (x > 1e-9).sum() + (b_ub[k] - A_ub @ x > 1e-9).sum()
            seen["degenerate"] += positive < len(A_ub) + 2  # fewer than the basis size
    assert min(seen.values()) > 0, seen

    # Larger LPs whose right-hand sides are mostly 0: every batch of these
    # draws runs 40 degenerate pivots in a row somewhere, so those problems
    # price by Bland's rule while the rest of the batch is still on Dantzig.
    rng = np.random.default_rng(7)
    for _ in range(5):
        n, n_ub = int(rng.integers(10, 30)), int(rng.integers(20, 60))
        c = rng.choice([1.0, 2.0, 3.0], n)
        A_ub = rng.integers(-1, 2, (n_ub, n)).astype(float)
        b_ub = np.zeros((4, n_ub))
        b_ub[:, : n_ub // 4] = rng.integers(0, 3, (4, n_ub // 4))
        b_eq = rng.integers(0, 3, (4, 1)).astype(float)
        xs = tableau_simplex(c, np.ones((1, n)), b_eq, A_ub, b_ub)
        for k, x in enumerate(xs):
            (one,) = tableau_simplex(c, np.ones((1, n)), b_eq[k : k + 1], A_ub, b_ub[k : k + 1])
            assert (x is None) == (one is None)
            assert x is None or x.tobytes() == one.tobytes()


def _limits_row(problem):
    """The problem's volume, entry availability then exit space, each in id order."""
    return [problem.total_volume, *(v for _, v in sorted(problem.entry_available.items())),
            *(v for _, v in sorted(problem.exit_space.items()))]


def _arrays(problem):
    """solve_allocations' (costs, caps, cols) of a problem."""
    keys, sources, cols = alloc.allocation_layout(
        problem.lane_costs, problem.source_caps, problem.entry_available, problem.exit_space)
    return [problem.lane_costs[k] for k in keys], [problem.source_caps[k] for k in sources], cols


def test_solve_allocations_matches_one_at_a_time():
    # one action, then mixed actions, at many states of each network shape,
    # every row checked against a lone solve: zero-volume, family-sum
    # infeasible, phase-1 infeasible and feasible rows of 2 x 2, 1 x 1, 2 x 1
    # and 1 x 2 networks
    rng = np.random.default_rng(31)
    for n_entries, n_exits in ((2, 2), (1, 1), (2, 1), (1, 2)):
        for _ in range(20):
            inst = micro_instance(rng, n_entries=n_entries, n_exits=n_exits)
            z = micro_scenario(rng, inst).realizations[0]
            caps = {s.id: float(rng.integers(0, 4)) for s in inst.sources}
            one = int(rng.integers(1, 7))
            for actions in ([0] * 10, [one] * 10, rng.integers(0, 7, 10).tolist()):
                problems = [
                    build_problem(
                        SystemState(
                            {i: int(rng.integers(0, 4)) for i in inst.network.entries},
                            {j: int(rng.integers(-3, 4)) for j in inst.network.exits},
                        ),
                        action, z, caps, inst, period=1,
                    )
                    for action in actions
                ]
                rows = [_limits_row(p) for p in problems]
                cost, moves = solve_allocations(*_arrays(problems[0]), rows)
                assert cost.shape == (len(rows),)
                assert moves.shape == (len(rows), len(problems[0].lane_costs))
                for c, m, problem in zip(cost, moves, problems):
                    want = solve_allocation(problem)
                    if want is INFEASIBLE:
                        assert c == np.inf and not m.any()
                    else:
                        assert repr(float(c)) == repr(want.cost)
                        assert m.tobytes() == np.array(list(want.moves.values())).tobytes()


def test_solve_allocations_checks_the_limits_shape():
    arrays = _arrays(_two_entry_problem(1.0))  # limits columns 1, 2 (entries) and 3 (exit)
    for empty in ([], np.zeros((0, 4))):
        cost, moves = solve_allocations(*arrays, empty)
        assert cost.shape == (0,) and moves.shape == (0, 4)
    with pytest.raises(ValueError, match=r"4 columns.*\(2, 3\)"):
        solve_allocations(*arrays, np.ones((2, 3)))
    with pytest.raises(ValueError, match=r"\(4,\)"):
        solve_allocations(*arrays, [1.0, 5.0, 5.0, 5.0])
    with pytest.raises(ValueError, match=r"\(1, 1, 4\)"):
        solve_allocations(*arrays, np.ones((1, 1, 4)))


def test_lane_location_or_source_without_a_limit_raises():
    # one reading of a missing key on every shape: a ValueError naming it,
    # whatever the volume
    one_lane = {(1, (1, 2)): 1.0}
    network = _two_entry_problem(3.0).lane_costs
    cases = [
        (AllocationProblem(1.0, one_lane, {1: 5.0}, {}, {2: 10.0}), "entry 1"),
        (AllocationProblem(0.0, one_lane, {1: 5.0}, {}, {2: 10.0}), "entry 1"),
        (AllocationProblem(1.0, one_lane, {1: 5.0}, {1: 10.0}, {}), "exit 2"),
        (AllocationProblem(1.0, one_lane, {}, {1: 10.0}, {2: 10.0}), "source 1"),
        (AllocationProblem(3.0, network, {1: 5.0, 2: 5.0}, {1: 1.0}, {3: 5.0}), "entry 2"),
        (AllocationProblem(3.0, network, {1: 5.0}, {1: 5.0, 2: 5.0}, {3: 5.0}), "source 2"),
        (AllocationProblem(3.0, network, {1: 5.0, 2: 5.0}, {1: 5.0, 2: 5.0}, {}), "exit 3"),
    ]
    for problem, missing in cases:
        with pytest.raises(ValueError, match=missing):
            solve_allocation(problem)


def test_negative_source_cap_is_infeasible():
    # no x >= 0 has x_k <= cap_k < 0, whatever the volume or the lanes
    one_lane = AllocationProblem(
        3.0, {(1, (1, 2)): 1.0, (2, (1, 2)): 2.0}, {1: -1.0, 2: 5.0}, {1: 10.0}, {2: 10.0}
    )
    assert solve_allocation(one_lane) is INFEASIBLE
    network = _two_entry_problem(1.0, caps={1: -1.0, 2: 5.0})
    assert _tableau_of(network)[1] is None
    assert solve_allocation(network) is INFEASIBLE
    for problem in (one_lane, network):
        zero = AllocationProblem(0.0, problem.lane_costs, problem.source_caps,
                                 problem.entry_available, problem.exit_space)
        assert solve_allocation(zero) is INFEASIBLE
        rows = [_limits_row(problem), _limits_row(zero), np.zeros(len(_limits_row(problem)))]
        cost, moves = solve_allocations(*_arrays(problem), rows)
        assert (cost == np.inf).all() and not moves.any()


def _tableau_of(problem):
    """The general case's tableau on the rows solve_allocation builds: a
    0/1 row per source cap, entry availability and exit space, the last two
    clipped to the volume."""
    keys = sorted(problem.lane_costs)
    A = float(problem.total_volume)
    where = np.array([(k, i, j) for (k, (i, j)) in keys])
    rows, rhs = [], []
    for col, limits, most in (
        (0, problem.source_caps, np.inf),
        (1, problem.entry_available, A),
        (2, problem.exit_space, A),
    ):
        for loc, limit in sorted(limits.items()):
            row = (where[:, col] == loc).astype(float)
            if row.any():
                rows.append(row)
                rhs.append(min(limit, most))
    c = np.array([problem.lane_costs[k] for k in keys])
    return keys, tableau_simplex(c, np.ones((1, len(keys))), [[A]], rows, [rhs])[0]


def _two_entry_problem(volume, caps=None, avail=None, space=None):
    """Sources 1 and 2 on lanes (1, 3) and (2, 3)."""
    return AllocationProblem(
        total_volume=volume,
        lane_costs={(1, (1, 3)): 4.0, (1, (2, 3)): 6.0, (2, (1, 3)): 5.0, (2, (2, 3)): 3.0},
        source_caps=caps or {1: 1.0, 2: 1.0},
        entry_available=avail or {1: 5.0, 2: 5.0},
        exit_space=space or {3: 5.0},
    )


def test_family_sums_decide_infeasibility_as_the_tableau_does():
    # every multi-lane problem: INFEASIBLE exactly when phase 1 fails, and
    # a feasible one gets the tableau's vertex bit for bit
    rng = np.random.default_rng(23)
    outcomes = {True: 0, False: 0}
    for n_exits in (1, 2):
        for _ in range(150):
            inst = micro_instance(rng, n_entries=2, n_exits=n_exits)
            z = micro_scenario(rng, inst).realizations[0]
            state = SystemState(
                {i: int(rng.integers(0, 4)) for i in inst.network.entries},
                {j: int(rng.integers(-3, 4)) for j in inst.network.exits},
            )
            caps = {s.id: float(rng.integers(0, 4)) for s in inst.sources}
            action = int(rng.integers(1, 7))
            problem = build_problem(state, action, z, caps, inst, period=1)
            keys, x = _tableau_of(problem)
            got = solve_allocation(problem)
            assert (got is INFEASIBLE) == (x is None)
            outcomes[x is None] += 1
            if x is not None:
                assert got.moves == {k: float(v) for k, v in zip(keys, x)}
    assert min(outcomes.values()) > 50

    # the margin is phase 1's own 1e-7 on the artificials, not 1e-9
    near = _two_entry_problem(2.0 + 5e-8)
    assert _tableau_of(near)[1] is not None
    assert solve_allocation(near) is not INFEASIBLE
    over = _two_entry_problem(2.0 + 2e-7)
    assert _tableau_of(over)[1] is None
    assert solve_allocation(over) is INFEASIBLE


def test_over_volume_problems_never_reach_the_tableau(monkeypatch):
    def refuse(*args):
        raise AssertionError("tableau called")

    monkeypatch.setattr("drayage.alloc.tableau_simplex", refuse)
    wide = {1: 9.0, 2: 9.0}
    for problem in (
        _two_entry_problem(2.5),  # source caps sum to 2
        _two_entry_problem(2.0 + 2e-7),
        _two_entry_problem(3.0, caps=wide, avail={1: 1.0, 2: 1.5}),
        _two_entry_problem(3.0, caps=wide, space={3: 2.0}),
    ):
        assert solve_allocation(problem) is INFEASIBLE


def test_zero_action_cost_is_holding_only(capacity_instance, tuned_plan, demo_scenario):
    state = capacity_instance.initial_state
    caps = plan_caps_at(tuned_plan, 1)
    z = demo_scenario.realizations[0]
    got = solve_allocation(build_problem(state, 0, z, caps, capacity_instance, period=1))
    assert got.cost == 0.0  # the stage cost is holding_cost(state) alone
    assert all(m == 0.0 for m in got.moves.values())


def test_infeasible_action_marker(capacity_instance, demo_scenario):
    state = SystemState({1: 0}, {2: 10})  # exit full: no space for any move
    caps = {1: 10.0, 2: 10.0}
    z = demo_scenario.realizations[0]
    prob = build_problem(state, 1, z, caps, capacity_instance)
    assert solve_allocation(prob) is INFEASIBLE


def test_transition_applies_flows_and_moves(capacity_instance, demo_scenario):
    z = demo_scenario.realizations[0]  # inflow 8, outflow 8
    state = SystemState({1: 0}, {2: 8})
    nxt = transition(state, {(1, 2): 2.0}, z, capacity_instance.bounds)
    assert nxt.entry_stock == {1: 6}
    assert nxt.exit_stock == {2: 2}


def test_transition_clamps_to_bounds():
    rng = np.random.default_rng(13)
    for _ in range(200):
        inst = micro_instance(rng, n_entries=1, n_exits=1)
        sc = micro_scenario(rng, inst)
        state = SystemState(
            {1: int(rng.integers(0, 4))}, {2: int(rng.integers(-3, 4))}
        )
        moves = {(1, 2): float(rng.integers(0, 5))}
        nxt = transition(state, moves, sc.realizations[0], inst.bounds)
        assert 0 <= nxt.entry_stock[1] <= inst.bounds.entry_max[1]
        assert (
            -inst.bounds.exit_backorder_max[2]
            <= nxt.exit_stock[2]
            <= inst.bounds.exit_max[2]
        )
