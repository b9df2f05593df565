"""Property suites for the pure functions (1000+ generated cases each)."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    all_states,
    brute_force_allocation,
    build_problem,
    micro_instance,
    plan_caps_at,
    random_plan,
)
from drayage.alloc import (
    INFEASIBLE,
    AllocationProblem,
    holding_cost,
    solve_allocation,
    transition,
)
from drayage.capopt import quadratic_parameterization, reservation_cost
from drayage.dp import StateIndexer, _StageTables, terminal_value
from drayage.evaluation import summarize
from drayage.model import CapacityPlan, ExogenousRealization, SystemState
from drayage.scenario import enumerate_support, realization_probability
from drayage import reference

CAP = reference.example_instance("capacity")
IDX = StateIndexer.for_instance(CAP)

MANY = settings(max_examples=1000, deadline=None, derandomize=True)

entry_levels = st.integers(min_value=0, max_value=10)
exit_levels = st.integers(min_value=-10, max_value=10)
inflows = st.sampled_from([0, 4, 8])
outflows = st.sampled_from([0, 4, 8])
spot_rates = st.sampled_from([7.0, 22.0])


def state(e, x):
    return SystemState(entry_stock={1: e}, exit_stock={2: x})


def realization(q, d, r):
    return ExogenousRealization(
        inflow={1: q}, outflow={2: d}, spot_rates={2: {(1, 2): r}}
    )


# ---------------------------------------------------------------------------
# Terminal value


@MANY
@given(entry_levels, exit_levels)
def test_terminal_value_formula_and_sign(e, x):
    v = terminal_value(state(e, x), CAP.costs)
    assert v <= 0.0
    assert v == -(15.0 * e + 12.0 * max(x, 0) + 24.0 * max(-x, 0))


@MANY
@given(entry_levels, exit_levels)
def test_terminal_value_splits_by_location(e, x):
    whole = terminal_value(state(e, x), CAP.costs)
    assert whole == terminal_value(state(e, 0), CAP.costs) + terminal_value(
        state(0, x), CAP.costs
    )


# ---------------------------------------------------------------------------
# Holding cost


@MANY
@given(entry_levels, exit_levels)
def test_holding_cost_nonnegative_and_additive(e, x):
    h = holding_cost(state(e, x), CAP.costs)
    assert h >= 0.0
    assert h == holding_cost(state(e, 0), CAP.costs) + holding_cost(
        state(0, x), CAP.costs
    )
    if e == 0 and x == 0:
        assert h == 0.0


@MANY
@given(entry_levels, exit_levels, entry_levels, exit_levels)
def test_holding_cost_monotone_in_magnitude(e1, x1, e2, x2):
    # more stock (or deeper backorder) never costs less to hold
    if e1 <= e2 and abs(x1) <= abs(x2) and (x1 == 0 or np.sign(x1) == np.sign(x2)):
        assert holding_cost(state(e1, x1), CAP.costs) <= holding_cost(
            state(e2, x2), CAP.costs
        )


# ---------------------------------------------------------------------------
# One-lane allocation


def one_lane(total, cap1, cap2, r1, r2, avail):
    """Two sources on lane (1, 2); the exit has room for any volume drawn."""
    return AllocationProblem(
        total_volume=float(total),
        lane_costs={(1, (1, 2)): round(r1, 2), (2, (1, 2)): round(r2, 2)},
        source_caps={1: float(cap1), 2: float(cap2)},
        entry_available={1: float(avail)},
        exit_space={2: 13.0},
    )


one_lane_cases = (
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=8),
    st.floats(min_value=1.0, max_value=30.0, allow_nan=False),
    st.floats(min_value=1.0, max_value=30.0, allow_nan=False),
    st.integers(min_value=0, max_value=13),
)


@MANY
@given(*one_lane_cases)
def test_one_lane_allocation_optimal_and_conserving(total, cap1, cap2, r1, r2, avail):
    problem = one_lane(total, cap1, cap2, r1, r2, avail)
    got = solve_allocation(problem)
    best = brute_force_allocation(problem)
    if best is None:
        assert got is INFEASIBLE
        return
    assert got is not INFEASIBLE
    moves = [got.moves[(k, (1, 2))] for k in (1, 2)]
    assert sum(moves) == pytest.approx(total, abs=1e-12)
    assert all(0.0 <= m <= c + 1e-12 for m, c in zip(moves, (cap1, cap2)))
    assert got.cost == pytest.approx(best, abs=1e-9)


@MANY
@given(*one_lane_cases)
def test_one_lane_allocation_cost_monotone_in_volume(total, cap1, cap2, r1, r2, avail):
    lo, hi = (one_lane(v, cap1, cap2, r1, r2, avail) for v in (total, total + 1))
    got_lo, got_hi = solve_allocation(lo), solve_allocation(hi)
    assert (got_hi is INFEASIBLE) == (brute_force_allocation(hi) is None)
    if got_hi is INFEASIBLE:
        return
    assert got_lo is not INFEASIBLE  # feasibility is monotone downward in volume
    assert got_lo.cost <= got_hi.cost + 1e-12


# ---------------------------------------------------------------------------
# Quadratic capacity profiles


@MANY
@given(
    st.floats(min_value=-20, max_value=20, allow_nan=False),
    st.floats(min_value=-20, max_value=20, allow_nan=False),
    st.floats(min_value=-20, max_value=20, allow_nan=False),
    st.integers(min_value=1, max_value=6),
    st.floats(min_value=0.0, max_value=12.0, allow_nan=False),
)
def test_quadratic_profile_stays_in_box(b0, b1, b2, horizon, box):
    plan = quadratic_parameterization({1: (b0, b1, b2)}, horizon, {1: box})
    caps = plan.capacity[1]
    assert len(caps) == horizon
    for t, c in enumerate(caps, start=1):
        assert 0.0 <= c <= box
        raw = b0 + b1 * t + b2 * t * t
        assert c == min(max(raw, 0.0), box)


@MANY
@given(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    st.integers(min_value=1, max_value=6),
)
def test_quadratic_constant_profiles_identity(c, horizon):
    plan = quadratic_parameterization({1: (c, 0.0, 0.0)}, horizon, {1: 10.0})
    assert plan.capacity[1] == (c,) * horizon


# ---------------------------------------------------------------------------
# Summary statistics


@MANY
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                min_size=1, max_size=50))
def test_summarize_ordering_chain(values):
    got = summarize(values)
    assert got["min"] <= got["q1"] <= got["median"] <= got["q3"] <= got["max"]
    # pairwise summation can land the mean one ulp outside the hull
    slack = 1e-9 * max(1.0, abs(got["max"]), abs(got["min"]))
    assert got["min"] - slack <= got["mean"] <= got["max"] + slack
    assert got["min"] == min(values)
    assert got["max"] == max(values)


@MANY
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                min_size=2, max_size=30),
       st.randoms(use_true_random=False))
def test_summarize_permutation_invariant(values, rnd):
    shuffled = list(values)
    rnd.shuffle(shuffled)
    a, b = summarize(values), summarize(shuffled)
    # quantiles sort internally (exact); the mean reorders its summation
    for key in ("min", "q1", "median", "q3", "max"):
        assert a[key] == b[key]
    assert a["mean"] == pytest.approx(b["mean"], rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# Realization probabilities


@MANY
@given(inflows, outflows, spot_rates)
def test_realization_probability_is_product(q, d, r):
    pq = {0: 0.4, 4: 0.3, 8: 0.3}[q]
    pd = {0: 0.25, 4: 0.25, 8: 0.5}[d]
    pr = {7.0: 0.4, 22.0: 0.6}[r]
    assert realization_probability(realization(q, d, r), CAP) == pytest.approx(
        pq * pd * pr, abs=1e-12
    )


# ---------------------------------------------------------------------------
# State indexing


@MANY
@given(st.integers(min_value=0, max_value=230))
def test_indexer_roundtrip_from_index(i):
    assert IDX.index_of(IDX.state_of(i)) == i


@MANY
@given(entry_levels, exit_levels)
def test_indexer_roundtrip_from_state(e, x):
    s = state(e, x)
    i = IDX.index_of(s)
    assert 0 <= i < IDX.n_states
    back = IDX.state_of(i)
    assert back.entry_stock == s.entry_stock
    assert back.exit_stock == s.exit_stock


# ---------------------------------------------------------------------------
# Reservation cost linearity


caps_tuple = st.tuples(*([st.integers(min_value=0, max_value=10)] * 4))


@MANY
@given(caps_tuple, caps_tuple, caps_tuple, caps_tuple)
def test_reservation_cost_additive(a1, a2, b1, b2):
    rates = {s.id: tuple(s.reservation_rate) for s in CAP.sources}
    pa = CapacityPlan(capacity={1: a1, 2: a2})
    pb = CapacityPlan(capacity={1: b1, 2: b2})
    psum = CapacityPlan(
        capacity={
            1: tuple(u + v for u, v in zip(a1, b1)),
            2: tuple(u + v for u, v in zip(a2, b2)),
        }
    )
    assert reservation_cost(psum, rates) == pytest.approx(
        reservation_cost(pa, rates) + reservation_cost(pb, rates), abs=1e-9
    )


# ---------------------------------------------------------------------------
# Feasible actions and transitions


@MANY
@given(entry_levels, exit_levels, inflows, outflows, spot_rates,
       st.integers(min_value=0, max_value=10),
       st.integers(min_value=0, max_value=10))
def test_feasible_actions_contiguous_from_zero(e, x, q, d, r, c1, c2):
    # the sweep's feasible set at a state is the finite part of its stage-table column
    z = realization(q, d, r)
    caps = {1: float(c1), 2: float(c2)}
    plan = CapacityPlan(capacity={k: (v,) * CAP.horizon for k, v in caps.items()})
    cost, _ = _StageTables(CAP, plan).table(1, z)
    finite = np.isfinite(cost[:, IDX.index_of(state(e, x))])
    acts = np.flatnonzero(finite).tolist()
    assert acts == list(range(len(acts)))
    assert len(acts) >= 1  # doing nothing is always allowed
    for a, ok in enumerate(finite):
        prob = build_problem(state(e, x), a, z, caps, CAP)
        assert ok == (solve_allocation(prob) is not INFEASIBLE)


@MANY
@given(entry_levels, exit_levels, st.integers(min_value=0, max_value=10),
       inflows, outflows)
def test_transition_stays_on_grid(e, x, moved, q, d):
    nxt = transition(
        state(e, x), {(1, 2): float(moved)}, realization(q, d, 7.0), CAP.bounds
    )
    assert 0 <= nxt.entry_stock[1] <= CAP.bounds.entry_max[1]
    assert -CAP.bounds.exit_backorder_max[2] <= nxt.exit_stock[2] <= CAP.bounds.exit_max[2]
    assert isinstance(nxt.entry_stock[1], int)
    assert isinstance(nxt.exit_stock[2], int)


@MANY
@given(entry_levels, exit_levels, inflows, outflows)
def test_transition_unclamped_is_exact_balance(e, x, q, d):
    # moves within physical limits follow conservation exactly
    moved = min(e + q, max(CAP.bounds.exit_max[2] - x, 0))
    nxt = transition(
        state(e, x), {(1, 2): float(moved)}, realization(q, d, 7.0), CAP.bounds
    )
    raw_entry = e + q - moved
    raw_exit = x + moved - d
    if 0 <= raw_entry <= CAP.bounds.entry_max[1]:
        assert nxt.entry_stock[1] == raw_entry
    if -CAP.bounds.exit_backorder_max[2] <= raw_exit <= CAP.bounds.exit_max[2]:
        assert nxt.exit_stock[2] == raw_exit


# ---------------------------------------------------------------------------
# Allocation on networks: bounds above the volume never matter


@MANY
@given(st.sampled_from([(2, 1), (1, 2), (2, 2)]),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_allocation_unchanged_by_clipping_bounds_to_volume(shape, seed):
    # The DP memoizes allocations on min(avail, a) and min(space, a); that is
    # exact only if the solver's answer, including which of several
    # cost-tied allocations it returns, depends on nothing else.
    rng = np.random.Generator(np.random.Philox(seed))
    inst = micro_instance(rng, n_entries=shape[0], n_exits=shape[1])
    plan = random_plan(rng, inst)
    support = enumerate_support(inst)
    states = all_states(inst)
    z = support[int(rng.integers(len(support)))][0]
    st_ = states[int(rng.integers(len(states)))]
    t = int(rng.integers(1, inst.horizon + 1))
    a = int(rng.integers(0, inst.bounds.action_max + 1))
    full = build_problem(st_, a, z, plan_caps_at(plan, t), inst, t)
    clipped = replace(
        full,
        entry_available={i: min(v, a) for i, v in full.entry_available.items()},
        exit_space={j: min(v, a) for j, v in full.exit_space.items()},
    )
    got, want = solve_allocation(clipped), solve_allocation(full)
    assert (got is INFEASIBLE) == (want is INFEASIBLE)
    if want is not INFEASIBLE:
        assert got.cost == want.cost
        assert got.lane_totals() == want.lane_totals()
