"""Capacity objective, quasi-Newton search, grid search, parameterizations."""

import csv
import math

import numpy as np
import pytest
from scipy import sparse

from drayage import capopt, cli, lp, mslp
from drayage.capopt import (
    CapacityObjective,
    OptConfig,
    extensive_form,
    monte_carlo_search,
    objective,
    optimize_capacity,
    optimize_capacity_exact,
    optimize_capacity_quadratic,
    optimize_capacity_saa,
    quadratic_parameterization,
    reservation_cost,
    sample_objective,
    scenario_objective,
    total_flow,
)
from drayage.evaluation import per_scenario_optimum
from drayage.lp import HighsModel
from drayage.model import CapacityPlan, generate_instance
from drayage.mslp import InfeasibleLP, build_mslp
from drayage.scenario import SampleSet, build_sample_set, sample_scenarios

from helpers import dry_scenario


SMALL = OptConfig(restarts=1, max_iter=8, seed=7)


# ---------------------------------------------------------------------------
# Reservation cost and the combined objective


def test_reservation_cost_reference_plans(
    baseline_plan, tuned_plan, reservation_rates
):
    rates = {sid: tuple(r) for sid, r in reservation_rates.items()}
    assert reservation_cost(baseline_plan, rates) == pytest.approx(94.76, abs=1e-9)
    assert reservation_cost(tuned_plan, rates) == pytest.approx(35.68, abs=1e-9)


def test_reservation_cost_rejects_length_mismatch(baseline_plan):
    with pytest.raises(ValueError):
        reservation_cost(baseline_plan, {1: (1.0, 2.0), 2: (0.0, 0.0)})


def test_objective_reference_values(
    capacity_instance, demo_scenario, baseline_plan, tuned_plan
):
    obj = scenario_objective(capacity_instance, demo_scenario)
    try:
        assert objective(baseline_plan, obj) == pytest.approx(-557.22, abs=1e-9)
        assert objective(tuned_plan, obj) == pytest.approx(-439.2, abs=1e-9)
    finally:
        obj.close()


def test_objective_raises_on_infeasible_plan(capacity_instance, demo_scenario):
    zero = CapacityPlan(
        capacity={
            s.id: (0,) * capacity_instance.horizon
            for s in capacity_instance.sources
        }
    )
    obj = scenario_objective(capacity_instance, demo_scenario)
    try:
        with pytest.raises(InfeasibleLP):
            objective(zero, obj)
    finally:
        obj.close()


def test_total_flow_and_denominator(capacity_instance, demo_scenario):
    assert total_flow(demo_scenario) == 40.0
    obj = scenario_objective(capacity_instance, demo_scenario)
    try:
        assert obj.flow_denominator() == 40.0
    finally:
        obj.close()


def test_flow_denominator_sums_left_to_right(capacity_instance):
    # weights on which a compensated sum (math.fsum, or sum() from Python
    # 3.12) rounds differently from the plain left-to-right one
    weights = [0.73, 0.176, 0.863, 0.541, 0.3, 0.423, 0.028]
    scenarios = sample_scenarios(capacity_instance, len(weights), 3)
    obj = CapacityObjective(capacity_instance, weighted_scenarios=tuple(zip(scenarios, weights)))
    terms = [w * total_flow(sc) for sc, w in zip(scenarios, weights)]
    in_order = 0.0
    for v in terms:
        in_order += v
    assert in_order != math.fsum(terms)
    assert repr(obj.flow_denominator()) == repr(in_order)


def test_dp_valued_denominator_is_the_samples_expected_flow(capacity_instance):
    # each period's draws weighted, added in order; cost per TEU divides by it
    enum = CapacityObjective(
        capacity_instance, sample_set=build_sample_set(capacity_instance, 0, 0, mode="enumerate")
    )
    iid = CapacityObjective(
        capacity_instance, sample_set=build_sample_set(capacity_instance, 1000, 0, mode="iid")
    )
    for obj in (enum, iid):
        in_order = 0.0
        for zs, ws in zip(obj.sample_set.realizations, obj.sample_set.weights):
            for z, w in zip(zs, ws):
                in_order += w * (sum(z.inflow.values()) + sum(z.outflow.values()))
        assert repr(obj.flow_denominator()) == repr(in_order)
    denom = enum.flow_denominator()
    assert repr(denom) == "34.399999999999984"
    assert iid.flow_denominator() == pytest.approx(34.1, abs=0.05)
    _, stats = monte_carlo_search(enum, 5, seed=0)
    total, per_teu = stats["total_cost"], stats["cost_per_teu"]
    assert per_teu["min"] == total["min"] / denom
    assert per_teu == pytest.approx({k: v / denom for k, v in total.items()}, rel=1e-12)


def test_objective_mode_validated(capacity_instance, demo_scenario):
    # LP-valued with weighted_scenarios, DP-valued with sample_set: one of them
    sample = build_sample_set(capacity_instance, 3, 0)
    with pytest.raises(ValueError):
        CapacityObjective(capacity_instance)
    with pytest.raises(ValueError):
        CapacityObjective(
            capacity_instance,
            weighted_scenarios=((demo_scenario, 1.0),),
            sample_set=sample,
        )


@pytest.mark.parametrize("mode", ["lp", "dp"])
def test_objective_rates_and_box_are_read_only(capacity_instance, demo_scenario, mode):
    # derived once and shared by every caller, so no caller may write into them
    if mode == "lp":
        obj = scenario_objective(capacity_instance, demo_scenario)
    else:
        obj = CapacityObjective(capacity_instance, sample_set=build_sample_set(capacity_instance, 3, 0))
    rates = [tuple(s.reservation_rate) for s in capacity_instance.sources]
    assert [tuple(r) for r in obj.rates_array.tolist()] == rates
    assert obj.box_upper.shape == (len(rates), capacity_instance.horizon)
    for arr in (obj.rates_array, obj.box_upper):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 1.0


# ---------------------------------------------------------------------------
# value_of_caps structure


def test_value_monotone_in_caps(capacity_instance, demo_scenario, baseline_plan):
    obj = scenario_objective(capacity_instance, demo_scenario)
    try:
        caps = np.array([baseline_plan.capacity[1], baseline_plan.capacity[2]], float)
        v0 = obj.value_of_caps(caps)
        v1 = obj.value_of_caps(caps + 1.0)
        assert v0 is not None and v1 is not None
        assert v1 >= v0 - 1e-9
    finally:
        obj.close()


def test_value_none_when_infeasible(capacity_instance, demo_scenario):
    obj = scenario_objective(capacity_instance, demo_scenario)
    try:
        assert obj.value_of_caps(np.zeros((2, 4))) is None
    finally:
        obj.close()


def test_dp_and_lp_evaluators_agree_on_one_scenario(
    capacity_instance, demo_scenario, tuned_plan
):
    # Same single-scenario objective through the LP and through the DP sweep.
    lp_obj = scenario_objective(capacity_instance, demo_scenario)
    sample = SampleSet(
        realizations=tuple((z,) for z in demo_scenario.realizations),
        weights=tuple((1.0,) for _ in demo_scenario.realizations),
        seed=0,
        mode="iid",
    )
    dp_obj = CapacityObjective(capacity_instance, sample_set=sample)
    caps = np.array([tuned_plan.capacity[1], tuned_plan.capacity[2]], float)
    try:
        v_lp = lp_obj.value_of_caps(caps)
        v_dp = dp_obj.value_of_caps(caps)
        assert v_lp == pytest.approx(-403.52, abs=1e-9)
        assert v_dp == pytest.approx(v_lp, abs=1e-6)
    finally:
        lp_obj.close()


# ---------------------------------------------------------------------------
# Quadratic capacity profiles


def test_quadratic_profile_oracles():
    box = {1: 10.0}
    assert quadratic_parameterization({1: (5, 0, 0)}, 4, box).capacity[1] == (
        5.0, 5.0, 5.0, 5.0,
    )
    assert quadratic_parameterization({1: (0, 1, 0)}, 4, box).capacity[1] == (
        1.0, 2.0, 3.0, 4.0,
    )
    assert quadratic_parameterization({1: (-2, 1, 0)}, 4, box).capacity[1] == (
        0.0, 0.0, 1.0, 2.0,
    )
    # interior spike: clamps to zero on both shoulders
    assert quadratic_parameterization({1: (-24, 32, -8)}, 4, box).capacity[1] == (
        0.0, 8.0, 0.0, 0.0,
    )


def test_quadratic_box_clamp():
    plan = quadratic_parameterization({1: (0, 3, 0)}, 4, {1: 6.0})
    assert plan.capacity[1] == (3.0, 6.0, 6.0, 6.0)


def test_quadratic_constant_identity():
    # beta1 = beta2 = 0 reproduces a constant plan exactly
    for c in (0.0, 2.5, 7.0):
        plan = quadratic_parameterization({1: (c, 0, 0), 2: (c, 0, 0)}, 4, {1: 10.0, 2: 10.0})
        assert plan.capacity[1] == (c,) * 4
        assert plan.capacity[2] == (c,) * 4


# ---------------------------------------------------------------------------
# Finite differences on the linear reservation term


def test_fd_gradient_of_reservation_matches_rates(reservation_rates, baseline_plan):
    rates = {sid: tuple(r) for sid, r in reservation_rates.items()}
    h = 1e-3
    for sid in (1, 2):
        for t in range(4):
            up = {s: list(c) for s, c in baseline_plan.capacity.items()}
            dn = {s: list(c) for s, c in baseline_plan.capacity.items()}
            up[sid][t] += h
            dn[sid][t] -= h
            fd = (
                reservation_cost(CapacityPlan({s: tuple(c) for s, c in up.items()}), rates)
                - reservation_cost(CapacityPlan({s: tuple(c) for s, c in dn.items()}), rates)
            ) / (2 * h)
            assert fd == pytest.approx(rates[sid][t], abs=1e-9)


# ---------------------------------------------------------------------------
# Quasi-Newton search


def test_optimizer_never_regresses_below_start(
    capacity_instance, demo_scenario, baseline_plan
):
    obj = scenario_objective(capacity_instance, demo_scenario)
    try:
        start_val = objective(baseline_plan, obj)
        res = optimize_capacity(obj, baseline_plan, SMALL)
        assert res.best_objective >= start_val - 1e-9
        assert res.total_cost == pytest.approx(-res.best_objective, abs=1e-12)
        # reported plan actually scores what the result claims
        assert objective(res.best_plan, obj) == pytest.approx(
            res.best_objective, abs=1e-9
        )
    finally:
        obj.close()


def test_optimizer_plan_stays_in_box(capacity_instance, demo_scenario, baseline_plan):
    obj = scenario_objective(capacity_instance, demo_scenario)
    try:
        res = optimize_capacity(obj, baseline_plan, SMALL)
        amax = capacity_instance.bounds.action_max
        for caps in res.best_plan.capacity.values():
            assert all(0.0 <= c <= amax for c in caps)
    finally:
        obj.close()


def test_reference_search_counts_and_trace(
    capacity_instance, demo_scenario, baseline_plan
):
    # criterion 2's search: pins the L-BFGS-B path, not only where it ends
    obj = scenario_objective(capacity_instance, demo_scenario)
    try:
        res = optimize_capacity(
            obj, baseline_plan, OptConfig(restarts=1, max_iter=25, seed=0)
        )
    finally:
        obj.close()
    assert (res.iterations, res.gradient_evaluations, res.function_evaluations) == (
        14, 87, 1455,
    )
    assert res.best_plan.capacity == {1: (0.0, 8.0, 0.0, 0.0), 2: (10.0, 10.0, 9.0, 2.0)}
    assert res.total_cost == pytest.approx(439.2, abs=1e-9)
    objectives = [
        -446.85987422392344, -444.6646775912566, -440.15065659011884,
        -440.0427290289233, -440.03807723293755, -440.03807723293755, -439.2,
    ]
    assert [row[0] for row in res.trace] == list(range(len(objectives)))
    assert [row[1] for row in res.trace] == pytest.approx(objectives, abs=1e-9)
    assert [row[2] for row in res.trace] == pytest.approx([9.7] * 6 + [0.0], abs=1e-6)


def test_trace_csv_roundtrip(example_dir, capacity_instance, demo_scenario):
    # drayage optimize-capacity writes the trace of the search it runs
    obj = scenario_objective(capacity_instance, demo_scenario)
    try:
        res = optimize_capacity_quadratic(obj, OptConfig(restarts=0, max_iter=3, seed=0))
    finally:
        obj.close()
    out = example_dir / "quad"
    assert cli.main(["optimize-capacity", "--instance", str(example_dir / "inst.json"),
                     "--scenario", str(example_dir / "scenario.json"),
                     "--parameterization", "quadratic", "--restarts", "0", "--max-iter", "3",
                     "--out", str(out)]) == 0
    with open(out / "trace.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == len(res.trace) > 1
    for row, (it, val, gn) in zip(rows, res.trace):
        assert int(row["iter"]) == it
        assert float(row["objective"]) == pytest.approx(val, abs=0)
        assert float(row["grad_norm"]) == gn


# ---------------------------------------------------------------------------
# Monte Carlo grid search


def test_monte_carlo_deterministic_and_bounded(capacity_instance, demo_scenario):
    obj = scenario_objective(capacity_instance, demo_scenario)
    try:
        plan_a, stats_a = monte_carlo_search(obj, 300, seed=11)
        plan_b, stats_b = monte_carlo_search(obj, 300, seed=11)
        assert plan_a.capacity == plan_b.capacity
        assert stats_a == stats_b
        assert stats_a["feasible"] + stats_a["infeasible"] == 300
        # best sampled plan can never beat the joint optimum
        assert stats_a["total_cost"]["min"] >= 439.2 - 1e-6
        # constant flow denominator ties the two summaries together
        assert stats_a["cost_per_teu"]["min"] == pytest.approx(
            stats_a["total_cost"]["min"] / 40.0, abs=1e-12
        )
        assert objective(plan_a, obj) == pytest.approx(
            -stats_a["total_cost"]["min"], abs=1e-9
        )
    finally:
        obj.close()


def test_monte_carlo_samples_csv(tmp_path, capacity_instance, demo_scenario):
    obj = scenario_objective(capacity_instance, demo_scenario)
    path = tmp_path / "samples.csv"
    try:
        _, stats = monte_carlo_search(obj, 50, seed=3, samples_out=str(path))
    finally:
        obj.close()
    with open(path) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 50
    feas = [r for r in rows if r["feasible"] == "1"]
    assert len(feas) == stats["feasible"]
    for r in feas[:5]:
        assert float(r["total_cost"]) > 0
    for r in rows:
        if r["feasible"] == "0":
            assert r["total_cost"] == ""


def _fresh_values(obj, plans):
    """Each plan's value from cold solves on a new HighsModel; nan where infeasible."""
    lay = obj.layout
    model = HighsModel(lay.upper, lay.A_eq, lay.A_ub)
    out = []
    for caps in plans:
        terms = []
        for k, w in enumerate(obj.weights):
            b_ub = obj.b_ub[k].copy()
            b_ub[obj.cap_index] = np.ravel(caps)
            res = model.solve(obj.costs[k], obj.b_eq[k], b_ub)
            if res.status != "optimal":
                terms = [np.nan]
                break
            terms.append(w * -res.objective)
        out.append(sum(terms))
    return np.array(out)


def _network_objective():
    inst = generate_instance(3, dict(
        n_entries=2, n_exits=2, n_bids=2, n_spot=1, horizon=3,
        cost_mean=20.0, cost_sd=5.0, cost_min=1.0, capacity_levels=4,
    ))
    return scenario_objective(inst, sample_scenarios(inst, 1, 2)[0])


@pytest.mark.parametrize("which", ["demo", "sample", "network"])
@pytest.mark.parametrize("grid", ["integer", "real"])
def test_certified_values_match_fresh_solves(capacity_instance, demo_scenario, which, grid):
    obj = {
        "demo": lambda: scenario_objective(capacity_instance, demo_scenario),
        "sample": lambda: sample_objective(
            capacity_instance, sample_scenarios(capacity_instance, 3, 5)
        ),
        "network": _network_objective,
    }[which]()
    rng = np.random.default_rng(11)
    upper = obj.box_upper
    shape = (300,) + upper.shape
    if grid == "integer":
        plans = rng.integers(0, upper.astype(int) + 1, size=shape).astype(float)
    else:
        plans = rng.uniform(0.0, 1.0, size=shape) * upper
    if grid == "real":
        # plans within 2^-40 of the feasibility boundary, on the segment from
        # an infeasible plan to the box, which no ray decides; half of the
        # infeasible plan has less capacity and is infeasible too
        near, halves = [], []
        for q in plans[np.isnan(_fresh_values(obj, plans))][:5]:
            t_in, t_out = 0.0, 1.0
            for _ in range(40):
                t = 0.5 * (t_in + t_out)
                if np.isnan(_fresh_values(obj, [q + t * (upper - q)])[0]):
                    t_in = t
                else:
                    t_out = t
            near += [q + t_in * (upper - q), q + t_out * (upper - q)]
            halves.append(q / 2)
        plans = np.concatenate([plans, near, halves])
    values, solved = obj.plan_values(plans, obj.certifiers())
    fresh = _fresh_values(obj, plans)
    assert np.array_equal(np.isnan(values), np.isnan(fresh))
    assert np.isnan(fresh).sum() < len(plans)
    ok = ~np.isnan(fresh)
    assert np.max(np.abs(values[ok] - fresh[ok])) <= 1e-9
    # some plans are certified by a basis and some infeasible ones by a ray
    assert 0 < solved.sum() < len(plans)
    assert (np.isnan(values) & ~solved).any()
    if grid == "real":
        assert len(near) > 0 and solved[300 : 300 + len(near)].all()
    if len(obj.weights) == 1:  # a plan HiGHS solved keeps HiGHS's value
        assert np.array_equal(values[solved & ok], fresh[solved & ok])


def test_plan_values_cache_lives_for_one_call(capacity_instance, demo_scenario):
    obj = scenario_objective(capacity_instance, demo_scenario)
    rng = np.random.default_rng(4)
    plans = rng.integers(0, obj.box_upper.astype(int) + 1, size=(200,) + obj.box_upper.shape)
    first, solved_first = obj.plan_values(plans, obj.certifiers())
    second, solved_second = obj.plan_values(plans, obj.certifiers())
    assert np.array_equal(first, second, equal_nan=True)
    assert np.array_equal(solved_first, solved_second)


def test_monte_carlo_grid_makes_few_solves(tmp_path, capacity_instance, demo_scenario):
    """Criterion 3's 10^4-plan grid (seed 0) through the certified bases and
    rays: each plan's verdict is a fresh solve's."""
    obj = scenario_objective(capacity_instance, demo_scenario)
    path = tmp_path / "samples.csv"
    _, stats = monte_carlo_search(obj, 10_000, seed=0, samples_out=str(path))
    assert stats["certified"] + stats["lp_solves"] == 10_000
    assert stats["lp_solves"] <= 80
    assert (stats["feasible"], stats["infeasible"]) == (9_895, 105)
    with open(path) as f:
        rows = list(csv.DictReader(f))
    plans = np.array([[float(r[k]) for k in rows[0] if k.startswith("x_")] for r in rows])
    fresh = _fresh_values(obj, plans.reshape((-1,) + obj.box_upper.shape))
    assert [r["feasible"] == "1" for r in rows] == (~np.isnan(fresh)).tolist()
    ok = ~np.isnan(fresh)
    fresh_cost = plans[ok] @ obj.rates_array.ravel() - fresh[ok]
    cost = np.array([float(r["total_cost"]) for r in rows if r["feasible"] == "1"])
    assert np.max(np.abs(cost - fresh_cost)) <= 1e-9


def test_monte_carlo_chunks_reproduce_one_pass(tmp_path, monkeypatch, capacity_instance,
                                               demo_scenario):
    # 1,000 plans in chunks of 256 (certifiers kept across them) give the
    # one-pass sweep's samples.csv byte for byte, with the one-shot draw's plans
    obj = scenario_objective(capacity_instance, demo_scenario)
    one, chunked = tmp_path / "one.csv", tmp_path / "chunked.csv"
    plan_one, stats_one = monte_carlo_search(obj, 1000, seed=0, samples_out=str(one))
    monkeypatch.setattr(capopt, "MC_CHUNK", 256)
    plan_chunked, stats_chunked = monte_carlo_search(obj, 1000, seed=0, samples_out=str(chunked))
    assert one.read_bytes() == chunked.read_bytes()
    assert (plan_one, stats_one) == (plan_chunked, stats_chunked)
    high = obj.box_upper.astype(int) + 1
    draw = np.random.Generator(np.random.Philox(0)).integers(0, high, size=(1000,) + high.shape)
    with open(one) as f:
        rows = list(csv.DictReader(f))
    plans = [[int(r[k]) for k in rows[0] if k.startswith("x_")] for r in rows]
    assert plans == draw.reshape(1000, -1).tolist()


def test_monte_carlo_counts_on_dp_objective(capacity_instance):
    obj = CapacityObjective(
        capacity_instance, sample_set=build_sample_set(capacity_instance, 4, 0)
    )
    _, stats = monte_carlo_search(obj, 3, seed=0)
    assert stats["certified"] == 0
    assert stats["lp_solves"] == 3


def test_monte_carlo_rejects_bad_count(capacity_instance, demo_scenario):
    obj = scenario_objective(capacity_instance, demo_scenario)
    try:
        with pytest.raises(ValueError):
            monte_carlo_search(obj, 0, seed=1)
    finally:
        obj.close()


# ---------------------------------------------------------------------------
# SAA and quadratic search plumbing


def test_saa_search_smoke(capacity_instance):
    res = optimize_capacity_saa(capacity_instance, 4, seed=5, config=SMALL)
    assert np.isfinite(res.best_objective)
    amax = capacity_instance.bounds.action_max
    for caps in res.best_plan.capacity.values():
        assert all(0.0 <= c <= amax for c in caps)
    assert res.iterations >= 0


def test_saa_rejects_zero_scenarios(capacity_instance):
    with pytest.raises(ValueError):
        optimize_capacity_saa(capacity_instance, 0, seed=1)


def test_quadratic_search_smoke(capacity_instance, demo_scenario):
    obj = scenario_objective(capacity_instance, demo_scenario)
    calls = []
    value_of_caps = obj.value_of_caps
    obj.value_of_caps = lambda caps: calls.append(caps) or value_of_caps(caps)
    try:
        res = optimize_capacity_quadratic(obj, SMALL)
        assert np.isfinite(res.best_objective)
        amax = capacity_instance.bounds.action_max
        for caps in res.best_plan.capacity.values():
            assert all(0.0 <= c <= amax for c in caps)
    finally:
        obj.close()
    # real counts: every objective evaluation, 6 per gradient (3 coefficients
    # per source, central differences), one trace row per iteration
    assert res.function_evaluations == len(calls)
    assert 0 < 6 * 2 * res.gradient_evaluations <= len(calls)
    assert 1 <= len(res.trace) <= res.iterations
    assert [row[0] for row in res.trace] == list(range(len(res.trace)))


def test_sample_objective_weights_uniform(capacity_instance):
    scens = sample_scenarios(capacity_instance, 5, 17)
    obj = sample_objective(capacity_instance, scens)
    try:
        assert [w for _, w in obj.weighted_scenarios] == [0.2] * 5
        assert obj.dropped_scenarios == 0
        caps = np.full((2, 4), 8.0)
        v = obj.value_of_caps(caps)
        assert v is not None and np.isfinite(v)
    finally:
        obj.close()


def _counting_builds(monkeypatch):
    builds = []
    original = capopt.build_mslp

    def counting(*args, **kwargs):
        builds.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(capopt, "build_mslp", counting)
    return builds


def test_sample_objective_drops_inoperable_draws(capacity_instance, demo_scenario):
    dry = dry_scenario(capacity_instance)
    obj = sample_objective(capacity_instance, [demo_scenario, dry])
    try:
        assert obj.dropped_scenarios == 1
        assert [w for _, w in obj.weighted_scenarios] == [1.0]
        # with the poisoned draw gone the objective is finite again
        caps = np.full((2, 4), 8.0)
        v = obj.value_of_caps(caps)
        assert v is not None and np.isfinite(v)
    finally:
        obj.close()

    with pytest.raises(InfeasibleLP):
        sample_objective(capacity_instance, [dry, dry])


def test_sample_objective_builds_one_layout(capacity_instance, demo_scenario, monkeypatch):
    # every draw's rows are written into one layout, and operability is read
    # from those rows, so neither draw is built on its own
    builds = _counting_builds(monkeypatch)
    obj = sample_objective(capacity_instance, [demo_scenario, dry_scenario(capacity_instance)])
    try:
        assert obj.dropped_scenarios == 1
        assert [w for _, w in obj.weighted_scenarios] == [1.0]
        assert obj.weights == [1.0]
        assert len(obj.costs) == len(obj.b_eq) == len(obj.b_ub) == 1
    finally:
        obj.close()
    assert len(builds) == 1


def test_sample_objective_rows_match_kept_draws(capacity_instance, demo_scenario):
    # after a drop, row k of the costs and right-hand sides is kept draw k's
    # own LP, and every draw has the layout's matrices and box
    dry = dry_scenario(capacity_instance)
    other = sample_scenarios(capacity_instance, 1, 5)[0]
    obj = sample_objective(capacity_instance, [demo_scenario, dry, other])
    obj.close()
    assert obj.dropped_scenarios == 1
    assert [sc for sc, _ in obj.weighted_scenarios] == [demo_scenario, other]
    assert obj.weights == [0.5, 0.5]
    zero = CapacityPlan({s.id: (0.0,) * 4 for s in capacity_instance.sources})
    lps = [build_mslp(capacity_instance, sc, zero, initial="free")
           for sc in (demo_scenario, other, dry)]
    for k, lp in enumerate(lps[:2]):
        for rows, own in ((obj.costs, lp.c), (obj.b_eq, lp.b_eq), (obj.b_ub, lp.b_ub)):
            assert np.array_equal(rows[k], own)
    assert not np.array_equal(obj.b_eq[0], obj.b_eq[1])
    for lp in lps:
        for name in ("A_eq", "A_ub", "upper"):
            assert np.array_equal(getattr(obj.layout, name), getattr(lp, name))


def test_saa_builds_one_layout(capacity_instance, monkeypatch):
    builds = _counting_builds(monkeypatch)
    optimize_capacity_saa(capacity_instance, 20, 0)
    assert len(builds) == 1


def test_lp_values_equal_direct_linprog_bit_for_bit(capacity_instance):
    # every plan value is a cold solve: the same in any order, and equal to
    # the weighted sum of direct linprog costs, feasible or not
    from scipy.optimize import linprog

    obj = sample_objective(capacity_instance, sample_scenarios(capacity_instance, 60, 0))
    rng = np.random.default_rng(3)
    caps = [rng.uniform(lo, 10.0, size=(2, 4)) for lo in (0.0, 3.0) * 6]
    caps += [rng.uniform(0.0, 2.0, size=(2, 4)) for _ in range(4)]
    order = rng.permutation(len(caps))
    try:
        forward = [obj.value_of_caps(c) for c in caps]
        shuffled = dict(zip(order, (obj.value_of_caps(caps[k]) for k in order)))
    finally:
        obj.close()
    assert forward == [shuffled[k] for k in range(len(caps))]

    layout = obj.layout
    direct = []
    for c in caps:
        total = 0.0
        for k, w in enumerate(obj.weights):
            b_ub = obj.b_ub[k].copy()
            b_ub[obj.cap_index] = c.ravel()
            res = linprog(
                obj.costs[k], A_ub=layout.A_ub, b_ub=b_ub, A_eq=layout.A_eq, b_eq=obj.b_eq[k],
                bounds=np.column_stack([np.zeros(layout.c.size), layout.upper]), method="highs",
                options={"presolve": False},
            )
            if res.status == 2:
                total = None
                break
            assert res.status == 0
            total += w * -res.fun
        direct.append(total)
    assert forward == direct
    assert 4 <= sum(v is not None for v in forward) < len(caps)


def test_serial_objectives_keep_their_own_scenarios(capacity_instance):
    # Two serial objectives used in turn each evaluate their own scenario.
    a_sc, b_sc = sample_scenarios(capacity_instance, 2, 3)
    a = scenario_objective(capacity_instance, a_sc)
    b = scenario_objective(capacity_instance, b_sc)
    caps = np.asarray(a.box_upper) / 2.0
    try:
        first = a.value_of_caps(caps)
        assert b.value_of_caps(caps) != first
        assert a.value_of_caps(caps) == first
    finally:
        a.close()
        b.close()


# ---------------------------------------------------------------------------
# Exact extensive-form LP


def test_exact_matches_folded_optimum_on_one_scenario(capacity_instance, demo_scenario):
    # per_scenario_optimum folds the reservation rates into the move costs
    # instead of pricing separate capacity columns; both must give the same
    # optimum.
    for sc in [demo_scenario] + sample_scenarios(capacity_instance, 4, 9):
        obj = scenario_objective(capacity_instance, sc)
        try:
            res = optimize_capacity_exact(obj)
        except InfeasibleLP:
            continue
        finally:
            obj.close()
        _, folded = per_scenario_optimum(obj)
        assert -res.lp_objective == pytest.approx(folded, abs=1e-7)
        assert res.best_objective == pytest.approx(folded, abs=1e-7)
        assert res.total_cost == -res.best_objective
        assert res.gradient_evaluations == 0 and res.function_evaluations == 1


def test_exact_reads_its_cost_from_one_solve(capacity_instance, monkeypatch):
    # The extensive form is the only LP solved: no block is solved again to
    # price the lowered plan.
    obj = sample_objective(capacity_instance, sample_scenarios(capacity_instance, 20, 0))
    calls = {"lp": 0, "model": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(capopt, "solve_lp", counting("lp", capopt.solve_lp))
    monkeypatch.setattr(mslp, "solve_lp", counting("lp", mslp.solve_lp))
    monkeypatch.setattr(lp.HighsModel, "solve", counting("model", lp.HighsModel.solve))
    res = optimize_capacity_exact(obj)
    assert calls == {"lp": 1, "model": 1}
    assert res.total_cost == 470.0799999999999


def _scipy_extensive_form(obj):
    """The extensive form's A_ub and A_eq assembled with scipy.sparse, as
    csc with sorted rows and no stored zeros."""
    lay, n, nx = obj.layout, len(obj.weights), len(obj.cap_index)
    couple = sparse.csr_matrix(
        (-np.ones(nx), (obj.cap_index, np.arange(nx))), shape=(lay.A_ub.shape[0], nx)
    )
    blocks = (
        sparse.hstack([sparse.vstack([couple] * n), sparse.block_diag([lay.A_ub] * n)],
                      format="csc"),
        sparse.hstack([sparse.csc_matrix((n * lay.A_eq.shape[0], nx)),
                       sparse.block_diag([lay.A_eq] * n)], format="csc"),
    )
    for A in blocks:
        A.eliminate_zeros()
        A.sort_indices()
    return blocks


def _same_columns(mine, ref):
    return mine.shape == ref.shape and all(
        np.array_equal(getattr(mine, name), getattr(ref, name))
        for name in ("indptr", "indices", "data")
    )


@pytest.mark.parametrize("n", [1, 2, 20])
@pytest.mark.parametrize("which", ["capacity", "network-2x1"])
def test_extensive_form_arrays_match_scipy_assembly(capacity_instance, which, n):
    # the numpy-written compressed columns equal scipy's block assembly with
    # its explicit zeros dropped, block by block and stacked as HiGHS gets them
    inst = capacity_instance if which == "capacity" else generate_instance(3, dict(
        n_entries=2, n_exits=1, n_bids=2, n_spot=1, horizon=3,
        cost_mean=20.0, cost_sd=5.0, cost_min=1.0, capacity_levels=4,
    ))
    obj = sample_objective(inst, sample_scenarios(inst, n, 0))
    c, A_eq, b_eq, A_ub, b_ub, upper = extensive_form(obj)
    ref_ub, ref_eq = _scipy_extensive_form(obj)
    assert _same_columns(A_ub, ref_ub)
    assert _same_columns(A_eq, ref_eq)
    stacked = sparse.vstack([ref_ub, ref_eq], format="csc")
    stacked.sort_indices()
    assert _same_columns(HighsModel(upper, A_eq, A_ub)._A, stacked)
    assert c.size == upper.size == stacked.shape[1]
    assert (b_ub.size, b_eq.size) == (ref_ub.shape[0], ref_eq.shape[0])


@pytest.mark.parametrize("seed,total,lp_objective,iterations,caps", [
    (0, "470.0799999999999", "470.0799999999999", 261,
     {1: (0.0, 6.0, 4.0, 0.0), 2: (6.0, 2.0, 4.0, 8.0)}),
    (1, "441.44599999999997", "441.44599999999986", 259,
     {1: (0.0, 8.0, 6.0, 0.0), 2: (4.0, 2.0, 2.0, 8.0)}),
    (2, "413.726", "413.726", 252,
     {1: (0.0, 6.0, 6.0, 0.0), 2: (8.0, 2.0, 2.0, 8.0)}),
])
def test_exact_saa_results_are_pinned(capacity_instance, seed, total, lp_objective,
                                      iterations, caps):
    # the exact N=20 SAA plans, costs and HiGHS iteration counts, bit for
    # bit as the scipy.sparse assembly of the extensive form gave them
    res = optimize_capacity_saa(capacity_instance, 20, seed)
    assert (repr(res.total_cost), repr(res.lp_objective)) == (total, lp_objective)
    assert res.iterations == iterations
    assert res.best_plan.capacity == caps


@pytest.mark.parametrize("n", [3, 4, 20])
def test_exact_saa_never_worse_than_search(capacity_instance, n):
    config = OptConfig(restarts=0, max_iter=6, seed=0)
    exact = optimize_capacity_saa(capacity_instance, n, seed=0, config=config)
    obj = sample_objective(capacity_instance, sample_scenarios(capacity_instance, n, 0))
    try:
        # the search's start for SAA: half the box in every coordinate
        half = obj.box_upper / 2.0
        start = CapacityPlan({sid: tuple(half[k]) for k, sid in enumerate(obj.source_ids)})
        searched = optimize_capacity(obj, start, config)
        assert objective(exact.best_plan, obj) == exact.best_objective
    finally:
        obj.close()
    assert exact.total_cost <= searched.total_cost + 1e-9
    assert exact.total_cost == pytest.approx(exact.lp_objective, abs=1e-7)


@pytest.mark.parametrize("n", [3, 4, 20])
def test_exact_plan_in_box_and_lowered_to_usage(capacity_instance, n):
    obj = sample_objective(capacity_instance, sample_scenarios(capacity_instance, n, 0))
    try:
        res = optimize_capacity_exact(obj)
        caps = np.array([res.best_plan.capacity[sid] for sid in obj.source_ids])
        assert np.all(caps >= 0.0) and np.all(caps <= obj.box_upper)
        # No capacity with a rate >= 0 is slack: giving up one unit of it
        # (all of it, if less) makes some scenario infeasible or costlier.
        # Unlowered, the zero-rate spot source sits at the box bound.
        rates = obj.rates_array
        for k, t in zip(*np.nonzero((rates >= 0.0) & (caps > 0.0))):
            lower = caps.copy()
            lower[k, t] -= min(1.0, caps[k, t])
            try:
                worse = objective(CapacityPlan(
                    {sid: tuple(lower[i]) for i, sid in enumerate(obj.source_ids)}
                ), obj)
            except InfeasibleLP:
                continue
            assert worse < res.best_objective - 1e-9, (k, t)
    finally:
        obj.close()


def test_exact_reports_dropped_scenarios(capacity_instance, demo_scenario):
    mixed = sample_objective(
        capacity_instance, [demo_scenario, dry_scenario(capacity_instance)]
    )
    alone = scenario_objective(capacity_instance, demo_scenario)
    try:
        res = optimize_capacity_exact(mixed)
        ref = optimize_capacity_exact(alone)
    finally:
        mixed.close()
        alone.close()
    assert res.dropped_scenarios == 1
    assert ref.dropped_scenarios == 0
    assert res.best_plan.capacity == ref.best_plan.capacity
    assert res.total_cost == pytest.approx(439.2, abs=1e-9)


def test_exact_saa_is_deterministic(capacity_instance):
    a = optimize_capacity_saa(capacity_instance, 20, seed=0)
    b = optimize_capacity_saa(capacity_instance, 20, seed=0)
    assert a == b
    assert a.best_plan.capacity == {1: (0.0, 6.0, 4.0, 0.0), 2: (6.0, 2.0, 4.0, 8.0)}


def test_exact_rejects_dp_objective(capacity_instance):
    with pytest.raises(ValueError):
        optimize_capacity_exact(
            CapacityObjective(
                capacity_instance, sample_set=build_sample_set(capacity_instance, 3, 0)
            )
        )
