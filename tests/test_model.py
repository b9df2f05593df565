"""Instance schema, validation, counting, generation, and JSON round-trips."""

import dataclasses
import itertools

import numpy as np
import pytest

from drayage.model import (
    CapacityPlan,
    exogenous_support_size,
    generate_default_plan,
    generate_instance,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    load_plan,
    save_instance,
    save_plan,
    state_space_size,
    validate_instance,
)

SHAPE = {
    "n_entries": 1,
    "n_exits": 1,
    "n_bids": 1,
    "n_spot": 1,
    "horizon": 4,
    "cost_mean": 12.0,
    "cost_sd": 4.0,
    "cost_min": 2.0,
    "capacity_levels": 6,
}


def test_example_instance_is_valid(capacity_instance, policy_instance):
    assert validate_instance(capacity_instance) == []
    assert validate_instance(policy_instance) == []


def test_example_counts(capacity_instance):
    # 11 entry levels x 21 exit levels; 3 inflow x 3 outflow x 2 spot rates.
    assert state_space_size(capacity_instance) == 231
    assert exogenous_support_size(capacity_instance) == 18


def test_state_space_size_matches_enumeration(capacity_instance):
    b = capacity_instance.bounds
    total = 1
    for i in capacity_instance.network.entries:
        total *= b.entry_max[i] + 1
    for j in capacity_instance.network.exits:
        total *= b.exit_max[j] + b.exit_backorder_max[j] + 1
    assert state_space_size(capacity_instance) == total


def test_support_size_matches_enumeration(capacity_instance):
    u = capacity_instance.uncertainty
    axes = [len(u.inflow_dist[i]) for i in capacity_instance.network.entries]
    axes += [len(u.outflow_dist[j]) for j in capacity_instance.network.exits]
    for s in capacity_instance.spot_sources:
        axes.append(len(u.spot_rate_dist[s.id]))
    assert exogenous_support_size(capacity_instance) == int(np.prod(axes))


def test_validation_catches_bad_probabilities(capacity_instance):
    u = capacity_instance.uncertainty
    broken = dataclasses.replace(
        capacity_instance,
        uncertainty=dataclasses.replace(
            u, inflow_dist={1: {0: 0.5, 4: 0.2, 8: 0.2}}
        ),
    )
    violations = validate_instance(broken)
    assert any("inflow" in v for v in violations)


def test_validation_catches_negative_bounds(capacity_instance):
    broken = dataclasses.replace(
        capacity_instance,
        bounds=dataclasses.replace(capacity_instance.bounds, action_max=-1),
    )
    assert validate_instance(broken) != []


def test_validation_catches_initial_state_out_of_bounds(capacity_instance):
    bad_state = dataclasses.replace(
        capacity_instance.initial_state, exit_stock={2: 99}
    )
    broken = dataclasses.replace(capacity_instance, initial_state=bad_state)
    assert validate_instance(broken) != []


def test_instance_json_round_trip(tmp_path, capacity_instance):
    path = tmp_path / "instance.json"
    save_instance(capacity_instance, str(path))
    again = load_instance(str(path))
    assert instance_to_dict(again) == instance_to_dict(capacity_instance)


def test_instance_dict_round_trip(capacity_instance):
    doc = instance_to_dict(capacity_instance)
    assert instance_to_dict(instance_from_dict(doc)) == doc


def test_per_lane_spot_rates_are_rejected(capacity_instance):
    # one marginal per spot source; a per-lane override would be read with other rates
    doc = instance_to_dict(capacity_instance)
    doc["uncertainty"]["spot_rates_per_lane"] = {"2": {"1-2": {"5.0": 0.6}}}
    with pytest.raises(ValueError, match="uncertainty.spot_rates_per_lane"):
        instance_from_dict(doc)


def test_plan_round_trip(tmp_path, tuned_plan):
    path = tmp_path / "plan.json"
    save_plan(tuned_plan, str(path))
    assert load_plan(str(path)).capacity == tuned_plan.capacity


def test_generate_instance_is_pure():
    a = generate_instance(123, dict(SHAPE))
    b = generate_instance(123, dict(SHAPE))
    assert instance_to_dict(a) == instance_to_dict(b)
    c = generate_instance(124, dict(SHAPE))
    assert instance_to_dict(c) != instance_to_dict(a)


@pytest.mark.parametrize("seed", range(20))
def test_generated_instances_validate(seed):
    shape = dict(SHAPE)
    shape["n_entries"] = 1 + seed % 2
    shape["n_exits"] = 1 + (seed // 2) % 2
    shape["n_bids"] = 1 + seed % 3
    inst = generate_instance(seed, shape)
    assert validate_instance(inst) == []
    # Generated distributions must be proper and supported on integers >= 0.
    for dist in inst.uncertainty.inflow_dist.values():
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)
        assert all(v >= 0 for v in dist)


def test_generated_spot_rates_validate_when_rates_round_together():
    # At cost_sd=1 the high spot rate often rounds onto the low one; the
    # distribution must then be one point of weight 1, not a lone p_lo.
    shape = dict(SHAPE, capacity_levels=10, cost_mean=1.0, cost_sd=1.0, cost_min=0.0)
    collapsed = 0
    for seed in range(300):
        inst = generate_instance(seed, shape)
        assert validate_instance(inst) == [], seed
        collapsed += any(
            len(d) == 1 for d in inst.uncertainty.spot_rate_dist.values()
        )
    assert collapsed >= 7


def test_generated_instances_without_spot_serve_every_lane():
    # gen-instance's defaults on a 2 x 2 network with 2 bids and no spot
    # source: the last bid takes every lane no earlier bid drew
    shape = dict(
        SHAPE, n_entries=2, n_exits=2, n_bids=2, n_spot=0, capacity_levels=10
    )
    for seed in range(50):
        assert validate_instance(generate_instance(seed, shape)) == [], seed


@pytest.mark.parametrize(
    "bad,message",
    [
        (dict(horizon=0), "shape horizon is 0"),
        (dict(n_bids=-1), "shape n_bids is -1"),
        (dict(n_spot=-1), "shape n_spot is -1"),
        (dict(capacity_levels=-1), "shape capacity_levels is -1"),
        (dict(cost_sd=-1.0), "shape cost_sd is -1.0"),
        (dict(n_carriers=0), "shape n_carriers is 0"),
        (dict(n_bids=0, n_spot=0), "shape has no source"),
        (dict(cost_min=-1.0), "shape cost_min is -1.0"),
    ],
)
def test_bad_generator_shape_names_the_key(bad, message):
    with pytest.raises(ValueError, match=message):
        generate_instance(0, dict(SHAPE, **bad))


def test_default_plan_within_action_bound(capacity_instance):
    plan = generate_default_plan(9, capacity_instance)
    amax = capacity_instance.bounds.action_max
    for s in capacity_instance.sources:
        caps = plan.capacity[s.id]
        assert len(caps) == capacity_instance.horizon
        assert all(0 <= c <= amax for c in caps)
        if s.kind == "spot":
            assert all(c == amax for c in caps)


def test_plan_as_array_orders_by_given_ids(tuned_plan):
    arr = tuned_plan.as_array([2, 1])
    assert arr.shape == (2, 4)
    assert tuple(arr[1]) == tuned_plan.capacity[1]


def test_capacity_plan_is_per_source_per_period():
    plan = CapacityPlan(capacity={1: (1.0, 2.0), 2: (0.0, 3.0)})
    assert plan.capacity[1][1] == 2.0
