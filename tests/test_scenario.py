"""Support enumeration, probabilities, sampling statistics, serialization."""

import itertools

import numpy as np
import pytest
from scipy import stats

from drayage import scenario
from drayage.scenario import (
    SupportTooLarge,
    build_sample_set,
    enumerate_support,
    load_scenarios,
    realization_key,
    realization_probability,
    sample_scenarios,
    save_scenarios,
    scenario_probability,
)


def test_support_enumeration(capacity_instance):
    support = enumerate_support(capacity_instance)
    assert len(support) == 18
    total = sum(p for _, p in support)
    assert total == pytest.approx(1.0, abs=1e-12)
    for z, p in support:
        assert p > 0
        assert realization_probability(z, capacity_instance) == pytest.approx(p)


def test_demo_realization_probability(capacity_instance, demo_scenario):
    # First period: inflow 8 (0.3), outflow 8 (0.5), cheap spot rate (0.4).
    z = demo_scenario.realizations[0]
    assert realization_probability(z, capacity_instance) == pytest.approx(0.06)


def test_demo_scenario_probability(capacity_instance, demo_scenario):
    assert scenario_probability(demo_scenario, capacity_instance) == pytest.approx(
        2.592e-5, rel=1e-9
    )


def test_full_scenario_tree_probability_sums_to_one(capacity_instance):
    support = enumerate_support(capacity_instance)
    probs = np.array([p for _, p in support])
    tau = capacity_instance.horizon
    total = 0.0
    for combo in itertools.product(range(len(support)), repeat=tau):
        total += float(np.prod(probs[list(combo)]))
    assert len(support) ** tau == 104976
    assert total == pytest.approx(1.0, abs=1e-9)


def test_support_cap_enforced(capacity_instance, monkeypatch):
    monkeypatch.setattr(scenario, "SUPPORT_CAP", 5)
    with pytest.raises(SupportTooLarge):
        enumerate_support(capacity_instance)


def test_sampling_is_deterministic(capacity_instance):
    a = sample_scenarios(capacity_instance, 50, 123)
    b = sample_scenarios(capacity_instance, 50, 123)
    assert a == b
    c = sample_scenarios(capacity_instance, 50, 124)
    assert a != c


def test_distinct_folds_duplicate_draws_once(capacity_instance):
    sample = build_sample_set(capacity_instance, 200, 8)
    folded = sample.distinct(capacity_instance)
    assert sample.distinct(capacity_instance) is folded  # folded once, then kept
    assert sample == build_sample_set(capacity_instance, 200, 8)  # not part of equality
    assert "_distinct" not in repr(sample)
    for zs, ws, period in zip(sample.realizations, sample.weights, folded):
        keys = [realization_key(z, capacity_instance) for z in zs]
        # first-appearance order, weights summed in draw order
        assert [realization_key(z, capacity_instance) for z, _ in period] == list(dict.fromkeys(keys))
        for z, w in period:
            total = 0.0
            for k, wk in zip(keys, ws):
                if k == realization_key(z, capacity_instance):
                    total += wk
            assert w == total


def test_sampled_probabilities_are_true_products(capacity_instance):
    for sc in sample_scenarios(capacity_instance, 20, 5):
        assert sc.probability == pytest.approx(
            scenario_probability(sc, capacity_instance)
        )


def test_marginal_frequencies_converge(capacity_instance):
    n = 100_000
    scenarios = sample_scenarios(capacity_instance, n, 17)
    inflows = np.array([sc.realizations[0].inflow[1] for sc in scenarios])
    freq8 = float(np.mean(inflows == 8))
    assert abs(freq8 - 0.3) < 0.01

    counts = [int(np.sum(inflows == v)) for v in (0, 4, 8)]
    expected = [0.4 * n, 0.3 * n, 0.3 * n]
    chi = stats.chisquare(counts, expected)
    assert chi.pvalue > 1e-3


def test_sample_set_enumerate_mode(capacity_instance):
    ss = build_sample_set(capacity_instance, 0, 0, mode="enumerate")
    assert ss.mode == "enumerate"
    assert ss.periods == capacity_instance.horizon
    for t in range(capacity_instance.horizon):
        assert len(ss.realizations[t]) == 18
        assert sum(ss.weights[t]) == pytest.approx(1.0, abs=1e-12)


def test_sample_set_iid_mode_weights(capacity_instance):
    ss = build_sample_set(capacity_instance, 40, 3, mode="iid")
    assert ss.mode == "iid"
    for t in range(capacity_instance.horizon):
        assert len(ss.realizations[t]) == 40
        assert sum(ss.weights[t]) == pytest.approx(1.0, abs=1e-12)
        # empirical measure: every draw carries 1/N, duplicates included
        assert all(w == pytest.approx(1.0 / 40, abs=0) for w in ss.weights[t])


def test_sample_set_iid_folds_to_exact_weights_in_the_limit(capacity_instance):
    # with all 18 support points drawn, folding 1/N masses by value must
    # approach the exact probabilities (the whole point of the 1/N choice)
    ss = build_sample_set(capacity_instance, 20000, 11, mode="iid")
    exact = {
        realization_key(z, capacity_instance): p
        for z, p in enumerate_support(capacity_instance)
    }
    folded: dict = {}
    for z, w in zip(ss.realizations[0], ss.weights[0]):
        k = realization_key(z, capacity_instance)
        folded[k] = folded.get(k, 0.0) + w
    assert set(folded) == set(exact)
    for k, p in exact.items():
        assert folded[k] == pytest.approx(p, abs=0.02)


def test_sample_set_rejects_unknown_mode(capacity_instance):
    with pytest.raises(ValueError):
        build_sample_set(capacity_instance, 4, 0, mode="bootstrap")


def test_scenario_file_round_trip(tmp_path, capacity_instance):
    scenarios = sample_scenarios(capacity_instance, 7, 99)
    path = tmp_path / "scenarios.json"
    save_scenarios(scenarios, str(path), seed=99)
    again = load_scenarios(str(path))
    assert again == scenarios
