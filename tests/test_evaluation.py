"""Regret study machinery: summaries, per-scenario optima, reports."""

import csv
import itertools
import math

import numpy as np
import pytest

from drayage import capopt, cli, lp
from drayage.capopt import objective, reservation_cost, sample_objective, scenario_objective
from drayage.evaluation import (
    RegretRecord,
    _ranks,
    generalization_report,
    per_scenario_optimum,
    regret_profile,
    summarize,
)
from drayage.model import CapacityPlan, save_plan
from drayage.mslp import InfeasibleLP, build_mslp, solve_mslp
from drayage.scenario import sample_scenarios

from helpers import dry_scenario, loop_ranks, micro_instance, micro_scenario


# ---------------------------------------------------------------------------
# Summary statistics


def test_summarize_known_quartiles():
    got = summarize([1.0, 2.0, 3.0, 4.0])
    assert got == {
        "min": 1.0, "q1": 1.75, "median": 2.5,
        "mean": 2.5, "q3": 3.25, "max": 4.0,
    }


def test_summarize_permutation_invariant():
    a = summarize([5.0, -1.0, 3.5, 0.0, 2.0])
    b = summarize([2.0, 5.0, 0.0, -1.0, 3.5])
    assert a == b


def test_summarize_singleton_and_empty():
    got = summarize([7.25])
    assert set(got.values()) == {7.25}
    with pytest.raises(ValueError):
        summarize([])


# ---------------------------------------------------------------------------
# Per-scenario optimum


def test_per_scenario_optimum_reference(capacity_instance, demo_scenario):
    plan, value = per_scenario_optimum(scenario_objective(capacity_instance, demo_scenario))
    assert value == pytest.approx(-439.2, abs=1e-9)
    # reported caps equal realized usage, so re-pricing them reproduces value
    rates = {s.id: tuple(s.reservation_rate) for s in capacity_instance.sources}
    cost = solve_mslp(
        build_mslp(capacity_instance, demo_scenario, plan, initial="free")
    ).cost
    assert -(cost + reservation_cost(plan, rates)) == pytest.approx(value, abs=1e-9)


def test_micro_grid_matches_exact_optimum():
    # Integer grid enumeration agrees with the rate-folded LP optimum.
    rng = np.random.Generator(np.random.Philox(555))
    for _ in range(3):
        inst = micro_instance(rng, 1, 1, horizon=2, stock_bound=2, action_max=2)
        scen = micro_scenario(rng, inst)
        _, opt = per_scenario_optimum(scenario_objective(inst, scen))
        rates = {s.id: tuple(s.reservation_rate) for s in inst.sources}
        best = -np.inf
        amax = inst.bounds.action_max
        for caps in itertools.product(range(amax + 1), repeat=2 * inst.horizon):
            plan = CapacityPlan(
                capacity={
                    1: tuple(caps[: inst.horizon]),
                    2: tuple(caps[inst.horizon :]),
                }
            )
            try:
                cost = solve_mslp(build_mslp(inst, scen, plan, initial="free")).cost
            except InfeasibleLP:
                continue
            best = max(best, -(cost + reservation_cost(plan, rates)))
        assert best == pytest.approx(opt, abs=1e-9)


# ---------------------------------------------------------------------------
# Regret profiles


def test_tuned_plan_has_zero_regret_on_demo(
    capacity_instance, demo_scenario, tuned_plan
):
    records = regret_profile(capacity_instance, tuned_plan, [demo_scenario])
    assert len(records) == 1
    assert records[0].regret == pytest.approx(0.0, abs=1e-9)
    assert records[0].achieved_objective == pytest.approx(-439.2, abs=1e-9)
    assert records[0].optimal_objective == pytest.approx(-439.2, abs=1e-9)


def test_regret_nonnegative_on_sampled_scenarios(capacity_instance, tuned_plan):
    scenarios = sample_scenarios(capacity_instance, 12, 31)
    records = regret_profile(capacity_instance, tuned_plan, scenarios)
    finite = [r for r in records if math.isfinite(r.regret)]
    assert finite  # the reference instance is operable in most draws
    for r in finite:
        assert r.regret >= -1e-9
    for r in records:
        assert r.optimal_objective >= r.achieved_objective or math.isnan(r.regret)


def test_regret_builds_one_layout_per_profile(capacity_instance, tuned_plan, monkeypatch):
    # The optimum and the achieved value share the scenario's row, written
    # into the profile's one layout (one build_mslp call), and are solved on
    # the profile's one HiGHS model.
    builds, models = [], []
    build, init = capopt.build_mslp, lp.HighsModel.__init__

    def counting_build(*args, **kwargs):
        builds.append(1)
        return build(*args, **kwargs)

    def counting_init(self, *args, **kwargs):
        models.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(capopt, "build_mslp", counting_build)
    monkeypatch.setattr(lp.HighsModel, "__init__", counting_init)
    assert regret_profile(capacity_instance, tuned_plan, []) == []
    assert builds == [] and models == []
    scenarios = sample_scenarios(capacity_instance, 5, 31)
    records = regret_profile(capacity_instance, tuned_plan, scenarios)
    assert len(builds) == 1
    assert len(models) == 1
    monkeypatch.undo()
    for sc, r in zip(scenarios, records):
        alone = objective(tuned_plan, scenario_objective(capacity_instance, sc))
        assert repr(r.achieved_objective) == repr(alone)
    # an objective is one layout plus one row of costs and right-hand sides
    # per draw (test_mslp checks that every draw has the layout's matrices)
    obj = sample_objective(capacity_instance, scenarios)
    obj.close()
    assert len(obj.weights) == len(scenarios)
    for rows, own in ((obj.costs, obj.layout.c), (obj.b_eq, obj.layout.b_eq),
                      (obj.b_ub, obj.layout.b_ub)):
        assert rows.shape == (len(scenarios), own.size)


def test_inoperable_scenario_yields_nan_regret(capacity_instance, tuned_plan):
    # No inflow ever arrives but exits drain every period: no plan works.
    records = regret_profile(capacity_instance, tuned_plan, [dry_scenario(capacity_instance)])
    assert records[0].optimal_objective == -math.inf
    assert records[0].achieved_objective == -math.inf
    assert math.isnan(records[0].regret)


# ---------------------------------------------------------------------------
# Generalization report


def test_ranks_average_ties_as_the_tie_loop():
    assert _ranks(np.array([3.0, 1.0, 3.0, 2.0, 3.0])).tolist() == [4.0, 1.0, 4.0, 2.0, 4.0]
    rng = np.random.default_rng(0)
    for n in (1, 2, 7, 40):
        for _ in range(50):
            values = rng.integers(0, max(n // 3, 1) + 1, n).astype(float)
            assert _ranks(values).tobytes() == loop_ranks(values).tobytes()


def test_report_self_comparison_is_diagonal(capacity_instance, tuned_plan):
    scenarios = sample_scenarios(capacity_instance, 8, 101)
    records = regret_profile(capacity_instance, tuned_plan, scenarios)
    report = generalization_report(records, records)
    assert report["spearman"] == pytest.approx(1.0, abs=1e-12)
    assert report["median_abs_diagonal_deviation"] == 0.0
    assert report["skipped_nonfinite"] == 0
    assert len(report["quantile_pairs"]) == 101


def test_report_skips_nonfinite_and_writes_csv(
    example_dir, capacity_instance, tuned_plan
):
    scenarios = sample_scenarios(capacity_instance, 6, 41)
    records = regret_profile(capacity_instance, tuned_plan, scenarios)
    nan_rec = RegretRecord(99, -math.inf, -math.inf, math.nan)
    report = generalization_report(records + [nan_rec], records)
    assert report["skipped_nonfinite"] == 1
    assert len(report["levels"]) == len(report["quantile_pairs"]) == 101
    assert report["levels"][0] == 0.0 and report["levels"][-1] == 1.0
    # drayage regret writes its report's table, nonfinite regrets skipped
    rec_in, rec_out, out = _thin_regret_run(example_dir, capacity_instance)
    thin = generalization_report(rec_in, rec_out)
    assert thin["skipped_nonfinite"] == 2
    with open(out / "generalization.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 101
    assert float(rows[0]["percentile"]) == 0.0
    assert float(rows[-1]["percentile"]) == 1.0
    assert [tuple(map(float, r.values())) for r in rows] == [
        (lv, qi, qo) for lv, (qi, qo) in zip(thin["levels"], thin["quantile_pairs"])
    ]


def test_report_rejects_empty_or_all_nan():
    with pytest.raises(ValueError):
        generalization_report([], [RegretRecord(0, 0.0, 0.0, 0.0)])
    nan_rec = RegretRecord(0, -math.inf, -math.inf, math.nan)
    with pytest.raises(ValueError):
        generalization_report([nan_rec], [nan_rec])


# ---------------------------------------------------------------------------
# CSV files the CLI writes from these records and statistics


THIN_PLAN = CapacityPlan({1: (0.0, 6.0, 0.0, 0.0), 2: (0.0,) * 4})


def _thin_regret_run(example_dir, instance):
    """drayage regret of THIN_PLAN on two draws each: of the in-sample draws
    at seed 19 no plan operates one (regret NaN); of the out-of-sample draws
    at seed 2 only THIN_PLAN fails one (regret +inf). Returns both samples'
    records, solved in-process, and the command's output directory."""
    plan, out = example_dir / "thin_plan.json", example_dir / "reg"
    save_plan(THIN_PLAN, str(plan))
    assert cli.main(["regret", "--instance", str(example_dir / "inst.json"),
                     "--shared-plan", str(plan), "--samples", "2",
                     "--in-seed", "19", "--out-seed", "2", "--out", str(out)]) == 0
    rec_in, rec_out = (regret_profile(instance, THIN_PLAN, sample_scenarios(instance, 2, seed))
                       for seed in (19, 2))
    return rec_in, rec_out, out


def test_regret_csv_roundtrip(example_dir, capacity_instance):
    rec_in, rec_out, out = _thin_regret_run(example_dir, capacity_instance)
    with open(out / "regret.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 4
    assert [r["sample"] for r in rows] == ["in", "in", "out", "out"]
    assert [int(r["scenario_id"]) for r in rows] == [r.scenario_id for r in rec_in + rec_out]
    # every cell reads back as the record holds it, NaN and +inf included
    got = np.array([[float(r[k]) for k in ("optimal", "achieved", "regret")] for r in rows])
    want = np.array([[r.optimal_objective, r.achieved_objective, r.regret]
                     for r in rec_in + rec_out])
    assert np.array_equal(got, want, equal_nan=True)  # CSV "nan" keeps no sign bit
    assert np.isnan(got[:, 2]).sum() == 1 and (got[:, 2] == np.inf).sum() == 1


def test_summary_csv_roundtrip(example_dir, capacity_instance, demo_scenario):
    # drayage monte-carlo writes the sweep's statistics as (group, stat, value)
    obj = scenario_objective(capacity_instance, demo_scenario)
    try:
        _, stats = capopt.monte_carlo_search(obj, 60, seed=2)
    finally:
        obj.close()
    out = example_dir / "mc"
    assert cli.main(["monte-carlo", "--instance", str(example_dir / "inst.json"),
                     "--scenario", str(example_dir / "scenario.json"),
                     "--count", "60", "--seed", "2", "--out", str(out)]) == 0
    with open(out / "summary.csv") as f:
        rows = list(csv.DictReader(f))
    got = {(r["group"], r["stat"]): float(r["value"]) for r in rows}
    assert got[("total_cost", "median")] == stats["total_cost"]["median"]
    assert got[("counts", "feasible")] == stats["feasible"]
    assert got == {
        **{("total_cost", k): v for k, v in stats["total_cost"].items()},
        **{("cost_per_teu", k): v for k, v in stats["cost_per_teu"].items()},
        **{("counts", k): stats[k] for k in ("feasible", "infeasible", "certified", "lp_solves")},
    }
    # groups come out sorted for diff-friendly output
    assert [r["group"] for r in rows] == sorted(r["group"] for r in rows)
