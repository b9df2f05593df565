"""Tests of the benchmark itself: tiny runs of every workload, the metric
names against BENCHMARK.json, and a wrong answer for every check.

    python3 -m pytest -q bench
"""

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from drayage import dp, mslp, reference  # noqa: E402
from drayage import scenario as scen  # noqa: E402
from drayage.evaluation import RegretRecord  # noqa: E402

import checks  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def _cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("DRAYAGE_CACHE_DIR", str(tmp_path / "cache"))


def _run(*args, cwd=ROOT, bench=BENCH):
    return subprocess.run(
        [sys.executable, str(bench / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr[-3000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in line["metrics"].items()
    }
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())


def test_spec_names_match_runner():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in SPEC["per_layer"]] == run.per_layer_names()
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    proc = _run("--workload", "saa-plan", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path, bench=tmp_path / "bench")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# ---------------------------------------------------------------------------
# the reference LP agrees with the program's own multistage LP


def test_oracle_matches_program_lp():
    inst = reference.example_instance("capacity")
    plan = reference.baseline_plan()
    caps = oracle.caps_vector(inst, plan)
    for initial in ("free", "fixed"):
        for sc in scen.sample_scenarios(inst, 15, 7):
            ours = oracle.operating_cost(inst, sc, caps, initial)
            try:
                theirs = mslp.solve_mslp(mslp.build_mslp(inst, sc, plan, initial=initial)).cost
            except mslp.InfeasibleLP:
                theirs = None
            assert (ours is None) == (theirs is None)
            if ours is not None:
                assert ours == pytest.approx(theirs, abs=1e-9)


# ---------------------------------------------------------------------------
# every check fails on a wrong answer


def test_saa_plan_cost_off_by_one_fails():
    inst = reference.example_instance("capacity")
    draws = scen.sample_scenarios(inst, 4, 0)
    caps = oracle.caps_vector(inst, reference.tuned_plan())
    truth = oracle.plan_total_cost(inst, oracle.operable(inst, draws), caps)
    assert checks.saa_plan(inst, draws, caps, truth) == []
    assert checks.saa_plan(inst, draws, caps, truth + 1.0)
    exact = oracle.saa_optimum(inst, oracle.operable(inst, draws))
    assert exact <= truth + 1e-9
    below = checks.saa_plan(inst, draws, caps, exact - 1.0)
    assert any("below the exact SAA optimum" in m for m in below)


def _records(regrets, optimum=100.0):
    return [RegretRecord(k, optimum, optimum - r, r) for k, r in enumerate(regrets)]


def test_regret_checks_fail_on_wrong_records():
    good = _records([0.0, 1.0, 2.5] * 40)
    assert checks.regrets(good, 1.0) == []
    assert checks.regrets(_records([0.0, -0.01] + [1.0] * 98), 1.0)
    finite_opt = good + [RegretRecord(999, 5.0, -math.inf, math.inf)]
    assert checks.regrets(finite_opt, 1.0)
    inf_rec = RegretRecord(999, -math.inf, -math.inf, math.nan)
    assert checks.regrets(good[:49] + [inf_rec, inf_rec], 1.0)  # 4% non-finite
    assert checks.regrets(good, 0.94)


def test_policy_with_one_action_changed_fails():
    inst = reference.example_instance("policy")
    sample = scen.build_sample_set(inst, 0, 0, mode="enumerate")
    plan = reference.tuned_plan()
    table, policy = dp.solve_expected(inst, sample, plan)
    assert checks.policy_evaluation(table.values, dp.evaluate_policy(inst, policy, sample, plan).values) == []
    changed = copy.deepcopy(policy)
    state = int(np.flatnonzero(changed.actions[0] > 0)[0])
    changed.actions[0, state] -= 1
    evaluated = dp.evaluate_policy(inst, changed, sample, plan)
    assert checks.policy_evaluation(table.values, evaluated.values)


def test_relaxation_and_rollout_checks_fail_on_wrong_values():
    inst = reference.example_instance("policy")
    plan = reference.baseline_plan()
    sc = scen.sample_scenarios(inst, 1, 5)[0]
    table, policy = dp.solve_scenario(inst, sc, plan)
    v = table.value(1, inst.initial_state)
    cost = dp.rollout(inst, policy, sc, plan, inst.initial_state).total_cost
    assert checks.relaxation(inst, sc, plan, v) == []
    lp_value = -oracle.operating_cost(inst, sc, oracle.caps_vector(inst, plan), "fixed")
    assert checks.relaxation(inst, sc, plan, lp_value + 1.0)
    assert checks.rollout(v, cost) == []
    assert checks.rollout(v, cost - 1.0)


def test_relaxation_holds_exactly_on_unclamped_paths():
    """On a small network, the LP bound breaks only on clamped DP paths."""
    from drayage import model

    inst = model.generate_instance(0, dict(workloads.NETWORK_SHAPE, capacity_levels=2))
    plan = model.generate_default_plan(0, inst)
    clamped = unclamped = 0
    for sc in scen.sample_scenarios(inst, 20, 11):
        table, policy = dp.solve_scenario(inst, sc, plan)
        path = dp.rollout(inst, policy, sc, plan, inst.initial_state)
        failed = checks.relaxation(inst, sc, plan, table.value(1, inst.initial_state))
        if checks.clamps(inst, sc, path):
            clamped += 1
        else:
            unclamped += 1
            assert failed == []
    assert clamped and unclamped


def test_reference_checks_fail_on_wrong_costs():
    assert checks.reference_costs(557.2, 439.2, 439.2) == []
    assert checks.reference_costs(558.2, 439.2, 439.2)
    assert checks.reference_costs(557.2, 440.2, 439.2)
    assert checks.reference_costs(557.2, 439.2, 439.8)
    inst = reference.example_instance("capacity")
    demo = reference.example_scenario(inst)
    caps = oracle.caps_vector(inst, reference.tuned_plan())
    assert checks.plan_cost(inst, demo, caps, 439.2) == []
    assert checks.plan_cost(inst, demo, caps, 440.2)


def test_monte_carlo_minimum_below_grid_fails():
    costs = [500.0, None, 439.2, 1600.0]
    stats = {"feasible": 3, "infeasible": 1, "total_cost": {"min": 439.2}}
    assert checks.monte_carlo(costs, 4, stats) == []
    low = [500.0, None, 439.0, 1600.0]
    assert checks.monte_carlo(low, 4, dict(stats, total_cost={"min": 439.0}))
    assert checks.monte_carlo(costs, 5, stats)


# ---------------------------------------------------------------------------
# spans


def test_tracer_counts_and_restores(monkeypatch):
    monkeypatch.setitem(spans.LAYERS, "lp", ("solve_lp", "no_such_function"))
    import drayage.mslp

    original = drayage.mslp.solve_mslp
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert drayage.mslp.solve_mslp is not original
        inst = reference.example_instance("capacity")
        demo = reference.example_scenario(inst)
        drayage.mslp.solve_mslp(drayage.mslp.build_mslp(inst, demo, reference.tuned_plan()))
        stats = tracer.take()
    finally:
        tracer.uninstall()
    assert drayage.mslp.solve_mslp is original
    assert tracer.absent == ["lp.no_such_function"]
    assert stats["mslp.solve_mslp"].calls == 1
    assert stats["lp.solve_lp"].calls == 1
    # the LP's time is its own, not its caller's
    assert stats["mslp.solve_mslp"].self_s < stats["lp.solve_lp"].self_s + 1e-3
    assert tracer.take()["mslp.solve_mslp"].calls == 0
