"""Command-line interface: exit codes, file outputs, determinism."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import drayage
from drayage import cli, model
from drayage.scenario import sample_scenarios, save_scenarios

from helpers import dry_scenario


def run_cli(*argv):
    return cli.main(list(argv))


def child_env():
    """Environment for a child interpreter that imports this same drayage."""
    env = dict(os.environ)
    root = str(Path(drayage.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    return env


# ---------------------------------------------------------------------------
# gen-instance


def test_gen_example_writes_bundle(example_dir):
    for name in ("inst.json", "scenario.json", "baseline_plan.json", "tuned_plan.json"):
        assert (example_dir / name).exists()
    inst = model.load_instance(str(example_dir / "inst.json"))
    assert model.validate_instance(inst) == []
    plan = model.load_plan(str(example_dir / "tuned_plan.json"))
    assert plan.capacity[1] == (0, 8, 0, 0)


def test_gen_instance_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert run_cli("gen-instance", "--seed", "99", "--entries", "2",
                       "--exits", "2", "--out", str(path)) == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.json"
    assert run_cli("gen-instance", "--seed", "100", "--entries", "2",
                   "--exits", "2", "--out", str(c)) == 0
    assert c.read_bytes() != a.read_bytes()


def test_gen_instance_seed_defaults_to_zero(tmp_path):
    # like every other subcommand's --seed; the bundled example never reads it
    assert run_cli("gen-instance", "--example", "capacity",
                   "--out", str(tmp_path / "example.json")) == 0
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli("gen-instance", "--entries", "2", "--out", str(a)) == 0
    assert run_cli("gen-instance", "--seed", "0", "--entries", "2", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_instance_validates(tmp_path):
    out = tmp_path / "g.json"
    assert run_cli("gen-instance", "--seed", "5", "--out", str(out)) == 0
    inst = model.load_instance(str(out))
    assert model.validate_instance(inst) == []


@pytest.mark.parametrize(
    "flags,key",
    [
        (["--horizon", "0"], "horizon"),
        (["--strategic", "0", "--spot", "0"], "no source"),
        (["--capacity-levels", "-1"], "capacity_levels"),
        (["--cost-sd", "-1"], "cost_sd"),
        (["--cost-mean", "-20", "--cost-min", "-40"], "cost_min"),
    ],
)
def test_gen_instance_bad_shape_exits_two(tmp_path, capsys, flags, key):
    out = tmp_path / "g.json"
    assert run_cli("gen-instance", "--seed", "0", *flags, "--out", str(out)) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_gen_instance_unreachable_cost_floor_exits_two(tmp_path):
    # With sd 0 every spot low-rate draw is 0.6 * cost_mean = 6, below the
    # floor cost_min = 8. A child process with a timeout, so a rejection loop
    # that never ends fails the test instead of hanging the suite.
    out = tmp_path / "g.json"
    proc = subprocess.run(
        [sys.executable, "-m", "drayage.cli", "gen-instance", "--seed", "0",
         "--cost-mean", "10", "--cost-min", "8", "--cost-sd", "0", "--out", str(out)],
        capture_output=True, text=True, env=child_env(), timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert "mean 6.0 and sd 0.0 reached the floor 8.0" in proc.stderr
    assert not out.exists()


# ---------------------------------------------------------------------------
# solve-policy


def test_solve_policy_scenario_outputs(example_dir):
    out = example_dir / "run"
    rc = run_cli(
        "solve-policy", "--instance", str(example_dir / "inst.json"),
        "--scenario", str(example_dir / "scenario.json"),
        "--plan", str(example_dir / "tuned_plan.json"),
        "--out", str(out),
    )
    assert rc == 0
    with open(out / "summary.json") as f:
        summary = json.load(f)
    assert summary["cost_at_initial_state"] == pytest.approx(403.52, abs=1e-9)
    assert summary["rollout_total_cost"] == pytest.approx(403.52, abs=1e-9)
    assert summary["best_initial_state"] == {"entry": {"1": 0}, "exit": {"2": 8}}
    for name in ("value.csv", "policy.csv", "trajectory.csv"):
        assert (out / name).exists()
    # one surface per period plus the terminal row
    for t in range(1, 6):
        assert (out / f"value_surface_t{t}.csv").exists()
    with open(out / "trajectory.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 4


def test_state_labels_agree_across_csv_files(tmp_path):
    # entries listed out of id order: every CSV joins stocks in sorted-id order
    path = tmp_path / "inst.json"
    assert run_cli("gen-instance", "--seed", "0", "--entries", "2", "--exits", "1",
                   "--strategic", "2", "--spot", "1", "--capacity-levels", "2",
                   "--horizon", "2", "--out", str(path)) == 0
    raw = json.loads(path.read_text())
    raw["network"]["entries"] = [2, 1]
    raw["initial_state"]["entry"] = {"1": 2, "2": 0}
    path.write_text(json.dumps(raw))
    inst = model.load_instance(str(path))
    assert model.validate_instance(inst) == []
    save_scenarios(sample_scenarios(inst, 1, 0), str(tmp_path / "scen.json"))
    out = tmp_path / "run"
    assert run_cli("solve-policy", "--instance", str(path),
                   "--scenario", str(tmp_path / "scen.json"), "--out", str(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    with open(out / "trajectory.csv") as f:
        first = next(csv.DictReader(f))
    assert (first["entry"], first["exit"]) == ("2|0", "0")
    with open(out / "value.csv") as f:
        values = {(r["entry"], r["exit"]): float(r["value"])
                  for r in csv.DictReader(f) if r["t"] == "1"}
    assert values[("2|0", "0")] == summary["value_at_initial_state"]


def test_solve_policy_enumerate_mode(example_dir):
    out = example_dir / "enum"
    rc = run_cli(
        "solve-policy", "--instance", str(example_dir / "inst.json"),
        "--sample-mode", "enumerate",
        "--plan", str(example_dir / "baseline_plan.json"),
        "--out", str(out),
    )
    assert rc == 0
    with open(out / "summary.json") as f:
        summary = json.load(f)
    assert summary["mode"] == "sample:enumerate"
    assert "rollout_total_cost" not in summary
    assert not (out / "trajectory.csv").exists()


def test_solve_policy_iid_deterministic(example_dir):
    outs = []
    for tag in ("i1", "i2"):
        out = example_dir / tag
        rc = run_cli(
            "solve-policy", "--instance", str(example_dir / "inst.json"),
            "--sample-mode", "iid", "--samples", "25", "--seed", "8",
            "--plan", str(example_dir / "baseline_plan.json"),
            "--out", str(out),
        )
        assert rc == 0
        outs.append((out / "value.csv").read_bytes())
    assert outs[0] == outs[1]


def test_solve_policy_needs_a_mode(example_dir, monkeypatch):
    monkeypatch.chdir(example_dir)
    rc = run_cli("solve-policy", "--instance", str(example_dir / "inst.json"))
    assert rc == 2
    assert not (example_dir / "policy_out").exists()


def test_solve_policy_scenario_excludes_sample_mode(example_dir, monkeypatch, capsys):
    # --sample-mode solves the expected-value program instead of the
    # scenario's: given both, the command cannot tell which is meant
    monkeypatch.chdir(example_dir)
    with pytest.raises(SystemExit) as exc:
        run_cli("solve-policy", "--instance", "inst.json", "--scenario", "scenario.json",
                "--sample-mode", "enumerate")
    assert exc.value.code == 2
    assert "argument --sample-mode: not allowed with argument --scenario" in (
        capsys.readouterr().err
    )
    assert not (example_dir / "policy_out").exists()


def test_solve_policy_missing_instance(tmp_path):
    rc = run_cli("solve-policy", "--instance", str(tmp_path / "nope.json"),
                 "--sample-mode", "enumerate")
    assert rc == 2


def test_solve_policy_corrupt_instance(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json at all")
    rc = run_cli("solve-policy", "--instance", str(bad),
                 "--sample-mode", "enumerate")
    assert rc == 2


def test_solve_policy_rejects_per_lane_spot_rates(example_dir, monkeypatch, capsys):
    doc = json.loads((example_dir / "inst.json").read_text())
    doc["uncertainty"]["spot_rates_per_lane"] = {"2": {"1-2": {"5.0": 0.6}}}
    (example_dir / "per_lane.json").write_text(json.dumps(doc))
    monkeypatch.chdir(example_dir)
    rc = run_cli("solve-policy", "--instance", "per_lane.json", "--sample-mode", "iid",
                 "--samples", "5")
    assert rc == 2
    assert "uncertainty.spot_rates_per_lane" in capsys.readouterr().err
    assert not (example_dir / "policy_out").exists()


def test_solve_policy_wrong_plan_shape(example_dir, tmp_path):
    plan_path = tmp_path / "short_plan.json"
    plan_path.write_text(json.dumps({"capacity": {"1": [4, 4], "2": [4, 4]}}))
    rc = run_cli(
        "solve-policy", "--instance", str(example_dir / "inst.json"),
        "--sample-mode", "enumerate", "--plan", str(plan_path),
    )
    assert rc == 2


@pytest.mark.parametrize("bad", ["NaN", -3])
@pytest.mark.parametrize(
    "argv",
    [
        ["solve-policy", "--scenario", "scenario.json", "--plan"],
        ["optimize-capacity", "--scenario", "scenario.json", "--start"],
        ["regret", "--samples", "2", "--shared-plan"],
    ],
    ids=["solve-policy", "optimize-capacity", "regret"],
)
def test_bad_plan_capacity_exits_two(example_dir, monkeypatch, capsys, argv, bad):
    # a negative or non-finite capacity is rejected before any output is written
    monkeypatch.chdir(example_dir)
    plan_path = example_dir / "bad_plan.json"
    plan_path.write_text(json.dumps({"capacity": {"1": [4, bad, 4, 4], "2": [4, 4, 4, 4]}}))
    rc = run_cli(argv[0], "--instance", "inst.json", *argv[1:], str(plan_path))
    assert rc == 2
    assert "source 1 in period 2" in capsys.readouterr().err
    for name in ("policy_out", "capacity_out", "regret_out"):
        assert not (example_dir / name).exists()


def _set(keys, value):
    """An edit of a JSON document that sets doc[k0][k1]... to value."""
    def edit(doc):
        target = doc
        for k in keys[:-1]:
            target = target[k]
        target[keys[-1]] = value
        return doc
    return edit


MALFORMED_INPUT_COMMANDS = {
    "plan": ("tuned_plan.json",
             ["regret", "--instance", "inst.json", "--samples", "2", "--shared-plan"]),
    "instance": ("inst.json",
                 ["solve-policy", "--sample-mode", "enumerate", "--instance"]),
    "scenario": ("scenario.json",
                 ["monte-carlo", "--instance", "inst.json", "--count", "5", "--scenario"]),
}


@pytest.mark.parametrize(
    "kind,edit",
    [
        ("plan", lambda doc: {"capacity": {"1": 5, "2": [4, 4, 4, 4]}}),
        ("plan", lambda doc: {"capacity": [1, 2]}),
        ("plan", lambda doc: [1, 2]),
        ("instance", _set(["sources"], 5)),
        ("instance", _set(["bounds", "entry_max"], [10])),
        ("instance", _set(["uncertainty", "inflow", "1"], [0, 4, 8])),
        ("scenario", _set(["scenarios", 0, "realizations"], 5)),
    ],
    ids=["plan-scalar-capacity", "plan-capacity-list", "plan-list", "instance-sources-int",
         "instance-entry-max-list", "instance-inflow-list", "scenario-realizations-int"],
)
def test_malformed_input_file_exits_two(example_dir, monkeypatch, capsys, kind, edit):
    # a file of the wrong structure is an input error that names the file,
    # reported before any output directory exists
    base, argv = MALFORMED_INPUT_COMMANDS[kind]
    doc = edit(json.loads((example_dir / base).read_text()))
    (example_dir / "malformed.json").write_text(json.dumps(doc))
    monkeypatch.chdir(example_dir)
    assert run_cli(*argv, "malformed.json") == 2
    assert "malformed.json" in capsys.readouterr().err
    assert not list(example_dir.glob("*_out"))


def test_scenario_index_out_of_range(example_dir, monkeypatch):
    monkeypatch.chdir(example_dir)
    rc = run_cli(
        "solve-policy", "--instance", str(example_dir / "inst.json"),
        "--scenario", str(example_dir / "scenario.json"),
        "--scenario-index", "3",
    )
    assert rc == 2
    assert not (example_dir / "policy_out").exists()


def _set_inflow(value):
    def edit(z):
        z["inflow"]["1"] = value
    return edit


def _set_spot_rate(z):
    z["spot_rates"]["2"]["1-2"] = float("nan")


def _drop_spot_rate(z):
    del z["spot_rates"]["2"]["1-2"]


def _add_entry(z):
    z["inflow"]["7"] = 3


@pytest.mark.parametrize(
    "edit,field",
    [
        (_set_inflow(2.5), "inflow[1]"),
        (_set_inflow(-4), "inflow[1]"),
        (_set_spot_rate, "spot_rates[2][1-2]"),
        (_drop_spot_rate, "spot_rates[2][1-2]"),
        (_add_entry, "[1, 7]"),
    ],
    ids=["fractional-inflow", "negative-inflow", "nan-spot-rate", "missing-spot-rate",
         "unknown-entry"],
)
@pytest.mark.parametrize("command", ["solve-policy", "optimize-capacity", "monte-carlo"])
def test_scenario_not_fitting_instance_exits_two(
    example_dir, monkeypatch, capsys, command, edit, field
):
    doc = json.loads((example_dir / "scenario.json").read_text())
    edit(doc["scenarios"][0]["realizations"][1])
    (example_dir / "bad_scenario.json").write_text(json.dumps(doc))
    monkeypatch.chdir(example_dir)
    rc = run_cli(command, "--instance", "inst.json", "--scenario", "bad_scenario.json",
                 "--out", "bad_out")
    assert rc == 2
    assert field in capsys.readouterr().err
    assert not (example_dir / "bad_out").exists()


# ---------------------------------------------------------------------------
# optimize-capacity


def test_optimize_capacity_scenario_mode(example_dir):
    out = example_dir / "opt"
    rc = run_cli(
        "optimize-capacity", "--instance", str(example_dir / "inst.json"),
        "--scenario", str(example_dir / "scenario.json"),
        "--start", str(example_dir / "baseline_plan.json"),
        "--restarts", "1", "--max-iter", "8",
        "--out", str(out),
    )
    assert rc == 0
    with open(out / "summary.json") as f:
        summary = json.load(f)
    assert summary["start_total_cost"] == pytest.approx(557.22, abs=1e-9)
    assert summary["best_total_cost"] <= summary["start_total_cost"] + 1e-9
    assert summary["improvement_pct"] >= -1e-9
    # raw capacities are solved as one exact LP (optimum 439.2)
    assert summary["best_total_cost"] == pytest.approx(439.2, abs=1e-6)
    assert summary["optimality_gap"] == pytest.approx(0.0, abs=1e-7)
    assert summary["gradient_evaluations"] == 0
    assert summary["function_evaluations"] == 1
    assert summary["dropped_scenarios"] == 0
    plan = model.load_plan(str(out / "best_plan.json"))
    assert set(plan.capacity) == {1, 2}
    assert (out / "trace.csv").exists()


def test_optimize_capacity_quadratic_is_certified(example_dir):
    out = example_dir / "quad"
    rc = run_cli(
        "optimize-capacity", "--instance", str(example_dir / "inst.json"),
        "--scenario", str(example_dir / "scenario.json"),
        "--parameterization", "quadratic",
        "--restarts", "0", "--max-iter", "4",
        "--out", str(out),
    )
    assert rc == 0
    with open(out / "summary.json") as f:
        summary = json.load(f)
    # the search is certified against the exact LP optimum of the same objective
    assert summary["exact_total_cost"] == pytest.approx(439.2, abs=1e-6)
    assert summary["optimality_gap"] == pytest.approx(
        summary["best_total_cost"] - summary["exact_total_cost"], abs=1e-12
    )
    assert summary["optimality_gap"] >= -1e-7
    assert summary["function_evaluations"] > summary["gradient_evaluations"] > 0


def test_optimize_capacity_saa_mode(example_dir):
    out = example_dir / "saa"
    rc = run_cli(
        "optimize-capacity", "--instance", str(example_dir / "inst.json"),
        "--mode", "saa", "--samples", "3", "--seed", "4",
        "--restarts", "0", "--max-iter", "5",
        "--out", str(out),
    )
    assert rc == 0
    with open(out / "summary.json") as f:
        summary = json.load(f)
    assert summary["mode"] == "saa"
    assert (out / "best_plan.json").exists()
    # saa mode is the exact extensive-form LP: no gradients, no gap
    assert summary["gradient_evaluations"] == 0
    assert summary["function_evaluations"] == 1
    assert summary["optimality_gap"] == pytest.approx(0.0, abs=1e-7)
    assert summary["best_total_cost"] == pytest.approx(
        summary["exact_total_cost"], abs=1e-7
    )


def test_optimize_capacity_reports_dropped_draws(example_dir, capsys):
    # of the two draws at seed 19, no plan in the box operates one
    out = example_dir / "saa_dropped"
    rc = run_cli(
        "optimize-capacity", "--instance", str(example_dir / "inst.json"),
        "--mode", "saa", "--samples", "2", "--seed", "19", "--out", str(out),
    )
    assert rc == 0
    with open(out / "summary.json") as f:
        assert json.load(f)["dropped_scenarios"] == 1
    assert "dropped 1 of 2 draws" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flags,key",
    [
        (["--max-iter", "0"], "max_iter"),
        (["--restarts", "-2"], "restarts"),
    ],
)
def test_optimize_capacity_bad_search_settings_exit_two(
    example_dir, monkeypatch, capsys, flags, key
):
    monkeypatch.chdir(example_dir)
    rc = run_cli(
        "optimize-capacity", "--instance", "inst.json", "--scenario", "scenario.json",
        *flags,
    )
    assert rc == 2
    assert key in capsys.readouterr().err
    assert not (example_dir / "capacity_out").exists()


@pytest.mark.parametrize(
    "flags",
    [
        ["--parameterization", "direct"],
        ["--parameterization", "quadratic", "--restarts", "0", "--max-iter", "2"],
    ],
)
def test_optimize_capacity_inoperable_scenario_exits_one(
    example_dir, capacity_instance, capsys, flags
):
    # no plan in the box operates the scenario: no penalty is reported as a
    # cost and nothing is written
    path = example_dir / "dry.json"
    save_scenarios([dry_scenario(capacity_instance)], str(path))
    out = example_dir / "cap_dry"
    rc = run_cli(
        "optimize-capacity", "--instance", str(example_dir / "inst.json"),
        "--scenario", str(path), *flags, "--out", str(out),
    )
    assert rc == 1
    assert "solver error" in capsys.readouterr().err
    assert not out.exists()


def test_optimize_capacity_scenario_mode_needs_file(example_dir, monkeypatch):
    monkeypatch.chdir(example_dir)
    rc = run_cli("optimize-capacity", "--instance", str(example_dir / "inst.json"))
    assert rc == 2
    assert not (example_dir / "capacity_out").exists()


def test_optimize_capacity_saa_mode_rejects_scenario_file(example_dir, monkeypatch, capsys):
    # saa mode draws its own scenarios and would ignore the file
    monkeypatch.chdir(example_dir)
    rc = run_cli("optimize-capacity", "--instance", "inst.json", "--mode", "saa",
                 "--samples", "5", "--scenario", "scenario.json")
    assert rc == 2
    assert "--scenario applies only to --mode scenario" in capsys.readouterr().err
    assert not (example_dir / "capacity_out").exists()


# ---------------------------------------------------------------------------
# monte-carlo


def test_monte_carlo_outputs(example_dir, capsys):
    out = example_dir / "mc"
    rc = run_cli(
        "monte-carlo", "--instance", str(example_dir / "inst.json"),
        "--scenario", str(example_dir / "scenario.json"),
        "--count", "60", "--seed", "2",
        "--out", str(out),
    )
    assert rc == 0
    with open(out / "samples.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 60
    with open(out / "summary.csv") as f:
        stats = {
            (r["group"], r["stat"]): float(r["value"]) for r in csv.DictReader(f)
        }
    assert stats[("counts", "feasible")] + stats[("counts", "infeasible")] == 60
    assert stats[("counts", "certified")] + stats[("counts", "lp_solves")] == 60
    assert stats[("counts", "lp_solves")] >= 1
    certified, solves = int(stats[("counts", "certified")]), int(stats[("counts", "lp_solves")])
    assert f"{certified} certified by a stored basis or ray / {solves} LP solves" in (
        capsys.readouterr().out
    )
    assert stats[("total_cost", "min")] >= 439.2 - 1e-6
    assert (out / "best_plan.json").exists()


def test_monte_carlo_inoperable_scenario_exits_one(example_dir, capacity_instance):
    # Exits drain with no inflow ever arriving: every capacity sample fails.
    path = example_dir / "dry.json"
    save_scenarios([dry_scenario(capacity_instance)], str(path))
    rc = run_cli(
        "monte-carlo", "--instance", str(example_dir / "inst.json"),
        "--scenario", str(path), "--count", "5", "--seed", "1",
        "--out", str(example_dir / "mc_dry"),
    )
    assert rc == 1
    assert not (example_dir / "mc_dry").exists()


def test_monte_carlo_zero_count_exits_two(example_dir, monkeypatch, capsys):
    monkeypatch.chdir(example_dir)
    rc = run_cli(
        "monte-carlo", "--instance", str(example_dir / "inst.json"),
        "--scenario", str(example_dir / "scenario.json"), "--count", "0",
    )
    assert rc == 2
    assert "--count" in capsys.readouterr().err
    assert not (example_dir / "mc_out").exists()


# ---------------------------------------------------------------------------
# regret


def test_regret_outputs(example_dir):
    out = example_dir / "reg"
    rc = run_cli(
        "regret", "--instance", str(example_dir / "inst.json"),
        "--shared-plan", str(example_dir / "tuned_plan.json"),
        "--samples", "5", "--in-seed", "11", "--out-seed", "12",
        "--out", str(out),
    )
    assert rc == 0
    with open(out / "regret.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 10
    assert {r["sample"] for r in rows} == {"in", "out"}
    with open(out / "summary.json") as f:
        summary = json.load(f)
    assert -1.0 <= summary["spearman"] <= 1.0
    assert summary["in_sample"]["min"] >= -1e-9
    with open(out / "generalization.csv") as f:
        assert len(list(csv.DictReader(f))) == 101
    assert (out / "scenarios_in.json").exists()
    assert (out / "scenarios_out.json").exists()


def test_regret_reports_inoperable_draws(example_dir, capsys):
    # Of the two in-sample draws at seed 19 no plan in the box operates one
    # (regret NaN); of the two out-of-sample draws at seed 2 only this thin
    # plan fails one (regret +inf).
    plan = example_dir / "thin_plan.json"
    model.save_plan(model.CapacityPlan({1: (0.0, 6.0, 0.0, 0.0), 2: (0.0,) * 4}), str(plan))
    out = example_dir / "reg"
    rc = run_cli(
        "regret", "--instance", str(example_dir / "inst.json"), "--shared-plan", str(plan),
        "--samples", "2", "--in-seed", "19", "--out-seed", "2", "--out", str(out),
    )
    assert rc == 0
    with open(out / "summary.json") as f:
        summary = json.load(f)
    assert summary["inoperable"] == {
        "in_sample": {"no_plan": 1, "shared_plan_only": 0},
        "out_sample": {"no_plan": 0, "shared_plan_only": 1},
    }
    assert summary["skipped_nonfinite"] == 2
    assert ("inoperable draws (no plan / shared plan only): "
            "in-sample 1 / 0, out-of-sample 0 / 1") in capsys.readouterr().out


def test_regret_without_finite_regret_keeps_its_counts(example_dir, capsys):
    # Under an all-zero plan two of the three in-sample draws at seed 0 keep a
    # finite regret and no out-of-sample draw does, so no comparison exists.
    plan = example_dir / "zero_plan.json"
    model.save_plan(model.CapacityPlan({1: (0.0,) * 4, 2: (0.0,) * 4}), str(plan))
    out = example_dir / "reg"
    rc = run_cli(
        "regret", "--instance", str(example_dir / "inst.json"), "--shared-plan", str(plan),
        "--samples", "3", "--out", str(out),
    )
    assert rc == 2
    with open(out / "summary.json") as f:
        summary = json.load(f)
    assert summary["inoperable"] == {
        "in_sample": {"no_plan": 0, "shared_plan_only": 1},
        "out_sample": {"no_plan": 0, "shared_plan_only": 3},
    }
    assert summary["skipped_nonfinite"] == 4
    assert summary["spearman"] is None
    assert summary["median_abs_diagonal_deviation"] is None
    assert summary["out_sample"] is None
    assert summary["in_sample"]["min"] == 174.64 and summary["in_sample"]["max"] == 256.0
    assert not (out / "generalization.csv").exists()
    captured = capsys.readouterr()
    assert "no finite regrets to compare" in captured.err
    assert ("inoperable draws (no plan / shared plan only): "
            "in-sample 0 / 1, out-of-sample 0 / 3") in captured.out


def test_regret_zero_samples_exits_two(example_dir, monkeypatch, capsys):
    monkeypatch.chdir(example_dir)
    rc = run_cli(
        "regret", "--instance", str(example_dir / "inst.json"),
        "--shared-plan", str(example_dir / "tuned_plan.json"), "--samples", "0",
    )
    assert rc == 2
    assert "--samples" in capsys.readouterr().err
    assert not (example_dir / "regret_out").exists()


@pytest.mark.parametrize(
    "argv,flag,outdir",
    [
        (["monte-carlo", "--scenario", "scenario.json", "--seed", "-1"], "--seed", "mc_out"),
        (["regret", "--shared-plan", "tuned_plan.json", "--in-seed", "-1"], "--in-seed",
         "regret_out"),
        (["regret", "--shared-plan", "tuned_plan.json", "--out-seed", "-2"], "--out-seed",
         "regret_out"),
        (["solve-policy", "--sample-mode", "iid", "--seed", "-1"], "--seed", "policy_out"),
    ],
)
def test_negative_seed_exits_two(example_dir, monkeypatch, capsys, argv, flag, outdir):
    monkeypatch.chdir(example_dir)
    with pytest.raises(SystemExit) as exc:
        run_cli(argv[0], "--instance", "inst.json", *argv[1:])
    assert exc.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err
    assert not (example_dir / outdir).exists()


# ---------------------------------------------------------------------------
# Entry point plumbing


def test_unknown_subcommand_exits_two():
    proc = subprocess.run(
        [sys.executable, "-m", "drayage.cli", "frobnicate"],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 2


def test_console_script_runs(tmp_path):
    # Run the declared [project.scripts] target the way the wrapper that
    # pip generates for it does, so no installed `drayage` script is needed.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["drayage"]
    module, attr = target.split(":")
    wrapper = (
        f"import sys; from {module} import {attr}; "
        f"sys.argv[0] = 'drayage'; sys.exit({attr}())"
    )
    proc = subprocess.run(
        [sys.executable, "-c", wrapper,
         "gen-instance", "--seed", "1", "--example", "capacity",
         "--out", str(tmp_path / "x.json")],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "x.json").exists()
    assert "wrote" in proc.stdout


def test_solver_failure_exits_one(example_dir, monkeypatch):
    # Force the backward induction to fail after argument parsing succeeds.
    def boom(*a, **kw):
        raise RuntimeError("synthetic solver failure")

    # The default --out directory is made before the error is found.
    monkeypatch.chdir(example_dir)
    monkeypatch.setattr(cli.dp, "solve_scenario", boom)
    rc = run_cli(
        "solve-policy", "--instance", str(example_dir / "inst.json"),
        "--scenario", str(example_dir / "scenario.json"),
    )
    assert rc == 1
