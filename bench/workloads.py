"""The three benchmark workloads: set-up, one round, and the checks.

A round is a fixed sequence of library calls made the way the ``drayage``
subcommands make them, with their defaults and no ``threads`` argument, so
the capacity search forks ``os.cpu_count()`` workers. Every round of a run
repeats the same calls on the same inputs.

Which inputs the seed draws: the optimizers' work depends strongly on their
own draw (over SAA draws of 20 scenarios, L-BFGS-B makes 8 to 25 gradient
evaluations; over iid draws of 5 per period, the network ``solve_expected``
takes 6.7 to 10.1 s), so the draws they optimize over are fixed (seed 0 of the
library's samplers, the draws of the acceptance tests). The workload seed
draws what the results are then tested on: the out-of-sample regret
scenarios, the scenarios the policies are rolled out along, the Monte Carlo
capacity plans and the reference study's iid policy draws. The network
perfect-information solves also run on fixed scenarios: the time of one
varies several-fold with the scenario.
"""

import csv
import math
import os
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List

import numpy as np

from drayage import capopt, dp, evaluation, model, reference
from drayage import scenario as scen

import checks
import oracle

# the draws the optimizers work on (see the module docstring)
FIXED_DRAW_SEED = 0

# criterion-8 search settings: no restarts, 6 L-BFGS-B iterations
SAA_CONFIG = dict(restarts=0, max_iter=6, seed=0)
# criterion-2 search settings for the demonstration scenario
QN_CONFIG = dict(restarts=1, max_iter=25, seed=0)

NETWORK_SHAPE = dict(
    n_entries=2,
    n_exits=1,
    n_bids=2,
    n_spot=1,
    horizon=3,
    cost_mean=12.0,  # the gen-instance defaults
    cost_sd=4.0,
    cost_min=2.0,
)
NETWORK_INSTANCE_SEED = 0

SIZES = {
    "saa-plan": {
        "full": dict(n_saa=20, n_out=300),
        "tiny": dict(n_saa=4, n_out=16),
    },
    "network-policy": {
        "full": dict(levels=4, n_iid=5, n_rollouts=50, n_pi=2),
        "tiny": dict(levels=2, n_iid=2, n_rollouts=5, n_pi=1),
    },
    "reference-study": {
        "full": dict(mc_count=2000, n_iid=1000, n_rollouts=50),
        "tiny": dict(mc_count=40, n_iid=20, n_rollouts=4),
    },
}

# phases of a round; solve_s and eval_s sum them
SOLVE_PHASES = ("plan", "mc", "policy")
EVAL_PHASES = ("plan_eval", "regret", "policy_eval")


class RoundFailed(Exception):
    """An operation of the round raised; the rest of the round is skipped."""


class Round:
    """Phase clock, operation counter and outcome counts of one round."""

    def __init__(self, planned: int, work: str):
        self.planned = planned
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.phases: Dict[str, float] = defaultdict(float)
        self.outcomes: Dict[str, int] = defaultdict(int)

    @contextmanager
    def phase(self, name: str):
        t0 = perf_counter()
        try:
            yield
        finally:
            self.phases[name] += perf_counter() - t0

    def op(self, fn: Callable, *args, **kwargs):
        """One library operation; a raise fails it and ends the round."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # any library error fails this operation
            self.failed += 1
            self.errors.append(f"{getattr(fn, '__name__', fn)}: {exc!r}")
            raise RoundFailed from exc

    def abort(self) -> None:
        """Count the operations the failed round did not reach as failed."""
        rest = self.planned - self.attempted
        self.attempted += rest
        self.failed += rest


def _scenarios_from_sample(sample, count: int, rng: np.random.Generator):
    """Scenarios made of one sampled realization per period."""
    out = []
    for _ in range(count):
        reals = tuple(
            sample.realizations[t][int(rng.integers(len(sample.realizations[t])))]
            for t in range(sample.periods)
        )
        out.append(model.Scenario(reals, float(np.prod([z.probability for z in reals]))))
    return out


def _reservation(instance, plan) -> float:
    rates = {s.id: s.reservation_rate for s in instance.sources}
    return capopt.reservation_cost(plan, rates)


# ---------------------------------------------------------------------------
# saa-plan


def saa_setup(seed: int, size: dict) -> dict:
    inst = reference.example_instance("capacity")
    return dict(
        inst=inst,
        in_sample=scen.sample_scenarios(inst, size["n_saa"], FIXED_DRAW_SEED),
        out_sample=scen.sample_scenarios(inst, size["n_out"], seed + 1),
        size=size,
    )


def saa_ops(size: dict) -> int:
    return 4  # search, two regret profiles, report


def saa_round(inp: dict, rnd: Round) -> dict:
    inst, size = inp["inst"], inp["size"]
    with rnd.phase("plan"):
        res = rnd.op(
            capopt.optimize_capacity_saa,
            inst,
            size["n_saa"],
            FIXED_DRAW_SEED,
            config=capopt.OptConfig(**SAA_CONFIG),
        )
    with rnd.phase("regret"):
        rec_in = rnd.op(evaluation.regret_profile, inst, res.best_plan, inp["in_sample"])
        rec_out = rnd.op(evaluation.regret_profile, inst, res.best_plan, inp["out_sample"])
        report = rnd.op(evaluation.generalization_report, rec_in, rec_out)
    records = rec_in + rec_out
    rnd.outcomes["regret_records"] = len(records)
    rnd.outcomes["nonfinite_regrets"] = sum(not math.isfinite(r.regret) for r in records)
    return dict(
        plan_cost=res.total_cost,
        plan=res.best_plan,
        records=records,
        spearman=report["spearman"],
        gradient_evaluations=res.gradient_evaluations,
        iterations=res.iterations,
        fingerprint=(res.total_cost, tuple(r.regret for r in records), report["spearman"]),
    )


def saa_check(inp: dict, out: dict) -> List[str]:
    inst = inp["inst"]
    caps = oracle.caps_vector(inst, out["plan"])
    return checks.saa_plan(inst, inp["in_sample"], caps, out["plan_cost"]) + checks.regrets(
        out["records"], out["spearman"]
    )


# ---------------------------------------------------------------------------
# network-policy


def network_setup(seed: int, size: dict) -> dict:
    shape = dict(NETWORK_SHAPE, capacity_levels=size["levels"])
    inst = model.generate_instance(NETWORK_INSTANCE_SEED, shape)
    violations = model.validate_instance(inst)
    plan = model.generate_default_plan(NETWORK_INSTANCE_SEED, inst)
    sample = scen.build_sample_set(inst, size["n_iid"], FIXED_DRAW_SEED, mode="iid")
    return dict(
        inst=inst,
        violations=violations,
        plan=plan,
        sample=sample,
        scenarios=_scenarios_from_sample(
            sample, size["n_rollouts"], np.random.default_rng(seed)
        ),
        pi_scenarios=_scenarios_from_sample(
            sample, size["n_pi"], np.random.default_rng(FIXED_DRAW_SEED)
        ),
        size=size,
    )


def network_ops(size: dict) -> int:
    return 2 + 2 * size["n_pi"] + size["n_rollouts"]


def network_round(inp: dict, rnd: Round) -> dict:
    inst, plan, sample = inp["inst"], inp["plan"], inp["sample"]
    with rnd.phase("policy"):
        table, policy = rnd.op(dp.solve_expected, inst, sample, plan)
        pi = [rnd.op(dp.solve_scenario, inst, sc, plan) for sc in inp["pi_scenarios"]]
    with rnd.phase("policy_eval"):
        evaluated = rnd.op(dp.evaluate_policy, inst, policy, sample, plan)
        costs = [
            rnd.op(dp.rollout, inst, policy, sc, plan, inst.initial_state).total_cost
            for sc in inp["pi_scenarios"] + inp["scenarios"]
        ]
    v0 = table.value(1, inst.initial_state)
    return dict(
        plan_cost=-v0 + _reservation(inst, plan),
        values=table.values,
        evaluated=evaluated.values,
        pi_values=[t.value(1, inst.initial_state) for t, _ in pi],
        pi_policies=[p for _, p in pi],
        rollout_costs=costs,
        fingerprint=(
            table.values.tobytes(),
            policy.actions.tobytes(),
            evaluated.values.tobytes(),
            tuple(costs),
        ),
    )


def network_check(inp: dict, out: dict) -> List[str]:
    inst, plan = inp["inst"], inp["plan"]
    msgs = [f"instance invalid: {v}" for v in inp["violations"]]
    msgs += checks.policy_evaluation(out["values"], out["evaluated"])
    clamped = 0
    for sc, v_pi, pi_policy, cost in zip(
        inp["pi_scenarios"], out["pi_values"], out["pi_policies"], out["rollout_costs"]
    ):
        path = dp.rollout(inst, pi_policy, sc, plan, inst.initial_state)
        if checks.clamps(inst, sc, path):
            clamped += 1
        else:
            msgs += checks.relaxation(inst, sc, plan, v_pi)
        msgs += checks.rollout(v_pi, cost)
    out["check_outcomes"] = {"pi_paths_clamped": clamped, "pi_paths": len(out["pi_values"])}
    return msgs


# ---------------------------------------------------------------------------
# reference-study


def reference_setup(seed: int, size: dict) -> dict:
    cap_inst = reference.example_instance("capacity")
    pol_inst = reference.example_instance("policy")
    iid = scen.build_sample_set(pol_inst, size["n_iid"], seed, mode="iid")
    return dict(
        cap_inst=cap_inst,
        demo=reference.example_scenario(cap_inst),
        plans=dict(baseline=reference.baseline_plan(), tuned=reference.tuned_plan()),
        pol_inst=pol_inst,
        samples=dict(
            enumerate=scen.build_sample_set(pol_inst, 0, seed, mode="enumerate"), iid=iid
        ),
        scenarios=_scenarios_from_sample(
            iid, size["n_rollouts"], np.random.default_rng(seed)
        ),
        seed=seed,
        size=size,
    )


def reference_ops(size: dict) -> int:
    # 2 plan evaluations, the search, the sweep; per (plan, sample mode) one
    # solve, one evaluation and the rollouts
    return 4 + 4 * (2 + size["n_rollouts"])


def reference_round(inp: dict, rnd: Round) -> dict:
    inst, demo, plans, size = inp["cap_inst"], inp["demo"], inp["plans"], inp["size"]
    obj = capopt.scenario_objective(inst, demo)
    try:
        with rnd.phase("plan_eval"):
            base = -rnd.op(capopt.objective, plans["baseline"], obj)
            tuned = -rnd.op(capopt.objective, plans["tuned"], obj)
        with rnd.phase("plan"):
            res = rnd.op(
                capopt.optimize_capacity, obj, plans["baseline"], capopt.OptConfig(**QN_CONFIG)
            )
    finally:
        obj.close()

    samples_csv = os.path.join(rnd.work, "samples.csv")
    mc_obj = capopt.scenario_objective(inst, demo)
    try:
        with rnd.phase("mc"):
            _, stats = rnd.op(
                capopt.monte_carlo_search,
                mc_obj,
                size["mc_count"],
                inp["seed"],
                samples_out=samples_csv,
            )
    finally:
        mc_obj.close()
    with open(samples_csv) as f:
        mc_costs = [
            float(row["total_cost"]) if row["feasible"] == "1" else None
            for row in csv.DictReader(f)
        ]
    rnd.outcomes["mc_plans"] = size["mc_count"]
    rnd.outcomes["mc_infeasible"] = stats["infeasible"]

    pol_inst = inp["pol_inst"]
    solved = {}
    with rnd.phase("policy"):
        for pname, plan in plans.items():
            for mode, sample in inp["samples"].items():
                solved[pname, mode] = rnd.op(dp.solve_expected, pol_inst, sample, plan)
    evaluated, costs = {}, {}
    with rnd.phase("policy_eval"):
        for (pname, mode), (_, policy) in solved.items():
            plan, sample = plans[pname], inp["samples"][mode]
            evaluated[pname, mode] = rnd.op(
                dp.evaluate_policy, pol_inst, policy, sample, plan
            ).values
            costs[pname, mode] = [
                rnd.op(
                    dp.rollout, pol_inst, policy, sc, plan, pol_inst.initial_state
                ).total_cost
                for sc in inp["scenarios"]
            ]
    return dict(
        plan_cost=res.total_cost,
        searched_plan=res.best_plan,
        baseline=base,
        tuned=tuned,
        mc_costs=mc_costs,
        mc_stats=stats,
        values={k: v[0].values for k, v in solved.items()},
        evaluated=evaluated,
        rollout_costs=costs,
        gradient_evaluations=res.gradient_evaluations,
        iterations=res.iterations,
        fingerprint=(
            base,
            tuned,
            res.total_cost,
            tuple(c if c is not None else -1.0 for c in mc_costs),
            tuple((k, v.tobytes()) for k, v in sorted(evaluated.items())),
            tuple((k, tuple(v)) for k, v in sorted(costs.items())),
        ),
    )


def reference_check(inp: dict, out: dict) -> List[str]:
    inst, demo = inp["cap_inst"], inp["demo"]
    msgs = checks.reference_costs(out["baseline"], out["tuned"], out["plan_cost"])
    msgs += checks.plan_cost(
        inst, demo, oracle.caps_vector(inst, out["searched_plan"]), out["plan_cost"]
    )
    msgs += checks.monte_carlo(out["mc_costs"], inp["size"]["mc_count"], out["mc_stats"])
    for key, values in out["values"].items():
        msgs += checks.policy_evaluation(values, out["evaluated"][key])
    pol_inst = inp["pol_inst"]
    for pname, plan in inp["plans"].items():
        pi_values = [
            dp.solve_scenario(pol_inst, sc, plan)[0].value(1, pol_inst.initial_state)
            for sc in inp["scenarios"]
        ]
        for mode in inp["samples"]:
            for v_pi, cost in zip(pi_values, out["rollout_costs"][pname, mode]):
                msgs += checks.rollout(v_pi, cost)
    return msgs


@dataclass(frozen=True)
class Workload:
    setup: Callable
    ops: Callable
    round: Callable
    check: Callable


WORKLOADS = {
    "saa-plan": Workload(saa_setup, saa_ops, saa_round, saa_check),
    "network-policy": Workload(network_setup, network_ops, network_round, network_check),
    "reference-study": Workload(reference_setup, reference_ops, reference_round, reference_check),
}
