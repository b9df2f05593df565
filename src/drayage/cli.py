"""File-based command-line surface.

Subcommands: gen-instance, solve-policy, optimize-capacity, monte-carlo,
regret. All randomness is seeded, all inputs and outputs are files, and every
command is deterministic given its flags. Exit codes: 0 success, 1 solver
failure, 2 usage or input error.
"""

import argparse
import csv
import os
import sys
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import capopt, dp, evaluation, model, mslp, reference
from . import scenario as scen

EXIT_OK = 0
EXIT_SOLVER = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


def _parse(what: str, parse, path: str):
    """parse(path); a missing file, or one whose content does not have the
    expected structure, is a UsageError that names the file."""
    if not os.path.exists(path):
        raise UsageError(f"{what} file not found: {path}")
    try:
        return parse(path)
    except (KeyError, TypeError, AttributeError, ValueError) as e:
        raise UsageError(f"malformed {what} file {path}: {type(e).__name__}: {e}") from e


def _load_instance(path: str) -> model.Instance:
    instance = _parse("instance", model.load_instance, path)
    violations = model.validate_instance(instance)
    if violations:
        raise UsageError("invalid instance: " + "; ".join(violations))
    return instance


def _load_plan(path: str, instance: model.Instance) -> model.CapacityPlan:
    plan = _parse("plan", model.load_plan, path)
    ids = {s.id for s in instance.sources}
    if set(plan.capacity) != ids:
        raise UsageError(
            f"plan sources {sorted(plan.capacity)} do not match instance {sorted(ids)}"
        )
    for sid, caps in plan.capacity.items():
        if len(caps) != instance.horizon:
            raise UsageError(f"plan for source {sid} has {len(caps)} periods")
        for t, c in enumerate(caps, start=1):
            if not (np.isfinite(c) and c >= 0.0):
                raise UsageError(
                    f"plan capacity of source {sid} in period {t} is {c}; "
                    "need a finite value >= 0"
                )
    return plan


def _load_scenario(path: str, index: int, instance: model.Instance) -> model.Scenario:
    scenarios = _parse("scenario", scen.load_scenarios, path)
    if not 0 <= index < len(scenarios):
        raise UsageError(f"scenario index {index} out of range 0..{len(scenarios) - 1}")
    sc = scenarios[index]
    violations = scen.validate_scenario(sc, instance)
    if violations:
        raise UsageError(f"invalid scenario {index}: " + "; ".join(violations))
    return sc


def _seed(text: str) -> int:
    """argparse type of the seed flags: an integer >= 0, as numpy requires."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= 0")
    return int(text)


def _outdir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """The header, then one comma-joined line per row. csv writes each cell
    as str(), a Python float's repr, so the rows carry Python numbers
    (tolist(), float()) and every float reads back exactly."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _stocks(state: model.SystemState) -> Tuple[str, str]:
    """A state's entry and exit columns: multi-location stocks are |-joined
    in sorted-id order, the order of CostSpec.terminal_slopes."""
    return tuple(
        "|".join(str(v) for _, v in sorted(stock.items()))
        for stock in (state.entry_stock, state.exit_stock)
    )


def _table_rows(indexer: dp.StateIndexer, data: np.ndarray):
    """(t, entry, exit, entry of data) per period t = 1, 2, ... and state."""
    labels = [_stocks(s) for s in indexer.all_states()]
    return ((t, *label, v) for t, row in enumerate(data.tolist(), start=1)
            for label, v in zip(labels, row))


# ---------------------------------------------------------------------------


def cmd_gen_instance(args) -> int:
    out = args.out
    if args.example:
        instance = reference.example_instance(args.example)
        model.save_instance(instance, out)
        base = os.path.dirname(os.path.abspath(out))
        scen.save_scenarios([reference.example_scenario(instance)],
                            os.path.join(base, "scenario.json"))
        model.save_plan(reference.baseline_plan(), os.path.join(base, "baseline_plan.json"))
        model.save_plan(reference.tuned_plan(), os.path.join(base, "tuned_plan.json"))
        print(f"wrote {out} plus scenario.json, baseline_plan.json, tuned_plan.json")
        return EXIT_OK
    shape = {
        "n_entries": args.entries,
        "n_exits": args.exits,
        "n_bids": args.strategic,
        "n_spot": args.spot,
        "horizon": args.horizon,
        "cost_mean": args.cost_mean,
        "cost_sd": args.cost_sd,
        "cost_min": args.cost_min,
        "capacity_levels": args.capacity_levels,
    }
    instance = model.generate_instance(args.seed, shape)
    violations = model.validate_instance(instance)
    if violations:
        raise RuntimeError("generated instance failed validation: " + "; ".join(violations))
    model.save_instance(instance, out)
    print(
        f"wrote {out}: {len(instance.network.lanes)} lanes, "
        f"{len(instance.sources)} sources, horizon {instance.horizon}, "
        f"{model.state_space_size(instance)} states"
    )
    return EXIT_OK


def cmd_solve_policy(args) -> int:
    instance = _load_instance(args.instance)
    if args.plan:
        plan = _load_plan(args.plan, instance)
    else:
        plan = model.generate_default_plan(args.seed, instance)
    if args.scenario:
        sc = _load_scenario(args.scenario, args.scenario_index, instance)
    elif args.sample_mode:
        sample = scen.build_sample_set(
            instance, args.samples, args.seed, mode=args.sample_mode
        )
    else:
        raise UsageError("need --scenario FILE or --sample-mode {enumerate,iid}")
    out = _outdir(args.out)

    if args.scenario:
        table, policy = dp.solve_scenario(instance, sc, plan)
        traj = dp.rollout(instance, policy, sc, plan, instance.initial_state)
        _write_csv(
            os.path.join(out, "trajectory.csv"),
            ("t", "entry", "exit", "action", "immediate_cost", "next_entry", "next_exit"),
            ((s.period, *_stocks(s.state), s.action, float(s.immediate_cost),
              *_stocks(s.next_state)) for s in traj.steps),
        )
        mode = "scenario"
    else:
        table, policy = dp.solve_expected(instance, sample, plan)
        traj = None
        mode = f"sample:{args.sample_mode}"

    _write_csv(os.path.join(out, "value.csv"), ("t", "entry", "exit", "value"),
               _table_rows(table.indexer, table.values))
    _write_csv(os.path.join(out, "policy.csv"), ("t", "entry", "exit", "action"),
               _table_rows(policy.indexer, policy.actions))
    if len(instance.network.entries) == 1 and len(instance.network.exits) == 1:
        for t in range(1, instance.horizon + 2):
            surf = dp.value_surface(table, t)
            _write_csv(
                os.path.join(out, f"value_surface_t{t}.csv"), ("entry", "exit", "value"),
                ((e, x, v) for e, row in zip(surf.entry_levels.tolist(), surf.values.tolist())
                 for x, v in zip(surf.exit_levels.tolist(), row)),
            )
    v_init = table.value(1, instance.initial_state)
    best_state, v_best = table.best_initial_state()
    summary = {
        "mode": mode,
        "value_at_initial_state": v_init,
        "cost_at_initial_state": -v_init,
        "best_initial_state": {
            "entry": best_state.entry_stock,
            "exit": best_state.exit_stock,
        },
        "value_at_best_initial_state": v_best,
        "cost_at_best_initial_state": -v_best,
    }
    if traj is not None:
        summary["rollout_total_cost"] = traj.total_cost
    model.write_json(os.path.join(out, "summary.json"), summary)
    print(f"value at initial state: {v_init:.4f} (cost {-v_init:.4f})")
    print(
        f"best initial state {best_state.entry_stock}/{best_state.exit_stock}: "
        f"value {v_best:.4f} (cost {-v_best:.4f})"
    )
    print(f"outputs in {out}")
    return EXIT_OK


def _opt_config(args) -> capopt.OptConfig:
    return capopt.OptConfig(
        max_iter=args.max_iter,
        restarts=args.restarts,
        seed=args.seed,
    )


def cmd_optimize_capacity(args) -> int:
    instance = _load_instance(args.instance)
    config = _opt_config(args)

    if args.mode == "scenario":
        if not args.scenario:
            raise UsageError("scenario mode needs --scenario FILE")
        sc = _load_scenario(args.scenario, args.scenario_index, instance)
        obj = capopt.scenario_objective(instance, sc)
    else:
        if args.scenario:
            raise UsageError("--scenario applies only to --mode scenario; saa mode draws --samples")
        if args.samples < 1:
            raise UsageError("--samples must be >= 1 in saa mode")
        scenarios = scen.sample_scenarios(instance, args.samples, args.seed)
        obj = capopt.sample_objective(instance, scenarios)

    if args.start:
        start = _load_plan(args.start, instance)
    else:
        start = model.generate_default_plan(args.seed, instance)
    # raw capacities are solved exactly; the quadratic search is certified
    # against the exact LP optimum of the same objective. The exact solve
    # comes first: when no plan in the box operates the scenarios it raises
    # InfeasibleLP before anything is written.
    result = exact = capopt.optimize_capacity_exact(obj)
    try:
        start_objective = capopt.objective(start, obj)
    except mslp.InfeasibleLP:
        start_objective = None
    if args.parameterization == "quadratic":
        result = capopt.optimize_capacity_quadratic(obj, config)
    exact_cost = exact.lp_objective
    out = _outdir(args.out)

    model.save_plan(result.best_plan, os.path.join(out, "best_plan.json"))
    _write_csv(os.path.join(out, "trace.csv"), ("iter", "objective", "grad_norm"),
               ((it, float(f), float(gn)) for it, f, gn in result.trace))
    summary = {
        "mode": args.mode,
        "parameterization": args.parameterization,
        "start_objective": start_objective,
        "start_total_cost": None if start_objective is None else -start_objective,
        "best_objective": result.best_objective,
        "best_total_cost": result.total_cost,
        "iterations": result.iterations,
        "gradient_evaluations": result.gradient_evaluations,
        "function_evaluations": result.function_evaluations,
        "dropped_scenarios": obj.dropped_scenarios,
        "exact_total_cost": exact_cost,
        "optimality_gap": result.total_cost - exact_cost,
    }
    if start_objective is not None and start_objective != 0:
        summary["improvement_pct"] = (
            100.0 * (result.best_objective - start_objective) / abs(start_objective)
        )
    model.write_json(os.path.join(out, "summary.json"), summary)
    if obj.dropped_scenarios:
        print(
            f"dropped {obj.dropped_scenarios} of {args.samples} draws: "
            "no plan in the box operates them"
        )
    if start_objective is None:
        print("start plan infeasible for the objective's scenarios")
    else:
        print(f"start total cost: {-start_objective:.4f}")
    print(f"best total cost:  {result.total_cost:.4f}")
    print(f"exact LP optimum: {exact_cost:.4f} (gap {summary['optimality_gap']:.4g})")
    if start_objective is not None and start_objective != 0:
        print(f"improvement: {summary['improvement_pct']:.1f}%")
    print(f"outputs in {out}")
    return EXIT_OK


def cmd_monte_carlo(args) -> int:
    instance = _load_instance(args.instance)
    if not args.scenario:
        raise UsageError("monte-carlo needs --scenario FILE")
    sc = _load_scenario(args.scenario, args.scenario_index, instance)
    if args.count < 1:
        raise UsageError("--count must be >= 1")
    obj = capopt.scenario_objective(instance, sc)
    if obj.value_of_caps(obj.box_upper) is None:
        raise mslp.InfeasibleLP("no capacity plan in the box operates the scenario")
    out = _outdir(args.out)
    best_plan, stats = capopt.monte_carlo_search(
        obj,
        args.count,
        args.seed,
        samples_out=os.path.join(out, "samples.csv"),
    )
    groups = {
        "total_cost": stats["total_cost"],
        "cost_per_teu": stats["cost_per_teu"],
        "counts": {key: stats[key] for key in ("feasible", "infeasible", "certified", "lp_solves")},
    }
    _write_csv(os.path.join(out, "summary.csv"), ("group", "stat", "value"),
               ((group, stat, value) for group in sorted(groups)
                for stat, value in groups[group].items()))
    model.save_plan(best_plan, os.path.join(out, "best_plan.json"))
    t = stats["total_cost"]
    print(
        f"{stats['feasible']} feasible / {stats['infeasible']} infeasible samples"
    )
    print(
        f"{stats['certified']} certified by a stored basis or ray / "
        f"{stats['lp_solves']} LP solves"
    )
    print(
        "total cost: "
        f"min {t['min']:.1f}  q1 {t['q1']:.1f}  median {t['median']:.1f}  "
        f"mean {t['mean']:.1f}  q3 {t['q3']:.1f}  max {t['max']:.1f}"
    )
    print(f"min cost-per-TEU: {stats['cost_per_teu']['min']:.4f}")
    print(f"outputs in {out}")
    return EXIT_OK


def cmd_regret(args) -> int:
    instance = _load_instance(args.instance)
    shared = _load_plan(args.shared_plan, instance)
    if args.samples < 1:
        raise UsageError("--samples must be >= 1")
    out = _outdir(args.out)
    scenarios_in = scen.sample_scenarios(instance, args.samples, args.in_seed)
    scenarios_out = scen.sample_scenarios(instance, args.samples, args.out_seed)
    scen.save_scenarios(scenarios_in, os.path.join(out, "scenarios_in.json"),
                        seed=args.in_seed)
    scen.save_scenarios(scenarios_out, os.path.join(out, "scenarios_out.json"),
                        seed=args.out_seed)
    rec_in = evaluation.regret_profile(instance, shared, scenarios_in)
    rec_out = evaluation.regret_profile(instance, shared, scenarios_out)
    _write_csv(
        os.path.join(out, "regret.csv"),
        ("scenario_id", "optimal", "achieved", "regret", "sample"),
        ((r.scenario_id, float(r.optimal_objective), float(r.achieved_objective),
          float(r.regret), label)
         for label, recs in (("in", rec_in), ("out", rec_out)) for r in recs),
    )
    finite = [[r.regret for r in recs if np.isfinite(r.regret)] for recs in (rec_in, rec_out)]
    try:
        report = evaluation.generalization_report(rec_in, rec_out)
    except ValueError as e:  # a sample without a finite regret: keep its counts
        report, failure = {}, e
    else:
        failure = None
        _write_csv(os.path.join(out, "generalization.csv"),
                   ("percentile", "in_sample", "out_sample"),
                   ((lv, qi, qo) for lv, (qi, qo) in zip(report["levels"],
                                                         report["quantile_pairs"])))
    summary = {
        "spearman": report.get("spearman"),
        "median_abs_diagonal_deviation": report.get("median_abs_diagonal_deviation"),
        "skipped_nonfinite": len(rec_in) + len(rec_out) - len(finite[0]) - len(finite[1]),
        "in_sample": evaluation.summarize(finite[0]) if finite[0] else None,
        "out_sample": evaluation.summarize(finite[1]) if finite[1] else None,
        # regret NaN: no plan in the box operates the draw; +inf: only the shared plan fails
        "inoperable": {
            key: {"no_plan": sum(1 for r in recs if np.isnan(r.regret)),
                  "shared_plan_only": sum(1 for r in recs if r.regret == np.inf)}
            for key, recs in (("in_sample", rec_in), ("out_sample", rec_out))
        },
    }
    model.write_json(os.path.join(out, "summary.json"), summary)
    n_in, n_out = summary["inoperable"]["in_sample"], summary["inoperable"]["out_sample"]
    if any(n_in.values()) or any(n_out.values()):
        print("inoperable draws (no plan / shared plan only): "
              f"in-sample {n_in['no_plan']} / {n_in['shared_plan_only']}, "
              f"out-of-sample {n_out['no_plan']} / {n_out['shared_plan_only']}")
    if failure is not None:
        raise failure
    for tag, block in (("in-sample", summary["in_sample"]),
                       ("out-of-sample", summary["out_sample"])):
        print(f"{tag} regret: median {block['median']:.2f}  mean {block['mean']:.2f}")
    print(f"quantile spearman: {report['spearman']:.4f}")
    print(f"outputs in {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="drayage",
        description="Volume allocation and capacity planning experiments.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-instance", help="write a synthetic instance.json")
    g.add_argument("--seed", type=_seed, default=0)
    g.add_argument("--entries", type=int, default=1)
    g.add_argument("--exits", type=int, default=1)
    g.add_argument("--strategic", type=int, default=1, help="number of strategic bids")
    g.add_argument("--spot", type=int, default=1)
    g.add_argument("--horizon", type=int, default=4)
    g.add_argument("--capacity-levels", type=int, default=10)
    g.add_argument("--cost-mean", type=float, default=12.0)
    g.add_argument("--cost-sd", type=float, default=4.0)
    g.add_argument("--cost-min", type=float, default=2.0)
    g.add_argument(
        "--example",
        choices=["policy", "capacity"],
        help="write the bundled single-lane example instead of sampling",
    )
    g.add_argument("--out", default="instance.json")
    g.set_defaults(func=cmd_gen_instance)

    s = sub.add_parser("solve-policy", help="backward-induction solve and rollout")
    s.add_argument("--instance", required=True)
    mode = s.add_mutually_exclusive_group()
    mode.add_argument("--scenario", help="scenarios.json path (perfect information)")
    mode.add_argument("--sample-mode", choices=["enumerate", "iid"])
    s.add_argument("--scenario-index", type=int, default=0)
    s.add_argument("--samples", type=int, default=100, help="draws per period (iid)")
    s.add_argument("--seed", type=_seed, default=0)
    s.add_argument("--plan", help="capacity plan JSON (default: seeded plan)")
    s.add_argument("--out", default="policy_out")
    s.set_defaults(func=cmd_solve_policy)

    o = sub.add_parser(
        "optimize-capacity",
        help="capacity plan: exact LP, or quasi-Newton search (quadratic)",
    )
    o.add_argument("--instance", required=True)
    o.add_argument("--mode", choices=["scenario", "saa"], default="scenario")
    o.add_argument("--scenario", help="scenarios.json path (scenario mode)")
    o.add_argument("--scenario-index", type=int, default=0)
    o.add_argument("--samples", type=int, default=1000, help="scenario count (saa)")
    o.add_argument("--seed", type=_seed, default=0)
    o.add_argument(
        "--start", help="plan JSON the result is compared with (default: seeded plan)"
    )
    q = o.add_argument_group("quadratic search")
    q.add_argument("--max-iter", type=int, default=60)
    q.add_argument("--restarts", type=int, default=8)
    o.add_argument(
        "--parameterization", choices=["direct", "quadratic"], default="direct"
    )
    o.add_argument("--out", default="capacity_out")
    o.set_defaults(func=cmd_optimize_capacity)

    m = sub.add_parser("monte-carlo", help="uniform random capacity search")
    m.add_argument("--instance", required=True)
    m.add_argument("--scenario", required=True, help="scenarios.json path")
    m.add_argument("--scenario-index", type=int, default=0)
    m.add_argument("--count", type=int, default=10000)
    m.add_argument("--seed", type=_seed, default=0)
    m.add_argument("--out", default="mc_out")
    m.set_defaults(func=cmd_monte_carlo)

    r = sub.add_parser("regret", help="in/out-of-sample regret profile")
    r.add_argument("--instance", required=True)
    r.add_argument("--shared-plan", required=True)
    r.add_argument("--samples", type=int, default=1000)
    r.add_argument("--in-seed", type=_seed, default=1)
    r.add_argument("--out-seed", type=_seed, default=2)
    r.add_argument("--out", default="regret_out")
    r.set_defaults(func=cmd_regret)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, KeyError, OSError, scen.SupportTooLarge) as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (mslp.InfeasibleLP, RuntimeError, dp.UndefinedPolicyState) as e:
        print(f"solver error: {e}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
