"""Drayage benchmark runner.

    python3 bench/run.py --workload saa-plan --seed 0 --seconds 25 --trace 0

Run from the root of a source tree; the package is imported from its
``src`` directory, never from an installed copy. After set-up the run repeats
whole rounds of the workload until ``--seconds`` have passed, checks the
outputs of the first round (and that every later round reproduced them), and
prints one JSON line: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``. The full record,
environment included, goes to ``bench/results/``. Each run works in a fresh
directory under ``bench/.work/`` and removes it; the per-scenario optimum
cache (``DRAYAGE_CACHE_DIR``) is pointed at a new empty directory for every
round, so every round pays the cold cost a first-time user pays.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "solve_s": "s",
    "eval_s": "s",
    "plan_cost": "USD",
    "peak_rss_mb": "MB",
}
EXTRA_LAYER_METRICS = (
    "workers.cpu_s",
    "capopt.gradient_evaluations",
    "capopt.iterations",
    "evaluation.cache.files",
)


def per_layer_names():
    import spans

    return spans.metric_names() + list(EXTRA_LAYER_METRICS)


def unit_of(name: str) -> str:
    return END_TO_END.get(name) or ("s" if name.endswith("_s") else "count")


def _import_workloads():
    """Import the checkout's drayage and the workload module."""
    sys.path.insert(0, SRC)
    import drayage
    import workloads

    if os.path.dirname(os.path.abspath(drayage.__file__)) != os.path.join(SRC, "drayage"):
        raise RuntimeError(f"drayage imported from {drayage.__file__}, not {SRC}")
    return workloads


def probe_setup(args) -> int:
    """Child process: time import plus input construction, print seconds."""
    t0 = perf_counter()
    wl = _import_workloads()
    wl.WORKLOADS[args.workload].setup(args.seed, wl.SIZES[args.workload][args.size])
    print(json.dumps({"setup_s": perf_counter() - t0}))
    return 0


def setup_seconds(args) -> list:
    cmd = [
        sys.executable,
        os.path.abspath(__file__),
        "--probe-setup",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", "0",
        "--size", args.size,
    ]
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError("set-up probe failed: " + proc.stderr[-2000:])
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def environment(args) -> dict:
    import numpy
    import scipy

    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True
        )
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "drayage")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                digest.update(name.encode() + b"\0" + f.read())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
    }


def run(args, work: str) -> dict:
    os.environ["DRAYAGE_CACHE_DIR"] = os.path.join(work, "cache-setup")
    setup_samples = [] if args.trace else setup_seconds(args)

    wl = _import_workloads()
    workload = wl.WORKLOADS[args.workload]
    size = wl.SIZES[args.workload][args.size]
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    try:
        inp = workload.setup(args.seed, size)
        setup_stats = tracer.take() if tracer else None

        rounds = []
        deadline = perf_counter() + args.seconds
        while True:
            k = len(rounds)
            rdir = os.path.join(work, f"round-{k}")
            cache = os.path.join(rdir, "cache")
            os.makedirs(cache)
            os.environ["DRAYAGE_CACHE_DIR"] = cache
            rnd = wl.Round(workload.ops(size), rdir)
            cpu0 = children_cpu()
            t0 = perf_counter()
            try:
                out = workload.round(inp, rnd)
            except wl.RoundFailed:
                rnd.abort()
                out = None
            wall = perf_counter() - t0
            rounds.append(
                dict(
                    wall_s=wall,
                    workers_cpu_s=children_cpu() - cpu0,
                    cache_files=len(os.listdir(cache)),
                    rnd=rnd,
                    out=out,
                    stats=tracer.take() if tracer else None,
                )
            )
            shutil.rmtree(rdir)
            if perf_counter() >= deadline:
                break
    finally:
        if tracer:
            tracer.uninstall()

    # checks run after the timed rounds
    problems = []
    first = rounds[0]["out"]
    if first is not None:
        problems += workload.check(inp, first)
        for k, r in enumerate(rounds[1:], start=1):
            if r["out"] is not None and repr(r["out"]["fingerprint"]) != repr(first["fingerprint"]):
                problems.append(f"round {k} outputs differ from round 0")
    attempted = sum(r["rnd"].attempted for r in rounds)
    failed = sum(r["rnd"].failed for r in rounds)
    ok_rounds = [r for r in rounds if r["out"] is not None]

    def med(key):
        return statistics.median(key(r) for r in ok_rounds) if ok_rounds else float("nan")

    phases = {}
    if ok_rounds:
        names = {p for r in ok_rounds for p in r["rnd"].phases}
        phases = {p: med(lambda r, p=p: r["rnd"].phases.get(p, 0.0)) for p in sorted(names)}
    wall_s = med(lambda r: r["wall_s"])
    if args.trace:
        metrics = layer_metrics(setup_stats, ok_rounds, first)
    else:
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": wall_s,
            "solve_s": sum(phases.get(p, 0.0) for p in wl.SOLVE_PHASES),
            "eval_s": sum(phases.get(p, 0.0) for p in wl.EVAL_PHASES),
            "plan_cost": first["plan_cost"] if first else float("nan"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    outcomes = dict(ok_rounds[0]["rnd"].outcomes) if ok_rounds else {}
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
        "environment": environment(args),
        "rounds": len(rounds),
        "round_wall_s": [r["wall_s"] for r in rounds],
        "wall_s": wall_s,
        "phases_s": phases,
        "phase_figures": phase_figures(phases, outcomes),
        "outcomes_per_round": outcomes,
        "check_outcomes": (first or {}).get("check_outcomes", {}),
        "setup_samples_s": setup_samples,
        "problems": problems,
        "errors": [e for r in rounds for e in r["rnd"].errors][:20],
        "absent_spans": tracer.absent if tracer else [],
    }


def phase_figures(phases: dict, outcomes: dict) -> dict:
    """Finer per-phase figures, for the workloads that have the phase."""
    out = {}
    if "plan" in phases:
        out["plan_s"] = phases["plan"]
    if "policy" in phases:
        out["policy_s"] = phases["policy"]
    if "policy_eval" in phases:
        out["policy_eval_s"] = phases["policy_eval"]
    if phases.get("regret"):
        out["regret_per_s"] = outcomes.get("regret_records", 0) / phases["regret"]
    if phases.get("mc"):
        out["mc_plans_per_s"] = outcomes.get("mc_plans", 0) / phases["mc"]
    return out


def layer_metrics(setup_stats, ok_rounds, first) -> dict:
    """Set-up spans plus the median round's spans, per traced function."""
    import spans

    metrics = {}
    for span in spans.span_names():
        s0 = setup_stats[span]
        for field in ("calls", "self_s", "failed", "wait_s"):
            name = f"{span}.{field}"
            if name not in spans.metric_names():
                continue
            per_round = [getattr(r["stats"][span], field) for r in ok_rounds] or [0]
            mid = statistics.median_low if field in ("calls", "failed") else statistics.median
            metrics[name] = getattr(s0, field) + mid(per_round)
    metrics["workers.cpu_s"] = statistics.median([r["workers_cpu_s"] for r in ok_rounds] or [0])
    metrics["capopt.gradient_evaluations"] = (first or {}).get("gradient_evaluations", 0)
    metrics["capopt.iterations"] = (first or {}).get("iterations", 0)
    metrics["evaluation.cache.files"] = statistics.median_low(
        [r["cache_files"] for r in ok_rounds] or [0]
    )
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["saa-plan", "network-policy", "reference-study"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "tiny"], default="full",
                   help="tiny: a seconds-long run for the benchmark's own tests")
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.probe_setup:
        return probe_setup(args)
    if not os.path.isfile(os.path.join(SRC, "drayage", "__init__.py")):
        print(f"error: no drayage package under {SRC}", file=sys.stderr)
        return 2

    work = os.path.join(BENCH, ".work", f"run-{os.getpid()}")
    os.makedirs(work)
    try:
        result = run(args, work)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(BENCH, ".work"))
        except OSError:
            pass  # another run still works there
    results = os.path.join(BENCH, "results")
    os.makedirs(results, exist_ok=True)
    tag = "" if args.size == "full" else f"-{args.size}"
    path = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}{tag}.json")
    with open(path, "w") as f:
        json.dump(result, f, indent=2, sort_keys=True)
        f.write("\n")
    line = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
