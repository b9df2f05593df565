"""Regret profiles, generalization diagnostics, and summary statistics.

The per-scenario optimum is computed exactly by folding reservation rates
into the execution rates of a free-initial-state LP over the capacity box:
with nonnegative rates, the optimal reservation equals the per-period usage,
so the joint (capacity, operations) minimum collapses to one LP. This keeps
the dominance property regret >= 0 exact up to LP tolerance, which a
finite-difference quasi-Newton search cannot guarantee on a piecewise-linear
landscape. The quasi-Newton route remains available via config method
"lbfgsb" for cross-checking.

Per-scenario optima are cached on disk (env DRAYAGE_CACHE_DIR, defaulting to
~/.cache/drayage) keyed by instance, scenario, and config hashes.
"""

import hashlib
import json
import math
import os
import tempfile
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .capopt import (
    OptConfig,
    _caps_to_plan,
    _plan_to_caps,
    optimize_capacity,
    reservation_cost,
    scenario_objective,
)
from .model import CapacityPlan, Instance, Scenario, instance_to_dict
from .mslp import InfeasibleLP, build_mslp, solve_mslp
from .scenario import realization_key

REGRET_TOL = 1e-4


@dataclass(frozen=True)
class RegretRecord:
    scenario_id: int
    optimal_objective: float
    achieved_objective: float
    regret: float


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """min/q1/median/mean/q3/max with linear-interpolation quantiles."""
    if len(values) == 0:
        raise ValueError("cannot summarize an empty list")
    arr = np.asarray(values, dtype=float)
    q1, med, q3 = np.quantile(arr, [0.25, 0.5, 0.75], method="linear")
    return {
        "min": float(arr.min()),
        "q1": float(q1),
        "median": float(med),
        "mean": float(arr.mean()),
        "q3": float(q3),
        "max": float(arr.max()),
    }


# ---------------------------------------------------------------------------
# Disk cache


def _cache_dir() -> str:
    root = os.environ.get("DRAYAGE_CACHE_DIR")
    if not root:
        root = os.path.join(os.path.expanduser("~"), ".cache", "drayage")
    os.makedirs(root, exist_ok=True)
    return root


def _instance_hash(instance: Instance) -> str:
    doc = json.dumps(instance_to_dict(instance), sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()[:16]


def _scenario_hash(scenario: Scenario, instance: Instance) -> str:
    keys = tuple(realization_key(z, instance) for z in scenario.realizations)
    return hashlib.sha256(repr(keys).encode()).hexdigest()[:16]


def _config_hash(config: Dict) -> str:
    doc = json.dumps(config, sort_keys=True, default=repr)
    return hashlib.sha256(doc.encode()).hexdigest()[:16]


def _cache_get(key: str) -> Optional[Dict]:
    path = os.path.join(_cache_dir(), key + ".json")
    if not os.path.exists(path):
        return None
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def _cache_put(key: str, doc: Dict) -> None:
    # a private temporary file per writer, so concurrent writers of one key
    # never share (and truncate or rename away) each other's file
    root = _cache_dir()
    fd, tmp = tempfile.mkstemp(prefix=key + ".", suffix=".tmp", dir=root)
    try:
        with os.fdopen(fd, "w") as f:
            json.dump(doc, f, sort_keys=True)
        os.replace(tmp, os.path.join(root, key + ".json"))
    except BaseException:
        os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# Per-scenario optimum


def _normalize_config(config: Optional[Dict]) -> Dict:
    cfg = {"method": "exact", "box": None}
    if config:
        cfg.update(config)
    return cfg


def _box_plan(instance: Instance, box) -> CapacityPlan:
    if box is None:
        caps = np.full(
            (len(instance.sources), instance.horizon),
            float(instance.bounds.action_max),
        )
    else:
        caps = np.asarray(box, dtype=float)
    return _caps_to_plan(instance, caps)


def _exact_optimum(
    instance: Instance, scenario: Scenario, box
) -> Tuple[CapacityPlan, float]:
    rates = {
        (s.id, t): float(s.reservation_rate[t - 1])
        for s in instance.sources
        for t in range(1, instance.horizon + 1)
    }
    lp = build_mslp(
        instance,
        scenario,
        _box_plan(instance, box),
        initial="free",
        extra_move_cost=rates,
    )
    sol = solve_mslp(lp)
    capacity = {}
    for s in instance.sources:
        per_t = []
        for t in range(1, instance.horizon + 1):
            used = sum(
                v for (sid, lane, tt), v in sol.moves.items() if sid == s.id and tt == t
            )
            per_t.append(float(used))
        capacity[s.id] = tuple(per_t)
    return CapacityPlan(capacity=capacity), -sol.cost


def per_scenario_optimum(
    instance: Instance, scenario: Scenario, config: Optional[Dict] = None
) -> Tuple[CapacityPlan, float]:
    """Best capacity plan and objective for one scenario (cached on disk)."""
    cfg = _normalize_config(config)
    key = "psopt-" + "-".join(
        (
            _instance_hash(instance),
            _scenario_hash(scenario, instance),
            _config_hash(cfg),
        )
    )
    hit = _cache_get(key)
    if hit is not None:
        plan = CapacityPlan(
            capacity={int(k): tuple(v) for k, v in hit["capacity"].items()}
        )
        return plan, float(hit["objective"])

    if cfg["method"] == "exact":
        try:
            plan, obj_value = _exact_optimum(instance, scenario, cfg.get("box"))
        except InfeasibleLP:
            # No plan can operate this scenario (caps at the action bound are
            # the loosest the flow rows ever get), so the optimum is -inf.
            plan, obj_value = _box_plan(instance, cfg.get("box")), -math.inf
    elif cfg["method"] == "lbfgsb":
        objective = scenario_objective(
            instance, scenario, threads=cfg.get("threads", 1)
        )
        if cfg.get("box") is not None:
            objective.box_upper = np.asarray(cfg["box"], dtype=float)
        opt_kwargs = {
            k: cfg[k]
            for k in ("fd_step", "tolerance", "max_iter", "restarts", "seed")
            if k in cfg
        }
        start = _box_plan(instance, cfg.get("box"))
        result = optimize_capacity(objective, start, OptConfig(**opt_kwargs))
        plan, obj_value = result.best_plan, result.best_objective
        # Penalty values signal an everywhere-infeasible scenario.
        if objective.value_of_caps(_plan_to_caps(instance, plan)) is None:
            plan, obj_value = _box_plan(instance, cfg.get("box")), -math.inf
        objective.close()
    else:
        raise ValueError(f"unknown method {cfg['method']!r}")

    _cache_put(
        key,
        {
            "capacity": {str(k): list(v) for k, v in plan.capacity.items()},
            "objective": obj_value,
        },
    )
    return plan, obj_value


# ---------------------------------------------------------------------------
# Regret


def _achieved_objective(
    instance: Instance, scenario: Scenario, plan: CapacityPlan
) -> float:
    rates = {s.id: tuple(s.reservation_rate) for s in instance.sources}
    try:
        cost = solve_mslp(build_mslp(instance, scenario, plan, initial="free")).cost
    except InfeasibleLP:
        return -math.inf
    return -(cost + reservation_cost(plan, rates))


def regret_profile(
    instance: Instance,
    shared_plan: CapacityPlan,
    scenarios: Sequence[Scenario],
    config: Optional[Dict] = None,
) -> List[RegretRecord]:
    """One record per scenario: per-scenario optimum minus shared-plan value.

    A scenario the shared plan cannot operate gets achieved = -inf and
    regret = +inf; downstream reports skip non-finite regrets.
    """
    records = []
    for sid, sc in enumerate(scenarios):
        _, opt_value = per_scenario_optimum(instance, sc, config)
        achieved = _achieved_objective(instance, sc, shared_plan)
        records.append(
            RegretRecord(
                scenario_id=sid,
                optimal_objective=opt_value,
                achieved_objective=achieved,
                regret=opt_value - achieved,
            )
        )
    return records


def _ranks(values: np.ndarray) -> np.ndarray:
    # average ranks for ties
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(len(values))
    sorted_vals = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def _spearman(a: np.ndarray, b: np.ndarray) -> float:
    ra, rb = _ranks(a), _ranks(b)
    sa, sb = ra.std(), rb.std()
    if sa == 0.0 or sb == 0.0:
        return 1.0 if np.array_equal(ra, rb) else 0.0
    return float(np.corrcoef(ra, rb)[0, 1])


def generalization_report(
    in_sample: Sequence[RegretRecord],
    out_sample: Sequence[RegretRecord],
    path: Optional[str] = None,
) -> Dict:
    """Matched-quantile (Q-Q) comparison of in- vs out-of-sample regret."""
    if not in_sample or not out_sample:
        raise ValueError("both record lists must be nonempty")
    r_in = np.array([r.regret for r in in_sample])
    r_out = np.array([r.regret for r in out_sample])
    skipped = int((~np.isfinite(r_in)).sum() + (~np.isfinite(r_out)).sum())
    r_in = r_in[np.isfinite(r_in)]
    r_out = r_out[np.isfinite(r_out)]
    if r_in.size == 0 or r_out.size == 0:
        raise ValueError("no finite regrets to compare")
    levels = np.linspace(0.0, 1.0, 101)
    q_in = np.quantile(r_in, levels, method="linear")
    q_out = np.quantile(r_out, levels, method="linear")
    pairs = list(zip(q_in.tolist(), q_out.tolist()))
    deviation = float(np.median(np.abs(q_in - q_out)))
    report = {
        "quantile_pairs": pairs,
        "spearman": _spearman(q_in, q_out),
        "median_abs_diagonal_deviation": deviation,
        "skipped_nonfinite": skipped,
    }
    if path:
        with open(path, "w") as f:
            f.write("percentile,in_sample,out_sample\n")
            for lv, (qi, qo) in zip(levels, pairs):
                f.write(f"{float(lv)!r},{float(qi)!r},{float(qo)!r}\n")
    return report


def regret_to_csv(
    records: Sequence[Tuple[str, RegretRecord]], path: str
) -> None:
    """Rows of (sample label, record) -> regret.csv."""
    with open(path, "w") as f:
        f.write("scenario_id,optimal,achieved,regret,sample\n")
        for label, r in records:
            f.write(
                f"{r.scenario_id},{float(r.optimal_objective)!r},"
                f"{float(r.achieved_objective)!r},{float(r.regret)!r},{label}\n"
            )


def summary_to_csv(stats: Dict[str, Dict[str, float]], path: str) -> None:
    """Nested {group: {stat: value}} -> summary.csv rows."""
    with open(path, "w") as f:
        f.write("group,stat,value\n")
        for group in sorted(stats):
            for stat, value in stats[group].items():
                f.write(f"{group},{stat},{value!r}\n")
