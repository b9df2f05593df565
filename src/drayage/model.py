"""Domain types, instance schema validation, and synthetic instance generation.

An Instance bundles the network, the contracted and spot sources, bounds on
stocks and per-period moves, holding/terminal cost rates, discrete marginal
distributions for inflows, outflows and spot rates, the horizon, and the
initial stock state. Instances are immutable after construction and are
serialized to/from a single JSON document (schema documented in the README).

Location ids are 1-based. Lanes are (entry, exit) pairs. Time is 1-based
everywhere: period t runs 1..horizon, and per-period vectors are stored as
tuples of length horizon indexed t-1.
"""

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

Lane = Tuple[int, int]

STRATEGIC = "strategic"
SPOT = "spot"


@dataclass(frozen=True)
class Network:
    entries: Tuple[int, ...]
    exits: Tuple[int, ...]
    lanes: Tuple[Lane, ...]


@dataclass(frozen=True)
class Source:
    id: int
    kind: str  # "strategic" | "spot"
    lanes: Tuple[Lane, ...]
    # Strategic: {lane: per-period rates, length horizon}. Spot: None (rates
    # come from the realization drawn per period).
    execution_cost: Optional[Dict[Lane, Tuple[float, ...]]]
    reservation_rate: Tuple[float, ...]  # per period, zero for spot


@dataclass(frozen=True)
class Bounds:
    entry_max: Dict[int, int]
    exit_max: Dict[int, int]
    exit_backorder_max: Dict[int, int]
    action_max: int


@dataclass(frozen=True)
class CostSpec:
    entry_holding: Dict[int, float]
    exit_holding: Dict[int, float]
    exit_backorder: Dict[int, float]
    # Order: entry stocks, exit positive parts, exit negative parts.
    terminal_slopes: Tuple[float, ...]


@dataclass(frozen=True)
class UncertaintySpec:
    inflow_dist: Dict[int, Dict[int, float]]
    outflow_dist: Dict[int, Dict[int, float]]
    # One marginal per spot source, drawn independently on each of its lanes.
    spot_rate_dist: Dict[int, Dict[float, float]]


@dataclass(frozen=True)
class SystemState:
    entry_stock: Dict[int, int]
    exit_stock: Dict[int, int]


@dataclass(frozen=True)
class ExogenousRealization:
    inflow: Dict[int, int]
    outflow: Dict[int, int]
    spot_rates: Dict[int, Dict[Lane, float]]  # per spot source, per lane
    probability: float = 1.0


@dataclass(frozen=True)
class Scenario:
    realizations: Tuple[ExogenousRealization, ...]
    probability: float = 1.0


@dataclass(frozen=True)
class CapacityPlan:
    capacity: Dict[int, Tuple[float, ...]]  # source id -> per-period TEU

    def as_array(self, source_ids: List[int]) -> np.ndarray:
        return np.array([self.capacity[k] for k in source_ids], dtype=float)


@dataclass(frozen=True)
class Instance:
    network: Network
    sources: Tuple[Source, ...]
    bounds: Bounds
    costs: CostSpec
    uncertainty: UncertaintySpec
    horizon: int
    initial_state: SystemState

    @property
    def spot_sources(self) -> Tuple[Source, ...]:
        return tuple(s for s in self.sources if s.kind == SPOT)


# ---------------------------------------------------------------------------
# Validation


def _check_dist(dist: Dict, label: str, violations: List[str]) -> None:
    if not dist:
        violations.append(f"{label}: empty support")
        return
    total = 0.0
    for v, p in dist.items():
        if float(v) < 0:
            violations.append(f"{label}: support value {v} is negative")
        if p < 0:
            violations.append(f"{label}: probability {p} is negative")
        total += p
    if abs(total - 1.0) > 1e-12:
        violations.append(f"{label}: probabilities sum to {total!r}, expected 1")


def validate_instance(instance: Instance) -> List[str]:
    """Return violation messages (empty list iff every invariant holds)."""
    v: List[str] = []
    net = instance.network
    tau = instance.horizon

    if tau < 1:
        v.append(f"horizon: must be >= 1, got {tau}")

    entry_set, exit_set = set(net.entries), set(net.exits)
    if entry_set & exit_set:
        v.append(f"network: entries and exits share ids {sorted(entry_set & exit_set)}")
    if len(set(net.lanes)) != len(net.lanes):
        v.append("network.lanes: duplicate lanes")
    for (i, j) in net.lanes:
        if i not in entry_set:
            v.append(f"network.lanes: lane ({i},{j}) references undeclared entry {i}")
        if j not in exit_set:
            v.append(f"network.lanes: lane ({i},{j}) references undeclared exit {j}")

    covered = set()
    seen_ids = set()
    for s in instance.sources:
        tag = f"sources[{s.id}]"
        if s.id in seen_ids:
            v.append(f"{tag}: duplicate source id")
        seen_ids.add(s.id)
        if s.kind not in (STRATEGIC, SPOT):
            v.append(f"{tag}.kind: {s.kind!r} is not strategic|spot")
        for lane in s.lanes:
            if lane not in net.lanes:
                v.append(f"{tag}.lanes: {lane} not a network lane")
        covered.update(s.lanes)
        if len(s.reservation_rate) != tau:
            v.append(f"{tag}.reservation_rate: length {len(s.reservation_rate)} != horizon {tau}")
        if any(r < 0 for r in s.reservation_rate):
            v.append(f"{tag}.reservation_rate: negative rate")
        if s.kind == SPOT:
            if any(r != 0.0 for r in s.reservation_rate):
                v.append(f"{tag}.reservation_rate: spot sources are zero-premium options, must be 0")
            if s.id not in instance.uncertainty.spot_rate_dist:
                v.append(f"{tag}: spot source lacks a rate distribution")
        else:
            if s.execution_cost is None:
                v.append(f"{tag}.execution_cost: strategic source needs fixed rates")
            else:
                for lane in s.lanes:
                    rates = s.execution_cost.get(lane)
                    if rates is None:
                        v.append(f"{tag}.execution_cost: missing lane {lane}")
                    elif len(rates) != tau:
                        v.append(f"{tag}.execution_cost[{lane}]: length {len(rates)} != horizon {tau}")
                    elif any(r < 0 for r in rates):
                        v.append(f"{tag}.execution_cost[{lane}]: negative rate")
    missing = set(net.lanes) - covered
    if missing:
        v.append(f"sources: lanes {sorted(missing)} served by no source")

    b = instance.bounds
    for name, mapping, keys in (
        ("entry_max", b.entry_max, net.entries),
        ("exit_max", b.exit_max, net.exits),
        ("exit_backorder_max", b.exit_backorder_max, net.exits),
    ):
        for k in keys:
            val = mapping.get(k)
            if val is None:
                v.append(f"bounds.{name}: missing location {k}")
            elif val < 0 or int(val) != val:
                v.append(f"bounds.{name}[{k}]: must be a nonnegative integer, got {val}")
    if b.action_max < 0 or int(b.action_max) != b.action_max:
        v.append(f"bounds.action_max: must be a nonnegative integer, got {b.action_max}")

    c = instance.costs
    for name, mapping, keys in (
        ("entry_holding", c.entry_holding, net.entries),
        ("exit_holding", c.exit_holding, net.exits),
        ("exit_backorder", c.exit_backorder, net.exits),
    ):
        for k in keys:
            val = mapping.get(k)
            if val is None:
                v.append(f"costs.{name}: missing location {k}")
            elif val < 0:
                v.append(f"costs.{name}[{k}]: negative rate {val}")
    want = len(net.entries) + 2 * len(net.exits)
    if len(c.terminal_slopes) != want:
        v.append(f"costs.terminal_slopes: length {len(c.terminal_slopes)} != |I|+2|J| = {want}")
    if any(a < 0 for a in c.terminal_slopes):
        v.append("costs.terminal_slopes: negative slope")

    u = instance.uncertainty
    for i in net.entries:
        if i not in u.inflow_dist:
            v.append(f"uncertainty.inflow: missing entry {i}")
        else:
            _check_dist(u.inflow_dist[i], f"uncertainty.inflow[{i}]", v)
    for j in net.exits:
        if j not in u.outflow_dist:
            v.append(f"uncertainty.outflow: missing exit {j}")
        else:
            _check_dist(u.outflow_dist[j], f"uncertainty.outflow[{j}]", v)
    for sid, dist in u.spot_rate_dist.items():
        _check_dist(dist, f"uncertainty.spot_rates[{sid}]", v)

    st = instance.initial_state
    for i in net.entries:
        s0 = st.entry_stock.get(i)
        if s0 is None:
            v.append(f"initial_state.entry: missing entry {i}")
        elif not (0 <= s0 <= b.entry_max.get(i, 0)):
            v.append(f"initial_state.entry[{i}]: {s0} outside [0, {b.entry_max.get(i)}]")
    for j in net.exits:
        s0 = st.exit_stock.get(j)
        if s0 is None:
            v.append(f"initial_state.exit: missing exit {j}")
        elif not (-b.exit_backorder_max.get(j, 0) <= s0 <= b.exit_max.get(j, 0)):
            v.append(
                f"initial_state.exit[{j}]: {s0} outside "
                f"[-{b.exit_backorder_max.get(j)}, {b.exit_max.get(j)}]"
            )
    return v


# ---------------------------------------------------------------------------
# Cardinalities


def state_space_size(instance: Instance) -> int:
    """prod_i (entry_max_i + 1) * prod_j (backorder_max_j + exit_max_j + 1).

    Exact integer arithmetic; Python ints do not overflow.
    """
    n = 1
    for i in instance.network.entries:
        n *= instance.bounds.entry_max[i] + 1
    for j in instance.network.exits:
        n *= instance.bounds.exit_backorder_max[j] + instance.bounds.exit_max[j] + 1
    return n


def exogenous_support_size(instance: Instance) -> int:
    """Per-period support size |Z| = prod |Q_i| * prod |D_j| * prod_k |W_k|^|L(k)|."""
    n = 1
    u = instance.uncertainty
    for i in instance.network.entries:
        n *= len(u.inflow_dist[i])
    for j in instance.network.exits:
        n *= len(u.outflow_dist[j])
    for s in instance.spot_sources:
        n *= len(u.spot_rate_dist[s.id]) ** len(s.lanes)
    return n


# ---------------------------------------------------------------------------
# Synthetic generation


def _truncated_normal(rng: np.random.Generator, mean: float, sd: float, lo: float) -> float:
    # Rejection sampling; exact at desk scale. A floor that 10,000 draws miss
    # (say sd 0 with the mean below it) is an input error, not a long wait.
    for _ in range(10_000):
        x = rng.normal(mean, sd)
        if x >= lo:
            return float(x)
    raise ValueError(f"no normal draw with mean {mean} and sd {sd} reached the floor {lo}; "
                     "raise cost_mean or cost_sd, or lower cost_min")


def generate_instance(seed: int, shape: Dict) -> Instance:
    """Synthetic instance, a pure function of (seed, shape).

    shape keys: n_entries, n_exits, n_bids, n_carriers, n_spot, horizon,
    cost_mean, cost_sd, cost_min, capacity_levels. Lanes are the full I x J
    product; each bid is a random nonempty lane subset with a random winning
    carrier, and each (bid, winner) pair becomes one strategic source.
    Without spot sources the last bid also takes every lane no earlier bid
    drew, so every lane is served. capacity_levels fixes all stock bounds
    and action_max, so capacity plans live on the grid {0..capacity_levels}
    per source-period. A shape that admits no valid instance raises
    ValueError naming the key.
    """
    n_entries = int(shape["n_entries"])
    n_exits = int(shape["n_exits"])
    n_bids = int(shape["n_bids"])
    n_spot = int(shape["n_spot"])
    horizon = int(shape["horizon"])
    cost_mean = float(shape["cost_mean"])
    cost_sd = float(shape["cost_sd"])
    cost_min = float(shape["cost_min"])
    levels = int(shape["capacity_levels"])
    n_carriers = int(shape.get("n_carriers", max(n_bids, 1)))
    if n_entries < 1 or n_exits < 1:
        raise ValueError("shape with zero lanes: need n_entries >= 1 and n_exits >= 1")
    for key, val, lo in (("horizon", horizon, 1), ("n_bids", n_bids, 0), ("n_spot", n_spot, 0),
                         ("n_carriers", n_carriers, 1), ("capacity_levels", levels, 0),
                         ("cost_sd", cost_sd, 0), ("cost_min", cost_min, 0)):
        if not val >= lo:
            raise ValueError(f"shape {key} is {val}; need {key} >= {lo}")
    if n_bids + n_spot < 1:
        raise ValueError("shape has no source: need n_bids + n_spot >= 1")
    if not cost_min < cost_mean:
        raise ValueError("need cost_min < cost_mean")

    rng = np.random.Generator(np.random.Philox(seed))
    entries = tuple(range(1, n_entries + 1))
    exits = tuple(range(n_entries + 1, n_entries + n_exits + 1))
    lanes = tuple((i, j) for i in entries for j in exits)

    sources: List[Source] = []
    sid = 0
    covered = set()
    for _ in range(n_bids):
        sid += 1
        k = int(rng.integers(1, len(lanes) + 1))
        pick = rng.choice(len(lanes), size=k, replace=False)
        drawn = {lanes[int(p)] for p in pick}
        if n_spot == 0 and sid == n_bids:
            drawn |= set(lanes) - covered
        covered |= drawn
        bid_lanes = tuple(sorted(drawn))
        rng.integers(0, n_carriers)  # winner draw; identity folded into the source id
        cost = {
            lane: tuple([_truncated_normal(rng, cost_mean, cost_sd, cost_min)] * horizon)
            for lane in bid_lanes
        }
        vres = tuple(
            round(_truncated_normal(rng, cost_mean / 2.0, cost_sd / 2.0, 0.0), 2)
            for _ in range(horizon)
        )
        sources.append(Source(sid, STRATEGIC, bid_lanes, cost, vres))
    spot_dists: Dict[int, Dict[float, float]] = {}
    for _ in range(n_spot):
        sid += 1
        lo = round(_truncated_normal(rng, cost_mean * 0.6, cost_sd, cost_min), 1)
        hi = round(lo + abs(rng.normal(cost_mean, cost_sd)), 1)
        p_lo = round(float(rng.uniform(0.2, 0.8)), 2)
        # hi can round onto lo; the draws above are kept either way
        spot_dists[sid] = (
            {lo: 1.0} if hi == lo else {lo: p_lo, hi: round(1.0 - p_lo, 2)}
        )
        sources.append(Source(sid, SPOT, lanes, None, tuple([0.0] * horizon)))

    def _levels_dist(rng: np.random.Generator) -> Dict[int, float]:
        support = sorted({int(x) for x in rng.integers(0, levels + 1, size=3)})
        raw = rng.uniform(0.1, 1.0, size=len(support))
        p = raw / raw.sum()
        d = {s: round(float(q), 6) for s, q in zip(support, p)}
        # Push rounding residue onto the last point so the weights sum to 1.
        others = sum(q for s, q in d.items() if s != support[-1])
        d[support[-1]] = 1.0 - others
        return d

    inflow = {i: _levels_dist(rng) for i in entries}
    outflow = {j: _levels_dist(rng) for j in exits}

    bounds = Bounds(
        entry_max={i: levels for i in entries},
        exit_max={j: levels for j in exits},
        exit_backorder_max={j: levels for j in exits},
        action_max=levels,
    )
    hold_e = {i: round(float(rng.uniform(5, 20)), 1) for i in entries}
    hold_x = {j: round(float(rng.uniform(5, 20)), 1) for j in exits}
    back_x = {j: round(hold_x[j] * 2.0, 1) for j in exits}
    slopes = (
        tuple(hold_e[i] for i in entries)
        + tuple(hold_x[j] for j in exits)
        + tuple(back_x[j] for j in exits)
    )
    costs = CostSpec(hold_e, hold_x, back_x, slopes)
    uncertainty = UncertaintySpec(inflow, outflow, spot_dists)
    state = SystemState(
        entry_stock={i: 0 for i in entries},
        exit_stock={j: int(rng.integers(0, levels + 1)) for j in exits},
    )
    return Instance(
        network=Network(entries, exits, lanes),
        sources=tuple(sources),
        bounds=bounds,
        costs=costs,
        uncertainty=uncertainty,
        horizon=horizon,
        initial_state=state,
    )


def generate_default_plan(seed: int, instance: Instance) -> CapacityPlan:
    """Companion plan: strategic capacities on a mid range, spot at action_max.

    Spot capacities exceed strategic ones deterministically.
    """
    rng = np.random.Generator(np.random.Philox(seed + 0x9E3779B9))
    amax = instance.bounds.action_max
    cap: Dict[int, Tuple[float, ...]] = {}
    for s in instance.sources:
        if s.kind == SPOT:
            cap[s.id] = tuple([float(amax)] * instance.horizon)
        else:
            hi = max(amax // 2, 1)
            cap[s.id] = tuple(float(rng.integers(0, hi + 1)) for _ in range(instance.horizon))
    return CapacityPlan(cap)


# ---------------------------------------------------------------------------
# JSON schema


def _rates_list(val, tau: int) -> Tuple[float, ...]:
    if isinstance(val, (int, float)):
        return tuple([float(val)] * tau)
    out = tuple(float(x) for x in val)
    if len(out) != tau:
        raise ValueError(f"per-period list has length {len(out)}, horizon is {tau}")
    return out


def _lane_key(lane: Lane) -> str:
    return f"{lane[0]}-{lane[1]}"


def _parse_lane(key: str) -> Lane:
    a, b = key.split("-")
    return (int(a), int(b))


def instance_to_dict(instance: Instance) -> Dict:
    net = instance.network
    d = {
        "network": {
            "entries": list(net.entries),
            "exits": list(net.exits),
            "lanes": [list(l) for l in net.lanes],
        },
        "sources": [],
        "bounds": {
            "entry_max": {str(k): v for k, v in instance.bounds.entry_max.items()},
            "exit_max": {str(k): v for k, v in instance.bounds.exit_max.items()},
            "exit_backorder_max": {
                str(k): v for k, v in instance.bounds.exit_backorder_max.items()
            },
            "action_max": instance.bounds.action_max,
        },
        "costs": {
            "entry_holding": {str(k): v for k, v in instance.costs.entry_holding.items()},
            "exit_holding": {str(k): v for k, v in instance.costs.exit_holding.items()},
            "exit_backorder": {str(k): v for k, v in instance.costs.exit_backorder.items()},
            "terminal_slopes": list(instance.costs.terminal_slopes),
        },
        "uncertainty": {
            "inflow": {
                str(i): {str(val): p for val, p in dist.items()}
                for i, dist in instance.uncertainty.inflow_dist.items()
            },
            "outflow": {
                str(j): {str(val): p for val, p in dist.items()}
                for j, dist in instance.uncertainty.outflow_dist.items()
            },
            "spot_rates": {
                str(k): {str(val): p for val, p in dist.items()}
                for k, dist in instance.uncertainty.spot_rate_dist.items()
            },
        },
        "horizon": instance.horizon,
        "initial_state": {
            "entry": {str(k): v for k, v in instance.initial_state.entry_stock.items()},
            "exit": {str(k): v for k, v in instance.initial_state.exit_stock.items()},
        },
    }
    for s in instance.sources:
        rec = {
            "id": s.id,
            "kind": s.kind,
            "lanes": [list(l) for l in s.lanes],
            "reservation_rate": list(s.reservation_rate),
        }
        if s.execution_cost is not None:
            rec["execution_cost"] = {
                _lane_key(lane): list(rates) for lane, rates in s.execution_cost.items()
            }
        d["sources"].append(rec)
    return d


def instance_from_dict(d: Dict) -> Instance:
    tau = int(d["horizon"])
    net = Network(
        entries=tuple(int(i) for i in d["network"]["entries"]),
        exits=tuple(int(j) for j in d["network"]["exits"]),
        lanes=tuple((int(a), int(b)) for a, b in d["network"]["lanes"]),
    )
    sources = []
    for rec in d["sources"]:
        kind = rec["kind"]
        lanes = tuple((int(a), int(b)) for a, b in rec["lanes"])
        cost = None
        if kind == STRATEGIC:
            raw = rec["execution_cost"]
            cost = {_parse_lane(k): _rates_list(v, tau) for k, v in raw.items()}
        sources.append(
            Source(
                id=int(rec["id"]),
                kind=kind,
                lanes=lanes,
                execution_cost=cost,
                reservation_rate=_rates_list(rec.get("reservation_rate", 0.0), tau),
            )
        )
    b = d["bounds"]
    bounds = Bounds(
        entry_max={int(k): int(v) for k, v in b["entry_max"].items()},
        exit_max={int(k): int(v) for k, v in b["exit_max"].items()},
        exit_backorder_max={int(k): int(v) for k, v in b["exit_backorder_max"].items()},
        action_max=int(b["action_max"]),
    )
    c = d["costs"]
    costs = CostSpec(
        entry_holding={int(k): float(v) for k, v in c["entry_holding"].items()},
        exit_holding={int(k): float(v) for k, v in c["exit_holding"].items()},
        exit_backorder={int(k): float(v) for k, v in c["exit_backorder"].items()},
        terminal_slopes=tuple(float(x) for x in c["terminal_slopes"]),
    )
    u = d["uncertainty"]
    if "spot_rates_per_lane" in u:
        raise ValueError("uncertainty.spot_rates_per_lane is not supported: every spot lane "
                         "draws from its source's uncertainty.spot_rates marginal")
    uncertainty = UncertaintySpec(
        inflow_dist={
            int(i): {int(val): float(p) for val, p in dist.items()}
            for i, dist in u["inflow"].items()
        },
        outflow_dist={
            int(j): {int(val): float(p) for val, p in dist.items()}
            for j, dist in u["outflow"].items()
        },
        spot_rate_dist={
            int(k): {float(val): float(p) for val, p in dist.items()}
            for k, dist in u["spot_rates"].items()
        },
    )
    st = d["initial_state"]
    state = SystemState(
        entry_stock={int(k): int(v) for k, v in st["entry"].items()},
        exit_stock={int(k): int(v) for k, v in st["exit"].items()},
    )
    return Instance(net, tuple(sources), bounds, costs, uncertainty, tau, state)


def write_json(path: str, doc) -> None:
    """Write doc as JSON: indent 2, sorted keys, trailing newline."""
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def save_instance(instance: Instance, path: str) -> None:
    write_json(path, instance_to_dict(instance))


def load_instance(path: str) -> Instance:
    with open(path) as f:
        return instance_from_dict(json.load(f))


# ---------------------------------------------------------------------------
# Capacity plan serialization (plan.json)


def plan_to_dict(plan: CapacityPlan) -> Dict:
    return {"capacity": {str(k): list(v) for k, v in plan.capacity.items()}}


def plan_from_dict(d: Dict) -> CapacityPlan:
    return CapacityPlan({int(k): tuple(float(x) for x in v) for k, v in d["capacity"].items()})


def save_plan(plan: CapacityPlan, path: str) -> None:
    write_json(path, plan_to_dict(plan))


def load_plan(path: str) -> CapacityPlan:
    with open(path) as f:
        return plan_from_dict(json.load(f))
