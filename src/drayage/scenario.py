"""Enumeration, sampling, and weighting of exogenous realizations.

Stagewise independence holds throughout: the same per-period marginals apply
at every period, and scenario probabilities are products of the per-component
marginals. Sampling uses numpy's Philox generator, a seedable counter-based
64-bit generator with a documented algorithm, so sample sets reproduce across
platforms and runs.
"""

import itertools
import json
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .model import (
    ExogenousRealization,
    Instance,
    Lane,
    Scenario,
    _lane_key,
    _parse_lane,
    exogenous_support_size,
    write_json,
)

SUPPORT_CAP = 10**6


class SupportTooLarge(Exception):
    pass


def _components(instance: Instance) -> List[Tuple[str, object, List, List[float]]]:
    """Ordered component list: (kind, key, values, probabilities)."""
    comps = []
    u = instance.uncertainty
    for i in instance.network.entries:
        vals = sorted(u.inflow_dist[i])
        comps.append(("q", i, vals, [u.inflow_dist[i][v] for v in vals]))
    for j in instance.network.exits:
        vals = sorted(u.outflow_dist[j])
        comps.append(("d", j, vals, [u.outflow_dist[j][v] for v in vals]))
    for s in instance.spot_sources:
        dist = u.spot_rate_dist[s.id]
        vals = sorted(dist)
        for lane in s.lanes:
            comps.append(("w", (s.id, lane), vals, [dist[v] for v in vals]))
    return comps


def _assemble(comps, drawn) -> ExogenousRealization:
    """The realization of one (value, probability) pair per component.

    Its probability is the product of the pairs' probabilities, taken in
    component order as realization_probability takes it.
    """
    inflow: Dict[int, int] = {}
    outflow: Dict[int, int] = {}
    rates: Dict[int, Dict[Lane, float]] = {}
    probability = 1.0
    for (kind, key, _, _), (v, p) in zip(comps, drawn):
        probability *= p
        if kind == "q":
            inflow[key] = v
        elif kind == "d":
            outflow[key] = v
        else:
            sid, lane = key
            rates.setdefault(sid, {})[lane] = v
    return ExogenousRealization(inflow, outflow, rates, probability)


def enumerate_support(instance: Instance) -> List[Tuple[ExogenousRealization, float]]:
    """Full per-period support as (realization, probability) pairs.

    Probabilities are products of the component marginals and sum to 1.
    Raises SupportTooLarge when the product of support sizes exceeds
    SUPPORT_CAP.
    """
    size = exogenous_support_size(instance)
    if size > SUPPORT_CAP:
        raise SupportTooLarge(f"support size {size} exceeds cap {SUPPORT_CAP}")
    comps = _components(instance)
    out = []
    for combo in itertools.product(*[list(zip(c[2], c[3])) for c in comps]):
        z = _assemble(comps, combo)
        out.append((z, z.probability))
    return out


def realization_probability(z: ExogenousRealization, instance: Instance) -> float:
    """Product of component marginals; zero for out-of-support values."""
    p = 1.0
    u = instance.uncertainty
    for i in instance.network.entries:
        p *= u.inflow_dist[i].get(z.inflow[i], 0.0)
    for j in instance.network.exits:
        p *= u.outflow_dist[j].get(z.outflow[j], 0.0)
    for s in instance.spot_sources:
        for lane in s.lanes:
            p *= u.spot_rate_dist[s.id].get(z.spot_rates[s.id][lane], 0.0)
    return p


def realization_key(z: ExogenousRealization, instance: Instance) -> Tuple:
    """Hashable identity of a realization (for deduplication and caching)."""
    return (
        tuple(z.inflow[i] for i in instance.network.entries),
        tuple(z.outflow[j] for j in instance.network.exits),
        tuple(
            z.spot_rates[s.id][lane] for s in instance.spot_sources for lane in s.lanes
        ),
    )


def scenario_probability(scenario: Scenario, instance: Instance) -> float:
    """Product over periods of the per-period realization probabilities."""
    p = 1.0
    for z in scenario.realizations:
        p *= realization_probability(z, instance)
    return p


def _draw_periods(
    instance: Instance, count: int, rng: np.random.Generator
) -> List[List[ExogenousRealization]]:
    """count i.i.d. realizations per period, each with its model probability.

    Per period, every component draws its count values in turn; the RNG call
    order is part of every seeded sample.
    """
    comps = _components(instance)
    per_period = []
    for _ in range(instance.horizon):
        cols = []
        for _, _, vals, probs in comps:
            idx = rng.choice(len(vals), size=count, p=np.asarray(probs) / sum(probs))
            cols.append([(vals[k], probs[k]) for k in idx])
        per_period.append([_assemble(comps, drawn) for drawn in zip(*cols)])
    return per_period


def sample_scenarios(instance: Instance, count: int, seed: int) -> List[Scenario]:
    """count i.i.d. scenarios of length horizon; deterministic given seed."""
    per_period = _draw_periods(instance, count, np.random.Generator(np.random.Philox(seed)))
    out = []
    for n in range(count):
        reals = tuple(zs[n] for zs in per_period)
        p = 1.0
        for z in reals:
            p *= z.probability
        out.append(Scenario(reals, p))
    return out


@dataclass(frozen=True)
class SampleSet:
    """Per-period draws with normalized weights (SAA input).

    mode "iid": N draws per period from the exogenous marginals, each
    carrying empirical weight 1/N. Duplicates keep separate entries, so a
    value drawn k times contributes k/N of the Bellman sum and the weighted
    operator is the standard sample-average estimate of the expectation.
    (Re-weighting draws by their model probability and normalizing looks
    harmless but squares the density: the folded weight of value z tends to
    p(z)^2 / sum p^2, a biased operator that never converges to the exact
    one. Weights here are the empirical measure precisely so that N -> inf
    recovers the enumerate mode answer.)
    mode "enumerate": the full support with exact probabilities as weights,
    which turns the approximate Bellman operator into the exact one.
    """

    realizations: Tuple[Tuple[ExogenousRealization, ...], ...]  # [period][sample]
    weights: Tuple[Tuple[float, ...], ...]
    seed: int
    mode: str
    _distinct: Dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def periods(self) -> int:
        return len(self.realizations)

    def distinct(self, instance: Instance) -> List[Tuple[Tuple[ExogenousRealization, float], ...]]:
        """Per period, the distinct draws (by realization_key under instance)
        in order of first appearance, each with its draws' weights summed in
        draw order: duplicates fold into multiplicity weights, with identical
        Bellman sums. Kept per key layout (the instance's locations and spot
        lanes), so each layout is folded once."""
        layout = (
            instance.network.entries,
            instance.network.exits,
            tuple((s.id, s.lanes) for s in instance.spot_sources),
        )
        folded = self._distinct.get(layout)
        if folded is None:
            folded = self._distinct[layout] = [
                _fold(zs, ws, instance) for zs, ws in zip(self.realizations, self.weights)
            ]
        return folded


def _fold(draws, weights, instance: Instance) -> Tuple[Tuple[ExogenousRealization, float], ...]:
    merged: Dict[Tuple, List] = {}
    for z, w in zip(draws, weights):
        entry = merged.setdefault(realization_key(z, instance), [z, 0.0])
        entry[1] += w
    return tuple((z, w) for z, w in merged.values())


def build_sample_set(
    instance: Instance, per_period_count: int, seed: int, mode: str = "iid"
) -> SampleSet:
    if mode not in ("iid", "enumerate"):
        raise ValueError(f"unknown sample mode {mode!r}, expected 'iid' or 'enumerate'")
    if mode == "enumerate":
        support = enumerate_support(instance)
        reals = tuple(z for z, _ in support)
        probs = tuple(p for _, p in support)
        return SampleSet(
            realizations=tuple([reals] * instance.horizon),
            weights=tuple([probs] * instance.horizon),
            seed=seed,
            mode=mode,
        )
    if per_period_count < 1:
        raise ValueError("need at least one sample per period")
    per_period = _draw_periods(
        instance, per_period_count, np.random.Generator(np.random.Philox(seed))
    )
    weights = tuple([1.0 / per_period_count] * per_period_count)
    return SampleSet(
        tuple(tuple(zs) for zs in per_period), (weights,) * instance.horizon, seed, mode
    )


# ---------------------------------------------------------------------------
# scenarios.json


def _realization_to_dict(z: ExogenousRealization) -> Dict:
    return {
        "inflow": {str(k): v for k, v in z.inflow.items()},
        "outflow": {str(k): v for k, v in z.outflow.items()},
        "spot_rates": {
            str(sid): {_lane_key(lane): r for lane, r in lanes.items()}
            for sid, lanes in z.spot_rates.items()
        },
        "probability": z.probability,
    }


def _flows(d: Dict, field: str) -> Dict[int, int]:
    """A flow map of a realization record; a non-integral flow raises ValueError."""
    out = {}
    for k, v in d[field].items():
        if not float(v).is_integer():
            raise ValueError(f"{field}[{k}] is {v!r}; flows are whole containers")
        out[int(k)] = int(v)
    return out


def _realization_from_dict(d: Dict) -> ExogenousRealization:
    return ExogenousRealization(
        inflow=_flows(d, "inflow"),
        outflow=_flows(d, "outflow"),
        spot_rates={
            int(sid): {_parse_lane(key): float(r) for key, r in lanes.items()}
            for sid, lanes in d["spot_rates"].items()
        },
        probability=float(d.get("probability", 1.0)),
    )


def validate_scenario(scenario: Scenario, instance: Instance) -> List[str]:
    """Return violation messages (empty list iff the scenario fits the instance).

    Every period needs a flow >= 0 at exactly the instance's entries and
    exits, and a finite rate >= 0 for every lane of every spot source. The
    values need not lie in the instance's support.
    """
    v: List[str] = []
    if len(scenario.realizations) != instance.horizon:
        v.append(
            f"scenario has {len(scenario.realizations)} periods; "
            f"instance horizon is {instance.horizon}"
        )
    net = instance.network
    for t, z in enumerate(scenario.realizations, start=1):
        for field, flows, locs in (("inflow", z.inflow, net.entries),
                                   ("outflow", z.outflow, net.exits)):
            if set(flows) != set(locs):
                v.append(f"period {t} {field}: locations {sorted(flows)}, "
                         f"instance has {sorted(locs)}")
            v.extend(f"period {t} {field}[{k}] is {f}; need >= 0"
                     for k, f in flows.items() if f < 0)
        for s in instance.spot_sources:
            for lane in s.lanes:
                r = z.spot_rates.get(s.id, {}).get(lane)
                if r is None or not (np.isfinite(r) and r >= 0):
                    v.append(f"period {t} spot_rates[{s.id}][{_lane_key(lane)}] is {r}; "
                             "need a finite rate >= 0")
    return v


def save_scenarios(scenarios: Sequence[Scenario], path: str, seed: int = 0) -> None:
    doc = {
        "seed": seed,
        "count": len(scenarios),
        "scenarios": [
            {
                "probability": s.probability,
                "realizations": [_realization_to_dict(z) for z in s.realizations],
            }
            for s in scenarios
        ],
    }
    write_json(path, doc)


def load_scenarios(path: str) -> List[Scenario]:
    with open(path) as f:
        doc = json.load(f)
    out = []
    for rec in doc["scenarios"]:
        reals = tuple(_realization_from_dict(r) for r in rec["realizations"])
        out.append(Scenario(reals, float(rec.get("probability", 1.0))))
    return out
