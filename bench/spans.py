"""Per-layer spans around drayage's public functions, installed from outside.

Each traced function is replaced, in every loaded ``drayage`` module that
binds it by name, by a wrapper that counts calls, self time (span time minus
the time of traced calls made inside it), failures and, for the capacity
search layer, wait time (span wall time minus this process's CPU time, so
work handed to forked workers shows up there). Calls made inside forked
workers are counted in the worker and lost, so counts and self times cover
the benchmark's own process only.
"""

import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

# module -> traced public functions
LAYERS: Dict[str, Tuple[str, ...]] = {
    "scenario": ("sample_scenarios", "build_sample_set"),
    "model": ("generate_instance", "validate_instance"),
    "alloc": ("solve_allocation",),
    "lp": ("solve_lp",),
    "mslp": ("build_mslp", "solve_mslp"),
    "dp": ("solve_expected", "solve_scenario", "evaluate_policy", "rollout"),
    "capopt": (
        "sample_objective",
        "optimize_capacity",
        "optimize_capacity_saa",
        "monte_carlo_search",
        "objective",
    ),
    "evaluation": ("per_scenario_optimum", "regret_profile"),
}

WAIT_LAYERS = ("capopt",)


# span -> (result predicate, names of exceptions that count as failed)
FAILURES: Dict[str, Tuple[Optional[Callable], Tuple[str, ...]]] = {
    "alloc.solve_allocation": (lambda r: type(r).__name__ == "Infeasible", ()),
    "lp.solve_lp": (lambda r: getattr(r, "status", "optimal") != "optimal", ()),
    "mslp.solve_mslp": (None, ("InfeasibleLP",)),
    "dp.rollout": (None, ("UndefinedPolicyState",)),
}


def span_names() -> List[str]:
    return [f"{m}.{f}" for m, fns in LAYERS.items() for f in fns]


def metric_names() -> List[str]:
    names = []
    for span in span_names():
        names += [f"{span}.calls", f"{span}.self_s"]
        if span in FAILURES:
            names.append(f"{span}.failed")
        if span.split(".")[0] in WAIT_LAYERS:
            names.append(f"{span}.wait_s")
    return names


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    failed: int = 0
    wait_s: float = 0.0


class Tracer:
    """Installs the wrappers; ``take()`` returns the counters and zeroes them."""

    def __init__(self):
        self.stats: Dict[str, Stat] = {name: Stat() for name in span_names()}
        self.absent: List[str] = []
        self._stack: List[List[float]] = []
        self._patched: List[Tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == "drayage" or name.startswith("drayage."))
        ]
        for mod, fns in LAYERS.items():
            home = sys.modules.get(f"drayage.{mod}")
            for fn in fns:
                span = f"{mod}.{fn}"
                original = getattr(home, fn, None) if home is not None else None
                if original is None:
                    self.absent.append(span)
                    continue
                predicate, exc_names = FAILURES.get(span, (None, ()))
                wrapper = self._wrap(
                    original, self.stats[span], predicate, exc_names, mod in WAIT_LAYERS
                )
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._patched.append((m, attr, original))
                            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def take(self) -> Dict[str, Stat]:
        out = {}
        for name, s in self.stats.items():
            out[name] = Stat(s.calls, s.self_s, s.failed, s.wait_s)
            s.calls, s.self_s, s.failed, s.wait_s = 0, 0.0, 0, 0.0
        return out

    def _wrap(self, fn, stat, predicate, exc_names, with_wait):
        stack = self._stack

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            failed = False
            c0 = time.process_time() if with_wait else 0.0
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = predicate is not None and predicate(result)
                return result
            except Exception as exc:
                failed = type(exc).__name__ in exc_names
                raise
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                stat.calls += 1
                stat.self_s += dt - frame[0]
                stat.failed += int(failed)
                if with_wait:
                    stat.wait_s += dt - (time.process_time() - c0)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced
