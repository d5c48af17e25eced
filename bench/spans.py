"""In-memory span recorder that wraps specverify's public names from outside.

The recorder replaces a function with a timing wrapper in every module
namespace of the package that bound it (``expert_action`` is imported by name
into ``planner`` and ``verifier``, so all three bindings are wrapped), and a
method on its class. Spans nest through one stack, so each span's self time is
its duration minus the time covered by the spans it called. A target that a
refactor removed is reported as absent instead of raising.
"""
from __future__ import annotations

import dataclasses
import functools
import math
import sys
import time
from array import array

PACKAGE = "specverify"

#: (span name, module of the package, attribute path; "Class.method" wraps on the class)
TARGETS = (
    ("env.ToyEnv.step", "env", "ToyEnv.step"),
    ("env.ToyEnv.reset", "env", "ToyEnv.reset"),
    ("env.expert_action", "env", "expert_action"),
    ("planner.plan", "planner", "NominalRolloutPlanner.plan"),
    ("verifier.reference", "verifier", "TrainedVerifier.reference"),
    ("verifier.encode_batch", "verifier", "ObservationEncoder.encode_batch"),
    ("verifier.loss_and_grads", "verifier", "loss_and_grads"),
    ("verifier.mean_l1_loss", "verifier", "mean_l1_loss"),
    ("verifier.build_training_set", "verifier", "build_training_set"),
    ("verifier.load_verifier", "verifier", "load_verifier"),
    ("controller.run_episode", "controller", "run_episode"),
    ("controller.decide", "controller", "decide"),
    ("harness.write_traces", "harness", "write_traces"),
    ("harness.read_traces", "harness", "read_traces"),
    ("harness.aggregate", "harness", "aggregate"),
)

#: One span over the ``__post_init__`` of every dataclass defined in ``core``:
#: its call count is the number of value objects constructed.
VALUE_SPAN = "core.values"

SPAN_NAMES = tuple(name for name, _, _ in TARGETS) + (VALUE_SPAN,)

#: Work counted at a span's return, from its arguments (self included) and result.
UNIT_COUNTERS = {
    "planner.plan": lambda args, result: len(result.chunk),
    "verifier.encode_batch": lambda args, result: args[1].shape[0],
    "verifier.build_training_set": lambda args, result: len(result),
}

#: Percentiles tried for the tail, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


@dataclasses.dataclass
class SpanStats:
    durations: array = dataclasses.field(default_factory=lambda: array("d"))
    self_s: float = 0.0
    units: int = 0
    units_ok: bool = True


class SpanRecorder:
    """Wraps package names with timing spans; ``uninstall`` restores them."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.enabled = True  # when False, wrapped names run untimed
        self.stats: dict[str, SpanStats] = {}
        self.absent: list[str] = []
        self._open: list[float] = []  # child time accumulated by each open span
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn, count=None):
        stats = self.stats.setdefault(name, SpanStats())
        clock, open_spans, recorder = self.clock, self._open, self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not recorder.enabled:
                return fn(*args, **kwargs)
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stats.durations.append(duration)
                stats.self_s += duration - open_spans.pop()
                if open_spans:
                    open_spans[-1] += duration
            if count is not None and stats.units_ok:
                try:
                    stats.units += count(args, result)
                except (AttributeError, TypeError, IndexError):
                    stats.units_ok = False
            return result

        return span

    def install(self, targets=TARGETS) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for name, module, path in targets:
            owner_path, _, attr = path.rpartition(".")
            owner = sys.modules.get(f"{PACKAGE}.{module}")
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self.wrap(name, original, UNIT_COUNTERS.get(name))
            if owner_path:
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

        core = sys.modules.get(f"{PACKAGE}.core")
        classes = [c for c in vars(core).values()
                   if isinstance(c, type) and dataclasses.is_dataclass(c)
                   and c.__module__ == core.__name__ and "__post_init__" in vars(c)
                   ] if core is not None else []
        for cls in classes:
            self._patch(cls, "__post_init__", self.wrap(VALUE_SPAN, cls.__post_init__))
        if not classes:
            self.absent.append(VALUE_SPAN)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def take(self) -> dict[str, SpanStats]:
        """Return the spans recorded so far and start counting afresh."""
        taken = {}
        for name, stats in self.stats.items():
            taken[name] = dataclasses.replace(stats)
            stats.durations, stats.self_s, stats.units = array("d"), 0.0, 0
        return taken


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least ten samples beyond it."""
    for pct in TAIL_LADDER:
        if n * (1.0 - pct / 100.0) >= 10:
            return pct
    return None


def percentile(sorted_values, pct: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def span_metrics(name: str, windows) -> dict:
    """Per-layer metrics of one span over ``(stats, divisor)`` windows.

    Calls and self time are summed as ``value / divisor`` per window, so a
    set-up window counts once and a window of N repeated units counts per unit.
    """
    present = [(stats, per) for stats, per in windows if stats is not None]
    durations = sorted(d for stats, _ in present for d in stats.durations)
    tail = tail_percentile(len(durations))
    return {
        f"{name}.calls": (sum(len(s.durations) / per for s, per in present), "count"),
        f"{name}.self_s": (sum(s.self_s / per for s, per in present), "s"),
        f"{name}.us_p50": (percentile(durations, 50.0) * 1e6 if durations else 0.0, "us"),
        f"{name}.us_tail": (percentile(durations, tail) * 1e6 if tail else 0.0, "us"),
        f"{name}.tail_pct": (tail or 0.0, "%"),
    }


def span_units(windows) -> float | None:
    """Work counted by a span's counter, per window divisor; None if uncountable."""
    present = [(stats, per) for stats, per in windows if stats is not None]
    if any(not stats.units_ok for stats, _ in present):
        return None
    return sum(stats.units / per for stats, per in present)
