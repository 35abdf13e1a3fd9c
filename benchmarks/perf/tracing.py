"""Per-layer tracing from outside the program.

The benchmark never edits ``src/``: it records spans by wrapping the
public callables each layer exposes, patched in every namespace that
bound them by name and restored afterwards.  Spans are aggregated as
they close (calls, total time, self time per name); the raw
``(id, name, start, end, parent, op)`` tuples are kept in memory for one
sample op only, so a long traced run stays small.

A layer's self time is its span minus the child spans inside it.  A
callable that recurses through its own patched name (``pack_frozen``,
``copy.deepcopy``) records only its outermost call.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Span name of one whole benchmark op; its self time is the harness's
#: own share ("other").
OP = "op"

OnReturn = Optional[Callable[["Tracer", Any, tuple], None]]


class Tracer:
    """Span recorder: per-name calls, total and self time, plus counters."""

    def __init__(self, sample_op: int = 0) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.counters: Dict[str, float] = defaultdict(float)
        self.spans: List[Tuple[int, str, float, float, Optional[int], int]] = []
        self.sample_op = sample_op
        self.op = -1
        self._stack: List[list] = []  # [id, name, start, child_time]
        self._depth: Dict[str, int] = defaultdict(int)
        self._next_id = 0

    def active(self, name: str) -> bool:
        return self._depth[name] > 0

    def enter(self, name: str, start: Optional[float] = None) -> None:
        self._stack.append(
            [self._next_id, name, time.perf_counter() if start is None else start, 0.0]
        )
        self._next_id += 1
        self._depth[name] += 1

    def exit(self, end: Optional[float] = None) -> float:
        """Close the innermost span; returns its duration."""
        end = time.perf_counter() if end is None else end
        span_id, name, start, child = self._stack.pop()
        self._depth[name] -= 1
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.calls[name] += 1
        self.total[name] += duration
        self.self_time[name] += duration - child
        if self.op == self.sample_op:
            self.spans.append(
                (span_id, name, start, end, parent[0] if parent else None, self.op)
            )
        return duration

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] += value


def traced(tracer: Tracer, name: str, fn: Callable, on_return: OnReturn = None):
    """``fn`` recording a ``name`` span per outermost call."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.active(name):
            return fn(*args, **kwargs)
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if on_return is not None:
            on_return(tracer, result, args)
        return result

    wrapper.perfbench_span = name
    return wrapper


class Patcher:
    """Installs replacements and puts every original back on restore."""

    def __init__(self) -> None:
        self.saved: List[Tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        self.saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def replace_item(self, mapping: dict, key: Any, value: Any) -> None:
        self.saved.append((mapping, key, mapping[key]))
        mapping[key] = value

    def everywhere(self, module: str, attr: str, make: Callable[[Any], Any]) -> None:
        """Wrap ``module.attr`` in every loaded module that bound it."""
        original = getattr(importlib.import_module(module), attr)
        wrapped = make(original)
        for loaded in list(sys.modules.values()):
            namespace = getattr(loaded, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    self.replace(loaded, key, wrapped)

    def method(self, module: str, cls: str, attr: str, make: Callable[[Any], Any]) -> None:
        owner = getattr(importlib.import_module(module), cls)
        self.replace(owner, attr, make(owner.__dict__[attr]))

    def restore(self) -> None:
        while self.saved:
            owner, attr, original = self.saved.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)


# -- counters read off return values ---------------------------------------


def _fleet_counters(tracer: Tracer, result: Any, _args: tuple) -> None:
    tracer.count("fleet.rounds", result.rounds)
    tracer.count("fleet.lap_skips", result.lap_skips)


#: Exact counts the explorer reports in ``result.summary()``.
EXPLORE_COUNTS = (
    "states",
    "transitions",
    "sleep_skipped",
    "ample_states",
    "orbit_factor",
    "visited_bytes",
)


def _explore_counters(tracer: Tracer, result: Any, _args: tuple) -> None:
    summary = result.summary()
    for key in EXPLORE_COUNTS:
        tracer.count(f"explore.{key}", summary[key])


def _elect_counters(tracer: Tracer, report: Any, _args: tuple) -> None:
    tracer.count("engine.pulses", report.total_pulses)


#: In-process layer wrappers: (module, attr, span, on_return).
FUNCTIONS = (
    ("repro.cli", "main", "cli.main", None),
    ("repro.core.election", "elect_leader_oriented", "engine.elect", _elect_counters),
    ("repro.core.election", "elect_leader_nonoriented", "engine.elect", _elect_counters),
    ("repro.core.kernels.terminating", "drain_block_np", "kernels.drain", None),
    ("repro.core.kernels.terminating", "cw_skip_margins_np", "kernels.margins", None),
    ("repro.core.kernels.terminating", "ccw_skip_margins_np", "kernels.margins", None),
    ("repro.simulator.fleet", "run_terminating_fleet", "fleet.run", _fleet_counters),
    ("repro.verification.statistical", "run_statistical_check", "statistical.check", None),
    ("repro.verification.statistical", "ids_for_instance", "statistical.sample_ids", None),
    ("repro.core.schema", "pack_frozen", "explore.pack", None),
    ("copy", "deepcopy", "explore.copy", None),
    ("repro.verification.reduced", "explore_reduced", "explore.run", _explore_counters),
)

#: Methods: (module, class, attr, span, on_return).
METHODS = (
    ("repro.verification.symmetry", "RingSymmetry", "canonical", "explore.canonical", None),
    ("repro.verification.common", "VisitedStore", "add", "explore.visited", None),
    ("repro.verification.common", "VisitedStore", "get_payload", "explore.visited", None),
    ("repro.verification.common", "VisitedStore", "set_payload", "explore.visited", None),
)

#: The column invariant checks, by the suffix of their function name.
INVARIANT_CHECKS = (
    "lemma6_cw",
    "corollary14",
    "ccw_lag",
    "leader_event_unique",
    "conservation",
)


def install_layers(tracer: Tracer, patcher: Patcher) -> None:
    """Wrap every in-process layer callable (restore with the patcher)."""
    for module, attr, name, on_return in FUNCTIONS:
        patcher.everywhere(
            module, attr, lambda fn, name=name, cb=on_return: traced(tracer, name, fn, cb)
        )
    for module, cls, attr, name, on_return in METHODS:
        patcher.method(
            module, cls, attr, lambda fn, name=name, cb=on_return: traced(tracer, name, fn, cb)
        )
    # The statistical observer reads its battery from this dict on every
    # block, so swapping the tuples reaches every per-round check.
    invariants = importlib.import_module("repro.core.invariants")
    wrapped = {
        getattr(invariants, f"check_columns_{check}"): traced(
            tracer, f"invariants.{check}", getattr(invariants, f"check_columns_{check}")
        )
        for check in INVARIANT_CHECKS
    }
    for algorithm, battery in list(invariants.COLUMN_INVARIANTS.items()):
        patcher.replace_item(
            invariants.COLUMN_INVARIANTS,
            algorithm,
            tuple(wrapped.get(check, check) for check in battery),
        )


def layer_metrics(
    tracer: Tracer, ops: int, wall: float, untraced_wall: float
) -> Dict[str, float]:
    """Per-layer metrics of a traced run.

    Times are shares of the traced ops' summed wall time (``_frac``);
    counts are per op.  ``wall`` and ``untraced_wall`` cover the same
    ops, traced and untraced.
    """

    def frac(*names: str) -> float:
        return sum(tracer.self_time.get(name, 0.0) for name in names) / wall if wall else 0.0

    def per_op(value: float) -> float:
        return value / ops if ops else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    calls, counters, total = tracer.calls, tracer.counters, tracer.total
    invariant_spans = [f"invariants.{check}" for check in INVARIANT_CHECKS]
    layered = [name for name in tracer.self_time if name != OP]
    return {
        "trace.ops": float(ops),
        "trace.op_mean_s": ratio(wall, ops),
        "trace.overhead_frac": ratio(wall, untraced_wall) - 1.0 if untraced_wall else 0.0,
        "trace.coverage_frac": frac(*layered),
        "trace.other_frac": frac(OP),
        "cli.main_frac": frac("cli.main"),
        "engine.elect_frac": frac("engine.elect"),
        "engine.pulses": per_op(counters["engine.pulses"]),
        "engine.pulses_per_s": ratio(counters["engine.pulses"], total["engine.elect"]),
        "kernels.drain_frac": frac("kernels.drain"),
        "kernels.drain_calls": per_op(calls["kernels.drain"]),
        "kernels.margins_frac": frac("kernels.margins"),
        "kernels.margins_calls": per_op(calls["kernels.margins"]),
        "fleet.self_frac": frac("fleet.run"),
        "fleet.calls": per_op(calls["fleet.run"]),
        "fleet.rounds": per_op(counters["fleet.rounds"]),
        "fleet.lap_skips": per_op(counters["fleet.lap_skips"]),
        "fleet.rounds_per_call": ratio(counters["fleet.rounds"], calls["fleet.run"]),
        "invariants.battery_frac": frac(*invariant_spans),
        "invariants.battery_calls": per_op(calls[invariant_spans[0]]),
        **{f"{name}_frac": frac(name) for name in invariant_spans},
        "statistical.self_frac": frac("statistical.check"),
        "statistical.sample_ids_frac": frac("statistical.sample_ids"),
        "explore.self_frac": frac("explore.run"),
        "explore.pack_frac": frac("explore.pack"),
        "explore.canonical_frac": frac("explore.canonical"),
        "explore.visited_frac": frac("explore.visited"),
        "explore.copy_frac": frac("explore.copy"),
        **{f"explore.{key}": per_op(counters[f"explore.{key}"]) for key in EXPLORE_COUNTS},
        "explore.states_per_s": ratio(counters["explore.states"], total["explore.run"]),
    }
