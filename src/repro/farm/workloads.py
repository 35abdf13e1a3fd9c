"""Workload runners and aggregators: shard in, stats out.

Each workload contributes two pure functions:

* a shard runner — :func:`run_check_shard` for the sampled-check
  workloads, :func:`run_placements_shard` — computes the shard payload
  for global indices ``[start, stop)``.  Payloads are JSON-primitive
  dicts (they go straight into the content-addressed store) and are
  *order-preserving*: per-index outcomes appear in index order, so
  concatenating payloads over a partition of ``[0, total)`` reproduces
  the uninterrupted sweep exactly.
* ``aggregate_*(...)`` — fold shard payloads (in range order) into the
  same stats objects the direct analysis modules produce
  (:class:`~repro.analysis.stats.BernoulliEstimate`,
  :class:`~repro.analysis.average_case.PlacementStats`, degradation
  point dicts).  Because every per-index outcome is a pure function of
  ``(params, index)`` — the PR 5 counter streams — aggregation over any
  shard partition is bit-identical to the foreground run.

The ``backend`` and ``block_size`` arguments are execution knobs only:
they are deliberately *not* part of the shard parameters that cache
keys hash (the differential batteries pin all backends bit-identical,
and fleet batch composition is a tested invariant).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.exceptions import ConfigurationError
from repro.farm.keys import fault_model_from_canonical

#: Fleet block size used inside recovery shards (execution knob; kept
#: modest so one shard never holds a huge block in memory).
DEFAULT_JOB_BLOCK_SIZE = 256


def _recovery_check(params: Mapping[str, Any], backend: str) -> Any:
    from repro.verification.statistical import RecoveryCheck

    return RecoveryCheck(
        algorithm=params["algorithm"],
        n=params["n"],
        id_max=params["id_max"],
        seed=params["seed"],
        sched_seed=params["sched_seed"],
        scheduler=params["scheduler"],
        backend=backend,
        fault=fault_model_from_canonical(params["faults"]),
        watchdog_rounds=params["watchdog_rounds"],
    )


def _ear_check(params: Mapping[str, Any], backend: str) -> Any:
    """``params["topology"]`` is the canonical topology descriptor
    (:meth:`repro.topology.Topology.canonical_descriptor`)."""
    from repro.graphs.connectivity import Graph
    from repro.verification.statistical import TopologyCheck

    topology = params["topology"]
    return TopologyCheck(
        graph=Graph.from_edges(topology["n"], [tuple(e) for e in topology["edges"]]),
        id_max=params["id_max"],
        seed=params["seed"],
        sched_seed=params["sched_seed"],
        scheduler=params["scheduler"],
        backend=backend,
    )


def _whp_check(params: Mapping[str, Any], backend: str) -> Any:
    """Attempt ``i`` uses seed ``params["seed"] + i``, the contract of
    :func:`repro.analysis.whp.measure_anonymous_success`."""
    from repro.verification.statistical import WhpCheck

    return WhpCheck(
        n=params["n"], c=params["c"], seed=params["seed"], backend=backend
    )


def _whp_payload(
    counts: Any, failures: List[Any], events: Any, start: int, stop: int
) -> Dict[str, Any]:
    failed = {index for index, _label, _message in failures}
    return {"succeeded": [int(i not in failed) for i in range(start, stop)]}


#: Per sampled-check workload: ``(build the check from params and
#: backend, lay out the payload from (counts, failures, fault events,
#: start, stop))``.
_CHECK_WORKLOADS: Dict[
    str, Tuple[Callable[..., Any], Callable[..., Dict[str, Any]]]
] = {
    "recovery": (
        _recovery_check,
        lambda counts, failures, events, start, stop: {
            "counts": counts,
            "non_recovered": [list(failure) for failure in failures],
            "fault_events": events,
        },
    ),
    "ear": (
        _ear_check,
        lambda counts, failures, events, start, stop: {
            "samples": stop - start,
            "violations": [[index, message] for index, _, message in failures],
        },
    ),
    "whp": (_whp_check, _whp_payload),
}


def run_check_shard(
    workload: str,
    params: Mapping[str, Any],
    start: int,
    stop: int,
    backend: str = "auto",
    block_size: int = DEFAULT_JOB_BLOCK_SIZE,
) -> Dict[str, Any]:
    """The ``recovery``, ``ear`` or ``whp`` payload over indices ``[start, stop)``.

    Each workload names one :class:`~repro.verification.statistical.Check`
    run through the shared shard seam
    (:func:`~repro.verification.statistical.check_shard`); only the
    payload layout differs per workload.
    """
    from repro.verification.statistical import check_shard

    build, to_payload = _CHECK_WORKLOADS[workload]
    counts, failures, events = check_shard(
        build(params, backend), range(start, stop), block_size
    )
    return to_payload(counts, failures, events, start, stop)


def run_placements_shard(
    params: Mapping[str, Any],
    start: int,
    stop: int,
    backend: str = "auto",
    block_size: int = DEFAULT_JOB_BLOCK_SIZE,
) -> Dict[str, Any]:
    """Algorithm 2 pulse totals over placements ``[start, stop)``.

    Placements come from the same sequential seeded shuffle stream as
    :func:`repro.analysis.average_case.random_placements`; the shard
    regenerates the prefix and slices — O(stop) shuffles, negligible
    next to the simulation itself — so any shard partition sees the
    byte-identical placements of the foreground sweep.
    """
    from repro.analysis.average_case import random_placements
    from repro.simulator.fleet import run_terminating_fleet

    placements = random_placements(params["n"], stop, seed=params["seed"])[
        start:stop
    ]
    result = run_terminating_fleet(placements, backend=backend)
    return {"totals": list(result.total_pulses)}


_RUNNERS = {
    **{workload: partial(run_check_shard, workload) for workload in _CHECK_WORKLOADS},
    "placements": run_placements_shard,
}


def run_shard(
    workload: str,
    params: Mapping[str, Any],
    start: int,
    stop: int,
    backend: str = "auto",
    block_size: int = DEFAULT_JOB_BLOCK_SIZE,
) -> Dict[str, Any]:
    """Dispatch one shard to its workload runner."""
    try:
        runner = _RUNNERS[workload]
    except KeyError:
        raise ConfigurationError(
            f"no shard runner for workload {workload!r}; "
            f"choose from {sorted(_RUNNERS)}"
        ) from None
    return runner(params, start, stop, backend=backend, block_size=block_size)


# ---------------------------------------------------------------------------
# Aggregation — shard payloads (range order) → the analysis-layer stats.
# ---------------------------------------------------------------------------


def aggregate_recovery(
    payloads: List[Mapping[str, Any]],
    samples: int,
    confidence: float = 0.99,
) -> Dict[str, Any]:
    """Fold recovery shard payloads into one grid-point summary.

    Field-for-field the numbers :func:`run_recovery_check` reports for
    the same ``samples``: classification counts, merged fault events,
    and the exact Clopper–Pearson interval on the recovered count.
    """
    from repro.analysis.stats import clopper_pearson_interval
    from repro.faults.fleet import merge_events
    from repro.verification.statistical import RECOVERY_CLASSES

    counts = {name: 0 for name in RECOVERY_CLASSES}
    events: Dict[str, int] = {}
    non_recovered: List[Tuple[int, str, str]] = []
    for payload in payloads:
        for name in RECOVERY_CLASSES:
            counts[name] += payload["counts"][name]
        if payload["fault_events"]:
            events = merge_events(events, payload["fault_events"])
        non_recovered.extend(
            (int(idx), str(cls), str(msg))
            for idx, cls, msg in payload["non_recovered"]
        )
    classified = sum(counts.values())
    if classified != samples:
        raise ConfigurationError(
            f"aggregation mismatch: shards classified {classified} "
            f"instances, campaign expects {samples}"
        )
    non_recovered.sort(key=lambda triple: triple[0])
    low, high = clopper_pearson_interval(
        counts["recovered"], samples, confidence=confidence
    )
    return {
        "samples": samples,
        "recovered": counts["recovered"],
        "wrong_stable": counts["wrong_stable"],
        "stuck": counts["stuck"],
        "rate_low": low,
        "rate_high": high,
        "fault_events": dict(events),
        "non_recovered": [list(triple) for triple in non_recovered],
    }


def aggregate_whp(
    payloads: List[Mapping[str, Any]],
    trials: int,
    z: float = 2.576,
    interval: str = "wilson",
) -> "Any":
    """Fold whp shard payloads into a :class:`BernoulliEstimate` —
    the same interval arithmetic as
    :func:`repro.analysis.whp.measure_anonymous_success`."""
    from repro.analysis.stats import (
        BernoulliEstimate,
        clopper_pearson_interval,
        wilson_interval,
    )
    from repro.analysis.whp import _z_to_confidence

    flags: List[int] = []
    for payload in payloads:
        flags.extend(int(flag) for flag in payload["succeeded"])
    if len(flags) != trials:
        raise ConfigurationError(
            f"aggregation mismatch: shards carry {len(flags)} attempts, "
            f"campaign expects {trials}"
        )
    successes = sum(flags)
    if interval == "clopper-pearson":
        low, high = clopper_pearson_interval(
            successes, trials, confidence=_z_to_confidence(z)
        )
    elif interval == "wilson":
        low, high = wilson_interval(successes, trials, z=z)
    else:
        raise ConfigurationError(
            f"unknown interval method {interval!r}; "
            "choose 'wilson' or 'clopper-pearson'"
        )
    return BernoulliEstimate(
        successes=successes, trials=trials, low=low, high=high
    )


def aggregate_placements(
    payloads: List[Mapping[str, Any]], n: int, trials: int
) -> "Any":
    """Fold placements shard payloads into a :class:`PlacementStats`."""
    from repro.analysis.average_case import _stats_from_counts

    totals: List[int] = []
    for payload in payloads:
        totals.extend(int(total) for total in payload["totals"])
    if len(totals) != trials:
        raise ConfigurationError(
            f"aggregation mismatch: shards carry {len(totals)} trials, "
            f"campaign expects {trials}"
        )
    return _stats_from_counts(n, totals)


def aggregate_ear(
    payloads: List[Mapping[str, Any]],
    samples: int,
    confidence: float = 0.99,
) -> Dict[str, Any]:
    """Fold ear shard payloads into one contract summary.

    The same numbers :func:`run_topology_check` reports for the same
    ``samples``: the violation list (index order) and the exact
    Clopper–Pearson interval on the clean count.
    """
    from repro.analysis.stats import clopper_pearson_interval

    checked = 0
    violations: List[Tuple[int, str]] = []
    for payload in payloads:
        checked += int(payload["samples"])
        violations.extend(
            (int(index), str(message))
            for index, message in payload["violations"]
        )
    if checked != samples:
        raise ConfigurationError(
            f"aggregation mismatch: shards checked {checked} "
            f"instances, campaign expects {samples}"
        )
    violations.sort(key=lambda pair: pair[0])
    low, high = clopper_pearson_interval(
        samples - len(violations), samples, confidence=confidence
    )
    return {
        "samples": samples,
        "violations": len(violations),
        "rate_low": low,
        "rate_high": high,
        "failures": [list(pair) for pair in violations],
        "clean": not violations,
    }


def degradation_curve_from_points(
    params: Mapping[str, Any],
    point_summaries: List[Mapping[str, Any]],
    samples: int,
    confidence: float,
    backend_label: str,
) -> "Any":
    """Assemble a :class:`~repro.analysis.degradation.DegradationCurve`
    from per-rate aggregated summaries (grid order)."""
    from repro.analysis.degradation import DegradationCurve, DegradationPoint

    points = [
        DegradationPoint(
            rate=rate,
            samples=summary["samples"],
            recovered=summary["recovered"],
            wrong_stable=summary["wrong_stable"],
            stuck=summary["stuck"],
            low=summary["rate_low"],
            high=summary["rate_high"],
            fault_events=dict(summary["fault_events"]),
        )
        for rate, summary in zip(params["rates"], point_summaries)
    ]
    return DegradationCurve(
        algorithm=params["algorithm"],
        kind=params["kind"],
        n=params["n"],
        id_max=params["id_max"],
        confidence=confidence,
        seed=params["seed"],
        backend=backend_label,
        scheduler=params["scheduler"],
        points=points,
    )


#: Per-workload "did the campaign uphold its contract" predicates used
#: by ``farm collect`` exit codes (None = informational only).
def placements_contract(stats: Any, n: int) -> Optional[str]:
    """Theorem 1: zero spread, every trial exactly ``n(2n+1)``."""
    expected = n * (2 * n + 1)
    if stats.spread != 0 or stats.minimum != expected:
        return (
            f"placement variance detected: min={stats.minimum} "
            f"max={stats.maximum} expected exactly {expected}"
        )
    return None
