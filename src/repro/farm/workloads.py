"""Workload runners and folds: shard in, stats out.

Each workload contributes:

* a shard runner — :func:`run_check_shard` for the sampled-check
  workloads, :func:`run_placements_shard` — computes the shard payload
  for global indices ``[start, stop)``.  Payloads are JSON-primitive
  dicts (they go straight into the content-addressed store) and are
  *order-preserving*: per-index outcomes appear in index order, so
  concatenating payloads over a partition of ``[0, total)`` reproduces
  the uninterrupted sweep.
* a fold in :data:`FOLDS` — turns a campaign's shard payloads (one list
  per grid point, in range order) into the stats object the analysis
  modules return (:class:`~repro.analysis.stats.BernoulliEstimate`,
  :class:`~repro.analysis.average_case.PlacementStats`,
  :class:`~repro.analysis.degradation.DegradationCurve`, summary
  dicts), and lays that object out as JSON for ``farm collect``.

Every per-index outcome is a pure function of ``(params, index)`` (the
counter streams), so a fold over any shard partition gives the same
stats — except under the ``seeded`` scheduler, whose schedule is keyed
on an instance's row within its fleet block, so its outcomes follow the
partition into shards and blocks (ROADMAP item 7).

The ``backend`` and ``block_size`` arguments are execution knobs only:
they are deliberately *not* part of the shard parameters that cache
keys hash (the differential batteries pin all backends bit-identical,
and fleet batch composition is a tested invariant).
"""
from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, List, Mapping, Tuple

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


def run_shard_task(task: Tuple[str, Mapping[str, Any], int, int, str, int]) -> Any:
    """Picklable :func:`run_shard` over one
    ``(workload, params, start, stop, backend, block_size)`` tuple."""
    workload, params, start, stop, backend, block_size = task
    return run_shard(
        workload, params, start, stop, backend=backend, block_size=block_size
    )


def _placements_check(params: Mapping[str, Any], backend: str) -> None:
    from repro.accel import resolve_backend

    resolve_backend(backend)
    if params["n"] < 1:
        raise ConfigurationError("need at least one ID")


#: Per job workload: raise the ``ConfigurationError`` a job would fail
#: with, without running it.
_VALIDATORS: Dict[str, Callable[..., Any]] = {
    **{workload: build for workload, (build, _) in _CHECK_WORKLOADS.items()},
    "placements": _placements_check,
}


def validate_campaign(campaign: Any, backend: str, block_size: int) -> None:
    """Raise, before any job runs, the ``ConfigurationError`` the jobs
    would fail with: a ``block_size`` below 1, or a grid point whose
    check cannot be built (unknown algorithm or scheduler, too small a
    ring, ``c <= 0``, a backend tier that is not installed)."""
    if block_size < 1:
        raise ConfigurationError(f"block_size must be >= 1, got {block_size}")
    for point in campaign.grid():
        _VALIDATORS[campaign.job_workload](point, backend)


# ---------------------------------------------------------------------------
# Folds — shard payloads (range order) → the analysis-layer stats.
# ---------------------------------------------------------------------------

def collect_options(
    confidence: float = 0.99,
    z: float = 2.576,
    interval: str = "wilson",
    backend_label: str = "farm",
) -> Dict[str, Any]:
    """The options every fold takes, validated before any shard runs.

    ``confidence`` sets the Clopper–Pearson level of the recovery,
    degradation, adversary and ear folds; ``z`` and ``interval`` set the
    ``whp`` interval; ``backend_label`` is the degradation curve's
    ``backend`` field.
    """
    if not 0.0 < confidence < 1.0:
        raise ConfigurationError(
            f"confidence must be in (0, 1), got {confidence}"
        )
    if interval not in ("wilson", "clopper-pearson"):
        raise ConfigurationError(
            f"unknown interval method {interval!r}; "
            "choose 'wilson' or 'clopper-pearson'"
        )
    return {
        "confidence": confidence,
        "z": z,
        "interval": interval,
        "backend_label": backend_label,
    }


def _gather(payloads: List[Mapping[str, Any]], key: str, total: int) -> List[Any]:
    """``payload[key]`` concatenated over the shards, which must cover
    exactly ``total`` instances."""
    items = [item for payload in payloads for item in payload[key]]
    if len(items) != total:
        raise ConfigurationError(
            f"aggregation mismatch: shards carry {len(items)} instances, "
            f"campaign expects {total}"
        )
    return items


def _recovery_summary(
    payloads: List[Mapping[str, Any]], samples: int, confidence: float
) -> Dict[str, Any]:
    """One grid point's summary: classification counts, merged fault
    events, the non-recovered list in index order, and the exact
    Clopper–Pearson interval on the recovered count."""
    from repro.analysis.stats import clopper_pearson_interval
    from repro.faults.fleet import merge_events
    from repro.verification.statistical import RECOVERY_CLASSES

    counts = {name: 0 for name in RECOVERY_CLASSES}
    events: Dict[str, int] = {}
    for payload in payloads:
        for name in RECOVERY_CLASSES:
            counts[name] += payload["counts"][name]
        if payload["fault_events"]:
            events = merge_events(events, payload["fault_events"])
    classified = sum(counts.values())
    if classified != samples:
        raise ConfigurationError(
            f"aggregation mismatch: shards classified {classified} "
            f"instances, campaign expects {samples}"
        )
    non_recovered = sorted(
        [int(index), str(label), str(message)]
        for payload in payloads
        for index, label, message in payload["non_recovered"]
    )
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
        "non_recovered": non_recovered,
    }


def _fold_recovery(campaign: Any, points: List[Any], options: Mapping[str, Any]) -> Any:
    return _recovery_summary(points[0], campaign.total, options["confidence"])


def _fold_degradation(
    campaign: Any, points: List[Any], options: Mapping[str, Any]
) -> Any:
    """A :class:`~repro.analysis.degradation.DegradationCurve`, one
    point per rate of the grid."""
    from repro.analysis.degradation import DegradationCurve, DegradationPoint

    params = campaign.params
    summaries = [
        _recovery_summary(payloads, campaign.total, options["confidence"])
        for payloads in points
    ]
    return DegradationCurve(
        algorithm=params["algorithm"],
        kind=params["kind"],
        n=params["n"],
        id_max=params["id_max"],
        confidence=options["confidence"],
        seed=params["seed"],
        backend=options["backend_label"],
        scheduler=params["scheduler"],
        points=[
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
            for rate, summary in zip(params["rates"], summaries)
        ],
    )


def _fold_whp(campaign: Any, points: List[Any], options: Mapping[str, Any]) -> Any:
    """A :class:`~repro.analysis.stats.BernoulliEstimate` over the
    per-attempt success flags, with a Wilson or Clopper–Pearson
    interval (the latter at the coverage of ``±z``)."""
    from repro.analysis.stats import (
        BernoulliEstimate,
        clopper_pearson_interval,
        wilson_interval,
        z_to_confidence,
    )

    trials = campaign.total
    successes = sum(int(flag) for flag in _gather(points[0], "succeeded", trials))
    if options["interval"] == "clopper-pearson":
        low, high = clopper_pearson_interval(
            successes, trials, confidence=z_to_confidence(options["z"])
        )
    else:
        low, high = wilson_interval(successes, trials, z=options["z"])
    return BernoulliEstimate(
        successes=successes, trials=trials, low=low, high=high
    )


def _fold_placements(
    campaign: Any, points: List[Any], options: Mapping[str, Any]
) -> Any:
    """A :class:`~repro.analysis.average_case.PlacementStats`."""
    from repro.analysis.average_case import _stats_from_counts

    totals = _gather(points[0], "totals", campaign.total)
    return _stats_from_counts(campaign.params["n"], [int(t) for t in totals])


def _fold_ear(campaign: Any, points: List[Any], options: Mapping[str, Any]) -> Any:
    """The ear contract summary: the violation list in index order and
    the exact Clopper–Pearson interval on the clean count."""
    from repro.analysis.stats import clopper_pearson_interval

    samples = campaign.total
    checked = sum(int(payload["samples"]) for payload in points[0])
    if checked != samples:
        raise ConfigurationError(
            f"aggregation mismatch: shards checked {checked} "
            f"instances, campaign expects {samples}"
        )
    violations = sorted(
        [int(index), str(message)]
        for payload in points[0]
        for index, message in payload["violations"]
    )
    low, high = clopper_pearson_interval(
        samples - len(violations), samples, confidence=options["confidence"]
    )
    return {
        "samples": samples,
        "violations": len(violations),
        "rate_low": low,
        "rate_high": high,
        "failures": violations,
        "clean": not violations,
    }


def _whp_json(estimate: Any, options: Mapping[str, Any]) -> Dict[str, Any]:
    return {
        "successes": estimate.successes,
        "trials": estimate.trials,
        "rate": estimate.rate,
        "low": estimate.low,
        "high": estimate.high,
        "interval": options["interval"],
    }


def _placements_json(stats: Any, options: Mapping[str, Any]) -> Dict[str, Any]:
    return {
        "n": stats.n,
        "trials": stats.trials,
        "mean": stats.mean,
        "minimum": stats.minimum,
        "maximum": stats.maximum,
        "spread": stats.spread,
        "zero_spread": stats.spread == 0,
    }


def _as_is(result: Any, options: Mapping[str, Any]) -> Any:
    return result


#: Per campaign workload: ``(fold (campaign, per-grid-point payload
#: lists, options) into the stats object, lay that object out as JSON)``.
#: The farm's collect and the storeless run of
#: :func:`repro.farm.service.run_campaign` both fold through this table.
FOLDS: Dict[str, Tuple[Callable[..., Any], Callable[..., Any]]] = {
    "recovery": (_fold_recovery, _as_is),
    "adversary": (_fold_recovery, _as_is),
    "degradation": (_fold_degradation, lambda curve, options: curve.to_dict()),
    "whp": (_fold_whp, _whp_json),
    "placements": (_fold_placements, _placements_json),
    "ear": (_fold_ear, _as_is),
}
