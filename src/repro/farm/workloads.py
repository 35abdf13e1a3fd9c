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
counter streams, the seeded schedule's included), so a fold over any
shard partition gives the same stats.

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


def _recovery_tally(
    payloads: List[Mapping[str, Any]], samples: int, confidence: float
) -> Any:
    """:func:`~repro.verification.statistical.tally` over one grid
    point's recovery payloads."""
    from repro.verification.statistical import RECOVERY_CLASSES, tally

    return tally(
        RECOVERY_CLASSES,
        samples,
        [
            (sum(p["counts"].values()), p["non_recovered"], p["fault_events"])
            for p in payloads
        ],
        confidence,
    )


def _fold_recovery(campaign: Any, points: List[Any], options: Mapping[str, Any]) -> Any:
    """One grid point's summary: classification counts, merged fault
    events, the non-recovered list in index order, and the exact
    Clopper–Pearson interval on the recovered count."""
    counts, failures, events, (low, high) = _recovery_tally(
        points[0], campaign.total, options["confidence"]
    )
    return {
        "samples": campaign.total,
        **counts,
        "rate_low": low,
        "rate_high": high,
        "fault_events": events,
        "non_recovered": [list(failure) for failure in failures],
    }


def _fold_degradation(
    campaign: Any, points: List[Any], options: Mapping[str, Any]
) -> Any:
    """A :class:`~repro.analysis.degradation.DegradationCurve`, one
    point per rate of the grid."""
    from repro.analysis.degradation import DegradationCurve, DegradationPoint

    params = campaign.params
    curve = []
    for rate, payloads in zip(params["rates"], points):
        counts, _failures, events, (low, high) = _recovery_tally(
            payloads, campaign.total, options["confidence"]
        )
        curve.append(DegradationPoint(
            rate, campaign.total, **counts, low=low, high=high, fault_events=events
        ))
    return DegradationCurve(
        algorithm=params["algorithm"],
        kind=params["kind"],
        n=params["n"],
        id_max=params["id_max"],
        confidence=options["confidence"],
        seed=params["seed"],
        backend=options["backend_label"],
        scheduler=params["scheduler"],
        points=curve,
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
    from repro.verification.statistical import TopologyCheck, tally

    failed = TopologyCheck.classes[-1]
    _counts, failures, _events, (low, high) = tally(
        TopologyCheck.classes,
        campaign.total,
        [
            (p["samples"], [(i, failed, m) for i, m in p["violations"]], None)
            for p in points[0]
        ],
        options["confidence"],
    )
    return {
        "samples": campaign.total,
        "violations": len(failures),
        "rate_low": low,
        "rate_high": high,
        "failures": [[index, message] for index, _, message in failures],
        "clean": not failures,
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
