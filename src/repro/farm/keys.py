"""Canonical cache keys for the sweep farm's content-addressed store.

A sweep result is a *pure function* of its semantics coordinates:
which workload ran, with which algorithm parameters, under which fault
model, over which global sample indices, against which version of the
repo's execution semantics.  This module canonicalizes those
coordinates into a stable JSON form and hashes it (SHA-256) into the
key the result store files results under — so a repeated or overlapping
campaign re-derives the same keys and hits the cache instead of
recomputing.

What is **in** a key:

* :data:`SEMANTICS_VERSION` — the backend-independent version of the
  repo's execution semantics (see its docstring for the bump rule);
* the workload name and its canonicalized parameters (including the
  full fault model, clause by clause);
* the half-open global index range ``[start, stop)`` the shard covers.

What is deliberately **out**:

* the *backend* (``numpy`` / ``python``) — the two
  tiers are bit-identical lowerings of the same kernels, pinned by the
  differential test battery, so a result computed on any tier is valid
  for all of them;
* execution knobs that cannot change results: worker process count,
  fleet ``block_size`` (batch-composition fidelity is a tested fleet
  invariant), chunking of the submit loop.

Canonical JSON is ``sort_keys=True`` with minimal separators, so two
spellings of the same campaign — dicts built in different orders, params
passed positionally vs by name — always serialize (and hash) alike.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Dict, Mapping, Optional

from repro.exceptions import ConfigurationError
from repro.faults.model import FaultModel

#: Version of the repo's *backend-independent* execution semantics.
#:
#: Bump this (and only this) when a change alters what any cached shard
#: payload would contain for identical parameters — i.e. when any of the
#: following change observable results:
#:
#: * a kernel transition rule (``repro.core.kernels``) or end-state
#:   contract (:mod:`repro.verification.statistical`);
#: * a counter-based sampling stream (``ids_for_instance``,
#:   ``flips_for_instance``, the anonymous per-seed pipeline), fault
#:   roll stream (:func:`repro.faults.model.roll_u64`) or seeded
#:   schedule (:func:`repro.simulator.fleet.schedule_bit`);
#: * the recovery classification rules (`RecoveryCheck.classify`);
#: * a shard payload format in :mod:`repro.farm.workloads`.
#:
#: Do NOT bump it for new backends, performance work, or refactors that
#: the differential batteries certify as bit-identical — those must hit
#: the existing cache, which is the point of keeping the version
#: backend-independent.
SEMANTICS_VERSION = 2

#: Version of the *topology-workload* execution semantics.
#:
#: Workloads that run on an explicit topology (an ear-election sweep —
#: any params carrying a non-None ``"topology"`` descriptor) fold this
#: second version into their keys, so topology-layer semantic changes
#: (the ear-walk construction, the virtual-ID scheme, the port
#: convention of :func:`repro.topology.graph_topology`) can invalidate
#: exactly the topology shards.  Ring workloads never see it: their key
#: payloads are byte-for-byte what they were before the topology layer
#: existed, which is what keeps every pre-existing farm cache warm —
#: pinned by the key-stability test battery.
TOPOLOGY_SEMANTICS_VERSION = 2


def canonical_json(obj: Any) -> str:
    """Serialize ``obj`` to its canonical JSON form (stable across dict
    insertion orders; rejects NaN/Infinity, which have no canonical
    JSON spelling and would silently produce invalid documents)."""
    _reject_non_finite(obj)
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )


def _reject_non_finite(obj: Any) -> None:
    if isinstance(obj, float) and not math.isfinite(obj):
        raise ConfigurationError(
            f"cache-key payloads must be finite, got {obj!r}"
        )
    if isinstance(obj, dict):
        for key, value in obj.items():
            if not isinstance(key, str):
                raise ConfigurationError(
                    f"cache-key dicts need string keys, got {key!r}"
                )
            _reject_non_finite(value)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            _reject_non_finite(value)


def digest(obj: Any) -> str:
    """SHA-256 hex digest of ``obj``'s canonical JSON form."""
    return hashlib.sha256(canonical_json(obj).encode("ascii")).hexdigest()


def canonical_fault_model(model: Optional[FaultModel]) -> Optional[Dict]:
    """A :class:`FaultModel` as a canonical, hashable dict (None → None).

    Every field is spelled explicitly — including defaults — so adding a
    model field later changes the canonical form (and hence the keys)
    only when the new field is wired in here, which forces the
    :data:`SEMANTICS_VERSION` question to be answered consciously.
    """
    if model is None:
        return None
    canonical = {
        "drop_rate": model.drop_rate,
        "duplicate_rate": model.duplicate_rate,
        "spurious_rate": model.spurious_rate,
        "seed": model.seed,
        "burst": (
            None
            if model.burst is None
            else {"start": model.burst.start, "length": model.burst.length}
        ),
        "drops": [
            {
                "round_index": drop.round_index,
                "node": drop.node,
                "direction": drop.direction,
                "instance": drop.instance,
                "count": drop.count,
            }
            for drop in model.drops
        ],
        "crashes": [
            {
                "node": crash.node,
                "at_round": crash.at_round,
                "restart_after": crash.restart_after,
                "instance": crash.instance,
            }
            for crash in model.crashes
        ],
        "corruptions": [
            {
                "node": corruption.node,
                "at_round": corruption.at_round,
                "field": corruption.field,
                "value": corruption.value,
                "instance": corruption.instance,
            }
            for corruption in model.corruptions
        ],
    }
    # The adversarial clauses entered the model after the farm shipped;
    # emitting them only when present keeps every pre-existing cached
    # payload byte-identical (no SEMANTICS_VERSION bump needed — the
    # key-stability battery pins this).
    if model.crash_rate:
        canonical["crash_rate"] = model.crash_rate
    if model.groups:
        canonical["groups"] = [
            {
                "anchor": group.anchor,
                "at_round": group.at_round,
                "trigger_field": group.trigger_field,
                "trigger_threshold": group.trigger_threshold,
                "crash": group.crash,
                "restart_after": group.restart_after,
                "drops": [
                    {
                        "offset": drop.offset,
                        "node_offset": drop.node_offset,
                        "direction": drop.direction,
                        "count": drop.count,
                    }
                    for drop in group.drops
                ],
                "burst": (
                    None
                    if group.burst is None
                    else {
                        "start": group.burst.start,
                        "length": group.burst.length,
                    }
                ),
                "instance": group.instance,
            }
            for group in model.groups
        ]
    return canonical


def fault_model_from_canonical(data: Optional[Mapping[str, Any]]) -> Optional[FaultModel]:
    """Rebuild a :class:`FaultModel` from its canonical dict (inverse of
    :func:`canonical_fault_model`) — how a shard worker reconstitutes
    the model a cache key was derived from."""
    if data is None:
        return None
    from repro.faults.model import (
        FaultBurst,
        FaultGroup,
        GroupDrop,
        NodeCrash,
        PulseDrop,
        StateCorruption,
    )

    def _burst(burst: Any) -> Optional[FaultBurst]:
        if burst is None:
            return None
        return FaultBurst(start=burst["start"], length=burst["length"])

    return FaultModel(
        drop_rate=data["drop_rate"],
        duplicate_rate=data["duplicate_rate"],
        spurious_rate=data["spurious_rate"],
        seed=data["seed"],
        burst=_burst(data.get("burst")),
        drops=tuple(PulseDrop(**drop) for drop in data["drops"]),
        crashes=tuple(NodeCrash(**crash) for crash in data["crashes"]),
        corruptions=tuple(
            StateCorruption(**corruption) for corruption in data["corruptions"]
        ),
        crash_rate=data.get("crash_rate", 0.0),
        groups=tuple(
            FaultGroup(
                anchor=group["anchor"],
                at_round=group["at_round"],
                trigger_field=group["trigger_field"],
                trigger_threshold=group["trigger_threshold"],
                crash=group["crash"],
                restart_after=group["restart_after"],
                drops=tuple(GroupDrop(**drop) for drop in group["drops"]),
                burst=_burst(group["burst"]),
                instance=group["instance"],
            )
            for group in data.get("groups", ())
        ),
    )


def shard_key(workload: str, params: Mapping[str, Any], start: int, stop: int) -> str:
    """The content address of one shard result.

    Pure in ``(SEMANTICS_VERSION, workload, params, start, stop)`` —
    two campaigns whose shard grids overlap share the overlapping keys,
    which is what makes an enlarged re-sweep mostly cache hits.
    """
    if not 0 <= start < stop:
        raise ConfigurationError(
            f"shard range must satisfy 0 <= start < stop, got [{start}, {stop})"
        )
    payload = {
        "semantics": SEMANTICS_VERSION,
        "workload": workload,
        "params": dict(params),
        "start": start,
        "stop": stop,
    }
    if params.get("topology") is not None:
        # Only topology workloads carry the second version coordinate;
        # ring payloads stay byte-identical to the pre-topology farm.
        payload["topology_semantics"] = TOPOLOGY_SEMANTICS_VERSION
    return digest(payload)


def campaign_id(spec: Mapping[str, Any]) -> str:
    """The identity of a whole campaign (spec hash, first 16 hex chars).

    Campaign identity includes the shard grid (``total``, ``shard_size``)
    so two differently-sharded submissions of the same parameters are
    distinct campaigns — while their aligned shards still share cache
    keys via :func:`shard_key`.
    """
    return digest({"semantics": SEMANTICS_VERSION, **dict(spec)})[:16]
