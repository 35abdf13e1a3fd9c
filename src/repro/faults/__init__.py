"""One declarative fault language, compiled onto every backend.

:class:`FaultModel` states *what the adversary may do* — per-pulse
drop/duplicate rates, spurious injection, bounded bursts, node
crash(-restart), transient state corruption, probabilistic fail-stop
(``crash_rate``), and correlated :class:`FaultGroup` clauses (crash +
drops + burst bound to one anchor and one trigger) — once, against the
kernel ``SCHEMA``\\ s.  Each backend gets a thin compiler:

* event-driven + batched engines → :class:`FaultyChannel`
  (:func:`apply_fault_model`);
* fleet NumPy + pure-Python columns → one :class:`FleetFaults` adapter
  per fleet run, over that run's lanes (one flight array per travel
  direction; :func:`compile_fleet_faults`);
* schedule explorers → :class:`ReplayProfile` (pure-function replay).

All randomness is counter-based (:func:`roll_u64`): a decision is a pure
function of ``(seed, kind, instance, round, channel, pulse)``, so any
run — solo, sharded, or branched — replays bit-identically.
"""

from repro.faults.channel import (
    FAULT_SPURIOUS_BIT,
    FAULT_TWIN_BIT,
    FaultyChannel,
    apply_fault_model,
    fault_counts,
    is_fault_seq,
    total_faults,
)
from repro.faults.fleet import (
    FleetFaults,
    compile_fleet_faults,
    merge_events,
)
from repro.faults.model import (
    GROUP_TRIGGER_FIELDS,
    FaultBurst,
    FaultGroup,
    FaultModel,
    GroupDrop,
    NodeCrash,
    PulseDrop,
    StateCorruption,
    corruptible_fields,
    mix64,
    rate_threshold,
    roll_u64,
)
from repro.faults.profile import (
    ReplayProfile,
    build_fault_profile,
)

__all__ = [
    "FAULT_SPURIOUS_BIT",
    "FAULT_TWIN_BIT",
    "GROUP_TRIGGER_FIELDS",
    "FaultBurst",
    "FaultGroup",
    "FaultModel",
    "FaultyChannel",
    "FleetFaults",
    "GroupDrop",
    "NodeCrash",
    "PulseDrop",
    "ReplayProfile",
    "StateCorruption",
    "apply_fault_model",
    "build_fault_profile",
    "compile_fleet_faults",
    "corruptible_fields",
    "fault_counts",
    "is_fault_seq",
    "merge_events",
    "mix64",
    "rate_threshold",
    "roll_u64",
    "total_faults",
]
