"""Explorer-backend compiler: deterministic replay of channel faults.

The schedule explorers branch over delivery orders, re-simulating sends
in arbitrary branch orders — they cannot consume a live channel's fault
counters.  Because every :class:`~repro.faults.model.FaultModel` decision
is already a pure function of ``(channel_id, send_index)``, replay is
just calling the model again: no cached RNG streams, no shared mutable
state.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.faults.channel import FaultyChannel
from repro.faults.model import FaultModel
from repro.simulator.network import Network


class ReplayProfile:
    """Pure-function replay of a faulted network's per-send decisions.

    ``copies(channel_id, index)`` answers how many pulses the ``index``-th
    send on ``channel_id`` contributes to the queue: 0 (dropped), 1
    (clean), 2 (duplicated) — plus 1 more when a spurious pulse rides
    along.  The answer matches :class:`~repro.faults.channel.FaultyChannel`
    exactly, in any branch order.
    """

    def __init__(self, network: Network) -> None:
        self._models: Dict[int, FaultModel] = {}
        for channel in network.channels:
            if isinstance(channel, FaultyChannel) and channel.model.has_channel_rates:
                # FaultyChannel construction already rejects fleet-only
                # clauses (groups, crash_rate, round-indexed drops), so
                # every model here is replayable as a pure function of
                # (channel_id, send_index).
                assert not channel.model.fleet_only_clauses
                self._models[channel.channel_id] = channel.model

    def __bool__(self) -> bool:
        return bool(self._models)

    def copies(self, channel_id: int, index: int) -> int:
        model = self._models.get(channel_id)
        if model is None:
            return 1
        return model.pulse_copies(channel_id, index)

    # The profile is immutable; deep-copying an explorer state must not
    # fork it.
    def __deepcopy__(self, memo: dict) -> "ReplayProfile":
        return self


def build_fault_profile(network: Network) -> Optional[ReplayProfile]:
    """A :class:`ReplayProfile` for ``network``, or None when unfaulted."""
    profile = ReplayProfile(network)
    return profile if profile else None
