"""Event-backend compiler: faulty channels for the Engine family.

Wraps :class:`~repro.simulator.channel.Channel` objects so every enqueue
consults the shared :class:`~repro.faults.model.FaultModel`.  The batched
engine already falls back to per-pulse delivery on any channel subclass,
so wrapping is the *only* integration point for both event backends.

Injected pulses are tagged in their ``send_seq`` (:data:`FAULT_TWIN_BIT`
for duplicates, :data:`FAULT_SPURIOUS_BIT` for spurious injections) so
traces, fingerprints, and the diagnosis layer can attribute which pulse
was the fault — the nodes never see sequence numbers, so the tag cannot
leak into algorithm behaviour.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.exceptions import ConfigurationError
from repro.faults.model import FaultModel
from repro.simulator.channel import Channel
from repro.simulator.network import Network

#: ``send_seq`` marker for an injected duplicate twin.  Engine sequence
#: numbers count real sends (well below 2**60), so the high bits are free.
FAULT_TWIN_BIT = 1 << 60
#: ``send_seq`` marker for a spurious (from-nowhere) pulse.
FAULT_SPURIOUS_BIT = 1 << 61


def is_fault_seq(send_seq: int) -> bool:
    """Whether a ``send_seq`` belongs to an injected (fault) pulse."""
    return bool(send_seq & (FAULT_TWIN_BIT | FAULT_SPURIOUS_BIT))


class FaultyChannel(Channel):
    """A channel that violates the model per a :class:`FaultModel`.

    Attributes:
        model: The shared declarative fault model.
        dropped: Number of messages silently destroyed so far.
        duplicated: Number of messages delivered twice so far.
        injected: Number of spurious pulses injected so far.
    """

    def __init__(self, base: Channel, model: FaultModel) -> None:
        super().__init__(
            channel_id=base.channel_id,
            src=base.src,
            dst=base.dst,
            defective=base.defective,
        )
        # Defense in depth for direct construction (apply_fault_model
        # rejects these too): round-indexed clauses — pulse drops, node
        # crashes, corruptions, correlated groups, crash_rate — have no
        # event-channel lowering; silently ignoring them would make the
        # engine disagree with the fleet on the same model.
        if model.fleet_only_clauses:
            raise ConfigurationError(
                f"fault clauses {'/'.join(model.fleet_only_clauses)} only "
                "compile onto the fleet engine; FaultyChannel supports the "
                "random drop/duplicate/spurious rates"
            )
        self.model = model
        self.dropped = 0
        self.duplicated = 0
        self.injected = 0
        self._send_index = 0

    def enqueue(self, send_seq: int, content: Any = None) -> None:
        index = self._send_index
        self._send_index += 1
        copies, spurious = self.model.send_outcome(self.channel_id, index)
        if copies == 0:
            self.dropped += 1  # the pulse evaporates: model violation #1
        else:
            super().enqueue(send_seq, content)
            if copies == 2:
                self.duplicated += 1  # injected twin: violation #2
                super().enqueue(send_seq | FAULT_TWIN_BIT, content)
        if spurious:
            self.injected += 1  # pulse from nowhere: violation #2, unprompted
            super().enqueue(send_seq | FAULT_SPURIOUS_BIT, None)


def apply_fault_model(network: Network, model: FaultModel) -> Network:
    """Replace every channel of ``network`` with a faulty twin, in place.

    Must be called before the engine run starts (queues must be empty).
    Returns the same network for chaining.  Fleet-only clauses (pulse
    drops by round, crashes, corruptions, correlated groups, crash_rate)
    have no event-channel lowering and are rejected — run those through
    the fleet engine.
    """
    if model.fleet_only_clauses:
        raise ConfigurationError(
            "fault clauses "
            f"{'/'.join(model.fleet_only_clauses)} are round-indexed and "
            "only compile onto the fleet engine; event-driven channels "
            "support the random drop/duplicate/spurious rates"
        )
    for channel in network.channels:
        if channel.pending:
            raise ConfigurationError(
                "fault plans must be applied before any message is sent"
            )
    network.channels = [
        FaultyChannel(channel, model) for channel in network.channels
    ]
    return network


def total_faults(network: Network) -> tuple:
    """(dropped, duplicated) across all channels of a faulted network."""
    counts = fault_counts(network)
    return counts["dropped"], counts["duplicated"]


def fault_counts(network: Network) -> Dict[str, int]:
    """All per-kind fault counters across a faulted network's channels."""
    dropped = duplicated = injected = 0
    for channel in network.channels:
        if isinstance(channel, FaultyChannel):
            dropped += channel.dropped
            duplicated += channel.duplicated
            injected += channel.injected
    return {"dropped": dropped, "duplicated": duplicated, "injected": injected}
