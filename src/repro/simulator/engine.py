"""The discrete-event engine: runs a network to quiescence.

One engine run is one *execution* in the paper's sense.  The run proceeds
as follows:

1. Every node's ``on_init`` fires (a node "acts once right in the
   beginning").  Because nodes react only to deliveries and initial sends
   depend on no input, initializing all nodes before the first delivery
   loses no generality: an execution where some node starts "late" is
   indistinguishable from one where the scheduler merely postpones all
   deliveries to that node.
2. While any channel holds an in-flight message, the
   :class:`~repro.simulator.scheduler.Scheduler` (the asynchronous
   adversary) picks a non-empty channel and its FIFO head is delivered.
3. When no message is in flight, the network is **quiescent** and the run
   ends.

The engine distinguishes the paper's two end-of-computation notions:

* *termination* — a node explicitly entered a terminating state (it then
  ignores all further pulses and may not send);
* *quiescence* — no pulses in transit anywhere.

*Quiescent termination* (Theorem 1's guarantee) is both at once, with no
pulse ever delivered to a terminated node; the engine records any
violation and can be asked to raise on it (``strict_quiescence=True``).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.exceptions import (
    ProtocolViolation,
    QuiescentTerminationViolation,
    SimulationLimitExceeded,
)
from repro.simulator.channel import Channel
from repro.simulator.events import DeliveryRecord, SendRecord, TerminationRecord
from repro.simulator.network import Network
from repro.simulator.node import Node, NodeAPI, check_port
from repro.simulator.scheduler import GlobalFifoScheduler, Scheduler
from repro.simulator.trace import Trace

InvariantHook = Callable[["Engine"], None]


@dataclass
class RunResult:
    """Outcome of one engine run.

    Attributes:
        quiescent: True iff the run ended with no message in flight (as
            opposed to hitting the step limit, which raises instead).
        steps: Number of scheduler steps taken.  A step delivers one
            pulse, or on the batched engine one channel's whole FIFO run.
        total_sent: Total messages sent — the paper's message complexity.
        outputs: Per-node ``output`` values (None if the node never set one).
        terminated: Per-node termination flags.
        termination_order: Node indices in the order they terminated.
        quiescence_violations: Human-readable records of pulses delivered
            to, or left queued for, terminated nodes.
        trace: The full :class:`~repro.simulator.trace.Trace` ledger.
    """

    quiescent: bool
    steps: int
    total_sent: int
    outputs: List[Any]
    terminated: List[bool]
    termination_order: List[int]
    quiescence_violations: List[str]
    trace: Trace

    @property
    def all_terminated(self) -> bool:
        """True iff every node entered a terminating state."""
        return all(self.terminated)

    @property
    def quiescently_terminated(self) -> bool:
        """Theorem 1's guarantee: all terminated, quiescent, no violations."""
        return (
            self.quiescent
            and self.all_terminated
            and not self.quiescence_violations
        )


class _EngineNodeAPI(NodeAPI):
    """Engine-backed capabilities for a single node."""

    __slots__ = ("_engine", "_node_index")

    def __init__(self, engine: "Engine", node_index: int) -> None:
        self._engine = engine
        self._node_index = node_index

    def send(self, port: int, content: Any = None) -> None:
        num_ports = self._engine._num_ports[self._node_index]
        self._engine._do_send(self._node_index, check_port(port, num_ports), content)

    def send_many(self, port: int, count: int) -> None:
        num_ports = self._engine._num_ports[self._node_index]
        self._engine._do_send_many(self._node_index, check_port(port, num_ports), count)

    def terminate(self, output: Any = None) -> None:
        self._engine._do_terminate(self._node_index, output)


class Engine:
    """Runs a :class:`~repro.simulator.network.Network` to quiescence.

    Args:
        network: The wired topology with its node objects.
        scheduler: The asynchronous adversary; defaults to global-FIFO.
            Scheduler instances are stateful — use a fresh one per run.
        max_steps: Safety bound on scheduler steps; exceeding it raises
            :class:`~repro.exceptions.SimulationLimitExceeded` (livelock guard).
        strict_quiescence: Raise the moment a quiescent-termination
            violation is observed instead of merely recording it.
        record_events: Keep full per-event logs in the trace (needed by the
            solitude-pattern machinery; off by default to save memory).
            Event recording is per-pulse by definition, so it disables the
            batched fast path.
        invariant_hooks: Callables invoked after every scheduler step with
            the engine; they should raise ``AssertionError`` on violation.
        batched: Deliver a channel's entire FIFO run in one scheduler step
            wherever that is observably safe — the channel is fully
            defective, unfaulted, and events are not being recorded.  Such
            channels are switched to counting mode and their runs reach
            receivers through :meth:`~repro.simulator.node.Node.on_pulses`.
            Every batched execution corresponds pulse-for-pulse to a legal
            unbatched schedule (see docs/PERFORMANCE.md), so results agree
            with the slow path on everything the model can observe.
    """

    def __init__(
        self,
        network: Network,
        scheduler: Optional[Scheduler] = None,
        max_steps: int = 10_000_000,
        strict_quiescence: bool = False,
        record_events: bool = False,
        invariant_hooks: Sequence[InvariantHook] = (),
        batched: bool = False,
    ) -> None:
        self.network = network
        self.scheduler = scheduler if scheduler is not None else GlobalFifoScheduler()
        self.max_steps = max_steps
        self.strict_quiescence = strict_quiescence
        self.trace = Trace(record_events=record_events)
        self.invariant_hooks = list(invariant_hooks)
        self.batched = batched
        self._seq = 0
        self._steps = 0
        self._violations: List[str] = []
        self._apis = [
            _EngineNodeAPI(self, index) for index in range(len(network.nodes))
        ]
        self._ran = False
        if batched and not record_events:
            for channel in network.channels:
                # Only plain defective channels may coalesce: faulty
                # subclasses keep per-pulse enqueue semantics (they fall
                # back to the slow path), content channels need payloads.
                if type(channel) is Channel and channel.defective:
                    channel.enable_counting()
        # Inbound-channel index per node: _do_terminate's in-transit check
        # must not rescan every channel on each termination.
        self._in_channels: List[List[Channel]] = [[] for _ in network.nodes]
        for channel in network.channels:
            self._in_channels[channel.dst_node].append(channel)
        # Per-node port counts for send-path validation: rings keep their
        # two ports; variable-degree topologies extend to the highest
        # wired port.  (Minimum 2 so ring error messages stay stable.)
        self._num_ports: List[int] = [2] * len(network.nodes)
        for (node, port) in network.out_channel:
            if port + 1 > self._num_ports[node]:
                self._num_ports[node] = port + 1
        for channel in network.channels:
            if channel.dst_port + 1 > self._num_ports[channel.dst_node]:
                self._num_ports[channel.dst_node] = channel.dst_port + 1
        # Channels with in-flight messages, maintained incrementally as a
        # channel-id-sorted list (plus a membership set): gives schedulers
        # the same deterministic candidate order as the previous
        # sort-per-delivery without the O(C log C) per-step cost.
        self._active_set = {
            channel.channel_id for channel in network.channels if channel
        }
        self._active_ids: List[int] = sorted(self._active_set)

    # -- node-facing plumbing ------------------------------------------------

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _activate(self, channel: Channel) -> None:
        channel_id = channel.channel_id
        if channel_id not in self._active_set:
            self._active_set.add(channel_id)
            insort(self._active_ids, channel_id)

    def _deactivate(self, channel: Channel) -> None:
        channel_id = channel.channel_id
        self._active_set.discard(channel_id)
        self._active_ids.pop(bisect_left(self._active_ids, channel_id))

    def _do_send(self, node_index: int, port: int, content: Any) -> None:
        node = self.network.nodes[node_index]
        if node.terminated:
            raise ProtocolViolation(
                f"node {node_index} attempted to send after terminating"
            )
        channel = self.network.channel_for_send(node_index, port)
        seq = self._next_seq()
        channel.enqueue(send_seq=seq, content=content)
        if channel.pending:  # fault-injecting channels may drop the message
            self._activate(channel)
        if self.trace.record_events:
            self.trace.note_send(
                SendRecord(
                    seq=seq,
                    sender=node_index,
                    port=port,
                    channel_id=channel.channel_id,
                    content=content,
                )
            )
        else:
            self.trace.count_send(node_index, port)

    def _do_send_many(self, node_index: int, port: int, count: int) -> None:
        """Bulk-send ``count`` pulses: one enqueue on counting channels."""
        if count <= 0:
            if count == 0:
                return
            raise ProtocolViolation(f"cannot send {count} pulses")
        channel = self.network.channel_for_send(node_index, port)
        if not channel.counting:
            for _ in range(count):
                self._do_send(node_index, port, None)
            return
        node = self.network.nodes[node_index]
        if node.terminated:
            raise ProtocolViolation(
                f"node {node_index} attempted to send after terminating"
            )
        first_seq = self._seq + 1
        self._seq += count
        channel.enqueue_many(first_seq, count)
        self._activate(channel)
        self.trace.count_send(node_index, port, count)

    def _do_terminate(self, node_index: int, output: Any) -> None:
        node = self.network.nodes[node_index]
        node._mark_terminated(output)
        self.trace.note_termination(
            TerminationRecord(seq=self._next_seq(), node=node_index, output=output)
        )
        # Quiescent termination also forbids pulses already in transit
        # towards the terminating node at the moment it terminates.
        in_transit = sum(
            channel.pending for channel in self._in_channels[node_index]
        )
        if in_transit:
            self._note_violation(
                f"node {node_index} terminated with {in_transit} pulse(s) "
                "still in transit towards it"
            )

    def _note_violation(self, description: str) -> None:
        self._violations.append(description)
        if self.strict_quiescence:
            raise QuiescentTerminationViolation(description)

    # -- the run loop ---------------------------------------------------------

    def run(self) -> RunResult:
        """Execute to quiescence and return the :class:`RunResult`.

        Raises:
            SimulationLimitExceeded: If ``max_steps`` scheduler steps
                happen without reaching quiescence.
            QuiescentTerminationViolation: In strict mode, on the first
                pulse delivered to (or stranded at) a terminated node.
        """
        if self._ran:
            raise ProtocolViolation("an Engine instance is single-use; build a new one")
        self._ran = True

        for index, node in enumerate(self.network.nodes):
            node.on_init(self._apis[index])

        active_ids = self._active_ids
        channels = self.network.channels
        scheduler_choose = self.scheduler.choose
        hooks = self.invariant_hooks
        max_steps = self.max_steps
        deliver = self._deliver
        deliver_batch = self._deliver_batch
        while active_ids:
            if self._steps >= max_steps:
                raise SimulationLimitExceeded(
                    f"no quiescence after {self._steps} scheduler steps "
                    f"({self.trace.total_received} pulses delivered, "
                    f"{self.network.pending_messages()} still in flight)",
                    steps=self._steps,
                )
            if len(active_ids) == 1:
                chosen = channels[active_ids[0]]
            else:
                candidates = [channels[cid] for cid in active_ids]
                chosen = candidates[scheduler_choose(candidates)]
            if chosen.counting:
                deliver_batch(chosen)
            else:
                deliver(chosen)
            self._steps += 1
            if hooks:
                for hook in hooks:
                    hook(self)

        return RunResult(
            quiescent=True,
            steps=self._steps,
            total_sent=self.trace.total_sent,
            outputs=[node.output for node in self.network.nodes],
            terminated=[node.terminated for node in self.network.nodes],
            termination_order=list(self.trace.termination_order),
            quiescence_violations=list(self._violations),
            trace=self.trace,
        )

    def _deliver(self, channel) -> None:
        send_seq, content = channel.dequeue()
        if not channel.pending:
            self._deactivate(channel)
        receiver_index, receiver_port = channel.dst
        receiver = self.network.nodes[receiver_index]
        ignored = receiver.terminated
        if self.trace.record_events:
            self.trace.note_delivery(
                DeliveryRecord(
                    seq=self._next_seq(),
                    send_seq=send_seq,
                    receiver=receiver_index,
                    port=receiver_port,
                    channel_id=channel.channel_id,
                    content=content,
                    ignored=ignored,
                )
            )
        else:
            self._seq += 1
            self.trace.count_delivery(receiver_index, receiver_port, ignored)
        if ignored:
            self._note_violation(
                f"pulse delivered to terminated node {receiver_index} "
                f"(port {receiver_port})"
            )
            return
        receiver.on_message(self._apis[receiver_index], receiver_port, content)

    def _deliver_batch(self, channel) -> None:
        """Deliver a counting channel's whole FIFO run in one step.

        Equivalent to the adversary picking the same channel ``count``
        times in a row — a legal unbatched schedule — so nothing the model
        can observe distinguishes the two (docs/PERFORMANCE.md spells the
        argument out).
        """
        count = channel.drain()
        self._deactivate(channel)
        receiver_index, receiver_port = channel.dst
        receiver = self.network.nodes[receiver_index]
        self._seq += count
        if receiver.terminated:
            self.trace.count_delivery(receiver_index, receiver_port, True, count)
            self._note_violation(
                f"{count} pulse(s) delivered to terminated node "
                f"{receiver_index} (port {receiver_port})"
            )
            return
        self.trace.count_delivery(receiver_index, receiver_port, False, count)
        receiver.on_pulses(self._apis[receiver_index], receiver_port, count)


def run_to_quiescence(
    network: Network,
    scheduler: Optional[Scheduler] = None,
    **engine_kwargs: Any,
) -> RunResult:
    """Convenience one-shot: build an engine, run it, return the result."""
    return Engine(network, scheduler=scheduler, **engine_kwargs).run()
