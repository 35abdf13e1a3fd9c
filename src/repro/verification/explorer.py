"""Exhaustive exploration of the asynchronous scheduling nondeterminism.

The asynchronous adversary's only power in this model is choosing, at
each step, which non-empty FIFO channel delivers its head message.  For
a fixed input, the set of executions therefore forms a finite branching
structure whose nodes are global states (all node states + all channel
queues).  This module walks that structure exhaustively:

* **State fingerprints.**  A global state is fingerprinted from every
  node's ``__dict__`` (recursively frozen) plus every channel's queue
  content.  Two schedules reaching the same fingerprint have
  behaviourally identical futures, so the search memoizes on it —
  turning the execution *tree* (exponential) into the reachable-state
  *graph* (typically small for the paper's algorithms, whose counters
  are bounded by IDmax).
* **Branching.**  From each state, one successor per non-empty channel
  (deep-copying the state and delivering that channel's head).
* **Certificates.**  The explorer records every terminal (quiescent)
  state's fingerprint and evaluates invariant hooks at every reachable
  state; `ExplorationResult.confluent` says whether all executions end
  in the same terminal state — exactly the schedule-invariance that
  Theorem 1's exact message count implies.

This is bounded model checking, not proof: it certifies one instance
(one ring, one ID assignment) over *all* its schedules.  The test-suite
runs it on a battery of small instances.

This module is the **unreduced reference search**: it expands every
enabled delivery at every state.  The partial-order-reduced search in
:mod:`repro.verification.reduced` visits far fewer states while
preserving the terminal-state certificates; the differential battery in
the test-suite holds the two (and the live engine) to identical
verdicts.  See ``docs/VERIFICATION.md``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Callable, List, Sequence, Set, Tuple

from repro.exceptions import ProtocolViolation, ReproError
from repro.simulator.network import Network
from repro.simulator.node import NodeAPI, check_port
from repro.core.schema import freeze_value, node_fingerprint
from repro.faults.profile import build_fault_profile
from repro.verification.common import EngineView

#: An engine-style invariant hook, evaluated at every explored state via
#: an :class:`~repro.verification.common.EngineView` adapter.
StateHook = Callable[[Any], None]


class ExplorationLimitExceeded(ReproError):
    """The reachable state space outgrew the configured budget."""


class _ExplorerAPI(NodeAPI):
    """Capability object used during exploration; writes into a _SimState."""

    __slots__ = ("_state", "_node_index")

    def __init__(self, state: "_SimState", node_index: int) -> None:
        self._state = state
        self._node_index = node_index

    def send(self, port: int, content: Any = None) -> None:
        num_ports = self._state.num_ports[self._node_index]
        self._state.send(self._node_index, check_port(port, num_ports), content)

    def terminate(self, output: Any = None) -> None:
        self._state.terminate(self._node_index, output)


class _SimState:
    """One global state: nodes + channel queues, deep-copyable."""

    __slots__ = (
        "nodes",
        "queues",
        "channel_dst",
        "channel_src_defective",
        "total_sent",
        "out_channel",
        "num_ports",
        "fault_profile",
        "fault_idx",
    )

    def __init__(self, network: Network) -> None:
        self.nodes = network.nodes
        self.queues: List[List[Any]] = [[] for _ in network.channels]
        self.channel_dst = [channel.dst for channel in network.channels]
        self.channel_src_defective = [channel.defective for channel in network.channels]
        self.out_channel = dict(network.out_channel)
        # Per-node port counts (>= 2 so ring diagnostics stay stable);
        # shared by all deep-copied states via the list's per-copy clone.
        self.num_ports = [2] * len(network.nodes)
        for (node, port) in self.out_channel:
            self.num_ports[node] = max(self.num_ports[node], port + 1)
        for channel in network.channels:
            self.num_ports[channel.dst_node] = max(
                self.num_ports[channel.dst_node], channel.dst_port + 1
            )
        self.total_sent = 0
        # Faulty networks: replay FaultyChannel's drop/duplicate decisions
        # per (channel, enqueue index); the profile is shared (its
        # __deepcopy__ returns self), only the indices are per-state.
        self.fault_profile = build_fault_profile(network)
        self.fault_idx = (
            [0] * len(network.channels) if self.fault_profile else None
        )

    # -- node-facing ----------------------------------------------------------

    def send(self, node_index: int, port: int, content: Any) -> None:
        node = self.nodes[node_index]
        if node.terminated:
            raise ProtocolViolation(
                f"node {node_index} attempted to send after terminating"
            )
        if port in node.SILENT_SEND_PORTS:
            raise ProtocolViolation(
                f"node {node_index} sent on port {port}, which its class "
                f"{type(node).__qualname__} declares silent (SILENT_SEND_PORTS)"
            )
        channel_id = self.out_channel[(node_index, port)]
        payload = None if self.channel_src_defective[channel_id] else content
        copies = 1
        if self.fault_profile is not None:
            copies = self.fault_profile.copies(
                channel_id, self.fault_idx[channel_id]
            )
            self.fault_idx[channel_id] += 1
        for _ in range(copies):
            self.queues[channel_id].append(payload)
        self.total_sent += 1

    def terminate(self, node_index: int, output: Any) -> None:
        self.nodes[node_index]._mark_terminated(output)

    # -- exploration plumbing ---------------------------------------------------

    def nonempty(self) -> List[int]:
        return [cid for cid, queue in enumerate(self.queues) if queue]

    def pending_messages(self) -> int:
        return sum(len(queue) for queue in self.queues)

    def deliver(self, channel_id: int) -> bool:
        """Deliver the FIFO head of ``channel_id``.

        Returns True when the pulse was delivered to (and ignored by) an
        already-terminated node — a quiescent-termination violation.
        """
        content = self.queues[channel_id].pop(0)
        receiver_index, receiver_port = self.channel_dst[channel_id]
        receiver = self.nodes[receiver_index]
        if receiver.terminated:
            return True
        receiver.on_message(
            _ExplorerAPI(self, receiver_index), receiver_port, content
        )
        return False

    def init_all(self) -> None:
        for index, node in enumerate(self.nodes):
            node.on_init(_ExplorerAPI(self, index))

    def fingerprint(self) -> Tuple:
        queues = tuple(
            tuple(freeze_value(item) for item in queue) for queue in self.queues
        )
        if self.fault_idx is not None:
            # With faults, future behaviour depends on each channel's roll
            # position, so it is part of the state.
            return (node_fingerprint(self.nodes), queues, tuple(self.fault_idx))
        return (node_fingerprint(self.nodes), queues)


@dataclass
class ExplorationResult:
    """Outcome of exhausting one instance's schedule space.

    Attributes:
        states_explored: Number of distinct reachable global states.
        transitions: Number of state transitions examined (≈ schedules
            collapsed by memoization).
        terminal_fingerprints: Distinct quiescent end states reached.
        terminal_outputs: The per-node outputs/states of each distinct
            terminal state (parallel to ``terminal_fingerprints``).
        terminal_total_sent: Total messages sent on the way into each
            distinct terminal state (parallel again) — the exact message
            complexity certified per end state.
        quiescence_violations: Number of explored transitions that
            delivered a pulse to a terminated node.
        max_in_flight: Largest number of simultaneously in-flight pulses
            seen anywhere in the state space.
    """

    states_explored: int
    transitions: int
    terminal_fingerprints: List[Tuple]
    terminal_outputs: List[Tuple]
    quiescence_violations: int
    max_in_flight: int
    terminal_total_sent: List[int] = field(default_factory=list)

    @property
    def confluent(self) -> bool:
        """All schedules funnel into one terminal state."""
        return len(self.terminal_fingerprints) == 1

    @property
    def terminal_node_fingerprints(self) -> List[Tuple]:
        """The node-state component of each terminal fingerprint.

        Channel queues are empty at quiescence, so this component is the
        whole observable end state; it is the shared currency of the
        reduced-vs-unreduced-vs-engine differential tests.
        """
        return [fingerprint[0] for fingerprint in self.terminal_fingerprints]


def explore_all_schedules(
    network_factory: Callable[[], Network],
    max_states: int = 2_000_000,
    invariant_hooks: Sequence[StateHook] = (),
) -> ExplorationResult:
    """Exhaustively explore every delivery schedule of a network.

    Args:
        network_factory: Builds a *fresh* network (fresh node objects) —
            called once; exploration proceeds by deep-copying states.
        max_states: Budget on distinct states before raising
            :class:`ExplorationLimitExceeded`.
        invariant_hooks: Engine-style hooks (e.g. the executable lemmas
            in :mod:`repro.core.invariants`) evaluated at every explored
            state through an :class:`~repro.verification.common.EngineView`;
            a hook raises (``AssertionError`` or
            :class:`~repro.core.invariants.InvariantViolation`) to abort
            the exploration.

    Returns:
        An :class:`ExplorationResult` certificate for this instance.
    """
    root = _SimState(network_factory())
    root.init_all()

    def check(state: _SimState) -> None:
        if invariant_hooks:
            view = EngineView(state.nodes, state.pending_messages())
            for hook in invariant_hooks:
                hook(view)

    check(root)

    seen: Set[Tuple] = set()
    terminal_fingerprints: List[Tuple] = []
    terminal_outputs: List[Tuple] = []
    terminal_total_sent: List[int] = []
    transitions = 0
    violations = 0
    max_in_flight = root.pending_messages()

    stack: List[_SimState] = [root]
    seen.add(root.fingerprint())

    while stack:
        state = stack.pop()
        candidates = state.nonempty()
        if not candidates:
            fp = state.fingerprint()
            if fp not in set(terminal_fingerprints):
                terminal_fingerprints.append(fp)
                terminal_outputs.append(
                    tuple(freeze_value(getattr(node, "output", None)) for node in state.nodes)
                )
                terminal_total_sent.append(state.total_sent)
            continue
        for channel_id in candidates:
            successor = copy.deepcopy(state)
            transitions += 1
            if successor.deliver(channel_id):
                violations += 1
            fp = successor.fingerprint()
            if fp in seen:
                continue
            seen.add(fp)
            if len(seen) > max_states:
                raise ExplorationLimitExceeded(
                    f"more than {max_states} reachable states; "
                    "shrink the instance or raise max_states"
                )
            check(successor)
            in_flight = successor.pending_messages()
            max_in_flight = max(max_in_flight, in_flight)
            stack.append(successor)

    return ExplorationResult(
        states_explored=len(seen),
        transitions=transitions,
        terminal_fingerprints=terminal_fingerprints,
        terminal_outputs=terminal_outputs,
        quiescence_violations=violations,
        max_in_flight=max_in_flight,
        terminal_total_sent=terminal_total_sent,
    )
