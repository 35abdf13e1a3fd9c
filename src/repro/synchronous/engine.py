"""A minimal synchronous round-based engine.

Synchrony is everything the paper's asynchronous model withholds: global
lockstep rounds, messages sent in round ``r`` all delivered at the start
of round ``r + 1``, and — crucially — a shared round counter, so that
**not** sending in a round is observable and can carry information.

The engine reuses the ring wiring of :mod:`repro.simulator.ring` (ports,
channels, flips) but drives :class:`SyncNode` objects whose single
callback sees the whole round: the round number and the batch of
messages that arrived.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.exceptions import ProtocolViolation, SimulationLimitExceeded
from repro.simulator.network import Network
from repro.simulator.node import check_port


class SyncNodeAPI:
    """Capabilities available to a node during one round."""

    __slots__ = ("_engine", "_node_index")

    def __init__(self, engine: "SyncEngine", node_index: int) -> None:
        self._engine = engine
        self._node_index = node_index

    def send(self, port: int, content: Any = None) -> None:
        """Send a message out of ``port``; it arrives next round."""
        self._engine._send(self._node_index, check_port(port), content)

    def terminate(self, output: Any = None) -> None:
        """Enter the terminating state with ``output``."""
        self._engine._terminate(self._node_index, output)


class SyncNode(abc.ABC):
    """A node driven in synchronous rounds."""

    def __init__(self) -> None:
        self.terminated = False
        self.output: Optional[Any] = None

    def _mark_terminated(self, output: Any) -> None:
        if self.terminated:
            raise ProtocolViolation("node terminated twice")
        self.terminated = True
        self.output = output

    @abc.abstractmethod
    def on_round(
        self,
        api: SyncNodeAPI,
        round_number: int,
        inbox: List[Tuple[int, Any]],
    ) -> None:
        """Called once per round with all messages that just arrived.

        Args:
            api: Send/terminate capabilities for this round.
            round_number: The global round counter, starting at 0 —
                knowledge the asynchronous model forbids.
            inbox: ``(port, content)`` pairs delivered this round, in
                per-channel FIFO order.
        """


@dataclass
class SyncRunResult:
    """Outcome of a synchronous run."""

    rounds_used: int
    total_sent: int
    outputs: List[Any]
    terminated: List[bool]
    termination_rounds: Dict[int, int] = field(default_factory=dict)

    @property
    def all_terminated(self) -> bool:
        return all(self.terminated)


class SyncEngine:
    """Runs a network of :class:`SyncNode` objects in lockstep rounds.

    Args:
        network: Wired topology (ring builders work unchanged) whose
            nodes are :class:`SyncNode` instances.
        max_rounds: Bound before declaring non-termination.
    """

    def __init__(self, network: Network, max_rounds: int = 100_000) -> None:
        self.network = network
        self.max_rounds = max_rounds
        self._in_flight: Dict[int, List[Any]] = {}  # channel_id -> payloads
        self._total_sent = 0
        self._round = 0
        self._termination_rounds: Dict[int, int] = {}
        self._apis = [
            SyncNodeAPI(self, index) for index in range(len(network.nodes))
        ]

    # -- node-facing -----------------------------------------------------------

    def _send(self, node_index: int, port: int, content: Any) -> None:
        node = self.network.nodes[node_index]
        if node.terminated:
            raise ProtocolViolation(
                f"node {node_index} attempted to send after terminating"
            )
        channel = self.network.channel_for_send(node_index, port)
        payload = None if channel.defective else content
        self._in_flight.setdefault(channel.channel_id, []).append(payload)
        self._total_sent += 1

    def _terminate(self, node_index: int, output: Any) -> None:
        self.network.nodes[node_index]._mark_terminated(output)
        self._termination_rounds[node_index] = self._round

    # -- the round loop ----------------------------------------------------------

    def run(self) -> SyncRunResult:
        """Run rounds until every node terminates (or the bound trips)."""
        nodes = self.network.nodes
        while not all(node.terminated for node in nodes):
            if self._round >= self.max_rounds:
                raise SimulationLimitExceeded(
                    f"no global termination after {self._round} rounds",
                    steps=self._round,
                )
            arriving, self._in_flight = self._in_flight, {}
            inboxes: Dict[int, List[Tuple[int, Any]]] = {}
            for channel_id, payloads in arriving.items():
                dst_node, dst_port = self.network.channels[channel_id].dst
                inboxes.setdefault(dst_node, []).extend(
                    (dst_port, payload) for payload in payloads
                )
            for index, node in enumerate(nodes):
                if node.terminated:
                    continue
                node.on_round(
                    self._apis[index], self._round, inboxes.get(index, [])
                )
            self._round += 1
        return SyncRunResult(
            rounds_used=self._round,
            total_sent=self._total_sent,
            outputs=[node.output for node in nodes],
            terminated=[node.terminated for node in nodes],
            termination_rounds=dict(self._termination_rounds),
        )
