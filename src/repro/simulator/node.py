"""The event-driven node protocol.

Nodes in the content-oblivious model (paper, Section 2) are *event-driven*:
a node may act once at the very beginning of the computation and from then
on only upon receiving a pulse.  Its reaction may change local state and
send any number of pulses on either of its two ports.

This module defines:

* :data:`PORT_ZERO` / :data:`PORT_ONE` — the two local port labels of a
  ring node.  In an *oriented* ring, ``PORT_ONE`` is the clockwise port of
  every node; in a non-oriented ring the mapping is arbitrary per node.
* :class:`NodeAPI` — the capability object handed to node callbacks.  It is
  the only way a node can affect the network (send / terminate), which
  keeps algorithm classes pure state machines and makes them reusable
  across the discrete-event engine, the explorers and the composition
  phases.
* :class:`Node` — the abstract base class algorithms subclass.
"""

from __future__ import annotations

import abc
from typing import Any, Optional

from repro.exceptions import ProtocolViolation

PORT_ZERO: int = 0
PORT_ONE: int = 1

VALID_PORTS = (PORT_ZERO, PORT_ONE)


class NodeAPI(abc.ABC):
    """Capabilities a node may use while handling an event.

    Concrete implementations are provided by the discrete-event engine,
    the unreduced and reduced explorers, and the composition phases.
    Algorithm code must interact with the network exclusively through
    this interface.
    """

    @abc.abstractmethod
    def send(self, port: int, content: Any = None) -> None:
        """Send one message out of local ``port``.

        Ring nodes have ports 0 and 1; general-topology nodes (degree
        ``d``) have ports ``0..d-1`` per the
        :mod:`repro.topology` port convention.

        On defective channels the content is erased in transit, so
        content-oblivious algorithms always call ``send(port)`` with no
        content.  Content-carrying baselines pass payloads.
        """

    @abc.abstractmethod
    def terminate(self, output: Any = None) -> None:
        """Enter the terminating state with the given output.

        Per the model, a terminated node ignores all later pulses and sends
        none.  Calling :meth:`send` after termination raises
        :class:`~repro.exceptions.ProtocolViolation`.
        """

    def send_many(self, port: int, count: int) -> None:
        """Send ``count`` contentless pulses out of local ``port``.

        Semantically identical to ``count`` calls to ``send(port)``; batch
        engines override this with an O(1) bulk enqueue so batch handlers
        can relay whole pulse runs without a per-pulse round trip.
        """
        for _ in range(count):
            self.send(port)


class Node(abc.ABC):
    """Abstract event-driven node.

    Subclasses implement the two callbacks and keep all algorithm state on
    ``self``.  A node instance must not be shared between runs: construct
    fresh nodes per execution (the algorithm front doors in
    :mod:`repro.core` do this for you).

    ``SILENT_SEND_PORTS`` declares ports this node class *never* sends on
    in any execution — a static property of the algorithm (e.g. Algorithm 1
    uses the CW channel only).  The schedule explorers consume the
    declaration: a channel whose source port is silent can never carry a
    message, which the partial-order reduction turns into large prunings
    (see ``docs/VERIFICATION.md``).  The declaration is enforced at
    runtime: an explorer raises
    :class:`~repro.exceptions.ProtocolViolation` on any send that
    contradicts it.
    """

    #: Ports this node class provably never sends on (static algorithm fact).
    SILENT_SEND_PORTS: "tuple[int, ...]" = ()

    # Millions of short-lived node objects are built per sweep; slotted
    # layouts shave per-instance memory and attribute-access time.
    # Subclasses that declare new attributes must extend __slots__ (or
    # accept a __dict__, as the content-carrying baselines do).
    __slots__ = ("terminated", "output")

    def __init__(self) -> None:
        self.terminated: bool = False
        self.output: Optional[Any] = None

    @abc.abstractmethod
    def on_init(self, api: NodeAPI) -> None:
        """Called exactly once, before any delivery, at computation start."""

    @abc.abstractmethod
    def on_message(self, api: NodeAPI, port: int, content: Any) -> None:
        """Called for every message delivered to this node.

        Args:
            api: Capability object for sending / terminating.
            port: Local port (0 or 1) the message arrived at.
            content: Message payload; always ``None`` on defective channels.
        """

    def on_pulses(self, api: NodeAPI, port: int, count: int) -> None:
        """Consume a FIFO run of ``count`` contentless pulses at ``port``.

        Called by the batched engine in place of ``count`` separate
        :meth:`on_message` deliveries.  The default processes the run pulse
        by pulse, stopping early if a pulse terminates the node (the slow
        path would likewise never invoke ``on_message`` on a terminated
        node; the stragglers count as ignored deliveries either way).
        Algorithm nodes whose per-pulse reaction has a closed form override
        this to consume the whole run in O(1) — see
        :class:`~repro.core.warmup.WarmupNode` for the canonical example.
        """
        for _ in range(count):
            if self.terminated:
                break
            self.on_message(api, port, None)

    # -- helpers shared by all node implementations -------------------------

    def _mark_terminated(self, output: Any) -> None:
        """Record terminal state; engines call this via their NodeAPI."""
        if self.terminated:
            raise ProtocolViolation("node terminated twice")
        self.terminated = True
        self.output = output


def check_port(port: int, num_ports: int = 2) -> int:
    """Validate a port label, returning it for fluent use.

    ``num_ports`` defaults to the ring's two ports; variable-degree
    runtimes (the general-topology engine paths) pass the receiver's
    actual port count.
    """
    if num_ports == 2:
        if port not in VALID_PORTS:
            raise ProtocolViolation(f"invalid port {port!r}; must be 0 or 1")
    elif not (isinstance(port, int) and 0 <= port < num_ports):
        raise ProtocolViolation(
            f"invalid port {port!r}; node has ports 0..{num_ports - 1}"
        )
    return port
