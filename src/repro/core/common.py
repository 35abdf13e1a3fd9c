"""Shared vocabulary of the leader-election algorithms.

Defines the output states, the oriented-ring port conventions, and the
counter-keeping base class all oriented-ring algorithm nodes share.

Port conventions (oriented rings).  Following the paper's Section 2, every
node's ``Port_1`` is its clockwise (CW) port.  Because CW pulses are *sent
from* CW ports but *arrive at* CCW ports:

* ``sendCW()``  = send on ``Port_1``; a CW pulse *arrives* at ``Port_0``.
* ``sendCCW()`` = send on ``Port_0``; a CCW pulse *arrives* at ``Port_1``.
"""

from __future__ import annotations

import enum
from typing import Sequence

from repro.exceptions import ConfigurationError
from repro.simulator.node import Node, PORT_ONE, PORT_ZERO

#: Port a node sends CW pulses from (its clockwise port).
CW_SEND_PORT = PORT_ONE
#: Port at which CW pulses arrive (the node's counterclockwise port).
CW_ARRIVAL_PORT = PORT_ZERO
#: Port a node sends CCW pulses from (its counterclockwise port).
CCW_SEND_PORT = PORT_ZERO
#: Port at which CCW pulses arrive (the node's clockwise port).
CCW_ARRIVAL_PORT = PORT_ONE


class LeaderState(enum.Enum):
    """A node's election verdict.

    ``UNDECIDED`` exists only transiently: stabilizing algorithms may leave
    a node undecided until its first relevant event, but at quiescence
    every node must hold ``LEADER`` or ``NON_LEADER``.
    """

    UNDECIDED = "undecided"
    LEADER = "leader"
    NON_LEADER = "non-leader"


def validate_unique_ids(ids: Sequence[int]) -> None:
    """Check an ID assignment satisfies the model's preconditions.

    IDs must be positive integers (the paper assigns positive naturals)
    and, for the unique-ID algorithms, pairwise distinct.

    Raises:
        ConfigurationError: On empty, non-positive, non-integer, or
            duplicated IDs.
    """
    if not ids:
        raise ConfigurationError("need at least one ID")
    for node_id in ids:
        if not isinstance(node_id, int) or isinstance(node_id, bool):
            raise ConfigurationError(f"ID {node_id!r} is not an integer")
        if node_id < 1:
            raise ConfigurationError(f"ID {node_id} is not positive")
    if len(set(ids)) != len(ids):
        raise ConfigurationError(f"IDs are not unique: {sorted(ids)}")


def validate_positive_ids(ids: Sequence[int]) -> None:
    """Like :func:`validate_unique_ids` but allowing duplicates (Lemma 16)."""
    if not ids:
        raise ConfigurationError("need at least one ID")
    for node_id in ids:
        if not isinstance(node_id, int) or isinstance(node_id, bool):
            raise ConfigurationError(f"ID {node_id!r} is not an integer")
        if node_id < 1:
            raise ConfigurationError(f"ID {node_id} is not positive")


class OrientedRingNode(Node):
    """Base class for nodes on an *oriented* ring.

    Holds the paper's four counters — :math:`\\rho_{cw}, \\sigma_{cw},
    \\rho_{ccw}, \\sigma_{ccw}`.  The subclasses' kernels
    (:mod:`repro.core.kernels`) count every pulse they send, and a receive
    the moment they *process* the pulse (matching the paper, where
    ``recvCW()`` consumes a pulse from the queue).

    Attributes:
        node_id: This node's ID (:math:`\\mathsf{ID}_v`).
        rho_cw / sigma_cw: CW pulses processed / sent.
        rho_ccw / sigma_ccw: CCW pulses processed / sent.
        state: Current (possibly tentative) election verdict.
    """

    __slots__ = ("node_id", "rho_cw", "sigma_cw", "rho_ccw", "sigma_ccw", "state")

    def __init__(self, node_id: int) -> None:
        super().__init__()
        if not isinstance(node_id, int) or isinstance(node_id, bool) or node_id < 1:
            raise ConfigurationError(f"node ID must be a positive int, got {node_id!r}")
        self.node_id = node_id
        self.rho_cw = 0
        self.sigma_cw = 0
        self.rho_ccw = 0
        self.sigma_ccw = 0
        self.state = LeaderState.UNDECIDED
