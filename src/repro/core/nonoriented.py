"""Algorithm 3: stabilizing election + orientation on non-oriented rings.

Section 4 of the paper.  Nodes have two ports in arbitrary (adversarial)
order and cannot tell which leads clockwise.  Each node picks two distinct
*virtual IDs*, one per port, and the ring then hosts **two parallel
executions of Algorithm 1**, one per travel direction: a pulse received at
one port is forwarded out of the other, so pulses keep their direction and
the two executions never interfere.

Listing (per node ``v``):

* line 2 — virtual IDs.  Two schemes:

  - :attr:`IdScheme.DOUBLED` (Proposition 15):
    :math:`\\mathsf{ID}_v^{(i)} = 2\\,\\mathsf{ID}_v - 1 + i`.
    All ``2n`` virtual IDs distinct; total cost
    :math:`n(4\\,\\mathsf{ID}_{max} - 1)` pulses.
  - :attr:`IdScheme.SUCCESSOR` (Theorem 2):
    :math:`\\mathsf{ID}_v^{(1)} = \\mathsf{ID}_v + 1`,
    :math:`\\mathsf{ID}_v^{(0)} = \\mathsf{ID}_v`.
    Virtual IDs may collide (Lemma 16 shows that is fine as long as the
    per-direction *maxima* differ); total cost
    :math:`n(2\\,\\mathsf{ID}_{max} + 1)` pulses.

* lines 5–7 — forwarding: a pulse arriving at ``Port_{1-i}`` increments
  :math:`\\rho_{1-i}` and is re-sent from ``Port_i`` unless
  :math:`\\rho_{1-i} = \\mathsf{ID}_v^{(i)}` (each direction absorbs one
  pulse at its virtual ID, exactly Algorithm 1's rule).

* lines 8–16 — output: once :math:`\\max(\\rho_0,\\rho_1) \\ge
  \\mathsf{ID}_v^{(1)}`, the node is Leader iff :math:`\\rho_0 =
  \\mathsf{ID}_v^{(1)}` and :math:`\\rho_1 < \\mathsf{ID}_v^{(1)}`, and it
  labels the port with *more* received pulses as its CCW port (CW pulses
  arrive at CCW ports, and the direction seeded by the leader's ``Port_1``
  carries strictly more pulses).

The algorithm reaches quiescence but never terminates (nodes cannot detect
stabilization); success is read off the stabilized states.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from repro.exceptions import ConfigurationError
from repro.core.common import LeaderState, validate_positive_ids, validate_unique_ids
from repro.core.kernels import nonoriented as kernel
from repro.core.kernels.base import apply_emissions
from repro.core.kernels.nonoriented import IdScheme  # re-export (canonical home)
from repro.simulator.engine import Engine, RunResult
from repro.simulator.node import Node, NodeAPI
from repro.simulator.ring import RingTopology, build_nonoriented_ring
from repro.simulator.scheduler import Scheduler

__all__ = [
    "IdScheme",
    "NonOrientedNode",
    "NonOrientedOutcome",
    "run_nonoriented",
]


class NonOrientedNode(Node):
    """One node of Algorithm 3: a thin adapter over the non-oriented kernel.

    The node *is* the kernel state (its slots are the schema fields); each
    event forwards to :func:`repro.core.kernels.nonoriented.step` and
    replays the emissions through the engine API.

    Attributes:
        node_id: The real ID :math:`\\mathsf{ID}_v`.
        virtual_ids: ``(ID^(0), ID^(1))`` per the chosen scheme.
        rho: Pulses received per port, ``rho[p]`` for ``Port_p``.
        sigma: Pulses sent per port.
        state: Current (possibly tentative) election verdict.
        cw_port_label: The port this node currently believes leads to its
            clockwise neighbor (None until the line-8 guard first holds).
    """

    __slots__ = (
        "node_id",
        "scheme",
        "virtual_ids",
        "rho",
        "sigma",
        "state",
        "cw_port_label",
    )

    def __init__(self, node_id: int, scheme: IdScheme = IdScheme.SUCCESSOR) -> None:
        super().__init__()
        if not isinstance(node_id, int) or isinstance(node_id, bool) or node_id < 1:
            raise ConfigurationError(f"node ID must be a positive int, got {node_id!r}")
        self.node_id = node_id
        self.scheme = scheme
        self.virtual_ids = scheme.virtual_ids(node_id)
        self.rho = [0, 0]
        self.sigma = [0, 0]
        self.state = LeaderState.UNDECIDED
        self.cw_port_label: Optional[int] = None

    def on_init(self, api: NodeAPI) -> None:
        _, emissions, verdict = kernel.init(self)
        apply_emissions(api, emissions, verdict)

    def on_message(self, api: NodeAPI, port: int, content: Any) -> None:
        _, emissions, verdict = kernel.step(self, port, 1)
        apply_emissions(api, emissions, verdict)

    def on_pulses(self, api: NodeAPI, port: int, count: int) -> None:
        _, emissions, verdict = kernel.step(self, port, count)
        apply_emissions(api, emissions, verdict)


def run_nonoriented(
    ids: Sequence[int],
    flips: Optional[Sequence[bool]] = None,
    scheme: IdScheme = IdScheme.SUCCESSOR,
    scheduler: Optional[Scheduler] = None,
    max_steps: int = 10_000_000,
    require_unique_ids: bool = True,
    batched: bool = False,
) -> "NonOrientedOutcome":
    """Run Algorithm 3 on a (possibly adversarially flipped) ring.

    Args:
        ids: Node IDs in clockwise order.  With
            ``require_unique_ids=False``, duplicates are allowed — the
            algorithm still succeeds whenever the maximal ID is unique
            (Lemma 16), which the anonymous pipeline relies on.
        flips: Per-node port flips; None draws nothing and builds the ring
            with all-unflipped ports (callers wanting random flips pass
            them explicitly for reproducibility).
        scheme: Virtual-ID scheme (Proposition 15 vs Theorem 2).
        scheduler: Asynchronous adversary; defaults to global FIFO.
        max_steps: Engine safety bound.
        batched: Use the batched engine fast path (identical outcomes,
            large-IDmax runs orders of magnitude faster).

    Returns:
        A :class:`NonOrientedOutcome`.
    """
    if require_unique_ids:
        validate_unique_ids(ids)
    else:
        validate_positive_ids(ids)
    nodes = [NonOrientedNode(node_id, scheme=scheme) for node_id in ids]
    if flips is None:
        flips = [False] * len(ids)
    topology = build_nonoriented_ring(nodes, flips=flips)
    result = Engine(
        topology.network, scheduler=scheduler, max_steps=max_steps, batched=batched
    ).run()
    return NonOrientedOutcome(
        ids=list(ids), nodes=nodes, topology=topology, run=result, scheme=scheme
    )


class NonOrientedOutcome:
    """Final snapshot of one Algorithm 3 execution."""

    def __init__(
        self,
        ids: List[int],
        nodes: List[NonOrientedNode],
        topology: RingTopology,
        run: RunResult,
        scheme: IdScheme,
    ) -> None:
        self.ids = ids
        self.nodes = nodes
        self.topology = topology
        self.run = run
        self.scheme = scheme

    @property
    def states(self) -> List[LeaderState]:
        """Per-node stabilized states in clockwise ring order."""
        return [node.state for node in self.nodes]

    @property
    def leaders(self) -> List[int]:
        """Indices of nodes that stabilized as Leader."""
        return [
            index
            for index, node in enumerate(self.nodes)
            if node.state is LeaderState.LEADER
        ]

    @property
    def cw_port_labels(self) -> List[Optional[int]]:
        """Each node's computed clockwise port."""
        return [node.cw_port_label for node in self.nodes]

    @property
    def orientation_consistent(self) -> bool:
        """True iff the computed CW ports realize one rotational direction.

        Consistency means either every node labelled its true CW port as
        CW, or every node labelled its true CCW port as CW (the two global
        rotational directions are symmetric; the algorithm settles on the
        direction seeded by the leader's ``Port_1``).
        """
        labels = self.cw_port_labels
        if any(label is None for label in labels):
            return False
        matches_cw = all(
            labels[v] == self.topology.cw_port(v) for v in range(len(self.nodes))
        )
        matches_ccw = all(
            labels[v] == self.topology.ccw_port(v) for v in range(len(self.nodes))
        )
        return matches_cw or matches_ccw

    @property
    def total_pulses(self) -> int:
        """Message complexity of the execution."""
        return self.run.total_sent

    @property
    def claimed_message_bound(self) -> int:
        """The paper's exact pulse count for the scheme in use; see
        :func:`repro.core.kernels.nonoriented.pulse_bound`."""
        return kernel.pulse_bound(self.ids, self.scheme)
