"""Algorithm 2: quiescently *terminating* leader election (Theorem 1).

The paper's main algorithm (Section 3.2).  It runs two instances of
Algorithm 1 — one clockwise, one counterclockwise — with the CCW instance
deliberately lagging behind the CW one, plus a final termination pulse:

* **CW instance** (listing lines 3–8): exactly Algorithm 1.
* **CCW instance** (lines 9–13): starts at node ``v`` only once
  :math:`\\rho_{cw} \\ge \\mathsf{ID}_v`; until then CCW pulses are left
  unconsumed in the queue.  This buffering is the paper's "subtle
  prioritization" of the CW instance and guarantees that the event
  :math:`\\rho_{cw} = \\mathsf{ID}_v = \\rho_{ccw}` occurs *only* at the
  maximal-ID node.
* **Termination** (lines 14–18): the unique node observing
  :math:`\\rho_{cw} = \\mathsf{ID}_v = \\rho_{ccw}` — the leader — emits
  one extra CCW pulse.  Every node seeing :math:`\\rho_{ccw} > \\rho_{cw}`
  for the first time forwards that pulse and terminates; the pulse returns
  to the leader, which terminates last without forwarding it.

Exact guarantees reproduced by the test-suite (Theorem 1):

* exactly one Leader: the node with :math:`\\mathsf{ID}_{max}`;
* message complexity exactly :math:`n(2\\,\\mathsf{ID}_{max} + 1)`;
* quiescent termination: no pulse is in transit towards, or ever sent to,
  a terminated node;
* the leader terminates last (the composition hook of Section 1.1).

Event-driven translation.  The listing is a polling loop: each iteration
processes at most one CW pulse, then (if :math:`\\rho_{cw} \\ge ID`) at
most one CCW pulse, then evaluates the trigger and exit conditions.  Here
each delivery enqueues the pulse into a local buffer and runs the same
loop until no buffered pulse is processable — observationally identical,
because a pulse buffered at the node is indistinguishable from one the
scheduler has not yet delivered.

Ablation (``strict_lag=False``): disables the CCW buffering so CCW pulses
are consumed regardless of :math:`\\rho_{cw}`.  Benchmark E7/A1 shows this
breaks the algorithm — premature terminations, wrong leaders — i.e. the
lag discipline is load-bearing.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from repro.core.common import (
    LeaderState,
    OrientedRingNode,
    validate_unique_ids,
)
from repro.core.kernels import terminating as kernel
from repro.core.kernels.base import apply_emissions
from repro.simulator.engine import Engine, RunResult
from repro.simulator.node import NodeAPI
from repro.simulator.ring import build_oriented_ring
from repro.simulator.scheduler import Scheduler


class TerminatingNode(OrientedRingNode):
    """One node of Algorithm 2: a thin adapter over the terminating kernel.

    The node *is* the kernel state (its slots are the schema fields); each
    event forwards to :func:`repro.core.kernels.terminating.step`, which
    buffers the delivered run and replays the listing's repeat-loop, and
    the adapter applies the returned emissions/verdict through the engine
    API.  With single-pulse deliveries the kernel's chunks degenerate to
    one pulse each, so the event-driven engine observes the exact
    per-pulse send interleaving; the batched engine passes whole runs.

    Attributes beyond :class:`~repro.core.common.OrientedRingNode`:
        pending_cw / pending_ccw: Delivered-but-unprocessed pulse counts
            (the node-local queues the listing polls with ``recv*()``).
        term_pulse_sent: The node ran listing lines 14–15 (it is the
            leader and has emitted the termination pulse).
        strict_lag: When False, the CCW-lag discipline is ablated.
    """

    __slots__ = ("pending_cw", "pending_ccw", "term_pulse_sent", "strict_lag")

    def __init__(self, node_id: int, strict_lag: bool = True) -> None:
        super().__init__(node_id)
        self.pending_cw = 0
        self.pending_ccw = 0
        self.term_pulse_sent = False
        self.strict_lag = strict_lag

    def on_init(self, api: NodeAPI) -> None:
        _, emissions, verdict = kernel.init(self)
        apply_emissions(api, emissions, verdict)

    def on_message(self, api: NodeAPI, port: int, content: Any) -> None:
        _, emissions, verdict = kernel.step(self, port, 1)
        apply_emissions(api, emissions, verdict)

    def on_pulses(self, api: NodeAPI, port: int, count: int) -> None:
        _, emissions, verdict = kernel.step(self, port, count)
        apply_emissions(api, emissions, verdict)


def run_terminating(
    ids: Sequence[int],
    scheduler: Optional[Scheduler] = None,
    max_steps: int = 10_000_000,
    strict_lag: bool = True,
    strict_quiescence: bool = False,
    batched: bool = False,
) -> "TerminatingOutcome":
    """Run Algorithm 2 on an oriented ring with the given clockwise IDs.

    Args:
        ids: Unique positive node IDs in clockwise order.
        scheduler: Asynchronous adversary; defaults to global FIFO.
        max_steps: Engine safety bound.
        strict_lag: Pass False to ablate the CCW-lag discipline (A1).
        strict_quiescence: Raise on the first quiescent-termination
            violation instead of recording it.
        batched: Use the batched engine fast path (identical outcomes,
            large-IDmax runs orders of magnitude faster).

    Returns:
        A :class:`TerminatingOutcome` with outputs, counters, and the run.
    """
    validate_unique_ids(ids)
    nodes = [TerminatingNode(node_id, strict_lag=strict_lag) for node_id in ids]
    topology = build_oriented_ring(nodes)
    result = Engine(
        topology.network,
        scheduler=scheduler,
        max_steps=max_steps,
        strict_quiescence=strict_quiescence,
        batched=batched,
    ).run()
    return TerminatingOutcome(ids=list(ids), nodes=nodes, run=result)


class TerminatingOutcome:
    """Final snapshot of one Algorithm 2 execution."""

    def __init__(
        self, ids: List[int], nodes: List[TerminatingNode], run: RunResult
    ) -> None:
        self.ids = ids
        self.nodes = nodes
        self.run = run

    @property
    def outputs(self) -> List[Optional[LeaderState]]:
        """Per-node terminal outputs in clockwise ring order."""
        return [node.output for node in self.nodes]

    @property
    def leaders(self) -> List[int]:
        """Indices of nodes that *output* Leader at termination."""
        return [
            index
            for index, node in enumerate(self.nodes)
            if node.output is LeaderState.LEADER
        ]

    @property
    def expected_leader(self) -> int:
        """Index of the maximal-ID node — whom Theorem 1 says must win."""
        return max(range(len(self.ids)), key=lambda index: self.ids[index])

    @property
    def total_pulses(self) -> int:
        """Message complexity; Theorem 1 says exactly ``n * (2*IDmax + 1)``."""
        return self.run.total_sent

    @property
    def theorem1_message_bound(self) -> int:
        """The paper's exact complexity; see
        :func:`repro.core.kernels.terminating.pulse_bound`."""
        return kernel.pulse_bound(self.ids)
