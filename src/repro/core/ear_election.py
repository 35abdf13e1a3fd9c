"""Content-oblivious election on 2-edge-connected graphs (ear walk).

The Chang–Chen–Zhou line (arXiv:2507.08348) lifts the paper's Algorithm 1
off the ring: a 2-edge-connected graph carries a closed **ear walk**
(:mod:`repro.graphs.walks`) that uses every directed edge at most once,
so the walk is an *oriented virtual ring* whose position a pulse's
arrival port identifies without any content.  Each vertex hosts one
virtual node per walk occurrence; the governing thresholds are the
virtual IDs of :func:`repro.core.kernels.ear.virtual_ids`, whose unique
maximum sits at occurrence 0 of the unique maximum-ID vertex — electing
that vertex physically.

Below the frontier the problem is impossible (a bridge lets the
adversary starve one side), so :func:`run_ear_election` *refuses*
bridge-containing graphs with the bridge edge as a machine-readable
witness (:class:`~repro.exceptions.BridgeWitnessError`) instead of
attempting a run that cannot be correct.

On a ring the walk is the ring, every stride is 1, and the virtual IDs
equal the physical IDs: this module *is* Algorithm 1 there, not a
variant — pinned by the degree-2 specialization tests.

The front door :func:`elect_leader_ear` runs on the batched engine: the
adversary picks a channel; each pick delivers its whole FIFO run.
:func:`run_ear_election` keeps the per-pulse engine as its default.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from repro.core.common import LeaderState, validate_positive_ids, validate_unique_ids
from repro.core.election import ElectionReport, _single_leader
from repro.core.kernels import ear as kernel
from repro.exceptions import ConfigurationError, ProtocolViolation
from repro.graphs.connectivity import Graph, require_two_edge_connected
from repro.simulator.engine import Engine, RunResult
from repro.simulator.node import Node, NodeAPI
from repro.simulator.scheduler import Scheduler


class EarElectionNode(Node):
    """One physical vertex hosting its walk occurrences.

    A thin adapter over :func:`repro.core.kernels.ear.step_occurrence`:
    the node's only job is routing — a pulse's arrival port selects the
    hosted occurrence (well-defined because the walk uses each directed
    edge, hence each arrival port, at most once), and the occurrence's
    relays leave on its fixed send port.  All transition arithmetic stays
    in the warm-up kernel, same as every other backend.
    """

    __slots__ = ("vids", "out_ports", "in_route", "rho", "sigma", "states")

    def __init__(
        self,
        vids: Sequence[int],
        out_ports: Sequence[int],
        in_route: "dict[int, int]",
    ) -> None:
        super().__init__()
        self.vids = tuple(vids)
        self.out_ports = tuple(out_ports)
        self.in_route = dict(in_route)
        self.rho = [0] * len(self.vids)
        self.sigma = [0] * len(self.vids)
        self.states = [LeaderState.UNDECIDED] * len(self.vids)

    def on_init(self, api: NodeAPI) -> None:
        # Line 1 of Algorithm 1, once per hosted virtual node.
        for occurrence, port in enumerate(self.out_ports):
            self.sigma[occurrence] += 1
            api.send(port)

    def _consume(self, api: NodeAPI, port: int, count: int) -> None:
        occurrence = self.in_route.get(port)
        if occurrence is None:
            raise ProtocolViolation(
                f"pulse arrived on port {port}, which carries no virtual "
                "ring edge of the ear walk"
            )
        rho, relays, state = kernel.step_occurrence(
            self.vids[occurrence], self.rho[occurrence], count
        )
        self.rho[occurrence] = rho
        self.states[occurrence] = state
        if relays:
            self.sigma[occurrence] += relays
            api.send_many(self.out_ports[occurrence], relays)

    def on_message(self, api: NodeAPI, port: int, content: Any) -> None:
        self._consume(api, port, 1)

    def on_pulses(self, api: NodeAPI, port: int, count: int) -> None:
        self._consume(api, port, count)

    @property
    def state(self) -> LeaderState:
        """The vertex's verdict: Leader iff any hosted occurrence leads."""
        if any(s is LeaderState.LEADER for s in self.states):
            return LeaderState.LEADER
        if all(s is LeaderState.NON_LEADER for s in self.states):
            return LeaderState.NON_LEADER
        return LeaderState.UNDECIDED


class EarOutcome:
    """Final snapshot of one ear-walk election execution."""

    def __init__(
        self,
        graph: Graph,
        ids: List[int],
        routing: kernel.EarRouting,
        nodes: List[EarElectionNode],
        run: RunResult,
    ) -> None:
        self.graph = graph
        self.ids = ids
        self.routing = routing
        self.nodes = nodes
        self.run = run

    @property
    def states(self) -> List[LeaderState]:
        """Per-vertex verdicts (Leader iff a hosted occurrence leads)."""
        return [node.state for node in self.nodes]

    @property
    def leaders(self) -> List[int]:
        """Vertices that stabilized as Leader."""
        return [
            index
            for index, node in enumerate(self.nodes)
            if node.state is LeaderState.LEADER
        ]

    @property
    def occurrence_states(self) -> List[LeaderState]:
        """Per-walk-position verdicts, in virtual ring order."""
        states: List[LeaderState] = [LeaderState.UNDECIDED] * self.routing.length
        for vertex, node in enumerate(self.nodes):
            for k, position in enumerate(self.routing.occurrences[vertex]):
                states[position] = node.states[k]
        return states

    @property
    def total_pulses(self) -> int:
        """Message complexity (should equal ``L * IDmax * C``)."""
        return self.run.total_sent

    @property
    def claimed_bound(self) -> int:
        """Corollary 13 on the virtual ring: ``L * IDmax * C``."""
        return kernel.pulse_bound(self.ids, self.routing)


def run_ear_election(
    graph: Graph,
    ids: Sequence[int],
    scheduler: Optional[Scheduler] = None,
    max_steps: int = 10_000_000,
    batched: bool = False,
) -> EarOutcome:
    """Run the ear-walk election on a 2-edge-connected graph.

    Args:
        graph: The physical topology.  Must be 2-edge-connected; graphs
            with a bridge are refused with the bridge edge as witness
            (:class:`~repro.exceptions.BridgeWitnessError`).
        ids: Unique positive IDs, indexed by vertex.
        scheduler: Asynchronous adversary; defaults to global FIFO.
        max_steps: Engine safety bound.
        batched: Use the batched engine fast path (chunk-exact kernel,
            so outcomes are identical).

    Returns:
        An :class:`EarOutcome`; exactly one vertex — the maximum-ID
        vertex — stabilizes as Leader.
    """
    validate_positive_ids(ids)
    validate_unique_ids(ids)
    if len(ids) != graph.n:
        raise ConfigurationError(
            f"graph has {graph.n} vertices but {len(ids)} IDs were given"
        )
    require_two_edge_connected(graph)
    routing = kernel.build_routing(graph)
    vids = kernel.virtual_ids(ids, routing)
    nodes: List[EarElectionNode] = []
    for vertex in range(graph.n):
        out_ports, in_route = routing.node_tables(vertex)
        node_vids = tuple(
            vids[position] for position in routing.occurrences[vertex]
        )
        nodes.append(EarElectionNode(node_vids, out_ports, in_route))
    network = routing.topology.wire(nodes)
    result = Engine(
        network, scheduler=scheduler, max_steps=max_steps, batched=batched
    ).run()
    return EarOutcome(
        graph=graph, ids=list(ids), routing=routing, nodes=nodes, run=result
    )


def elect_leader_ear(
    graph: Graph,
    ids: Sequence[int],
    scheduler: Optional[Scheduler] = None,
    max_steps: int = 10_000_000,
) -> ElectionReport:
    """Uniform-report front door for the 2-edge-connected election.

    Runs on the batched engine: the adversary picks a channel; each pick
    delivers its whole FIFO run.  That is a legal schedule, and the
    report's fields are the same on every schedule.

    Args:
        graph: The physical topology (bridges are refused, as in
            :func:`run_ear_election`).
        ids: Unique positive IDs, indexed by vertex.
        scheduler: Asynchronous adversary; defaults to global FIFO.
        max_steps: Engine safety bound, counted in picks.
    """
    outcome = run_ear_election(
        graph, ids, scheduler=scheduler, max_steps=max_steps, batched=True
    )
    states = outcome.states
    return ElectionReport(
        setting="ear",
        n=graph.n,
        leader=_single_leader(states),
        states=states,
        terminated=False,  # stabilizing, like Algorithm 1
        quiescent=outcome.run.quiescent,
        total_pulses=outcome.total_pulses,
        claimed_bound=outcome.claimed_bound,
    )
