"""The 2-edge-connected election: engine, fleet, verification, refusal.

The ear-walk election (the Chang–Chen–Zhou lift of Algorithm 1) must:
elect exactly the maximum-ID vertex on every 2-edge-connected graph,
spend exactly ``L * IDmax * C`` pulses (the Corollary 13 bound on the
virtual ring), degenerate to Algorithm 1 on rings (stride 1, virtual
IDs == physical IDs), agree between the batched and the per-pulse
engine and between the scalar engine and the fleet backends, and *refuse* graphs below the frontier with the bridge edge
as an impossibility witness.
"""

import pytest
from hypothesis import given, settings

from repro.core.common import LeaderState
from repro.core.ear_election import elect_leader_ear, run_ear_election
from repro.core.kernels.ear import build_routing, pulse_bound, virtual_ids
from repro.exceptions import BridgeWitnessError, ConfigurationError
from repro.graphs.connectivity import Graph
from repro.graphs.samples import (
    bridge_graph,
    nested_ears,
    random_ear_composition,
    theta_graph,
)
from repro.simulator.scheduler import all_standard_schedulers

from .strategies import two_edge_connected_graphs


def _ids_for(n, seed=0):
    """Deterministic unique positive IDs with a non-trivial argmax."""
    import random

    ids = list(range(2, 2 * n + 2, 2))
    random.Random(seed * 1000 + n).shuffle(ids)
    return ids


class TestEarRouting:
    @given(graph=two_edge_connected_graphs())
    @settings(deadline=None, max_examples=40)
    def test_walk_round_trips_the_decomposition(self, graph):
        """The ear walk is a closed walk using each directed edge at most
        once, visiting every vertex, whose per-vertex occurrence lists
        tile the walk exactly."""
        routing = build_routing(graph)
        walk = routing.walk
        assert routing.length == len(walk)
        assert set(walk) == set(range(graph.n))
        directed = list(zip(walk, walk[1:] + (walk[0],)))
        assert len(set(directed)) == len(directed)  # each directed edge once
        for src, dst in directed:
            assert (min(src, dst), max(src, dst)) in graph.edges
        positions = sorted(
            pos for occs in routing.occurrences for pos in occs
        )
        assert positions == list(range(routing.length))
        assert routing.stride == max(
            len(occs) for occs in routing.occurrences
        )

    @given(graph=two_edge_connected_graphs())
    @settings(deadline=None, max_examples=40)
    def test_virtual_ids_unique_max_at_argmax_vertex(self, graph):
        ids = _ids_for(graph.n)
        routing = build_routing(graph)
        vids = virtual_ids(ids, routing)
        assert len(vids) == routing.length
        assert len(set(vids)) == routing.length  # all distinct
        best = max(range(len(vids)), key=lambda j: vids[j])
        argmax_vertex = max(range(graph.n), key=lambda v: ids[v])
        assert routing.walk[best] == argmax_vertex
        assert best == routing.occurrences[argmax_vertex][0]

    def test_ring_is_algorithm_one(self):
        """On a ring the walk is the ring: stride 1, vids == ids."""
        ids = [4, 1, 6, 3, 5]
        routing = build_routing(Graph.ring(5))
        assert routing.stride == 1
        assert routing.length == 5
        assert virtual_ids(ids, routing) == [
            ids[v] for v in routing.walk
        ]
        assert pulse_bound(ids, routing) == 5 * 6


class TestEngineElection:
    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize(
        "graph",
        [theta_graph(), theta_graph(0, 1, 2), nested_ears(3), Graph.ring(5)],
        ids=["theta", "theta-012", "nested-3", "ring-5"],
    )
    def test_elects_argmax_with_exact_bound(self, graph, batched):
        ids = _ids_for(graph.n, seed=2)
        outcome = run_ear_election(graph, ids, batched=batched)
        expected = max(range(graph.n), key=lambda v: ids[v])
        assert outcome.leaders == [expected]
        assert all(
            state is LeaderState.NON_LEADER
            for v, state in enumerate(outcome.states)
            if v != expected
        )
        assert outcome.total_pulses == outcome.claimed_bound
        assert outcome.run.quiescent

    def test_report_front_door(self):
        graph = theta_graph()
        ids = _ids_for(graph.n)
        report = elect_leader_ear(graph, ids)
        assert report.setting == "ear"
        assert report.leader == max(range(graph.n), key=lambda v: ids[v])
        assert report.total_pulses == report.claimed_bound
        assert not report.terminated  # stabilizing, like Algorithm 1

    @pytest.mark.parametrize("seed", range(6))
    def test_random_ear_compositions(self, seed):
        graph = random_ear_composition(seed)
        ids = _ids_for(graph.n, seed=seed)
        outcome = run_ear_election(graph, ids)
        assert outcome.leaders == [max(range(graph.n), key=lambda v: ids[v])]
        assert outcome.total_pulses == outcome.claimed_bound

    @given(graph=two_edge_connected_graphs(max_cycle=4, max_ears=2))
    @settings(deadline=None, max_examples=20)
    def test_property_unique_leader_exact_pulses(self, graph):
        ids = _ids_for(graph.n, seed=1)
        outcome = run_ear_election(graph, ids)
        assert outcome.leaders == [max(range(graph.n), key=lambda v: ids[v])]
        assert outcome.total_pulses == outcome.claimed_bound

    def test_validates_ids(self):
        graph = theta_graph()
        with pytest.raises(ConfigurationError):
            run_ear_election(graph, [1, 2, 3])  # wrong length
        with pytest.raises(ConfigurationError):
            run_ear_election(graph, [1, 1] + list(range(2, graph.n)))


DIFFERENTIAL_GRAPHS = {
    "theta": theta_graph(),
    "theta-012": theta_graph(0, 1, 2),
    "theta-222": theta_graph(2, 2, 2),
    "nested-2": nested_ears(2),
    "nested-3": nested_ears(3),
    "ring-5": Graph.ring(5),
    **{f"random-{seed}": random_ear_composition(seed) for seed in range(4)},
}


class TestBatchedMatchesPerPulse:
    """A batched step is the adversary picking one channel until its
    queue is empty, a legal schedule, so every observable of the batched
    run equals the per-pulse run's under the same scheduler."""

    @pytest.mark.parametrize("name", sorted(all_standard_schedulers()))
    @pytest.mark.parametrize("draw", range(4))
    @pytest.mark.parametrize("label", sorted(DIFFERENTIAL_GRAPHS))
    def test_batched_equals_per_pulse(self, label, draw, name):
        graph = DIFFERENTIAL_GRAPHS[label]
        ids = _ids_for(graph.n, seed=draw)
        slow, fast = (
            run_ear_election(
                graph,
                ids,
                scheduler=all_standard_schedulers(seed=draw)[name],
                batched=batched,
            )
            for batched in (False, True)
        )
        assert fast.leaders == slow.leaders == [ids.index(max(ids))]
        assert fast.states == slow.states
        assert fast.occurrence_states == slow.occurrence_states
        assert [node.rho for node in fast.nodes] == [node.rho for node in slow.nodes]
        assert [node.sigma for node in fast.nodes] == [
            node.sigma for node in slow.nodes
        ]
        assert fast.total_pulses == slow.total_pulses == slow.claimed_bound
        assert dict(fast.run.trace.sends_by_port) == dict(slow.run.trace.sends_by_port)
        assert dict(fast.run.trace.recvs_by_port) == dict(slow.run.trace.recvs_by_port)
        assert fast.run.quiescent and slow.run.quiescent
        assert fast.run.quiescence_violations == slow.run.quiescence_violations == []
        assert fast.run.steps <= slow.run.steps


class TestBridgeRefusal:
    def test_bridge_graph_refused_with_witness(self):
        graph = bridge_graph()
        with pytest.raises(BridgeWitnessError) as excinfo:
            run_ear_election(graph, _ids_for(graph.n))
        assert excinfo.value.bridge == (2, 3)

    def test_disconnected_refused_without_edge(self):
        graph = Graph.from_edges(
            6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
        )
        with pytest.raises(BridgeWitnessError) as excinfo:
            run_ear_election(graph, _ids_for(6))
        assert excinfo.value.bridge is None

    def test_witness_is_a_configuration_error(self):
        """Callers catching the package's config errors keep working."""
        with pytest.raises(ConfigurationError):
            run_ear_election(bridge_graph(), _ids_for(bridge_graph().n))


class TestFleetPath:
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_fleet_matches_engine(self, backend):
        from repro.simulator.fleet import run_ear_fleet

        graph = theta_graph()
        id_lists = [_ids_for(graph.n, seed=s) for s in range(6)]
        result = run_ear_fleet(graph, id_lists, backend=backend)
        assert result.leaders == result.expected_leaders
        for b, ids in enumerate(id_lists):
            outcome = run_ear_election(graph, ids)
            assert result.leaders[b] == outcome.leaders[0]
            assert result.virtual.total_pulses[b] == outcome.total_pulses
        # Physical IDs round-trip through the virtual-ID encoding.
        assert result.physical_ids == id_lists

    def test_backends_agree(self):
        from repro.simulator.fleet import run_ear_fleet

        graph = nested_ears(3)
        id_lists = [_ids_for(graph.n, seed=s) for s in range(4)]
        py = run_ear_fleet(graph, id_lists, backend="python")
        np_ = run_ear_fleet(graph, id_lists, backend="numpy")
        assert py.leaders == np_.leaders
        assert py.virtual.rho_cw == np_.virtual.rho_cw
        assert py.port_rho == np_.port_rho
        assert py.port_sigma == np_.port_sigma

    def test_fleet_validates_id_lists(self):
        """No instance, a short ID list, or a repeated ID is refused."""
        from repro.simulator.fleet import run_ear_fleet

        graph = theta_graph()
        ids = _ids_for(graph.n)
        for bad in ([], [ids[:-1]], [ids[:-1] + ids[:1]]):
            with pytest.raises(ConfigurationError):
                run_ear_fleet(graph, bad)

    def test_fleet_refuses_bridges(self):
        from repro.simulator.fleet import run_ear_fleet

        graph = bridge_graph()
        with pytest.raises(BridgeWitnessError):
            run_ear_fleet(graph, [_ids_for(graph.n)])


class TestStatisticalBattery:
    def test_theta_clean(self):
        from repro.verification.statistical import TopologyCheck, run_check

        check = TopologyCheck(graph=theta_graph(), id_max=64)
        report = run_check(check, 24, block_size=8)
        assert report.clean
        assert report.violations == 0
        assert report.check.routing.length == 13
        assert report.check.routing.stride == 2

    def test_shards_compose(self):
        """Any shard partition reproduces the uninterrupted sweep."""
        from repro.verification.statistical import TopologyCheck, check_shard

        check = TopologyCheck(graph=theta_graph(0, 1, 2), id_max=64)
        _counts, whole, _events = check_shard(check, range(0, 20))
        parts = check_shard(check, range(0, 7))[1] + \
            check_shard(check, range(7, 20))[1]
        assert whole == parts == []

    def test_refuses_bridges(self):
        from repro.verification.statistical import TopologyCheck

        with pytest.raises(BridgeWitnessError):
            TopologyCheck(graph=bridge_graph(), id_max=1000)


class TestExplorerCertification:
    def test_tiny_theta_certified_exhaustively(self):
        """The reduced explorer certifies the ear election end to end on
        a tiny instance: single terminal class, unique physical leader at
        the argmax vertex, exact pulse count on every maximal schedule."""
        from repro.core.ear_election import EarElectionNode
        from repro.core.kernels.ear import build_routing as routing_of
        from repro.verification.reduced import explore_reduced

        graph = theta_graph(0, 1, 1)  # smallest theta: n=4
        ids = [2, 4, 1, 3]
        routing = routing_of(graph)
        vids = virtual_ids(ids, routing)

        def factory():
            nodes = []
            for vertex in range(graph.n):
                out_ports, in_route = routing.node_tables(vertex)
                node_vids = tuple(
                    vids[pos] for pos in routing.occurrences[vertex]
                )
                nodes.append(EarElectionNode(node_vids, out_ports, in_route))
            return routing.topology.wire(nodes)

        result = explore_reduced(factory)
        assert result.confluent
        assert result.terminal_total_sent == [pulse_bound(ids, routing)]
