"""Cross-module integration scenarios spanning the whole repository."""

import random

import pytest

from repro.analysis.complexity import algorithm2_pulses
from repro.core.common import LeaderState
from repro.core.composition import run_composed
from repro.core.lower_bound import lower_bound_pulses
from repro.core.nonoriented import run_nonoriented
from repro.core.terminating import TerminatingNode, run_terminating
from repro.defective.simulation import AllReduceProgram, MultiFoldProgram
from repro.graphs import Graph, is_ring, is_two_edge_connected
from repro.simulator.engine import Engine
from repro.simulator.ring import build_oriented_ring
from repro.simulator.scheduler import RandomScheduler
from repro.simulator.timeline import render_event_log, render_space_time
from repro.synchronous import run_time_coded_election
from repro.verification import explore_all_schedules


class TestTopologyValidationPipeline:
    """The graphs module guards the algorithms' applicability domain."""

    def test_simulated_rings_are_graph_theoretic_rings(self):
        # The simulator's n>=3 rings match the graphs module's ring
        # predicate and sit exactly on the 2-edge-connectivity frontier.
        for n in (3, 5, 8):
            graph = Graph.ring(n)
            assert is_ring(graph)
            assert is_two_edge_connected(graph)

    def test_non_ring_topology_is_rejected_conceptually(self):
        # A graph with a bridge is outside [8]'s computability frontier.
        bridge_graph = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert not is_two_edge_connected(bridge_graph)


class TestThreeVerificationRegimesAgree:
    """A discrete-event run and exhaustive checking concur; the third
    regime, sampled schedules, is ``test_property_schedules.py``."""

    @pytest.mark.parametrize("ids", [[2, 3, 1], [1, 3, 2]])
    def test_same_verdict_everywhere(self, ids):
        expected_leader = max(range(len(ids)), key=lambda i: ids[i])
        expected_pulses = algorithm2_pulses(len(ids), max(ids))

        # 1. discrete-event run
        discrete = run_terminating(ids)
        assert discrete.leaders == [expected_leader]
        assert discrete.total_pulses == expected_pulses

        # 2. exhaustive exploration
        def factory():
            return build_oriented_ring([TerminatingNode(i) for i in ids]).network

        exhaustive = explore_all_schedules(factory)
        assert exhaustive.confluent
        (outputs,) = exhaustive.terminal_outputs
        assert outputs[expected_leader] == LeaderState.LEADER


class TestEndToEndStory:
    """The README's promise, as one integration flow."""

    def test_scrambled_ring_to_global_statistics(self):
        # 1. A non-oriented ring orients itself and elects a leader.
        ids = [14, 3, 27, 9, 21]
        flips = [True, False, True, True, False]
        oriented = run_nonoriented(ids, flips=flips)
        assert oriented.orientation_consistent
        leader = oriented.leaders[0]
        assert ids[leader] == 27

        # 2. With orientation established, the same IDs run the
        #    terminating election + computation end-to-end.
        inputs = [18, 22, 19, 31, 24]
        composed = run_composed(
            ids, inputs,
            MultiFoldProgram([("sum", lambda a, b: a + b), ("max", max)]),
        )
        assert composed.leader == leader
        assert composed.outputs == [{"sum": 114, "max": 31}] * 5
        assert composed.run.quiescently_terminated

        # 3. Costs respect both of the paper's bounds.
        assert composed.total_pulses >= lower_bound_pulses(5, 27)
        assert composed.total_pulses > algorithm2_pulses(5, 27)

    def test_recorded_run_renders_everywhere(self):
        ids = [2, 4, 1]
        nodes = [TerminatingNode(node_id) for node_id in ids]
        topology = build_oriented_ring(nodes)
        result = Engine(topology.network, record_events=True).run()
        log = render_event_log(result)
        diagram = render_space_time(result, 3)
        assert "halt" in log
        assert "##" in diagram
        # every delivered pulse appears exactly once in the diagram
        assert diagram.count("*") == result.trace.total_received


class TestModelContrasts:
    """Asynchronous-oblivious vs synchronous-content, same inputs."""

    def test_message_counts_bracket_each_other(self):
        rng = random.Random(5)
        for _ in range(5):
            n = rng.randint(2, 12)
            ids = rng.sample(range(1, 80), n)
            sync = run_time_coded_election(ids)
            oblivious = run_terminating(ids)
            assert sync.total_sent == n <= oblivious.total_pulses
            # And both elect *a* unique, consistent leader (different
            # conventions: min vs max).
            sync_winners = [
                i for i, out in enumerate(sync.outputs) if out is LeaderState.LEADER
            ]
            assert sync_winners == [ids.index(min(ids))]
            assert oblivious.leaders == [ids.index(max(ids))]


class TestNonOrientedScheduleAgreement:
    def test_algorithm3_same_result_under_fifo_and_random_schedules(self):
        ids = [4, 11, 6]
        flips = [True, False, True]

        fifo = run_nonoriented(ids, flips=flips)
        sampled = run_nonoriented(ids, flips=flips, scheduler=RandomScheduler(8))

        assert sampled.total_pulses == fifo.total_pulses
        assert sampled.states == fifo.states
        assert sampled.cw_port_labels == fifo.cw_port_labels
