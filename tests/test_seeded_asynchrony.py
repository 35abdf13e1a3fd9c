"""Random asynchrony, replayable: the guarantees under seeded random schedules.

Every run here is the event-driven engine under
:class:`~repro.simulator.scheduler.RandomScheduler`: each step delivers
the FIFO head of a uniformly random non-empty channel, so a run is an
arbitrary legal asynchronous execution that the seed replays exactly.
The same nodes run unchanged, and the paper's guarantees must hold on
every seed.
"""

import pytest

from repro.core.common import LeaderState
from repro.core.nonoriented import IdScheme, NonOrientedNode
from repro.core.terminating import TerminatingNode
from repro.core.warmup import WarmupNode
from repro.defective.simulation import AllReduceProgram
from repro.defective.transport import CircuitNode
from repro.exceptions import SimulationLimitExceeded
from repro.simulator.engine import Engine
from repro.simulator.node import Node, PORT_ONE
from repro.simulator.ring import build_nonoriented_ring, build_oriented_ring
from repro.simulator.scheduler import RandomScheduler


def _run(network, seed, **options):
    return Engine(network, scheduler=RandomScheduler(seed), **options).run()


class TestWarmupUnderRandomSchedules:
    def test_leader_and_exact_count(self):
        ids = [3, 8, 5]
        nodes = [WarmupNode(node_id) for node_id in ids]
        result = _run(build_oriented_ring(nodes).network, seed=1)
        assert result.quiescent
        assert result.total_sent == 3 * 8
        assert [node.state for node in nodes] == [
            LeaderState.NON_LEADER,
            LeaderState.LEADER,
            LeaderState.NON_LEADER,
        ]


class TestTerminatingUnderRandomSchedules:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_theorem1_holds(self, seed):
        ids = [3, 9, 4, 7, 1]
        nodes = [TerminatingNode(node_id) for node_id in ids]
        result = _run(build_oriented_ring(nodes).network, seed=seed)
        assert result.all_terminated
        assert result.total_sent == 5 * (2 * 9 + 1)
        assert result.quiescence_violations == []  # quiescent termination
        assert result.termination_order[-1] == 1  # leader (ID 9) last
        assert result.outputs[1] is LeaderState.LEADER
        assert result.outputs.count(LeaderState.LEADER) == 1

    def test_batched_path(self):
        ids = [2, 6, 4]
        nodes = [TerminatingNode(node_id) for node_id in ids]
        result = _run(build_oriented_ring(nodes).network, seed=0, batched=True)
        assert result.quiescently_terminated
        assert result.total_sent == 3 * 13


class TestNonOrientedUnderRandomSchedules:
    @pytest.mark.parametrize("seed", [10, 11])
    def test_theorem2_holds(self, seed):
        ids = [3, 9, 4, 7, 1]
        flips = [True, False, False, True, True]
        nodes = [NonOrientedNode(node_id, scheme=IdScheme.SUCCESSOR) for node_id in ids]
        topology = build_nonoriented_ring(nodes, flips=flips)
        result = _run(topology.network, seed=seed)
        assert result.total_sent == 5 * (2 * 9 + 1)
        leaders = [
            index for index, node in enumerate(nodes) if node.state is LeaderState.LEADER
        ]
        assert leaders == [1]


class TestTransportUnderRandomSchedules:
    def test_allreduce_sum(self):
        inputs = [3, 1, 4, 1]
        program = AllReduceProgram(lambda a, b: a + b)
        nodes = [
            CircuitNode(is_leader=(index == 0), input_value=value, program=program)
            for index, value in enumerate(inputs)
        ]
        result = _run(build_oriented_ring(nodes).network, seed=4)
        assert result.outputs == [9, 9, 9, 9]
        assert result.all_terminated
        assert result.quiescence_violations == []


class TestUniversalUnderRandomSchedules:
    def test_simulated_chang_roberts_same_result(self):
        from repro.defective.ring_algorithms import SimChangRoberts
        from repro.defective.universal import UniversalNode

        ids = [3, 7, 5]
        nodes = [
            UniversalNode(is_leader=(index == 0), simulated=SimChangRoberts(node_id))
            for index, node_id in enumerate(ids)
        ]
        result = _run(build_oriented_ring(nodes).network, seed=6)
        assert result.all_terminated
        assert [node.sim_output for node in nodes] == [
            ("follower", 7),
            ("leader", 7),
            ("follower", 7),
        ]
        assert result.quiescence_violations == []


class TestScheduleAgreement:
    """The default global-FIFO run and a random run agree exactly."""

    def test_same_outputs_and_counts(self):
        ids = [5, 11, 2, 8]

        nodes_a = [TerminatingNode(node_id) for node_id in ids]
        result_a = Engine(build_oriented_ring(nodes_a).network).run()

        nodes_b = [TerminatingNode(node_id) for node_id in ids]
        result_b = _run(build_oriented_ring(nodes_b).network, seed=3)

        assert result_a.outputs == result_b.outputs
        assert result_a.total_sent == result_b.total_sent
        assert result_a.termination_order[-1] == result_b.termination_order[-1]


class TestLivelockDetection:
    def test_step_limit_raises(self):
        class PingPongForever(Node):
            def on_init(self, api):
                api.send(PORT_ONE)

            def on_message(self, api, port, content):
                api.send(PORT_ONE)

        nodes = [PingPongForever(), PingPongForever()]
        network = build_oriented_ring(nodes).network
        with pytest.raises(SimulationLimitExceeded):
            _run(network, seed=0, max_steps=500)
