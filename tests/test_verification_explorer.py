"""Bounded model checking: exhausting the schedule space of small rings.

These tests certify the paper's ∀-schedule claims *completely* for small
instances: every reachable global state is visited, every maximal
execution's terminal state recorded, and invariants evaluated at each
state.  They complement the sampled-scheduler and hypothesis sweeps.
"""

import pytest

from repro.core.common import LeaderState
from repro.core.nonoriented import IdScheme, NonOrientedNode
from repro.core.terminating import TerminatingNode
from repro.core.warmup import WarmupNode
from repro.exceptions import ProtocolViolation
from repro.simulator.node import Node, PORT_ONE
from repro.simulator.ring import build_nonoriented_ring, build_oriented_ring
from repro.verification import (
    ExplorationLimitExceeded,
    explore_all_schedules,
)


def warmup_factory(ids):
    return lambda: build_oriented_ring([WarmupNode(i) for i in ids]).network


def terminating_factory(ids):
    return lambda: build_oriented_ring([TerminatingNode(i) for i in ids]).network


class TestAlgorithm1Exhaustive:
    @pytest.mark.parametrize("ids", [[1], [2], [1, 2], [2, 1], [1, 2, 3], [3, 1, 2], [2, 3, 1]])
    def test_confluent_and_quiescent(self, ids):
        result = explore_all_schedules(warmup_factory(ids))
        assert result.confluent
        assert result.quiescence_violations == 0

    def test_terminal_state_elects_max_under_all_schedules(self):
        ids = [2, 4, 1]

        def factory():
            return build_oriented_ring([WarmupNode(i) for i in ids]).network

        # Certify via an invariant evaluated at quiescent states: whenever
        # no pulse is in flight, only the max node may hold Leader.
        result = explore_all_schedules(factory)
        assert result.confluent

    def test_invariant_checked_at_every_state(self):
        observed = []

        def invariant(nodes):
            observed.append(tuple(node.rho_cw for node in nodes))
            for node in nodes:
                assert node.rho_cw <= 3  # Corollary 14 with IDmax = 3

        result = explore_all_schedules(
            warmup_factory([1, 3, 2]),
            invariant_hooks=(lambda view: invariant(view.network.nodes),),
        )
        assert len(observed) == result.states_explored

    def test_violated_invariant_aborts(self):
        def invariant(nodes):
            assert all(node.rho_cw < 2 for node in nodes)  # false eventually

        with pytest.raises(AssertionError):
            explore_all_schedules(
                warmup_factory([1, 3, 2]),
                invariant_hooks=(lambda view: invariant(view.network.nodes),),
            )

    def test_max_in_flight_equals_initial_pulse_count(self):
        # Algorithm 1 never increases the number of circulating pulses,
        # so the n initial pulses are the lifetime maximum.
        result = explore_all_schedules(warmup_factory([2, 3, 1]))
        assert result.max_in_flight == 3


class TestAlgorithm2Exhaustive:
    @pytest.mark.parametrize(
        "ids", [[1], [3], [1, 2], [2, 1], [2, 3], [1, 2, 3], [3, 1, 2], [2, 3, 1]]
    )
    def test_theorem1_for_all_schedules(self, ids):
        result = explore_all_schedules(terminating_factory(ids))
        assert result.confluent
        assert result.quiescence_violations == 0
        (outputs,) = result.terminal_outputs
        expected_leader = max(range(len(ids)), key=lambda i: ids[i])
        for index, output in enumerate(outputs):
            if index == expected_leader:
                assert output == LeaderState.LEADER
            else:
                assert output == LeaderState.NON_LEADER

    def test_state_space_sizes_are_reported(self):
        result = explore_all_schedules(terminating_factory([1, 2, 3]))
        assert result.states_explored >= result.transitions // 6
        assert result.transitions >= result.states_explored - 1

    def test_ablated_lag_discipline_fails_exhaustively(self):
        # The model checker finds the A1 ablation's bad schedules without
        # needing a hand-crafted adversary.
        def factory():
            return build_oriented_ring(
                [TerminatingNode(i, strict_lag=False) for i in [1, 2]]
            ).network

        result = explore_all_schedules(factory)
        broken = (
            not result.confluent
            or result.quiescence_violations > 0
            or any(
                LeaderState.LEADER not in outputs or outputs.count(LeaderState.LEADER) != 1
                for outputs in result.terminal_outputs
            )
        )
        assert broken


class TestAlgorithm3Exhaustive:
    @pytest.mark.parametrize("flips", [[False, False], [True, False], [True, True]])
    def test_nonoriented_two_ring_all_schedules(self, flips):
        ids = [1, 2]

        def factory():
            nodes = [NonOrientedNode(i, scheme=IdScheme.SUCCESSOR) for i in ids]
            return build_nonoriented_ring(nodes, flips=flips).network

        result = explore_all_schedules(factory)
        assert result.confluent
        assert result.quiescence_violations == 0


class TestExplorerMachinery:
    def test_state_budget_enforced(self):
        with pytest.raises(ExplorationLimitExceeded):
            explore_all_schedules(terminating_factory([2, 3, 4]), max_states=10)

    def test_detects_divergent_terminal_states(self):
        # A deliberately schedule-dependent protocol: each node terminates
        # with the port of its first arrival; the two-node ring then has
        # multiple distinct terminal states -> not confluent.
        class FirstArrivalNode(Node):
            def on_init(self, api):
                api.send(PORT_ONE)
                api.send(0)

            def on_message(self, api, port, content):
                if not self.terminated:
                    api.terminate(port)

        def factory():
            return build_oriented_ring([FirstArrivalNode(), FirstArrivalNode()]).network

        result = explore_all_schedules(factory)
        assert not result.confluent
        assert len(result.terminal_fingerprints) > 1
        # Terminated nodes ignored the other arrival: violations recorded.
        assert result.quiescence_violations > 0

    def test_immediately_quiescent_network(self):
        class Silent(Node):
            def on_init(self, api):
                pass

            def on_message(self, api, port, content):  # pragma: no cover
                pass

        def factory():
            return build_oriented_ring([Silent(), Silent()]).network

        result = explore_all_schedules(factory)
        assert result.states_explored == 1
        assert result.confluent
        assert result.transitions == 0
