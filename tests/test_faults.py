"""Fault injection: the model's channel assumptions are load-bearing.

The paper's channels corrupt content but "cannot be dropped or injected".
These tests *violate* each assumption and verify the algorithms' formal
guarantees measurably break — a negative reproduction of the modelling
discussion (and a sanity check that our positive results aren't vacuous).
"""

import pytest

from repro.core.common import LeaderState
from repro.core.terminating import TerminatingNode
from repro.core.warmup import WarmupNode
from repro.exceptions import ConfigurationError, SimulationLimitExceeded
from repro.simulator.engine import Engine
from repro.faults import FaultModel, FaultyChannel, apply_fault_model, total_faults
from repro.simulator.ring import build_oriented_ring


def run_with_faults(node_cls, ids, plan, max_steps=200_000):
    nodes = [node_cls(node_id) for node_id in ids]
    topology = build_oriented_ring(nodes)
    apply_fault_model(topology.network, plan)
    engine = Engine(topology.network, max_steps=max_steps)
    result = engine.run()
    return nodes, result, topology.network


class TestFaultModelValidation:
    def test_rates_must_be_probabilities(self):
        with pytest.raises(ConfigurationError):
            FaultModel(drop_rate=1.5)
        with pytest.raises(ConfigurationError):
            FaultModel(drop_rate=-0.1, duplicate_rate=0.1)

    def test_noop_plan_is_accepted(self):
        # The all-zero plan is the explicit "no faults" value so sweeps and
        # CLI call sites need not branch on None (rejection of a pointless
        # plan is a CLI-level warning only).
        plan = FaultModel()
        assert plan.is_noop
        assert FaultModel.none().is_noop
        nodes, result, network = run_with_faults(WarmupNode, [2, 5, 3], plan)
        assert total_faults(network) == (0, 0)
        assert all(node.state is not None for node in nodes)

    def test_plan_is_reproducible(self):
        plan = FaultModel(drop_rate=0.3, seed=5)
        _n1, r1, net1 = run_with_faults(WarmupNode, [2, 5, 3], plan)
        _n2, r2, net2 = run_with_faults(WarmupNode, [2, 5, 3], plan)
        assert r1.total_sent == r2.total_sent
        assert total_faults(net1) == total_faults(net2)

    def test_cannot_apply_after_traffic(self):
        nodes = [WarmupNode(1), WarmupNode(2)]
        topology = build_oriented_ring(nodes)
        topology.network.channels[0].enqueue(send_seq=1)
        with pytest.raises(ConfigurationError):
            apply_fault_model(topology.network, FaultModel(drop_rate=0.5))


class TestPulseLossBreaksTheGuarantees:
    def test_warmup_loses_conservation(self):
        # Lemma 6/Corollary 13 need every pulse conserved: with drops the
        # stabilized counters fall short of IDmax somewhere.
        plan = FaultModel(drop_rate=0.4, seed=1)
        nodes, result, network = run_with_faults(WarmupNode, [3, 9, 5, 2], plan)
        dropped, _ = total_faults(network)
        assert dropped > 0
        assert any(node.rho_cw < 9 for node in nodes)

    def test_warmup_can_elect_nobody_or_wrong_node(self):
        # Sweep seeds: with heavy loss some run must end without the
        # unique correct leader (the max-ID node in state Leader alone).
        bad_runs = 0
        for seed in range(20):
            plan = FaultModel(drop_rate=0.5, seed=seed)
            nodes, _result, network = run_with_faults(WarmupNode, [3, 9, 5, 2], plan)
            if total_faults(network)[0] == 0:
                continue
            leaders = [i for i, node in enumerate(nodes) if node.state is LeaderState.LEADER]
            if leaders != [1]:
                bad_runs += 1
        assert bad_runs > 0

    def test_terminating_loses_termination(self):
        # Theorem 1's termination needs the CW/CCW instances to complete;
        # dropped pulses strand nodes in non-terminated limbo.
        stuck_runs = 0
        for seed in range(10):
            plan = FaultModel(drop_rate=0.3, seed=seed)
            nodes, result, network = run_with_faults(
                TerminatingNode, [3, 9, 5, 2], plan
            )
            if total_faults(network)[0] == 0:
                continue
            if not result.all_terminated:
                stuck_runs += 1
        assert stuck_runs > 0


class TestPulseInjectionBreaksTheGuarantees:
    def test_duplicates_overshoot_corollary14(self):
        # With injected twins, some node receives more than IDmax pulses
        # (impossible in the model, Corollary 14) or the extra pulse
        # circulates forever (livelock) — both are model-violation
        # signatures.
        signatures = 0
        for seed in range(10):
            plan = FaultModel(duplicate_rate=0.3, seed=seed)
            try:
                nodes, _result, network = run_with_faults(
                    WarmupNode, [3, 9, 5, 2], plan, max_steps=20_000
                )
            except SimulationLimitExceeded:
                signatures += 1
                continue
            if total_faults(network)[1] == 0:
                continue
            if any(node.rho_cw > 9 for node in nodes):
                signatures += 1
        assert signatures > 0

    def test_counters_track_fault_kinds(self):
        plan = FaultModel(drop_rate=0.2, duplicate_rate=0.2, seed=3)
        try:
            _nodes, _result, network = run_with_faults(
                WarmupNode, [4, 8, 6], plan, max_steps=20_000
            )
        except SimulationLimitExceeded:
            pytest.skip("this seed livelocks before quiescence; fine")
        dropped, duplicated = total_faults(network)
        assert dropped + duplicated > 0


class TestPulseLossBreaksOrientation:
    def test_nonoriented_ring_misorients_under_loss(self):
        # Theorem 2's orientation rests on the exact per-direction pulse
        # counts; with loss, some run must fail to orient or to elect.
        from repro.core.nonoriented import NonOrientedNode, NonOrientedOutcome
        from repro.core.nonoriented import IdScheme
        from repro.simulator.ring import build_nonoriented_ring

        broken = 0
        for seed in range(15):
            ids = [3, 9, 5, 2]
            nodes = [NonOrientedNode(i, scheme=IdScheme.SUCCESSOR) for i in ids]
            topology = build_nonoriented_ring(
                nodes, flips=[True, False, True, False]
            )
            apply_fault_model(topology.network, FaultModel(drop_rate=0.3, seed=seed))
            run = Engine(topology.network, max_steps=100_000).run()
            outcome = NonOrientedOutcome(
                ids=ids, nodes=nodes, topology=topology, run=run,
                scheme=IdScheme.SUCCESSOR,
            )
            if total_faults(topology.network)[0] == 0:
                continue
            if outcome.leaders != [1] or not outcome.orientation_consistent:
                broken += 1
        assert broken > 0


class TestFaultyChannelUnit:
    def test_certain_drop(self):
        base_nodes = [WarmupNode(1), WarmupNode(2)]
        topology = build_oriented_ring(base_nodes)
        channel = FaultyChannel(topology.network.channels[0], FaultModel(drop_rate=1.0))
        channel.enqueue(send_seq=1)
        channel.enqueue(send_seq=2)
        assert channel.pending == 0
        assert channel.dropped == 2

    def test_certain_duplicate(self):
        base_nodes = [WarmupNode(1), WarmupNode(2)]
        topology = build_oriented_ring(base_nodes)
        channel = FaultyChannel(
            topology.network.channels[0], FaultModel(duplicate_rate=1.0)
        )
        channel.enqueue(send_seq=1)
        assert channel.pending == 2
        assert channel.duplicated == 1

    def test_faultless_baseline_is_unaffected_control(self):
        # Control arm: the same rings without a fault plan still meet the
        # exact Theorem 1 counts (guards against the fault harness itself
        # perturbing results).
        nodes = [TerminatingNode(node_id) for node_id in [3, 9, 5, 2]]
        topology = build_oriented_ring(nodes)
        result = Engine(topology.network).run()
        assert result.total_sent == 4 * (2 * 9 + 1)
