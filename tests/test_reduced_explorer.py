"""Soundness tests for the partial-order-reduced explorer.

The reduced search is only useful if its verdicts are the unreduced
search's verdicts; these tests pin the preserved properties one by one
(terminal sets, confluence and *non*-confluence, violation existence,
message counts), the enforcement of silent-port declarations, fault-space
exploration, invariant hooks, budgets, and the acceptance-criterion
reduction factor on the reference instance.
"""

from __future__ import annotations

import pytest

from repro.core.invariants import (
    ALGORITHM1_HOOKS,
    ALGORITHM2_HOOKS,
    InvariantViolation,
    hooks_for,
)
from repro.core.nonoriented import NonOrientedNode
from repro.core.terminating import TerminatingNode
from repro.core.warmup import WarmupNode
from repro.exceptions import ProtocolViolation
from repro.faults import FaultModel, apply_fault_model
from repro.simulator.node import Node
from repro.simulator.ring import build_nonoriented_ring, build_oriented_ring
from repro.verification import (
    ExplorationLimitExceeded,
    explore_all_schedules,
    explore_reduced,
)

REFERENCE_IDS = [1, 2, 3, 4, 5, 6]


def oriented_factory(node_cls, ids, **kwargs):
    def build():
        return build_oriented_ring([node_cls(i, **kwargs) for i in ids]).network

    return build


def assert_same_verdicts(factory):
    """Both explorers must certify identical terminal-state facts."""
    full = explore_all_schedules(factory)
    reduced = explore_reduced(factory)
    assert set(full.terminal_node_fingerprints) == set(
        reduced.terminal_node_fingerprints
    )
    assert full.confluent == reduced.confluent
    assert sorted(full.terminal_total_sent) == sorted(reduced.terminal_total_sent)
    assert (full.quiescence_violations == 0) == (
        reduced.quiescence_violations == 0
    )
    assert reduced.states_explored <= full.states_explored
    return full, reduced


def test_reference_instance_meets_10x_reduction():
    full, reduced = assert_same_verdicts(
        oriented_factory(WarmupNode, REFERENCE_IDS)
    )
    assert reduced.confluent and reduced.quiescence_violations == 0
    assert full.states_explored >= 10 * reduced.states_explored
    expected = len(REFERENCE_IDS) * max(REFERENCE_IDS)
    assert reduced.terminal_total_sent == [expected]


def test_frontier_instance_beyond_unreduced_budget():
    ids = [1, 2, 3, 4, 5, 6, 7]
    budget = 2_000
    factory = oriented_factory(WarmupNode, ids)
    with pytest.raises(ExplorationLimitExceeded):
        explore_all_schedules(factory, max_states=budget)
    reduced = explore_reduced(factory, max_states=budget)
    assert reduced.confluent and reduced.quiescence_violations == 0
    assert reduced.terminal_total_sent == [len(ids) * max(ids)]


@pytest.mark.parametrize("ids", [[1, 2], [2, 3, 1], [1, 2, 3, 4]])
def test_terminating_verdicts_agree(ids):
    full, reduced = assert_same_verdicts(oriented_factory(TerminatingNode, ids))
    assert reduced.confluent
    assert reduced.terminal_total_sent == [len(ids) * (2 * max(ids) + 1)]


@pytest.mark.parametrize(
    "flips", [[False, False, False], [True, False, True], [True, True, True]]
)
def test_nonoriented_verdicts_agree(flips):
    def factory():
        return build_nonoriented_ring(
            [NonOrientedNode(i) for i in (2, 3, 1)], flips=flips
        ).network

    _full, reduced = assert_same_verdicts(factory)
    assert reduced.confluent and reduced.quiescence_violations == 0


class FirstArrivalNode(Node):
    """Deliberately schedule-dependent: remembers which port won the race."""

    def __init__(self, node_id):
        super().__init__()
        self.node_id = node_id
        self.first_port = None
        self.received = 0

    def on_init(self, api):
        api.send(0)
        api.send(1)

    def on_message(self, api, port, content):
        self.received += 1
        if self.first_port is None:
            self.first_port = port


def test_non_confluence_is_preserved():
    def factory():
        return build_oriented_ring(
            [FirstArrivalNode(i) for i in (1, 2, 3)]
        ).network

    full, reduced = assert_same_verdicts(factory)
    assert not reduced.confluent
    assert len(reduced.terminal_node_fingerprints) > 1


def test_quiescence_violation_existence_is_preserved():
    # The lag-discipline ablation of Algorithm 2 has schedules that
    # deliver pulses to terminated nodes; the reduced search must still
    # find at least one witness (the count may legitimately differ).
    factory = oriented_factory(TerminatingNode, [1, 2], strict_lag=False)
    full = explore_all_schedules(factory)
    reduced = explore_reduced(factory)
    assert full.quiescence_violations > 0
    assert reduced.quiescence_violations > 0
    assert set(full.terminal_node_fingerprints) == set(
        reduced.terminal_node_fingerprints
    )


class LyingSilentNode(Node):
    """Declares port 0 silent, then sends on it — must be caught."""

    SILENT_SEND_PORTS = (0,)

    def __init__(self, node_id):
        super().__init__()
        self.node_id = node_id

    def on_init(self, api):
        api.send(1)

    def on_message(self, api, port, content):
        api.send(0)


@pytest.mark.parametrize("explore", [explore_all_schedules, explore_reduced])
def test_silent_port_declaration_is_enforced(explore):
    def factory():
        return build_oriented_ring([LyingSilentNode(i) for i in (1, 2)]).network

    with pytest.raises(ProtocolViolation, match="silent"):
        explore(factory)


def test_budget_is_enforced_by_reduced_explorer():
    with pytest.raises(ExplorationLimitExceeded):
        explore_reduced(
            oriented_factory(TerminatingNode, [2, 3, 1, 4]), max_states=10
        )


@pytest.mark.parametrize(
    "plan",
    [
        FaultModel(drop_rate=0.3, duplicate_rate=0.0, seed=7),
        FaultModel(drop_rate=0.2, duplicate_rate=0.2, seed=11),
    ],
)
def test_fault_space_exploration_agrees(plan):
    def factory():
        network = build_oriented_ring(
            [WarmupNode(i) for i in (1, 2, 3)]
        ).network
        apply_fault_model(network, plan)
        return network

    assert_same_verdicts(factory)


def test_invariant_hooks_run_at_reduced_states():
    result = explore_reduced(
        oriented_factory(WarmupNode, [2, 3, 1, 4]),
        invariant_hooks=ALGORITHM1_HOOKS,
    )
    assert result.confluent
    result = explore_reduced(
        oriented_factory(TerminatingNode, [2, 3, 1]),
        invariant_hooks=ALGORITHM2_HOOKS,
    )
    assert result.confluent


def test_invariant_hook_failures_propagate():
    def broken_hook(engine):
        if engine.network.pending_messages() == 0:
            raise InvariantViolation("tripwire at quiescence")

    with pytest.raises(InvariantViolation, match="tripwire"):
        explore_reduced(
            oriented_factory(WarmupNode, [1, 2, 3]),
            invariant_hooks=(broken_hook,),
        )


def test_hooks_registry_covers_cli_algorithms():
    assert hooks_for("warmup") == ALGORITHM1_HOOKS
    assert hooks_for("terminating") == ALGORITHM2_HOOKS
    assert hooks_for("nonoriented") == ()
    with pytest.raises(KeyError):
        hooks_for("unknown")


def test_reduction_telemetry_is_consistent():
    result = explore_reduced(oriented_factory(WarmupNode, REFERENCE_IDS))
    assert result.ample_states + result.full_expansion_states > 0
    assert result.enabled_transitions >= result.transitions
    assert result.branch_reduction >= 1.0
    assert result.max_in_flight >= 1
