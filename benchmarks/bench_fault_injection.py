"""E9 — negative reproduction: the channel assumptions are necessary.

The model allows the noise to corrupt content but never to drop or
inject pulses (paper, Section 2).  This bench violates each assumption
at increasing rates and censuses the damage to Theorem 1's guarantees:
wrong/missing leaders, lost termination, counter-conservation failures,
and livelocks from injected pulses that nothing can ever absorb.
"""

from __future__ import annotations

from repro.core.common import LeaderState
from repro.core.terminating import TerminatingNode
from repro.core.warmup import WarmupNode
from repro.exceptions import SimulationLimitExceeded
from repro.simulator.engine import Engine
from repro.faults import FaultModel, apply_fault_model, total_faults
from repro.simulator.ring import build_oriented_ring

IDS = [3, 9, 5, 2, 7]
TRIALS = 25


def faulty_run(node_cls, plan, max_steps=30_000):
    nodes = [node_cls(node_id) for node_id in IDS]
    topology = build_oriented_ring(nodes)
    apply_fault_model(topology.network, plan)
    result = Engine(topology.network, max_steps=max_steps).run()
    return nodes, result, topology.network


def census(node_cls, plan_factory, check):
    """Count trials where `check(nodes, result)` reports damage."""
    damaged = livelocked = faultless = 0
    for seed in range(TRIALS):
        plan = plan_factory(seed)
        try:
            nodes, result, network = faulty_run(node_cls, plan)
        except SimulationLimitExceeded:
            livelocked += 1
            continue
        if sum(total_faults(network)) == 0:
            faultless += 1
            continue
        if check(nodes, result):
            damaged += 1
    return damaged, livelocked, faultless


def test_pulse_loss_census(report, benchmark):
    rows = []
    for rate in (0.05, 0.15, 0.35):
        damaged, livelocked, faultless = census(
            TerminatingNode,
            lambda seed, rate=rate: FaultModel(drop_rate=rate, seed=seed),
            lambda nodes, result: (
                not result.all_terminated
                or [i for i, n in enumerate(nodes) if n.output is LeaderState.LEADER] != [1]
            ),
        )
        rows.append((f"{rate:.2f}", TRIALS, damaged, livelocked, faultless))
    report.line(
        "E9a: pulse LOSS vs Theorem 1 (damage = missing termination or "
        "wrong leader; n=5, IDmax=9)"
    )
    report.table(
        ["drop rate", "trials", "damaged", "livelocked", "fault-free"], rows
    )
    # At the heaviest rate, damage must be the norm.
    assert rows[-1][2] + rows[-1][3] > TRIALS // 2
    benchmark.pedantic(
        lambda: faulty_run(TerminatingNode, FaultModel(drop_rate=0.35, seed=1)),
        rounds=3,
        iterations=1,
    )


def test_pulse_injection_census(report, benchmark):
    rows = []
    for rate in (0.05, 0.15, 0.35):
        damaged, livelocked, faultless = census(
            WarmupNode,
            lambda seed, rate=rate: FaultModel(duplicate_rate=rate, seed=seed),
            lambda nodes, result: any(node.rho_cw > max(IDS) for node in nodes),
        )
        rows.append((f"{rate:.2f}", TRIALS, damaged, livelocked, faultless))
    report.line(
        "E9b: pulse INJECTION vs Algorithm 1 (damage = Corollary 14 "
        "overshoot; livelock = unabsorbable extra pulse circulating)"
    )
    report.table(
        ["dup rate", "trials", "damaged", "livelocked", "fault-free"], rows
    )
    assert rows[-1][2] + rows[-1][3] > 0
    benchmark.pedantic(
        lambda: census(
            WarmupNode,
            lambda seed: FaultModel(duplicate_rate=0.05, seed=seed),
            lambda nodes, result: False,
        ),
        rounds=1,
        iterations=1,
    )


def test_control_arm_is_clean(report, benchmark):
    """Without faults the same instances meet every guarantee (control)."""
    nodes = [TerminatingNode(node_id) for node_id in IDS]
    topology = build_oriented_ring(nodes)
    result = Engine(topology.network).run()
    assert result.quiescently_terminated
    assert result.total_sent == 5 * (2 * 9 + 1)
    report.line(
        "E9 control: identical rings with model-conforming channels meet "
        f"Theorem 1 exactly ({result.total_sent} pulses, quiescent, leader last)"
    )
    benchmark.pedantic(
        lambda: Engine(
            build_oriented_ring([TerminatingNode(i) for i in IDS]).network
        ).run(),
        rounds=3,
        iterations=1,
    )
