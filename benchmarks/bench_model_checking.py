"""E8 — exhaustive ∀-schedule certification of small instances.

The sampled-scheduler benches (E1/E2) check the paper's claims along
many executions; this bench *exhausts* the schedule nondeterminism of
small rings with the bounded model checker and certifies:

* confluence — every schedule funnels into one terminal state (the
  mechanism behind the exact, schedule-invariant complexity formulas);
* zero quiescent-termination violations anywhere in the state space;
* the single terminal state elects the maximal ID.

The reported state/transition counts quantify how much nondeterminism
was covered, and the A1 row shows the checker autonomously finding the
ablated algorithm's bad schedules.
"""

from __future__ import annotations

from repro.core.common import LeaderState
from repro.core.nonoriented import IdScheme, NonOrientedNode
from repro.core.terminating import TerminatingNode
from repro.core.warmup import WarmupNode
from repro.simulator.ring import build_nonoriented_ring, build_oriented_ring
from repro.verification import explore_all_schedules


def test_exhaustive_certificates(report):
    rows = []
    cases = [
        ("alg1", WarmupNode, [2, 3, 1]),
        ("alg1", WarmupNode, [1, 4, 2, 3]),
        ("alg2", TerminatingNode, [1, 2]),
        ("alg2", TerminatingNode, [2, 3, 1]),
        ("alg2", TerminatingNode, [3, 1, 2]),
        ("alg2", TerminatingNode, [1, 2, 3, 4]),
    ]
    for label, node_cls, ids in cases:
        def factory(node_cls=node_cls, ids=ids):
            return build_oriented_ring([node_cls(i) for i in ids]).network

        result = explore_all_schedules(factory)
        rows.append(
            (
                label,
                str(ids),
                result.states_explored,
                result.transitions,
                len(result.terminal_fingerprints),
                result.quiescence_violations,
                "yes" if result.confluent else "NO",
            )
        )
        assert result.confluent
        assert result.quiescence_violations == 0
    report.line("E8: bounded model checking — every schedule of each instance")
    report.table(
        ["algorithm", "ids", "states", "transitions", "terminals", "violations", "confluent"],
        rows,
    )


def test_exhaustive_nonoriented(report):
    rows = []
    for flips in ([False, False], [True, False], [False, True], [True, True]):
        def factory(flips=flips):
            nodes = [NonOrientedNode(i, scheme=IdScheme.SUCCESSOR) for i in (1, 2)]
            return build_nonoriented_ring(nodes, flips=flips).network

        result = explore_all_schedules(factory)
        rows.append(
            (str(flips), result.states_explored, result.transitions,
             "yes" if result.confluent else "NO")
        )
        assert result.confluent
    report.line("E8b: Algorithm 3 on the 2-ring — all schedules x all port flips")
    report.table(["flips", "states", "transitions", "confluent"], rows)


def test_model_checker_finds_a1_bug_automatically(report):
    """The ablated algorithm's bad schedules, found with zero hand-tuning."""

    def ablated_factory():
        return build_oriented_ring(
            [TerminatingNode(i, strict_lag=False) for i in (1, 2)]
        ).network

    result = explore_all_schedules(ablated_factory)
    bad_terminals = [
        outputs
        for outputs in result.terminal_outputs
        if outputs.count(LeaderState.LEADER) != 1
    ]
    assert (not result.confluent) or result.quiescence_violations or bad_terminals
    report.line(
        "E8c: the checker exhaustively finds the A1 ablation's failures — "
        f"{len(result.terminal_fingerprints)} distinct terminal states, "
        f"{result.quiescence_violations} violating transitions, "
        f"{len(bad_terminals)} terminals without a unique leader "
        "(the unablated instance has 1 terminal, 0, 0)"
    )
