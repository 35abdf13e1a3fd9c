"""E11 — Corollary 5 in full generality: the universal interpreter.

The strongest form of the paper's headline: an arbitrary content-
carrying asynchronous ring algorithm — Chang-Roberts 1979 itself —
executed over a fully defective ring with **no pre-existing root** (the
root is elected by Theorem 1 first).  The tables report pulse budgets,
token-hop counts, and the overhead of pulse-level simulation relative to
native content channels.
"""

from __future__ import annotations

import random

from repro.baselines import run_baseline
from repro.baselines.chang_roberts import ChangRobertsNode
from repro.core.composition import run_simulated_composed
from repro.defective.ring_algorithms import (
    SimBroadcast,
    SimChangRoberts,
    SimConvergecastSum,
)
from repro.defective.universal import simulate_ring_algorithm


def test_chang_roberts_over_pulses(report):
    rows = []
    for n in (3, 4, 6, 8):
        ids = random.Random(n).sample(range(1, 12), n)
        native = run_baseline(ChangRobertsNode, ids)
        simulated = simulate_ring_algorithm([SimChangRoberts(i) for i in ids])
        winner_native = ids[native.leaders[0]]
        winner_sim = simulated.outputs[0][1]
        rows.append(
            (
                n,
                str(ids),
                winner_native,
                winner_sim,
                native.total_messages,
                simulated.total_pulses,
                simulated.token_hops,
            )
        )
        assert winner_native == winner_sim == max(ids)
    report.line(
        "E11: Chang-Roberts 1979 executed over pulse-only channels "
        "(same winner as native; pulses = the price of obliviousness)"
    )
    report.table(
        ["n", "ids", "native winner", "simulated winner",
         "native msgs", "pulses", "token hops"],
        rows,
    )


def test_rootless_end_to_end(report):
    """Theorem 1 election composed with the universal interpreter."""
    rows = []
    for n in (3, 4, 6):
        ids = random.Random(n + 50).sample(range(1, 10), n)
        sims = [SimConvergecastSum(v) for v in range(1, n + 1)]
        outcome = run_simulated_composed(ids, sims)
        expected = n * (n + 1) // 2
        assert outcome.outputs == [expected] * n
        assert outcome.run.quiescently_terminated
        rows.append(
            (n, max(ids), expected, outcome.total_pulses,
             "yes" if outcome.run.termination_order[-1] == outcome.leader else "NO")
        )
    report.line(
        "E11b: rootless + contentless, end to end — elect (Thm 1), then "
        "simulate an arbitrary convergecast; quiescent, leader last"
    )
    report.table(["n", "IDmax", "sum computed", "total pulses", "leader last"], rows)


def test_simulation_overhead_profile(report):
    """Pulse cost vs payload magnitude: the unary rate, quantified."""
    rows = []
    for value in (1, 4, 16, 64):
        outcome = simulate_ring_algorithm(
            [SimBroadcast(value)] + [SimBroadcast() for _ in range(3)], leader=0
        )
        assert outcome.outputs == [value] * 4
        rows.append((4, value, outcome.total_pulses, outcome.token_hops))
    report.line("E11c: universal-interpreter pulse cost vs broadcast payload")
    report.table(["n", "payload", "pulses", "token hops"], rows)
