"""E6 — Corollary 5: arbitrary computation with no pre-existing root.

The paper's punchline experiment: compose Theorem 1's election with the
root-based content-oblivious transport and compute global functions over
a fully defective ring that starts perfectly symmetric (no root).  The
tables report end-to-end pulse costs and their exact decomposition into
election (``n(2*IDmax+1)``) plus transport (unary-rate) shares.
"""

from __future__ import annotations

import random

from repro.core.composition import run_composed
from repro.defective.simulation import AllReduceProgram, GatherProgram, SizeProgram
from repro.defective.transport import transport_pulse_cost


def ring(n: int, seed: int = 11):
    rng = random.Random(seed)
    ids = rng.sample(range(1, 4 * n + 1), n)
    inputs = [rng.randint(0, 9) for _ in range(n)]
    return ids, inputs


def decompose(outcome):
    election = len(outcome.ids) * (2 * max(outcome.ids) + 1)
    schedule = [v for node in outcome.nodes for v in node.compute.values_sent]
    transport = transport_pulse_cost(len(outcome.ids), schedule)
    return election, transport


def test_e2e_sum_scaling(report):
    rows = []
    for n in (2, 4, 8, 16, 32):
        ids, inputs = ring(n)
        outcome = run_composed(ids, inputs, AllReduceProgram(lambda a, b: a + b))
        election, transport = decompose(outcome)
        assert outcome.outputs == [sum(inputs)] * n
        assert outcome.total_pulses == election + transport
        assert outcome.run.quiescently_terminated
        rows.append((n, max(ids), sum(inputs), election, transport, outcome.total_pulses))
    report.line("Corollary 5: elect-then-sum on a rootless fully defective ring")
    report.table(
        ["n", "IDmax", "sum", "election pulses", "transport pulses", "total"],
        rows,
    )


def test_e2e_program_zoo(report):
    ids, inputs = ring(8, seed=5)
    rows = []
    for label, program, expected in (
        ("sum", AllReduceProgram(lambda a, b: a + b), sum(inputs)),
        ("max", AllReduceProgram(max), max(inputs)),
        ("size", SizeProgram(), len(inputs)),
    ):
        outcome = run_composed(ids, inputs, program)
        assert outcome.outputs == [expected] * len(ids)
        rows.append((label, str(expected), outcome.total_pulses))
    report.line(f"Corollary 5 program zoo (n=8, ids={ids}, inputs={inputs})")
    report.table(["program", "result (all nodes)", "total pulses"], rows)


def test_e2e_gather_small_payloads(report):
    # Gather is computation-universal but pays the unary/gamma encoding
    # rate; keep payloads tiny and report the cost honestly.
    ids = [9, 3, 7]
    inputs = [2, 0, 3]
    outcome = run_composed(ids, inputs, GatherProgram())
    leader = outcome.leader
    expected = [inputs[(leader + k) % 3] for k in range(3)]
    assert outcome.outputs == [expected] * 3
    report.line(
        f"Corollary 5 gather: every node learned {expected} "
        f"(CW from leader) at {outcome.total_pulses} pulses — the unary "
        "encoding rate in action"
    )


def test_transport_unary_rate(report):
    """Transport cost grows linearly in the transmitted magnitude."""
    from repro.defective.simulation import run_defective_computation

    n = 6
    rows = []
    for magnitude in (1, 8, 64, 512):
        inputs = [magnitude] * n
        outcome = run_defective_computation(inputs, "max", leader=0)
        rows.append((n, magnitude, outcome.total_pulses))
        assert outcome.outputs == [magnitude] * n
    report.line("Transport unary rate: pulses vs payload magnitude (max of equal inputs)")
    report.table(["n", "payload", "pulses"], rows)
