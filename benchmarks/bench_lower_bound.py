"""E4 — Theorem 4 / Theorem 20: the message-complexity lower bound.

Regenerates Section 6 end to end, executable:

* solitude patterns (Definition 21) of Algorithm 2 across an ID universe
  — all distinct, as Lemma 22 demands of any correct algorithm;
* Corollary 24's pigeonhole: the n-subset sharing a long common prefix,
  i.e. the adversarial ID assignment of Theorem 20's proof;
* the bound curve ``n*floor(log2(IDmax/n))`` against Theorem 1's
  measured (and exactly predicted) upper bound — the exponential gap the
  paper's conclusion leaves open.
"""

from __future__ import annotations

from repro.analysis.complexity import algorithm2_pulses
from repro.core.lower_bound import (
    find_common_prefix_group,
    find_pattern_collision,
    lower_bound_pulses,
    solitude_patterns,
)
from repro.core.terminating import TerminatingNode, run_terminating


def factory(node_id: int) -> TerminatingNode:
    return TerminatingNode(node_id)


def test_lemma22_pattern_uniqueness(report):
    universe = range(1, 129)
    patterns = solitude_patterns(factory, universe)
    collision = find_pattern_collision(patterns)
    assert collision is None
    lengths = sorted({len(p) for p in patterns.values()})
    report.line(
        f"Lemma 22: {len(patterns)} solitude patterns, all distinct; "
        f"lengths 2*ID+1 in [{lengths[0]}, {lengths[-1]}]"
    )


def test_theorem20_adversarial_assignment(report):
    rows = []
    for k, n in ((32, 2), (64, 4), (128, 8), (256, 4)):
        patterns = solitude_patterns(factory, range(1, k + 1))
        group, prefix = find_common_prefix_group(patterns, n)
        outcome = run_terminating(group)
        bound = lower_bound_pulses(n, k)
        rows.append(
            (
                k,
                n,
                len(prefix),
                str(group),
                bound,
                outcome.total_pulses,
                "yes" if outcome.total_pulses >= bound else "NO",
            )
        )
        assert outcome.total_pulses >= bound
    report.line(
        "Theorem 20: pigeonhole assignment forces >= n*floor(log2(k/n)) pulses"
    )
    report.table(
        ["k (IDs)", "n", "prefix len", "chosen IDs", "lower bound", "measured", "holds"],
        rows,
    )


def test_bound_gap_curve(report):
    """The open gap: upper/lower ratio grows ~ IDmax/log(IDmax)."""
    n = 4
    rows = []
    for exponent in range(3, 15, 2):
        id_max = n * (2**exponent)
        lower = lower_bound_pulses(n, id_max)
        upper = algorithm2_pulses(n, id_max)
        rows.append((n, id_max, lower, upper, f"{upper/lower:.1f}"))
    report.line(
        "Upper (Thm 1, exact) vs lower (Thm 4) bound: the exponential gap "
        "the paper leaves open"
    )
    report.table(["n", "IDmax", "lower", "upper", "ratio"], rows)


def test_unbounded_messages_even_for_tiny_rings(report):
    """Thm 20's corollary: even n=1 costs grow without bound in the ID space."""
    rows = []
    for node_id in (1, 10, 100, 1000, 10000):
        outcome = run_terminating([node_id])
        rows.append((node_id, lower_bound_pulses(1, node_id), outcome.total_pulses))
        assert outcome.total_pulses == 2 * node_id + 1
    report.line("n = 1: pulses grow without bound as the assignable ID grows")
    report.table(["ID", "lower bound", "measured (=2*ID+1)"], rows)
