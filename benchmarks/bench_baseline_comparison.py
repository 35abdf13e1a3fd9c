"""E5 — the price of content-obliviousness vs classic baselines.

The introduction situates the paper's ``Theta(n * IDmax)`` cost against
content-carrying elections (``O(n log n)`` / ``O(n^2)``).  This bench
measures all six algorithms on identical rings and locates the
crossover: with a tight ID space (``IDmax ~ n``) the content-oblivious
algorithm is competitive; as IDs grow it falls behind by exactly the
factor Theorem 4 proves unavoidable.
"""

from __future__ import annotations

import random

from repro.analysis.complexity import algorithm2_pulses, crossover_id_max
from repro.baselines import ALL_BASELINES, run_baseline
from repro.core.terminating import run_terminating


def measure_all(ids):
    """Message counts of Algorithm 2 plus every baseline, same ring."""
    counts = {"content_oblivious": run_terminating(ids).total_pulses}
    for name, cls in ALL_BASELINES.items():
        counts[name] = run_baseline(cls, ids).total_messages
    return counts


def test_comparison_table_tight_ids(report):
    """IDmax == n: the content-oblivious cost is ~2n^2, near Le Lann."""
    rows = []
    for n in (4, 8, 16, 32, 64):
        ids = list(range(1, n + 1))
        random.Random(n).shuffle(ids)
        counts = measure_all(ids)
        rows.append(
            (
                n,
                counts["content_oblivious"],
                counts["chang_roberts"],
                counts["lelann"],
                counts["hirschberg_sinclair"],
                counts["peterson"],
                counts["dolev_klawe_rodeh"],
                counts["franklin"],
            )
        )
        assert counts["content_oblivious"] == n * (2 * n + 1)
    report.line("E5a: tight ID space (IDmax = n): messages per algorithm")
    report.table(
        ["n", "oblivious", "chang-roberts", "lelann", "hs", "peterson", "dkr", "franklin"],
        rows,
    )


def test_comparison_table_sparse_ids(report):
    """IDmax >> n: content costs stay flat, oblivious cost grows linearly."""
    n = 16
    rows = []
    for spread in (16, 64, 256, 1024, 4096):
        ids = random.Random(spread).sample(range(1, spread + 1), n)
        counts = measure_all(ids)
        cheapest = min(
            (name for name in ALL_BASELINES), key=lambda name: counts[name]
        )
        rows.append(
            (
                n,
                max(ids),
                counts["content_oblivious"],
                cheapest,
                counts[cheapest],
                f"{counts['content_oblivious']/counts[cheapest]:.1f}x",
            )
        )
    report.line("E5b: sparse IDs at n=16: the oblivious overhead grows with IDmax")
    report.table(
        ["n", "IDmax", "oblivious", "cheapest baseline", "its msgs", "overhead"],
        rows,
    )


def test_crossover_location(report):
    """Where obliviousness stops being competitive with each baseline."""
    n = 16
    ids_dense = list(range(1, n + 1))
    rows = []
    for name, cls in ALL_BASELINES.items():
        baseline_cost = run_baseline(cls, ids_dense).total_messages
        crossover = crossover_id_max(n, baseline_cost)
        rows.append(
            (
                name,
                baseline_cost,
                crossover,
                algorithm2_pulses(n, crossover),
            )
        )
        assert algorithm2_pulses(n, crossover) > baseline_cost
    report.line(
        f"E5c: smallest IDmax (n={n}) where Algorithm 2 exceeds each "
        "baseline's dense-ring cost"
    )
    report.table(
        ["baseline", "its msgs (IDmax=n)", "crossover IDmax", "oblivious cost there"],
        rows,
    )


def test_worst_case_shapes(report):
    """Chang-Roberts' Theta(n^2) worst case vs the oblivious cost's shape-independence."""
    n = 32
    descending = list(range(n, 0, -1))
    ascending = list(range(1, n + 1))
    rows = []
    for label, ids in (("descending CW", descending), ("ascending CW", ascending)):
        counts = measure_all(ids)
        rows.append(
            (label, counts["content_oblivious"], counts["chang_roberts"], counts["lelann"])
        )
    # Placement changes Chang-Roberts dramatically, the oblivious cost not at all.
    assert rows[0][1] == rows[1][1]
    assert rows[0][2] > 3 * rows[1][2]
    report.line("E5d: ID placement sensitivity (n=32, IDmax=32)")
    report.table(["placement", "oblivious", "chang-roberts", "lelann"], rows)
