"""E2 + A2 — Theorem 2 / Proposition 15: non-oriented rings.

Regenerates both exact complexity claims and the orientation guarantee:

* doubled virtual IDs (Prop 15): exactly ``n(4*IDmax - 1)`` pulses;
* successor virtual IDs (Thm 2):  exactly ``n(2*IDmax + 1)`` pulses;
* every sampled adversarial port-flip pattern yields a single leader
  (the maximal ID) and a globally consistent orientation (Figure 1's
  scenario, repaired).

The A2 ablation row quantifies the factor-two saving of the improved ID
scheme.
"""

from __future__ import annotations

import random

from repro.core.nonoriented import IdScheme, run_nonoriented


def workload(n: int, seed: int = 3):
    rng = random.Random(seed)
    ids = rng.sample(range(1, 6 * n + 2), n)
    flips = [rng.random() < 0.5 for _ in range(n)]
    return ids, flips


def test_theorem2_and_prop15_exactness(report):
    rows = []
    for n in (1, 2, 4, 8, 16, 32):
        ids, flips = workload(n)
        id_max = max(ids)
        for scheme, formula in (
            (IdScheme.DOUBLED, n * (4 * id_max - 1)),
            (IdScheme.SUCCESSOR, n * (2 * id_max + 1)),
        ):
            outcome = run_nonoriented(ids, flips=flips, scheme=scheme)
            rows.append(
                (
                    n,
                    id_max,
                    scheme.value,
                    formula,
                    outcome.total_pulses,
                    "yes" if outcome.total_pulses == formula else "NO",
                    "yes" if len(outcome.leaders) == 1 else "NO",
                    "yes" if outcome.orientation_consistent else "NO",
                )
            )
            assert outcome.total_pulses == formula
            assert outcome.orientation_consistent
    report.line("Theorem 2 (successor) vs Proposition 15 (doubled), exact pulses")
    report.table(
        ["n", "IDmax", "scheme", "claimed", "measured", "exact", "1 leader", "oriented"],
        rows,
    )


def test_a2_scheme_saving_ablation(report):
    """A2: the Theorem-2 ID choice halves Proposition 15's pulse count."""
    rows = []
    for n in (4, 8, 16, 32):
        ids, flips = workload(n, seed=n)
        doubled = run_nonoriented(ids, flips=flips, scheme=IdScheme.DOUBLED)
        successor = run_nonoriented(ids, flips=flips, scheme=IdScheme.SUCCESSOR)
        ratio = doubled.total_pulses / successor.total_pulses
        rows.append(
            (n, max(ids), doubled.total_pulses, successor.total_pulses, f"{ratio:.3f}")
        )
        assert 1.8 < ratio < 2.0
    report.line("A2 ablation: doubled vs successor virtual IDs (ratio -> 2)")
    report.table(["n", "IDmax", "doubled", "successor", "ratio"], rows)


def test_f1_orientation_repair_over_flip_space(report):
    """F1 (Figure 1): every flip pattern of a 6-ring gets repaired."""
    from repro.simulator.ring import all_flip_patterns

    ids = [4, 19, 7, 12, 3, 9]
    consistent = 0
    patterns = all_flip_patterns(6)
    for flips in patterns:
        outcome = run_nonoriented(ids, flips=list(flips))
        assert outcome.leaders == [1]
        assert outcome.orientation_consistent
        consistent += 1
    report.line(
        f"Figure 1 scenario: {consistent}/{len(patterns)} port assignments of a "
        "6-ring repaired to a consistent orientation (exhaustive)"
    )
