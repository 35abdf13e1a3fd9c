"""E1 — Theorem 1: quiescently terminating election on oriented rings.

Regenerates the paper's headline claim as a table: for every workload the
measured pulse count must equal ``n(2*IDmax + 1)`` **exactly**, the
maximal-ID node must win, and termination must be quiescent with the
leader last — under several adversarial schedulers.
"""

from __future__ import annotations

import random

import pytest

from repro.core.terminating import run_terminating
from repro.simulator.scheduler import (
    AdversarialLagScheduler,
    GlobalFifoScheduler,
    LifoScheduler,
    RandomScheduler,
)

SCHEDULERS = {
    "global_fifo": GlobalFifoScheduler,
    "lifo": LifoScheduler,
    "random": lambda: RandomScheduler(seed=7),
    "lag_ccw": AdversarialLagScheduler.lagging_ccw,
    "lag_cw": AdversarialLagScheduler.lagging_cw,
}


def dense_ids(n: int, seed: int = 1) -> list:
    rng = random.Random(seed)
    ids = list(range(1, n + 1))
    rng.shuffle(ids)
    return ids


def sparse_ids(n: int, spread: int, seed: int = 2) -> list:
    rng = random.Random(seed)
    return rng.sample(range(1, spread + 1), n)


def test_theorem1_exactness_table(report):
    """The E1 table: claimed vs measured pulses across n and ID shapes."""
    rows = []
    for n in (1, 2, 4, 8, 16, 32, 64):
        for shape, ids in (
            ("dense", dense_ids(n)),
            ("sparse", sparse_ids(n, spread=8 * n + 8)),
        ):
            outcome = run_terminating(ids)
            claimed = n * (2 * max(ids) + 1)
            rows.append(
                (
                    n,
                    shape,
                    max(ids),
                    claimed,
                    outcome.total_pulses,
                    "yes" if outcome.total_pulses == claimed else "NO",
                    "yes" if outcome.leaders == [outcome.expected_leader] else "NO",
                    "yes" if outcome.run.quiescently_terminated else "NO",
                )
            )
            assert outcome.total_pulses == claimed
            assert outcome.leaders == [outcome.expected_leader]
            assert outcome.run.quiescently_terminated
    report.line("Theorem 1: message complexity n(2*IDmax+1), exact")
    report.table(
        ["n", "ids", "IDmax", "claimed", "measured", "exact", "max wins", "q-term"],
        rows,
    )


def test_theorem1_schedule_invariance(report):
    """Pulse count and winner are identical under every adversary."""
    ids = sparse_ids(12, spread=300, seed=5)
    rows = []
    for name, factory in SCHEDULERS.items():
        outcome = run_terminating(ids, scheduler=factory())
        rows.append(
            (
                name,
                outcome.total_pulses,
                outcome.ids[outcome.leaders[0]],
                outcome.run.termination_order[-1] == outcome.expected_leader,
            )
        )
    assert len({row[1] for row in rows}) == 1
    assert len({row[2] for row in rows}) == 1
    report.line(f"Theorem 1 under adversarial schedules (ids={ids})")
    report.table(["scheduler", "pulses", "winner id", "leader last"], rows)


@pytest.mark.parametrize("n", [8, 32, 128])
def test_theorem1_scaling_throughput(n):
    """The exact count holds as rings grow (IDmax pinned to 4n)."""
    ids = sparse_ids(n, spread=4 * n, seed=n)
    assert run_terminating(ids).total_pulses == n * (2 * max(ids) + 1)


def test_theorem1_idmax_dominates_cost(report):
    """Cost grows linearly in IDmax at fixed n — the term Theorem 4 proves inherent."""
    n = 8
    rows = []
    for id_max in (8, 32, 128, 512, 2048):
        ids = list(range(1, n)) + [id_max]
        outcome = run_terminating(ids)
        rows.append((n, id_max, outcome.total_pulses, outcome.total_pulses / id_max))
        assert outcome.total_pulses == n * (2 * id_max + 1)
    report.line("Cost vs IDmax at fixed n=8 (linear in IDmax, slope 2n)")
    report.table(["n", "IDmax", "pulses", "pulses/IDmax"], rows)
