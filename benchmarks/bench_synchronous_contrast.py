"""E10 — the synchronous contrast (paper, Section 1.2 related work).

"In synchronous rings, leader election can be performed by communicating
only O(n) messages": with lockstep rounds, silence carries information
and IDs can be encoded in time.  This bench measures the classic
TimeSlice algorithm against the paper's asynchronous content-oblivious
cost on identical IDs, exhibiting both sides of the trade:

* messages: n (synchronous, content-carrying, n known) vs exactly
  n(2*IDmax+1) (asynchronous, content-oblivious, uniform);
* time: IDmin*n rounds (the synchronous algorithm's hidden price) vs no
  global time at all.
"""

from __future__ import annotations

import random

from repro.core.terminating import run_terminating
from repro.synchronous import run_time_coded_election


def test_message_and_round_tradeoff(report):
    rows = []
    rng = random.Random(9)
    for n in (2, 4, 8, 16, 32):
        ids = rng.sample(range(1, 5 * n), n)
        sync = run_time_coded_election(ids)
        oblivious = run_terminating(ids)
        rows.append(
            (
                n,
                max(ids),
                min(ids),
                sync.total_sent,
                sync.rounds_used,
                oblivious.total_pulses,
            )
        )
        assert sync.total_sent == n
        assert oblivious.total_pulses == n * (2 * max(ids) + 1)
    report.line(
        "E10: synchronous TimeSlice (n msgs, IDmin*n rounds, content+n known) "
        "vs asynchronous content-oblivious (n(2*IDmax+1) pulses, no time)"
    )
    report.table(
        ["n", "IDmax", "IDmin", "sync msgs", "sync rounds", "oblivious pulses"],
        rows,
    )


def test_sync_messages_flat_in_id_magnitude(report):
    """Scaling IDs 100x leaves the synchronous count at n — but multiplies
    its ROUND cost; the oblivious pulse count scales with IDmax instead."""
    n = 8
    rows = []
    for scale in (1, 10, 100):
        ids = [scale * k for k in range(1, n + 1)]
        sync = run_time_coded_election(ids)
        oblivious = run_terminating(ids)
        rows.append(
            (scale, sync.total_sent, sync.rounds_used, oblivious.total_pulses)
        )
        assert sync.total_sent == n
    report.line("E10b: ID magnitude sweep at n=8 — where each model pays")
    report.table(
        ["ID scale", "sync msgs", "sync rounds", "oblivious pulses"], rows
    )
