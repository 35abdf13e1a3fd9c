"""Synchronous rings: the related-work contrast (paper, Section 1.2).

The paper's Section 1.2 notes that *synchronous* rings escape the
asynchronous lower bounds: "leader election can be performed by
communicating only O(n) messages" (Frederickson-Lynch 1987; El-Ruby et
al. 1991), because in lockstep rounds **silence carries information** —
a node can encode its ID in *time* instead of messages.

This subpackage provides a synchronous round-based engine for
:class:`~repro.synchronous.engine.SyncNode` objects and the classic
algorithm exercising the time-coding trick:

* :class:`~repro.synchronous.time_coded.TimeCodedElectionNode` — the
  minimum-ID node speaks first after waiting ``ID * n_slack`` rounds;
  its claim circulates once and suppresses everyone else: **exactly n
  messages**, at a round cost proportional to the minimum ID (the
  time/message trade-off the paper contrasts with).

The paper's own Algorithms 1 and 2 under lockstep rounds are the
fleet's ``"lockstep"`` schedule (:mod:`repro.simulator.fleet`): the
*message* count does not improve there — content-obliviousness, not
asynchrony, pins it to ``IDmax``.

The engine is deliberately minimal: rounds, per-round message batches,
round counters available to nodes — everything the asynchronous model
denies.
"""

from repro.synchronous.engine import SyncEngine, SyncRunResult
from repro.synchronous.time_coded import (
    TimeCodedElectionNode,
    run_time_coded_election,
)

__all__ = [
    "SyncEngine",
    "SyncRunResult",
    "TimeCodedElectionNode",
    "run_time_coded_election",
]
