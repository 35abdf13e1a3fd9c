"""One-call front doors for the paper's three settings.

These wrap the per-algorithm runners into a single report shape so that
examples, benchmarks, and downstream users have a uniform API:

* :func:`elect_leader_oriented` — Theorem 1 (Algorithm 2), terminating.
* :func:`elect_leader_nonoriented` — Theorem 2 (Algorithm 3), stabilizing,
  also orients the ring.
* :func:`elect_leader_anonymous` — Theorem 3 (Algorithm 4 + Algorithm 3),
  stabilizing, succeeds with high probability.

The oriented and nonoriented doors run on the batched engine: the
adversary picks a channel; each pick delivers its whole FIFO run.  That
is the adversary picking the same channel again until its queue is
empty, a legal schedule, and every field of the report is the same on
every schedule (``docs/PERFORMANCE.md``, "Adversary equivalence").  The
per-pulse engine stays the runners' default (``batched=False``), which
the explorers and property tests drive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.anonymous import run_anonymous
from repro.core.common import LeaderState
from repro.core.nonoriented import IdScheme, run_nonoriented
from repro.core.terminating import run_terminating
from repro.simulator.scheduler import Scheduler


@dataclass(frozen=True)
class ElectionReport:
    """Uniform summary of one leader election run.

    Attributes:
        setting: ``"oriented"``, ``"nonoriented"``, or ``"anonymous"``.
        n: Ring size.
        leader: Index of the elected node, or None if the run failed
            (possible only in the anonymous setting, with probability
            ``O(n**-c)``).
        states: Final per-node verdicts in clockwise ring order.
        terminated: Whether nodes explicitly terminated (Theorem 1 only).
        quiescent: Whether the network reached quiescence (always True for
            runs that return).
        total_pulses: Message complexity of the execution.
        claimed_bound: The paper's predicted pulse count for this setting
            and input (None in the anonymous setting, where the claim is
            asymptotic).
        cw_ports: Computed clockwise port per node (orientation settings).
    """

    setting: str
    n: int
    leader: Optional[int]
    states: List[LeaderState]
    terminated: bool
    quiescent: bool
    total_pulses: int
    claimed_bound: Optional[int]
    cw_ports: Optional[List[Optional[int]]] = None

    @property
    def succeeded(self) -> bool:
        """Exactly one leader was elected."""
        return self.leader is not None


def _single_leader(states: Sequence[LeaderState]) -> Optional[int]:
    leaders = [
        index for index, state in enumerate(states) if state is LeaderState.LEADER
    ]
    return leaders[0] if len(leaders) == 1 else None


def elect_leader_oriented(
    ids: Sequence[int],
    scheduler: Optional[Scheduler] = None,
    max_steps: int = 10_000_000,
) -> ElectionReport:
    """Quiescently terminating election on an oriented ring (Theorem 1).

    Args:
        ids: Unique positive node IDs in clockwise order.
        scheduler: Asynchronous adversary; defaults to global FIFO.  It
            picks a channel; each pick delivers its whole FIFO run.
        max_steps: Engine safety bound, counted in picks.
    """
    outcome = run_terminating(
        ids, scheduler=scheduler, max_steps=max_steps, batched=True
    )
    states = [node.output for node in outcome.nodes]
    return ElectionReport(
        setting="oriented",
        n=len(ids),
        leader=_single_leader(states),
        states=states,
        terminated=outcome.run.all_terminated,
        quiescent=outcome.run.quiescent,
        total_pulses=outcome.total_pulses,
        claimed_bound=outcome.theorem1_message_bound,
    )


def elect_leader_nonoriented(
    ids: Sequence[int],
    flips: Optional[Sequence[bool]] = None,
    scheme: IdScheme = IdScheme.SUCCESSOR,
    scheduler: Optional[Scheduler] = None,
    max_steps: int = 10_000_000,
) -> ElectionReport:
    """Stabilizing election + orientation on a non-oriented ring (Theorem 2).

    Args:
        ids: Unique positive node IDs in clockwise order.
        flips: Adversarial per-node port flips (None = unflipped).
        scheme: Virtual-ID scheme; the default reproduces Theorem 2's
            ``n(2*IDmax+1)`` bound, ``IdScheme.DOUBLED`` Proposition 15's.
        scheduler: Asynchronous adversary; defaults to global FIFO.  It
            picks a channel; each pick delivers its whole FIFO run.
        max_steps: Engine safety bound, counted in picks.
    """
    outcome = run_nonoriented(
        ids,
        flips=flips,
        scheme=scheme,
        scheduler=scheduler,
        max_steps=max_steps,
        batched=True,
    )
    return ElectionReport(
        setting="nonoriented",
        n=len(ids),
        leader=_single_leader(outcome.states),
        states=outcome.states,
        terminated=False,  # stabilizing: nodes cannot detect completion
        quiescent=outcome.run.quiescent,
        total_pulses=outcome.total_pulses,
        claimed_bound=outcome.claimed_message_bound,
        cw_ports=outcome.cw_port_labels,
    )


def elect_leader_anonymous(
    n: int,
    c: float = 2.0,
    seed: Optional[int] = None,
    scheduler: Optional[Scheduler] = None,
    max_steps: int = 50_000_000,
) -> ElectionReport:
    """W.h.p. election + orientation on an anonymous ring (Theorem 3).

    Args:
        n: Ring size (unknown to the nodes themselves).
        c: Confidence; failure probability is ``O(n**-c)``.
        seed: Reproducibility seed for sampling and port flips.
        scheduler: Asynchronous adversary; defaults to global FIFO.
        max_steps: Engine safety bound.
    """
    outcome = run_anonymous(
        n, c=c, seed=seed, scheduler=scheduler, max_steps=max_steps
    )
    states = outcome.election.states
    return ElectionReport(
        setting="anonymous",
        n=n,
        leader=_single_leader(states) if outcome.succeeded else None,
        states=states,
        terminated=False,  # impossible here (Itai-Rodeh)
        quiescent=outcome.election.run.quiescent,
        total_pulses=outcome.election.total_pulses,
        claimed_bound=None,
        cw_ports=outcome.election.cw_port_labels,
    )
