"""Executable versions of the paper's invariants (Lemmas 6-14, 17).

Each function here either checks a *point-in-time* predicate against a
running :class:`~repro.simulator.engine.Engine` (usable as an engine
``invariant_hook``, i.e. evaluated after **every** delivery, so a passing
run certifies the invariant along the entire execution) or evaluates an
*end-state* predicate on a finished run.

Lemma numbering follows the paper:

* **Lemma 6** — counter invariant of Algorithm 1: while
  :math:`\\rho_{cw} < \\mathsf{ID}_v`, node ``v`` has sent exactly one
  pulse more than it received; once :math:`\\rho_{cw} \\ge \\mathsf{ID}_v`,
  sent equals received.
* **Lemma 7 / 17** — the maximal-ID node is the last to satisfy
  :math:`\\rho_{cw} \\ge \\mathsf{ID}_v` (17 generalizes to non-unique IDs).
* **Lemmas 8, 9 / Corollary 10 / Lemma 11** — quiescence holds iff every
  node has :math:`\\rho_{cw} \\ge \\mathsf{ID}_v` iff every node has
  :math:`\\rho_{cw} = \\sigma_{cw} = \\mathsf{ID}_{max}`.
* **Corollary 13** — every execution ends in quiescence with each node
  having sent and received exactly :math:`\\mathsf{ID}_{max}` pulses.
* **Corollary 14** — :math:`\\rho_{cw}[v] \\le \\mathsf{ID}_{max}` at all
  times.

For Algorithm 2, the CW-instance invariants apply verbatim, the CCW
instance satisfies the mirrored invariant until the termination pulse is
emitted, and the *lag* invariant :math:`\\rho_{ccw} \\le \\rho_{cw}` holds
at every node until the termination phase (this is what makes the line-14
trigger unique to the leader).

Each per-state lemma below is one *statement*: a function of one
instance's per-node lists (``ids``, ``rho_cw``, ...; the parameter names
are the :class:`~repro.simulator.fleet.FleetRoundView` field names) that
returns the violation text for the first offending node, or ``None``.
Every substrate reads that statement:

* the engine hooks (``check_*``, taking an ``Engine`` or an
  :class:`~repro.verification.common.EngineView`) read the lists off the
  node objects and raise the text;
* the column forms (``check_columns_*``, taking a ``FleetRoundView``)
  run it on every row of a pure-Python view; on a NumPy view a
  vectorized mask screens the whole block and the statement runs on the
  first flagged row only.  The statistical model checker runs the column
  battery over millions of sampled schedules.

The column battery also checks a *conservation* law no single node can
state: per instance and direction, every pulse ever sent is processed,
buffered, or in flight (:math:`\\sum\\sigma = \\sum\\rho +
\\sum\\text{pend} + \\sum\\text{flight}`), which catches lost pulses the
per-node lemmas can miss.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Optional, Sequence

from repro.core.common import OrientedRingNode
from repro.core.terminating import TerminatingNode
from repro.core.warmup import WarmupNode
from repro.simulator.engine import Engine


class InvariantViolation(AssertionError):
    """An executable lemma failed; carries a forensic description."""


# ---------------------------------------------------------------------------
# The statements: one instance's per-node lists in, the first violation's
# text (or None) out.
# ---------------------------------------------------------------------------


def lemma6_cw(ids, rho_cw, sigma_cw) -> Optional[str]:
    """Lemma 6 for the CW channel.

    A node has sent exactly ``rho_cw + 1`` pulses while it is below its
    ID (one excess pulse out), and ``rho_cw`` once at or past it.  The
    lemma holds at the end of each loop iteration; buffered-but-
    unprocessed pulses count as still in transit (the paper's
    footnote 2).
    """
    for v, (node_id, rho, sigma) in enumerate(zip(ids, rho_cw, sigma_cw)):
        expected = rho + 1 if rho < node_id else rho
        if sigma != expected:
            return (
                f"Lemma 6 violated at node {v} (ID {node_id}): "
                f"rho_cw={rho}, sigma_cw={sigma}, expected sigma_cw={expected}"
            )
    return None


def corollary14(ids, rho_cw) -> Optional[str]:
    """Corollary 14: no node ever receives more than IDmax CW pulses."""
    id_max = max(ids)
    for v, rho in enumerate(rho_cw):
        if rho > id_max:
            return f"Corollary 14 violated at node {v}: rho_cw={rho} > IDmax={id_max}"
    return None


def ccw_lag(ids, rho_cw, rho_ccw, term_sent) -> Optional[str]:
    """Algorithm 2's lag discipline: rho_ccw <= rho_cw until termination.

    Once some node has emitted the termination pulse, nodes may observe
    :math:`\\rho_{ccw} = \\rho_{cw} + 1` exactly once (the pulse that makes
    them terminate); any larger excess is a violation.
    """
    allowed = 1 if any(term_sent) else 0
    for v, (node_id, cw, ccw) in enumerate(zip(ids, rho_cw, rho_ccw)):
        if ccw > cw + allowed:
            return (
                f"CCW lag violated at node {v} (ID {node_id}): "
                f"rho_ccw={ccw} > rho_cw={cw} + {allowed}"
            )
    return None


def leader_event_unique(ids, term_sent) -> Optional[str]:
    """The line-14 trigger fires only at the maximal-ID node.

    ``term_sent`` records that a node observed
    :math:`\\rho_{cw} = \\mathsf{ID}_v = \\rho_{ccw}`; Theorem 1's
    correctness hinges on this being unique to :math:`\\ell`.
    """
    id_max = max(ids)
    for v, (node_id, sent) in enumerate(zip(ids, term_sent)):
        if sent and node_id != id_max:
            return (
                f"non-maximal node {v} (ID {node_id}, IDmax {id_max}) "
                f"fired the leader-only termination trigger"
            )
    return None


def conservation(
    sigma_cw, rho_cw, pend_cw, flight_cw, sigma_ccw, rho_ccw, pend_ccw, flight_ccw
) -> Optional[str]:
    """Per-direction pulse conservation, CW first.

    Every pulse a node sends is, at any round boundary, exactly one of:
    processed at its receiver (counted in :math:`\\rho`), buffered there
    (pending), or in flight.  So per direction,
    :math:`\\sum_v \\sigma_v = \\sum_v \\rho_v + \\sum_v \\text{pend}_v +
    \\sum_v \\text{flight}_v`.  A lost pulse (a fault, or a kernel bug
    miscounting relays) breaks this immediately — it is the statistical
    checker's primary tripwire and has no single-node equivalent.
    """
    for label, sigma, rho, pend, flight in (
        ("CW", sigma_cw, rho_cw, pend_cw, flight_cw),
        ("CCW", sigma_ccw, rho_ccw, pend_ccw, flight_ccw),
    ):
        sent = sum(sigma)
        accounted = sum(rho) + sum(pend) + sum(flight)
        if sent != accounted:
            return (
                f"{label} conservation violated: sum(sigma)={sent} != "
                f"sum(rho)+sum(pend)+sum(flight)={accounted}"
            )
    return None


# ---------------------------------------------------------------------------
# Engine hooks: evaluated after every delivery (or at every explored
# state through an EngineView), so a passing run certifies the lemma
# along the entire execution.
# ---------------------------------------------------------------------------


def _check_nodes(engine: Engine, statement: Callable, *attrs: str) -> None:
    """Run ``statement`` on the node attributes ``attrs``; raise its text."""
    nodes = engine.network.nodes
    text = statement(*([getattr(node, attr) for node in nodes] for attr in attrs))
    if text is not None:
        raise InvariantViolation(text)


def _require_algorithm2(engine: Engine, hook: str) -> None:
    if not all(isinstance(node, TerminatingNode) for node in engine.network.nodes):
        raise InvariantViolation(f"{hook} applies to Algorithm 2 only")


def check_lemma6_cw(engine: Engine) -> None:
    """Lemma 6 for the CW channel; see :func:`lemma6_cw`."""
    _check_nodes(engine, lemma6_cw, "node_id", "rho_cw", "sigma_cw")


def check_corollary14(engine: Engine) -> None:
    """Corollary 14; see :func:`corollary14`."""
    _check_nodes(engine, corollary14, "node_id", "rho_cw")


def check_ccw_lag(engine: Engine) -> None:
    """Algorithm 2's lag discipline; see :func:`ccw_lag`."""
    _require_algorithm2(engine, "check_ccw_lag")
    _check_nodes(engine, ccw_lag, "node_id", "rho_cw", "rho_ccw", "term_pulse_sent")


def check_leader_event_unique(engine: Engine) -> None:
    """Uniqueness of the line-14 trigger; see :func:`leader_event_unique`."""
    _require_algorithm2(engine, "check_leader_event_unique")
    _check_nodes(engine, leader_event_unique, "node_id", "term_pulse_sent")


def check_pulses_in_transit_match_lemma12(engine: Engine) -> None:
    """Lemma 12's accounting: #pulses in transit equals |B| for Algorithm 1.

    ``B`` is the set of nodes with :math:`\\rho_{cw} < \\mathsf{ID}_v`.
    By Lemma 6 each contributes exactly one excess sent pulse, so the
    number of CW pulses in flight (channel queues; node-internal buffers
    do not exist for Algorithm 1) must equal ``|B|``.  Engine-only: it
    needs the network's in-flight total.
    """
    nodes = engine.network.nodes
    if not all(isinstance(node, WarmupNode) for node in nodes):
        raise InvariantViolation(
            "the in-transit accounting check applies to Algorithm 1 only"
        )
    lagging = sum(1 for node in nodes if node.rho_cw < node.node_id)
    in_transit = engine.network.pending_messages()
    if in_transit != lagging:
        raise InvariantViolation(
            f"Lemma 12 accounting violated: {in_transit} pulses in transit "
            f"but |B|={lagging}"
        )


def check_end_state_corollary13(nodes: Sequence[OrientedRingNode]) -> None:
    """Corollary 13 at quiescence: all counters equal IDmax (CW channel)."""
    id_max = max(node.node_id for node in nodes)
    for index, node in enumerate(nodes):
        if node.rho_cw != id_max or node.sigma_cw != id_max:
            raise InvariantViolation(
                f"Corollary 13 violated at node {index}: "
                f"rho_cw={node.rho_cw}, sigma_cw={node.sigma_cw}, "
                f"IDmax={id_max}"
            )


ALGORITHM1_HOOKS = (
    check_lemma6_cw,
    check_corollary14,
    check_pulses_in_transit_match_lemma12,
)

ALGORITHM2_HOOKS = (
    check_lemma6_cw,
    check_corollary14,
    check_ccw_lag,
    check_leader_event_unique,
)

# Hooks only read ``engine.network.nodes`` and
# ``engine.network.pending_messages()``, so the schedule explorers can
# evaluate them at every explored state through a
# :class:`~repro.verification.common.EngineView` — the same executable
# lemmas certify both live runs and exhaustive searches.
#
# Algorithm 3 has no per-state hook battery: its virtual nodes interleave
# two Algorithm 1 instances whose counters live in sub-objects, and the
# paper argues its correctness by reduction rather than by new invariants.
ALGORITHM_HOOKS = {
    "warmup": ALGORITHM1_HOOKS,
    "terminating": ALGORITHM2_HOOKS,
    "nonoriented": (),
}


def hooks_for(algorithm: str):
    """The per-state invariant hooks appropriate for ``algorithm``.

    Args:
        algorithm: One of ``"warmup"``, ``"terminating"``,
            ``"nonoriented"`` (the CLI's algorithm names).

    Raises:
        KeyError: For unknown algorithm names.
    """
    return ALGORITHM_HOOKS[algorithm]


# ---------------------------------------------------------------------------
# Column forms — the same statements over fleet struct-of-arrays state.
#
# Each check takes a FleetRoundView (numpy [B, n] arrays or pure-Python
# lists-of-lists; see repro.simulator.fleet) snapshotted at a fleet round
# boundary — a post-drain global state, where each lemma's "end of each
# iteration" proviso holds.  On NumPy a mask over the whole block screens
# the round, so a passing round costs the field reads, the mask and one
# ``.any()``; the statement, the authority on the text, then runs on the
# first flagged row.
# ---------------------------------------------------------------------------


def _column_form(statement: Callable[..., Optional[str]], mask: Callable[..., Any]):
    """``check_columns_<statement>``: ``statement`` over a view's rows.

    ``mask`` takes the statement's columns as ``[B, n]`` arrays and
    returns a per-row (or per-node) mask of the rows the statement
    flags.  Built once per check, so a call looks nothing up.
    """
    fields = tuple(inspect.signature(statement).parameters)

    def check(view: Any) -> None:
        columns = [getattr(view, field) for field in fields]
        rows = range(len(columns[0]))
        if view.backend == "numpy":
            bad = mask(*columns)
            if not bad.any():
                return
            rows = [int(bad.nonzero()[0][0])]
            columns = [column.tolist() for column in columns]
        for b in rows:
            text = statement(*(column[b] for column in columns))
            if text is not None:
                raise InvariantViolation(
                    f"instance {view.instance_offset + b}, "
                    f"round {view.round_index}: {text}"
                )

    check.__name__ = check.__qualname__ = f"check_columns_{statement.__name__}"
    check.__doc__ = f"Column form of :func:`{statement.__name__}` over a fleet block."
    return check


def _conservation_mask(
    sigma_cw, rho_cw, pend_cw, flight_cw, sigma_ccw, rho_ccw, pend_ccw, flight_ccw
):
    # The CW pair screens the block first, as the statement reads it: a
    # row that only breaks CCW must not be reported before a CW one.
    for sigma, rho, pend, flight in (
        (sigma_cw, rho_cw, pend_cw, flight_cw),
        (sigma_ccw, rho_ccw, pend_ccw, flight_ccw),
    ):
        bad = sigma.sum(axis=1) != (
            rho.sum(axis=1) + pend.sum(axis=1) + flight.sum(axis=1)
        )
        if bad.any():
            break
    return bad


check_columns_lemma6_cw = _column_form(
    lemma6_cw, lambda ids, rho_cw, sigma_cw: sigma_cw != rho_cw + (rho_cw < ids)
)
check_columns_corollary14 = _column_form(
    corollary14, lambda ids, rho_cw: rho_cw > ids.max(axis=1, keepdims=True)
)
check_columns_ccw_lag = _column_form(
    ccw_lag,
    lambda ids, rho_cw, rho_ccw, term_sent: (
        rho_ccw > rho_cw + term_sent.any(axis=1, keepdims=True)
    ),
)
check_columns_leader_event_unique = _column_form(
    leader_event_unique,
    lambda ids, term_sent: term_sent & (ids != ids.max(axis=1, keepdims=True)),
)
check_columns_conservation = _column_form(conservation, _conservation_mask)


TERMINATING_COLUMN_INVARIANTS = (
    check_columns_lemma6_cw,
    check_columns_corollary14,
    check_columns_ccw_lag,
    check_columns_leader_event_unique,
    check_columns_conservation,
)

#: Battery for one warmup-kernel direction run (Algorithm 1, or either
#: half of Algorithm 3).  The direction fleets publish their counters in
#: the CW view slots with ``ids`` holding the governing values, so the
#: CW-lemma column forms apply verbatim; the CCW slots are all-zero and
#: the CCW conservation pair holds trivially.
WARMUP_COLUMN_INVARIANTS = (
    check_columns_lemma6_cw,
    check_columns_corollary14,
    check_columns_conservation,
)

#: Column (fleet) invariant batteries per algorithm, keyed by the CLI's
#: algorithm names.  Algorithm 3's two direction runs each report under
#: the warmup battery (its correctness is argued by reduction to
#: Algorithm 1, so the reduced instances' lemmas are the invariants).
COLUMN_INVARIANTS = {
    "warmup": WARMUP_COLUMN_INVARIANTS,
    "terminating": TERMINATING_COLUMN_INVARIANTS,
    "nonoriented": WARMUP_COLUMN_INVARIANTS,
}


def column_invariants_for(algorithm: str):
    """The fleet-column invariant battery for ``algorithm``.

    Raises:
        KeyError: For algorithms without a column battery.
    """
    return COLUMN_INVARIANTS[algorithm]
