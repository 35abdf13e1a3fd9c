"""Algorithm 2 kernel: quiescently terminating election (Theorem 1).

Semantics (the only copy): a CW instance of Algorithm 1 (listing lines
3-8), a CCW instance gated on :math:`\\rho_{cw} \\ge \\mathsf{ID}_v`
(lines 9-13, the "subtle prioritization"), the unique leader event
:math:`\\rho_{cw} = \\mathsf{ID}_v = \\rho_{ccw}` emitting the
termination pulse (lines 14-15), and the exit condition
:math:`\\rho_{ccw} > \\rho_{cw}` (line 18) terminating the node with its
current verdict (line 19).

The drain loop advances in maximal *uniform* chunks — chunk boundaries
sit at :math:`\\rho_{cw} \\to \\mathsf{ID}` (absorption + the only state
the line-14 trigger can see), :math:`\\rho_{ccw} \\to \\mathsf{ID}`
(absorption + trigger), and :math:`\\rho_{ccw} \\to \\rho_{cw} + 1` (the
line-18 exit flips exactly there) — so the trigger and exit are
evaluated at every state where their truth can change and the chunked
loop is bit-exact with the per-pulse one.  With single-pulse deliveries
every chunk degenerates to one pulse, so per-pulse engines observe the
legacy send interleaving exactly.

Exact bound (Theorem 1): total pulses :math:`n(2\\,\\mathsf{ID}_{max}+1)`.

Ablation (``strict_lag=False``): drops the CCW gate and processes pulses
one at a time (the per-pulse reference semantics).  Benchmark E7/A1
shows this breaks the algorithm — premature terminations, wrong leaders
— i.e. the lag discipline is load-bearing.  It is a deliberately
non-canonical variant kept *inside* this kernel so there is still
exactly one transition function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from repro.core.common import (
    CCW_ARRIVAL_PORT,
    CCW_SEND_PORT,
    CW_ARRIVAL_PORT,
    CW_SEND_PORT,
    LeaderState,
)
from repro.core.schema import CONFIG, Field, StateSchema, TRANSIENT
from repro.core.kernels import warmup
from repro.core.kernels.base import Emission, StepOutcome
from repro.exceptions import ProtocolViolation

NAME = "terminating"

SCHEMA = StateSchema(
    name=NAME,
    fields=(
        Field("node_id", "int", CONFIG, "ID_v"),
        Field("strict_lag", "bool", CONFIG, "False ablates the CCW gate"),
        Field("rho_cw", "int", doc="CW pulses processed"),
        Field("sigma_cw", "int", doc="CW pulses sent"),
        Field("rho_ccw", "int", doc="CCW pulses processed"),
        Field("sigma_ccw", "int", doc="CCW pulses sent"),
        Field("state", "enum", doc="tentative verdict; the line-19 output"),
        Field("term_pulse_sent", "bool", doc="node ran lines 14-15"),
        Field("pending_cw", "int", TRANSIENT, "delivered-not-processed CW"),
        Field("pending_ccw", "int", TRANSIENT, "delivered-not-processed CCW"),
    ),
)


@dataclass
class TerminatingState:
    """Standalone kernel state (the pure-Python fleet backend).

    The engine backend uses
    :class:`~repro.core.terminating.TerminatingNode` objects directly.
    ``terminated`` mirrors the Node flag so callers without an engine
    (the fleet) can record the line-19 exit on the state itself.
    """

    node_id: int
    strict_lag: bool = True
    rho_cw: int = 0
    sigma_cw: int = 0
    rho_ccw: int = 0
    sigma_ccw: int = 0
    state: LeaderState = LeaderState.UNDECIDED
    pending_cw: int = 0
    pending_ccw: int = 0
    term_pulse_sent: bool = False
    terminated: bool = False


def make_state(node_id: int, strict_lag: bool = True) -> TerminatingState:
    return TerminatingState(node_id=node_id, strict_lag=strict_lag)


def init(state: Any) -> StepOutcome:
    """Line 1: inject one clockwise pulse, then run the listing loop."""
    state.sigma_cw += 1
    emissions, verdict = drain(state)
    return state, ((CW_SEND_PORT, 1),) + emissions, verdict


def step(state: Any, port: int, count: int) -> StepOutcome:
    """Buffer a run of ``count`` pulses, then run the listing loop.

    Pulses reaching an already-terminated node (possible in ablated runs,
    where termination is premature) stay buffered unprocessed, exactly as
    the listing's stopped loop would leave them.
    """
    if port == CW_ARRIVAL_PORT:
        state.pending_cw += count
    elif port == CCW_ARRIVAL_PORT:
        state.pending_ccw += count
    else:  # pragma: no cover - engines validate ports
        raise ProtocolViolation(f"invalid arrival port {port}")
    if getattr(state, "terminated", False):
        return state, (), None
    emissions, verdict = drain(state)
    return state, emissions, verdict


def drain(state: Any) -> Tuple[Tuple[Emission, ...], Optional[LeaderState]]:
    """The listing's repeat-loop; one maximal uniform chunk per branch per
    iteration (one pulse per branch in the ablated variant).

    Public because round-based backends (the fleet) buffer *both*
    directions' deliveries into ``pending_cw``/``pending_ccw`` first and
    then run the loop once: draining between the two directions is a
    different (also legal, but different) schedule, and the fleet's
    differential tests pin the buffer-then-drain one."""
    emissions: List[Emission] = []
    node_id = state.node_id
    strict = state.strict_lag
    while True:
        progressed = False

        # Lines 3-8: the CW instance of Algorithm 1.
        if state.pending_cw:
            take = state.pending_cw if strict else 1
            if state.rho_cw < node_id:
                take = min(take, node_id - state.rho_cw)
            state.pending_cw -= take
            start = state.rho_cw
            state.rho_cw += take
            if state.rho_cw == node_id:
                state.state = LeaderState.LEADER
            else:
                state.state = LeaderState.NON_LEADER
            relays = take - (1 if start < node_id <= state.rho_cw else 0)
            if relays:
                state.sigma_cw += relays
                emissions.append((CW_SEND_PORT, relays))
            progressed = True

        # Lines 9-13: the CCW instance, gated on rho_cw >= ID.
        if state.rho_cw >= node_id or not strict:
            if state.sigma_ccw == 0 and state.rho_cw >= node_id:
                state.sigma_ccw += 1
                emissions.append((CCW_SEND_PORT, 1))  # line 10: initial pulse
            if state.pending_ccw:
                take = state.pending_ccw if strict else 1
                if state.rho_ccw < node_id:
                    take = min(take, node_id - state.rho_ccw)
                if state.rho_ccw <= state.rho_cw:
                    take = min(take, state.rho_cw + 1 - state.rho_ccw)
                state.pending_ccw -= take
                start = state.rho_ccw
                state.rho_ccw += take
                if state.term_pulse_sent:
                    relays = 0
                else:
                    relays = take - (1 if start < node_id <= state.rho_ccw else 0)
                if relays:
                    state.sigma_ccw += relays
                    emissions.append((CCW_SEND_PORT, relays))  # line 13: relay
                progressed = True

        # Lines 14-15: the unique leader event emits the termination pulse.
        if not state.term_pulse_sent and state.rho_cw == node_id == state.rho_ccw:
            state.term_pulse_sent = True
            state.sigma_ccw += 1
            emissions.append((CCW_SEND_PORT, 1))
            # Lines 16-17 (wait for the pulse's return) are implicit: the
            # node keeps handling events until the exit condition fires.

        # Line 18: exit on rho_ccw > rho_cw; line 19: output the verdict.
        if state.rho_ccw > state.rho_cw:
            return tuple(emissions), state.state

        if not progressed:
            return tuple(emissions), None


def pulse_bound(ids: Sequence[int]) -> int:
    """Theorem 1's exact message complexity: ``n * (2*IDmax + 1)``."""
    return len(ids) * (2 * max(ids) + 1)


# ---------------------------------------------------------------------------
# Lap-skip fast-forward margins (the fleet's lockstep scheduler).
#
# CW phase (CCW pulses stalled): the CW half of Algorithm 2 *is*
# Algorithm 1, so its margin and lap arithmetic are the warmup kernel's,
# bound here under the CW names.  CCW phase (CW instance quiesced, every
# gate open): additionally no node may cross rho_ccw -> ID
# (absorption/trigger) nor rho_ccw -> rho_cw + 1 (exit), so the margin
# also caps at rho_cw - rho_ccw.  Skips are only legal while no
# termination pulse is out and no node has terminated (the fleet
# enforces this).
# ---------------------------------------------------------------------------

cw_skip_margin = warmup.skip_margin
apply_cw_laps = warmup.apply_laps
cw_skip_margins_np = warmup.skip_margins_np


def ccw_skip_margin(node_id: int, rho_cw: int, rho_ccw: int) -> int:
    """Trigger/exit/absorption-free headroom of the CCW instance."""
    if rho_ccw < node_id:
        return min(node_id - rho_ccw - 1, rho_cw - rho_ccw)
    return rho_cw - rho_ccw


def apply_ccw_laps(state: Any, pulses: int) -> None:
    """Fast-forward ``pulses`` relayed CCW pulses through one node
    (the CCW branch never touches the verdict)."""
    if pulses <= 0:
        return
    state.rho_ccw += pulses
    state.sigma_ccw += pulses


# -- NumPy column lowerings (same semantics over [B, n] arrays) -------------


@dataclass
class TerminatingColumns:
    """Struct-of-arrays lowering of :data:`SCHEMA` across a fleet block.

    ``sends_cw`` / ``sends_ccw`` are per-round emission buffers the fleet
    flushes into its flight arrays; ``sigma_*`` are the cumulative schema
    counters (``sigma_ccw == 0`` is the line-10 "not started" test).
    """

    ids: Any
    rho_cw: Any
    rho_ccw: Any
    pend_cw: Any
    pend_ccw: Any
    sigma_cw: Any
    sigma_ccw: Any
    term_sent: Any
    terminated: Any
    out_leader: Any
    sends_cw: Any
    sends_ccw: Any

    @classmethod
    def fresh(cls, np: Any, ids: Any) -> "TerminatingColumns":
        B, n = ids.shape
        return cls(
            ids=ids,
            rho_cw=np.zeros((B, n), np.int64),
            rho_ccw=np.zeros((B, n), np.int64),
            pend_cw=np.zeros((B, n), np.int64),
            pend_ccw=np.zeros((B, n), np.int64),
            # on_init: every node sends one CW pulse (line 1).
            sigma_cw=np.ones((B, n), np.int64),
            sigma_ccw=np.zeros((B, n), np.int64),
            term_sent=np.zeros((B, n), bool),
            terminated=np.zeros((B, n), bool),
            out_leader=np.zeros((B, n), bool),
            sends_cw=np.zeros((B, n), np.int64),
            sends_ccw=np.zeros((B, n), np.int64),
        )


def drain_block_np(np: Any, cols: TerminatingColumns) -> None:
    """Vectorized :func:`drain` over whole-fleet columns (mutates
    ``cols``); strict-lag semantics only (the fleet has no ablation)."""
    ids = cols.ids
    while True:
        live = ~cols.terminated
        # CW chunk (listing lines 3-8), boundary at rho_cw -> ID.
        has_cw = live & (cols.pend_cw > 0)
        below = cols.rho_cw < ids
        take = np.where(
            has_cw,
            np.where(below, np.minimum(cols.pend_cw, ids - cols.rho_cw), cols.pend_cw),
            0,
        )
        start = cols.rho_cw
        cols.rho_cw = cols.rho_cw + take
        absorbed = has_cw & (start < ids) & (ids <= cols.rho_cw)
        relays = take - absorbed
        cols.sends_cw += relays
        cols.sigma_cw += relays
        cols.pend_cw -= take
        progressed = has_cw
        # CCW chunk (lines 9-13), gated on rho_cw >= ID; boundaries at
        # rho_ccw -> ID and rho_ccw -> rho_cw + 1.
        gate = live & (cols.rho_cw >= ids)
        start_now = gate & (cols.sigma_ccw == 0)
        cols.sends_ccw += start_now  # line 10: CCW instance's initial pulse
        cols.sigma_ccw += start_now
        has_ccw = gate & (cols.pend_ccw > 0)
        take2 = np.where(has_ccw, cols.pend_ccw, 0)
        take2 = np.where(
            has_ccw & (cols.rho_ccw < ids),
            np.minimum(take2, ids - cols.rho_ccw),
            take2,
        )
        take2 = np.where(
            has_ccw & (cols.rho_ccw <= cols.rho_cw),
            np.minimum(take2, cols.rho_cw + 1 - cols.rho_ccw),
            take2,
        )
        start2 = cols.rho_ccw
        cols.rho_ccw = cols.rho_ccw + take2
        absorbed2 = has_ccw & (start2 < ids) & (ids <= cols.rho_ccw)
        relays2 = np.where(cols.term_sent, 0, take2 - absorbed2)
        cols.sends_ccw += relays2
        cols.sigma_ccw += relays2
        cols.pend_ccw -= take2
        progressed |= has_ccw
        # Lines 14-15: the unique leader event emits the term pulse.
        trigger = live & ~cols.term_sent & (cols.rho_cw == ids) & (cols.rho_ccw == ids)
        cols.term_sent |= trigger
        cols.sends_ccw += trigger
        cols.sigma_ccw += trigger
        # Line 18: exit on rho_ccw > rho_cw.
        exits = live & (cols.rho_ccw > cols.rho_cw)
        cols.terminated |= exits
        cols.out_leader |= exits & (cols.rho_cw == ids)
        if not progressed.any():
            return


def ccw_skip_margins_np(np: Any, ids: Any, rho_cw: Any, rho_ccw: Any) -> Any:
    """Vectorized :func:`ccw_skip_margin`."""
    int_max = np.iinfo(np.int64).max
    return np.minimum(
        np.where(rho_ccw < ids, ids - rho_ccw - 1, int_max),
        rho_cw - rho_ccw,
    )
