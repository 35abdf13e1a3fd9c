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
loop is bit-exact with the per-pulse one (single-pulse deliveries make
every chunk one pulse).  The fleet's column form, :func:`drain_block_np`,
runs one iteration per pass on a whole block and stops at its fixed
point: after the first pass, once no live cell has takeable work.  A pass
runs line 10, the trigger and the exit on the state its takes leave, so
a later pass that takes nothing changes nothing.

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
    """Vectorized :func:`drain` over whole-fleet columns, updated in place;
    strict-lag only (the fleet has no ablation).  A pass is one loop
    iteration on every live cell and skips a branch no cell has work for.
    After the first pass it returns once no live cell has takeable work
    (``pend_cw > 0``, or ``rho_cw >= ID`` and ``pend_ccw > 0``).  That is
    exact: a cell with work takes a pulse, and every pass ends by running
    lines 10, 14-15 and 18 on what its takes left, so a pass that takes
    nothing from a cell leaves it as it is."""
    ids = cols.ids
    first = True
    while True:
        live = ~cols.terminated
        cw = live & (cols.pend_cw > 0)
        if took_cw := cw.any():  # CW chunk (lines 3-8), capped by the gap to ID
            gap = ids - cols.rho_cw
            below = gap > 0
            take = np.where(below, np.minimum(cols.pend_cw, gap), cols.pend_cw)
            np.putmask(take, cols.terminated, 0)
            cols.rho_cw += take
            cols.pend_cw -= take
            take -= (take == gap) & below  # relays: all but an absorbed one
            cols.sends_cw += take
            cols.sigma_cw += take
        gate = live & (cols.rho_cw >= ids)  # CCW chunk (lines 9-13) gate
        ccw = gate & (cols.pend_ccw > 0)
        took_ccw = ccw.any()
        if not (first or took_cw or took_ccw):
            return
        first = False
        start_now = gate & (cols.sigma_ccw == 0)
        if start_now.any():  # line 10: the CCW instance's initial pulse
            cols.sends_ccw += start_now
            cols.sigma_ccw += start_now
        if took_ccw:
            # The gap to ID (absorption, trigger) while rho_ccw is below it,
            # else to rho_cw + 1 (the exit); ID <= rho_cw on a gated cell.
            below = cols.rho_ccw < ids
            gap = np.where(below, ids, cols.rho_cw + 1) - cols.rho_ccw
            take = np.where(gap > 0, np.minimum(cols.pend_ccw, gap), cols.pend_ccw)
            np.putmask(take, ~ccw, 0)
            cols.rho_ccw += take
            cols.pend_ccw -= take
            take -= (take == gap) & below
            np.putmask(take, cols.term_sent, 0)  # line 13 relays
            cols.sends_ccw += take
            cols.sigma_ccw += take
        trigger = live & ~cols.term_sent & (cols.rho_cw == ids) & (cols.rho_ccw == ids)
        if trigger.any():  # lines 14-15: the leader event sends the term pulse
            cols.term_sent |= trigger
            cols.sends_ccw += trigger
            cols.sigma_ccw += trigger
        exits = live & (cols.rho_ccw > cols.rho_cw)  # line 18: the exit
        if exits.any():
            cols.terminated |= exits
            cols.out_leader |= exits & (cols.rho_cw == ids)


def ccw_skip_margins_np(np: Any, ids: Any, rho_cw: Any, rho_ccw: Any) -> Any:
    """Vectorized :func:`ccw_skip_margin`."""
    return np.minimum(
        np.where(rho_ccw < ids, ids - rho_ccw - 1, warmup.INT64_MAX),
        rho_cw - rho_ccw,
    )
