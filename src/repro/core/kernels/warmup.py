"""Algorithm 1 kernel: the stabilizing warm-up election (Section 3.1).

Semantics (the only copy): every node injects one clockwise pulse, then
relays every received CW pulse clockwise except the single pulse that
lands exactly on :math:`\\rho_{cw} = \\mathsf{ID}` — that one is absorbed
and the node tentatively becomes Leader; any later pulse reverts it.

The same kernel also runs *directionally*: Algorithm 3 is two parallel
executions of this kernel, one per travel direction, with the per-port
virtual IDs as governing thresholds (``make_state(governing_id)``).

Exact bound (Corollary 13): total pulses :math:`n \\cdot
\\mathsf{ID}_{max}`; at quiescence every node has
:math:`\\rho_{cw} = \\sigma_{cw} = \\mathsf{ID}_{max}`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence, Tuple

from repro.core.common import (
    CW_ARRIVAL_PORT,
    CW_SEND_PORT,
    LeaderState,
)
from repro.core.schema import CONFIG, Field, StateSchema
from repro.core.kernels.base import StepOutcome
from repro.exceptions import ProtocolViolation

NAME = "warmup"

SCHEMA = StateSchema(
    name=NAME,
    fields=(
        Field("node_id", "int", CONFIG, "governing threshold ID_v"),
        Field("rho_cw", "int", doc="CW pulses processed (recvCW count)"),
        Field("sigma_cw", "int", doc="CW pulses sent"),
        Field("rho_ccw", "int", doc="always 0: Algorithm 1 is CW-only"),
        Field("sigma_ccw", "int", doc="always 0: Algorithm 1 is CW-only"),
        Field("state", "enum", doc="tentative verdict (line 5 / lines 7-8)"),
    ),
)


@dataclass
class WarmupState:
    """Standalone kernel state (the pure-Python fleet backend).

    The engine backend uses :class:`~repro.core.warmup.WarmupNode`
    objects directly — the schema fields are the node's slots.
    """

    node_id: int
    rho_cw: int = 0
    sigma_cw: int = 0
    rho_ccw: int = 0
    sigma_ccw: int = 0
    state: LeaderState = LeaderState.UNDECIDED


def make_state(node_id: int) -> WarmupState:
    """Fresh kernel state; ``node_id`` may be a virtual (directional) ID."""
    return WarmupState(node_id=node_id)


def init(state: Any) -> StepOutcome:
    """Line 1: inject one clockwise pulse."""
    state.sigma_cw += 1
    return state, ((CW_SEND_PORT, 1),), None


def step(state: Any, port: int, count: int) -> StepOutcome:
    """Consume a run of ``count`` CW pulses in O(1).

    Per-pulse, Algorithm 1 relays everything except the single pulse
    that lands exactly on :math:`\\rho_{cw} = \\mathsf{ID}`, and the
    state after the run's last pulse is Leader iff that pulse was the
    absorbed one.  Both facts depend only on where the run starts and
    ends relative to the ID, so the whole run collapses to arithmetic —
    chunk-exact by construction.
    """
    if port != CW_ARRIVAL_PORT:
        raise ProtocolViolation(
            f"WarmupNode(id={state.node_id}) received a CCW pulse; "
            "Algorithm 1 uses the CW channel only"
        )
    start = state.rho_cw
    state.rho_cw += count
    state.state = stabilized_state(state.node_id, state.rho_cw)
    relays = count - (1 if start < state.node_id <= state.rho_cw else 0)
    if relays:
        state.sigma_cw += relays
        return state, ((CW_SEND_PORT, relays),), None
    return state, (), None


def stabilized_state(node_id: int, rho_cw: int) -> LeaderState:
    """The verdict after the last processed pulse (lines 4-8).

    Pure function shared by the scalar step and the fleet's terminal
    readout: Leader iff the counter sits exactly on the ID.
    """
    return LeaderState.LEADER if rho_cw == node_id else LeaderState.NON_LEADER


def pulse_bound(ids: Sequence[int]) -> int:
    """Corollary 13's exact message complexity: ``n * IDmax``."""
    return len(ids) * max(ids)


# ---------------------------------------------------------------------------
# Lap-skip fast-forward (the fleet's lockstep scheduler).
#
# While k pulses circulate and no node's rho can cross its governing
# threshold within L full laps, the laps collapse to closed-form counter
# arithmetic: every node processes and relays exactly L*k pulses (none can
# land on its ID — below-threshold nodes stay strictly below by the margin,
# past-threshold nodes can never return), so rho += L*k, sigma += L*k, and
# the verdict after any relayed pulse is Non-Leader.
# ---------------------------------------------------------------------------


def skip_margin(node_id: int, rho_cw: int) -> Optional[int]:
    """How many pulses this node can absorb-free process, or None if past
    threshold (no constraint: it relays everything forever)."""
    if rho_cw < node_id:
        return node_id - rho_cw - 1
    return None


def apply_laps(state: Any, pulses: int) -> None:
    """Fast-forward ``pulses`` relayed pulses through one node (scalar)."""
    if pulses <= 0:
        return
    state.rho_cw += pulses
    state.sigma_cw += pulses
    state.state = LeaderState.NON_LEADER


# -- NumPy column lowerings (same semantics over [B, n] arrays) -------------


def step_block_np(np: Any, gov: Any, rho: Any, delivered: Any) -> Tuple[Any, Any]:
    """Vectorized :func:`step` over whole-fleet columns.

    Args:
        gov: int64 ``[B, n]`` governing thresholds.
        rho: int64 ``[B, n]`` processed-pulse counters (not mutated).
        delivered: int64 ``[B, n]`` pulses delivered to each node.

    Returns:
        ``(rho_after, relays)`` — the caller owns sigma/flight updates.
    """
    start = rho
    rho = rho + delivered
    absorbed = (start < gov) & (gov <= rho) & (delivered > 0)
    relays = delivered - absorbed
    return rho, relays


def skip_margins_np(np: Any, gov: Any, rho: Any) -> Any:
    """Vectorized :func:`skip_margin`; past-threshold nodes are unbounded."""
    int_max = np.iinfo(np.int64).max
    return np.where(rho < gov, gov - rho - 1, int_max)
