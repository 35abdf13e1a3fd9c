"""Algorithm 3 kernel: stabilizing election + orientation (Section 4).

Semantics (the only copy): each node derives two virtual IDs (one per
port) and the ring hosts two parallel executions of Algorithm 1, one per
travel direction — a pulse arriving at ``Port_{1-i}`` increments
:math:`\\rho_{1-i}` and is re-sent from ``Port_i`` unless
:math:`\\rho_{1-i} = \\mathsf{ID}_v^{(i)}` (lines 5-7).  The output rule
(lines 8-16) is the pure function :func:`stabilized_verdict` of the two
counters.

Because each direction is exactly the warm-up kernel with virtual-ID
thresholds, the fleet lowers Algorithm 3 to two directional
:mod:`repro.core.kernels.warmup` runs and reads the verdicts off
:func:`stabilized_verdict` — the same function the per-node ``step``
updates with.

Exact bounds: Proposition 15 (doubled IDs) :math:`n(4\\,\\mathsf{ID}_{max}
- 1)`; Theorem 2 (successor IDs) :math:`n(2\\,\\mathsf{ID}_{max} + 1)`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

from repro.core.common import LeaderState
from repro.core.schema import CONFIG, Field, StateSchema
from repro.core.kernels.base import StepOutcome
from repro.exceptions import ProtocolViolation
from repro.simulator.node import PORT_ONE, PORT_ZERO


class IdScheme(enum.Enum):
    """How a node derives its two virtual IDs from its real ID."""

    #: Proposition 15: ``ID^(i) = 2*ID - 1 + i`` — globally unique virtual
    #: IDs, message complexity ``n(4*IDmax - 1)``.
    DOUBLED = "doubled"
    #: Theorem 2: ``ID^(0) = ID``, ``ID^(1) = ID + 1`` — may collide, but
    #: per-direction maxima still differ; complexity ``n(2*IDmax + 1)``.
    SUCCESSOR = "successor"

    def virtual_ids(self, node_id: int) -> Tuple[int, int]:
        """Return ``(ID^(0), ID^(1))`` for this scheme."""
        if self is IdScheme.DOUBLED:
            return (2 * node_id - 1, 2 * node_id)
        return (node_id, node_id + 1)


def coerce_scheme(scheme: Any) -> IdScheme:
    """Accept an :class:`IdScheme` or its string value."""
    if isinstance(scheme, IdScheme):
        return scheme
    return IdScheme(scheme)


NAME = "nonoriented"

SCHEMA = StateSchema(
    name=NAME,
    fields=(
        Field("node_id", "int", CONFIG, "the real ID_v"),
        Field("scheme", "enum", CONFIG, "virtual-ID derivation rule"),
        Field("virtual_ids", "int_pair", CONFIG, "(ID^(0), ID^(1))"),
        Field("rho", "int_list", doc="pulses received per port"),
        Field("sigma", "int_list", doc="pulses sent per port"),
        Field("state", "enum", doc="tentative verdict (lines 9-12)"),
        Field("cw_port_label", "opt_int", doc="computed CW port (13-16)"),
    ),
)


@dataclass
class NonOrientedState:
    """Standalone kernel state (the kernel tests drive it directly; the
    fleet lowers to two directional warm-up kernels instead)."""

    node_id: int
    scheme: IdScheme
    virtual_ids: Tuple[int, int]
    rho: List[int] = field(default_factory=lambda: [0, 0])
    sigma: List[int] = field(default_factory=lambda: [0, 0])
    state: LeaderState = LeaderState.UNDECIDED
    cw_port_label: Optional[int] = None


def make_state(
    node_id: int, scheme: IdScheme = IdScheme.SUCCESSOR
) -> NonOrientedState:
    scheme = coerce_scheme(scheme)
    return NonOrientedState(
        node_id=node_id, scheme=scheme, virtual_ids=scheme.virtual_ids(node_id)
    )


def init(state: Any) -> StepOutcome:
    """Lines 1-3: pick virtual IDs and send one pulse out of each port."""
    state.sigma[PORT_ZERO] += 1
    state.sigma[PORT_ONE] += 1
    _update_output(state)
    return state, ((PORT_ZERO, 1), (PORT_ONE, 1)), None


def step(state: Any, port: int, count: int) -> StepOutcome:
    """Consume a run of ``count`` same-direction pulses in O(1).

    Each travel direction is an independent Algorithm 1 instance, so the
    run relays everything except the at-most-one pulse landing exactly
    on the governing virtual ID; the verdict recomputation is a pure
    function of the final counters, so one call at the end equals one
    per pulse — chunk-exact by construction.
    """
    if port not in (PORT_ZERO, PORT_ONE):  # pragma: no cover
        raise ProtocolViolation(f"invalid arrival port {port}")
    out_port = 1 - port
    governing = state.virtual_ids[out_port]
    start = state.rho[port]
    state.rho[port] += count
    relays = count - (1 if start < governing <= state.rho[port] else 0)
    emissions: Tuple[Tuple[int, int], ...] = ()
    if relays:
        state.sigma[out_port] += relays
        emissions = ((out_port, relays),)
    _update_output(state)
    return state, emissions, None


def stabilized_verdict(
    rho0: int, rho1: int, id_one: int
) -> Tuple[LeaderState, Optional[int]]:
    """Lines 8-16 as a pure function of the port counters.

    Returns ``(state, cw_port_label)``; ``(UNDECIDED, None)`` while the
    line-8 guard has not been met.  CW pulses arrive at CCW ports, so
    the port that received MORE pulses is the CCW port; the other leads
    clockwise.  Shared verbatim by the per-node step and the fleet's
    terminal readout.
    """
    if max(rho0, rho1) < id_one:
        return LeaderState.UNDECIDED, None
    if rho0 == id_one and rho1 < id_one:
        state = LeaderState.LEADER  # lines 9-10
    else:
        state = LeaderState.NON_LEADER  # lines 11-12
    return state, (PORT_ONE if rho0 > rho1 else PORT_ZERO)


def _update_output(state: Any) -> None:
    """Apply :func:`stabilized_verdict`, keeping UNDECIDED sticky-free."""
    verdict, label = stabilized_verdict(
        state.rho[PORT_ZERO], state.rho[PORT_ONE], state.virtual_ids[PORT_ONE]
    )
    if verdict is LeaderState.UNDECIDED:
        return  # line 8 guard not yet met; remain undecided
    state.state = verdict
    state.cw_port_label = label


def pulse_bound(ids: Sequence[int], scheme: Any = IdScheme.SUCCESSOR) -> int:
    """The paper's exact pulse count for the scheme in use.

    Proposition 15 (doubled IDs): :math:`n(4\\,\\mathsf{ID}_{max}-1)`.
    Theorem 2 (successor IDs): :math:`n(2\\,\\mathsf{ID}_{max}+1)`.
    """
    n, id_max = len(ids), max(ids)
    if coerce_scheme(scheme) is IdScheme.DOUBLED:
        return n * (4 * id_max - 1)
    return n * (2 * id_max + 1)
