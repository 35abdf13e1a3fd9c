"""Unit tests for the per-algorithm transition kernels.

The kernels (:mod:`repro.core.kernels`) are the single source of truth
for the protocol semantics, so they get direct tests independent of any
backend: chunk-exactness (one ``step`` with ``k`` pulses equals ``k``
single-pulse steps, bit for bit), the registry contract, schema
projections, skip-margin consistency between the scalar helpers and the
NumPy lowerings, the column drain against the scalar drain cell by cell,
and the exact pulse-bound formulas.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.common import CCW_SEND_PORT, CW_SEND_PORT, LeaderState
from repro.core.kernels import (
    KERNELS,
    get_kernel,
    nonoriented,
    terminating,
    warmup,
)
from repro.core.schema import CONFIG, OBSERVABLE, TRANSIENT
from repro.exceptions import ProtocolViolation
from repro.simulator.fleet import HAVE_NUMPY
from repro.simulator.node import PORT_ONE, PORT_ZERO

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")

CW_ARRIVAL = PORT_ZERO
CCW_ARRIVAL = PORT_ONE


# -- registry ---------------------------------------------------------------


def test_registry_resolves_every_algorithm():
    assert set(KERNELS) == {"warmup", "terminating", "nonoriented", "anonymous"}
    for name, info in KERNELS.items():
        assert get_kernel(name) is info
        assert hasattr(info.module, "make_state")
        assert hasattr(info.module, "init")
        assert hasattr(info.module, "step")
        assert hasattr(info.module, "pulse_bound")
        assert hasattr(info.module, "SCHEMA")


def test_registry_unknown_name_raises():
    with pytest.raises(KeyError, match="unknown algorithm"):
        get_kernel("quantum")


def test_anonymous_shares_the_nonoriented_kernel():
    info = get_kernel("anonymous")
    assert info.module is nonoriented
    assert info.samples_ids


# -- schema sanity ----------------------------------------------------------


@pytest.mark.parametrize("kernel", [warmup, terminating, nonoriented])
def test_schema_matches_state_dataclass(kernel):
    state = (
        kernel.make_state(3)
        if kernel is not nonoriented
        else kernel.make_state(3)
    )
    for field in kernel.SCHEMA.fields:
        assert hasattr(state, field.name), field.name
        assert field.role in (CONFIG, OBSERVABLE, TRANSIENT)
    # Every schema field is readable through project().
    projected = kernel.SCHEMA.project(state)
    assert set(projected) == set(kernel.SCHEMA.field_names())


def test_transient_fields_excluded_from_fingerprints():
    state = terminating.make_state(5)
    base = terminating.SCHEMA.state_fingerprint(state)
    state.pending_cw += 3  # transient: buffered-not-processed pulses
    assert terminating.SCHEMA.state_fingerprint(state) == base


# -- chunk-exactness --------------------------------------------------------


def _drive_chunked(kernel, state, port, count, chunks):
    """Apply ``count`` pulses split into the given chunk sizes."""
    emissions = []
    verdicts = []
    for chunk in chunks:
        _, emitted, verdict = kernel.step(state, port, chunk)
        emissions.extend(emitted)
        if verdict is not None:
            verdicts.append(verdict)
    assert sum(chunks) == count
    return emissions, verdicts


def _emission_totals(emissions):
    totals = {}
    for port, count in emissions:
        totals[port] = totals.get(port, 0) + count
    return totals


@settings(max_examples=50, deadline=None)
@given(
    node_id=st.integers(min_value=1, max_value=20),
    count=st.integers(min_value=1, max_value=40),
    data=st.data(),
)
def test_warmup_step_is_chunk_exact(node_id, count, data):
    whole = warmup.make_state(node_id)
    _, emissions_whole, _ = warmup.step(whole, CW_ARRIVAL, count)

    chunks = data.draw(_chunkings(count))
    split = warmup.make_state(node_id)
    emissions_split, _ = _drive_chunked(warmup, split, CW_ARRIVAL, count, chunks)

    assert dataclasses.asdict(whole) == dataclasses.asdict(split)
    assert _emission_totals(emissions_whole) == _emission_totals(emissions_split)


@st.composite
def _chunkings(draw, total=None):
    """A random split of ``total`` into positive chunks."""
    remaining = total
    chunks = []
    while remaining > 0:
        chunk = draw(st.integers(min_value=1, max_value=remaining))
        chunks.append(chunk)
        remaining -= chunk
    return chunks


def _drive_terminating_ring(ids, chunker):
    """One full Algorithm 2 run on a synchronous-ish loop, with deliveries
    split by ``chunker``; returns (states, total emissions per node)."""
    n = len(ids)
    states = [terminating.make_state(node_id) for node_id in ids]
    flight_cw = [0] * n
    flight_ccw = [0] * n
    verdicts = [None] * n
    for v, state in enumerate(states):
        _, emissions, verdict = terminating.init(state)
        for port, count in emissions:
            if port == 1:  # CW send
                flight_cw[(v + 1) % n] += count
            else:
                flight_ccw[(v - 1) % n] += count
    total = n
    while any(flight_cw) or any(flight_ccw):
        arriving_cw, flight_cw = flight_cw, [0] * n
        arriving_ccw, flight_ccw = flight_ccw, [0] * n
        for v, state in enumerate(states):
            for port, count in ((CW_ARRIVAL, arriving_cw[v]), (CCW_ARRIVAL, arriving_ccw[v])):
                if not count or verdicts[v] is not None:
                    continue
                for chunk in chunker(count):
                    _, emissions, verdict = terminating.step(state, port, chunk)
                    for out_port, out_count in emissions:
                        total += out_count
                        if out_port == 1:
                            flight_cw[(v + 1) % n] += out_count
                        else:
                            flight_ccw[(v - 1) % n] += out_count
                    if verdict is not None:
                        verdicts[v] = verdict
    return states, verdicts, total


@settings(max_examples=30, deadline=None)
@given(ids=st.lists(st.integers(1, 15), min_size=2, max_size=5, unique=True))
def test_terminating_whole_run_chunking_invariance(ids):
    whole_states, whole_verdicts, whole_total = _drive_terminating_ring(
        ids, lambda count: [count]
    )
    split_states, split_verdicts, split_total = _drive_terminating_ring(
        ids, lambda count: [1] * count
    )
    assert [dataclasses.asdict(s) for s in whole_states] == [
        dataclasses.asdict(s) for s in split_states
    ]
    assert whole_verdicts == split_verdicts
    assert whole_total == split_total == terminating.pulse_bound(ids)
    leader = max(range(len(ids)), key=lambda v: ids[v])
    assert [v is LeaderState.LEADER for v in whole_verdicts] == [
        v == leader for v in range(len(ids))
    ]


@settings(max_examples=50, deadline=None)
@given(
    node_id=st.integers(min_value=1, max_value=20),
    count=st.integers(min_value=1, max_value=40),
    port=st.sampled_from([PORT_ZERO, PORT_ONE]),
    data=st.data(),
)
def test_nonoriented_step_is_chunk_exact(node_id, count, port, data):
    whole = nonoriented.make_state(node_id)
    _, emissions_whole, _ = nonoriented.step(whole, port, count)

    chunks = data.draw(_chunkings(count))
    split = nonoriented.make_state(node_id)
    emissions_split, _ = _drive_chunked(nonoriented, split, port, count, chunks)

    assert dataclasses.asdict(whole) == dataclasses.asdict(split)
    assert _emission_totals(emissions_whole) == _emission_totals(emissions_split)


# -- per-kernel semantics ---------------------------------------------------


def test_warmup_rejects_ccw_pulses():
    state = warmup.make_state(4)
    with pytest.raises(ProtocolViolation, match="CW channel only"):
        warmup.step(state, CCW_ARRIVAL, 1)


def test_warmup_absorbs_exactly_one_pulse_at_id():
    state = warmup.make_state(3)
    _, emissions, _ = warmup.step(state, CW_ARRIVAL, 5)
    # 5 pulses arrive; the one landing on rho == ID is absorbed.
    assert _emission_totals(emissions) == {1: 4}
    assert state.rho_cw == 5
    assert state.state is LeaderState.NON_LEADER


def test_terminating_step_after_terminated_buffers_silently():
    state = terminating.make_state(2)
    state.terminated = True
    _, emissions, verdict = terminating.step(state, CW_ARRIVAL, 3)
    assert emissions == () and verdict is None
    assert state.pending_cw == 3  # buffered exactly as the stopped loop


def test_terminating_drain_is_idempotent_when_quiet():
    state = terminating.make_state(4)
    terminating.init(state)
    snapshot = dataclasses.asdict(state)
    emissions, verdict = terminating.drain(state)
    assert emissions == () and verdict is None
    assert dataclasses.asdict(state) == snapshot


def test_pulse_bounds_match_the_paper():
    ids = [5, 9, 2, 7]
    assert warmup.pulse_bound(ids) == 4 * 9  # Corollary 13: n * IDmax
    assert terminating.pulse_bound(ids) == 4 * 19  # Theorem 1: n(2 IDmax + 1)
    assert nonoriented.pulse_bound(ids, "successor") == 4 * (2 * 9 + 1)
    assert nonoriented.pulse_bound(ids, "doubled") == 4 * (4 * 9 - 1)


def test_nonoriented_virtual_id_schemes():
    assert nonoriented.IdScheme.SUCCESSOR.virtual_ids(5) == (5, 6)
    assert nonoriented.IdScheme.DOUBLED.virtual_ids(5) == (9, 10)


# -- skip margins: scalar vs NumPy lowering --------------------------------


@settings(max_examples=50, deadline=None)
@given(
    node_id=st.integers(min_value=1, max_value=30),
    rho_cw=st.integers(min_value=0, max_value=35),
)
def test_warmup_skip_margins_scalar_vs_numpy(node_id, rho_cw):
    if not HAVE_NUMPY:
        pytest.skip("numpy not installed")
    import numpy as np

    scalar = warmup.skip_margin(node_id, rho_cw)
    margins = warmup.skip_margins_np(
        np, np.array([[node_id]]), np.array([[rho_cw]])
    )
    lowered = int(margins[0][0])
    if scalar is None:
        assert lowered >= np.iinfo(np.int64).max // 2
    else:
        assert lowered == scalar


@settings(max_examples=50, deadline=None)
@given(
    node_id=st.integers(min_value=1, max_value=30),
    rho_cw=st.integers(min_value=0, max_value=35),
    lag=st.integers(min_value=0, max_value=35),
)
def test_terminating_ccw_margin_never_exceeds_lag(node_id, rho_cw, lag):
    rho_ccw = max(0, rho_cw - lag)
    margin = terminating.ccw_skip_margin(node_id, rho_cw, rho_ccw)
    # Lap-skips must never advance rho_ccw past rho_cw (the exit guard).
    assert rho_ccw + margin <= rho_cw


# -- column drain: NumPy lowering vs the scalar drain ----------------------

_DRAIN_FLAGS = ("term_sent", "terminated", "out_leader")
_DRAIN_COUNTERS = (
    "rho_cw", "rho_ccw", "pend_cw", "pend_ccw",
    "sigma_cw", "sigma_ccw", "sends_cw", "sends_ccw",
)


@st.composite
def _drain_cells(draw):
    """One cell of a ``TerminatingColumns`` block in an arbitrary state,
    reachable or not: both pendings set, ``term_sent`` set, terminated
    with pulses pending, ``rho_ccw > rho_cw``, an open gate with
    ``sigma_ccw == 0``."""
    node_id = draw(st.integers(1, 8))
    rho = st.integers(0, 12) | st.sampled_from([node_id - 1, node_id, node_id + 1])
    terminated = draw(st.booleans())
    return dict(
        ids=node_id,
        rho_cw=draw(rho),
        rho_ccw=draw(rho),
        pend_cw=draw(st.integers(0, 12)),
        pend_ccw=draw(st.integers(0, 12)),
        sigma_cw=draw(st.integers(0, 12)),
        sigma_ccw=draw(st.integers(0, 3)),
        sends_cw=draw(st.integers(0, 3)),
        sends_ccw=draw(st.integers(0, 3)),
        term_sent=draw(st.booleans()),
        terminated=terminated,
        out_leader=terminated and draw(st.booleans()),
    )


def _scalar_drain_cell(cell):
    """What the scalar fleet does to one cell: a terminated node reacts
    to nothing, a live one runs :func:`terminating.drain` once."""
    out = dict(cell)
    if cell["terminated"]:
        return out
    node_id, rho_cw = cell["ids"], cell["rho_cw"]
    # The columns keep no verdict: lines 6-8 make it a function of
    # rho_cw in every state a CW pulse has reached.
    if rho_cw == node_id:
        tentative = LeaderState.LEADER
    else:
        tentative = LeaderState.NON_LEADER if rho_cw else LeaderState.UNDECIDED
    state = terminating.TerminatingState(
        node_id=node_id,
        rho_cw=rho_cw,
        sigma_cw=cell["sigma_cw"],
        rho_ccw=cell["rho_ccw"],
        sigma_ccw=cell["sigma_ccw"],
        state=tentative,
        pending_cw=cell["pend_cw"],
        pending_ccw=cell["pend_ccw"],
        term_pulse_sent=cell["term_sent"],
    )
    emissions, verdict = terminating.drain(state)
    sent = _emission_totals(emissions)
    out.update(
        rho_cw=state.rho_cw,
        rho_ccw=state.rho_ccw,
        pend_cw=state.pending_cw,
        pend_ccw=state.pending_ccw,
        sigma_cw=state.sigma_cw,
        sigma_ccw=state.sigma_ccw,
        sends_cw=cell["sends_cw"] + sent.get(CW_SEND_PORT, 0),
        sends_ccw=cell["sends_ccw"] + sent.get(CCW_SEND_PORT, 0),
        term_sent=state.term_pulse_sent,
    )
    if verdict is not None:
        out.update(terminated=True, out_leader=verdict is LeaderState.LEADER)
    return out


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_drain_block_np_matches_scalar_drain(data):
    np = pytest.importorskip("numpy")
    B = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(1, 6))
    row = st.lists(_drain_cells(), min_size=n, max_size=n)
    rows = data.draw(st.lists(row, min_size=B, max_size=B))
    # Each cell also drains as a block of its own, so blocks where no
    # cell has work (one pass, then the stop) come up as often as cells.
    for block in [rows] + [[[cell]] for row in rows for cell in row]:
        cols = terminating.TerminatingColumns(**{
            name: np.array(
                [[cell[name] for cell in row] for row in block],
                bool if name in _DRAIN_FLAGS else np.int64,
            )
            for name in ("ids",) + _DRAIN_FLAGS + _DRAIN_COUNTERS
        })
        terminating.drain_block_np(np, cols)
        expected = [[_scalar_drain_cell(cell) for cell in row] for row in block]
        for name in _DRAIN_FLAGS + _DRAIN_COUNTERS:
            assert getattr(cols, name).tolist() == [
                [cell[name] for cell in row] for row in expected
            ], name
        # On return no live cell has work the next pass could take.
        gate = cols.rho_cw >= cols.ids
        takeable = (cols.pend_cw > 0) | (gate & (cols.pend_ccw > 0))
        assert not (takeable & ~cols.terminated).any()
