"""Each lemma's violation text, pinned on every form that checks it.

One consistent Algorithm 2 mid-run state (every node still below its ID,
one CW pulse in flight toward each node) is corrupted by hand, once per
lemma.  The engine hook, where the lemma has one, must raise the pinned
text; the column form must raise ``instance {i}, round {r}: `` followed
by that same text, on a pure-Python view and on a NumPy view.  Both
views carry two instances, the clean state first, so the column form
must also locate the offending row.
"""

from __future__ import annotations

import pytest

from repro.core.invariants import (
    InvariantViolation,
    check_ccw_lag,
    check_columns_ccw_lag,
    check_columns_conservation,
    check_columns_corollary14,
    check_columns_lemma6_cw,
    check_columns_leader_event_unique,
    check_corollary14,
    check_lemma6_cw,
    check_leader_event_unique,
)
from repro.core.terminating import TerminatingNode
from repro.simulator.fleet import FleetRoundView
from repro.verification.common import EngineView

IDS = [2, 5, 3]

#: The clean state, one list per node field: a consistent mid-run
#: Algorithm 2 state (Lemma 6 below every ID, no CCW pulse yet).
CLEAN = {
    "rho_cw": [1, 1, 1],
    "sigma_cw": [2, 2, 2],
    "pend_cw": [0, 0, 0],
    "flight_cw": [1, 1, 1],
    "rho_ccw": [0, 0, 0],
    "sigma_ccw": [0, 0, 0],
    "pend_ccw": [0, 0, 0],
    "flight_ccw": [0, 0, 0],
    "term_sent": [False, False, False],
}

#: lemma -> (engine hook or None, column form, (field, node, value), text).
CASES = {
    "lemma6_cw": (
        check_lemma6_cw,
        check_columns_lemma6_cw,
        ("sigma_cw", 1, 3),
        "Lemma 6 violated at node 1 (ID 5): rho_cw=1, sigma_cw=3, "
        "expected sigma_cw=2",
    ),
    "corollary14": (
        check_corollary14,
        check_columns_corollary14,
        ("rho_cw", 0, 6),
        "Corollary 14 violated at node 0: rho_cw=6 > IDmax=5",
    ),
    "ccw_lag": (
        check_ccw_lag,
        check_columns_ccw_lag,
        ("rho_ccw", 2, 2),
        "CCW lag violated at node 2 (ID 3): rho_ccw=2 > rho_cw=1 + 0",
    ),
    "leader_event_unique": (
        check_leader_event_unique,
        check_columns_leader_event_unique,
        ("term_sent", 0, True),
        "non-maximal node 0 (ID 2, IDmax 5) fired the leader-only "
        "termination trigger",
    ),
    "conservation": (
        None,
        check_columns_conservation,
        ("flight_cw", 1, 0),
        "CW conservation violated: sum(sigma)=6 != "
        "sum(rho)+sum(pend)+sum(flight)=5",
    ),
}


def corrupted(field, node, value):
    fields = {name: list(column) for name, column in CLEAN.items()}
    fields[field][node] = value
    return fields


def engine_view(fields):
    nodes = []
    for index, node_id in enumerate(IDS):
        node = TerminatingNode(node_id)
        node.rho_cw = fields["rho_cw"][index]
        node.sigma_cw = fields["sigma_cw"][index]
        node.rho_ccw = fields["rho_ccw"][index]
        node.sigma_ccw = fields["sigma_ccw"][index]
        node.pending_cw = fields["pend_cw"][index]
        node.pending_ccw = fields["pend_ccw"][index]
        node.term_pulse_sent = fields["term_sent"][index]
        nodes.append(node)
    return EngineView(nodes, sum(fields["flight_cw"]) + sum(fields["flight_ccw"]))


def round_view(backend, rows, instance_offset=40, round_index=7):
    """A two-or-more-instance :class:`FleetRoundView` of ``rows``."""
    columns = {name: [row[name] for row in rows] for name in CLEAN}
    ids = [list(IDS) for _ in rows]
    terminated = [[False] * len(IDS) for _ in rows]
    if backend == "numpy":
        np = pytest.importorskip("numpy")
        columns = {
            name: np.array(column, dtype=bool if name == "term_sent" else np.int64)
            for name, column in columns.items()
        }
        ids = np.array(ids, dtype=np.int64)
        terminated = np.array(terminated, dtype=bool)
    return FleetRoundView(
        algorithm="terminating",
        backend=backend,
        round_index=round_index,
        instance_offset=instance_offset,
        ids=ids,
        terminated=terminated,
        **columns,
    )


@pytest.mark.parametrize(
    "lemma", sorted(lemma for lemma, case in CASES.items() if case[0] is not None)
)
def test_engine_hook_raises_the_pinned_text(lemma):
    hook, _column, corruption, text = CASES[lemma]
    hook(engine_view(CLEAN))
    with pytest.raises(InvariantViolation) as raised:
        hook(engine_view(corrupted(*corruption)))
    assert str(raised.value) == text


@pytest.mark.parametrize("backend", ["python", "numpy"])
@pytest.mark.parametrize("lemma", sorted(CASES))
def test_column_form_prefixes_the_same_text(lemma, backend):
    _hook, column, corruption, text = CASES[lemma]
    column(round_view(backend, [CLEAN, CLEAN]))
    with pytest.raises(InvariantViolation) as raised:
        column(round_view(backend, [CLEAN, corrupted(*corruption)]))
    assert str(raised.value) == f"instance 41, round 7: {text}"
    assert raised.value.instance == 41


@pytest.mark.parametrize("backend", ["python", "numpy"])
def test_ccw_conservation_reads_the_ccw_pair(backend):
    fields = corrupted("sigma_ccw", 2, 1)
    with pytest.raises(InvariantViolation) as raised:
        check_columns_conservation(round_view(backend, [fields]))
    assert str(raised.value) == (
        "instance 40, round 7: CCW conservation violated: sum(sigma)=1 != "
        "sum(rho)+sum(pend)+sum(flight)=0"
    )


def test_numpy_column_form_screens_live_rows_only():
    """A row quiesced before the round's deliveries goes unscreened, as
    its solo run has stopped; a live row behind it is still found, and
    a CCW break behind a dead CW break reads CCW."""
    np = pytest.importorskip("numpy")
    rows = [corrupted("flight_cw", 1, 0), CLEAN, corrupted("sigma_ccw", 2, 1)]
    view = round_view("numpy", rows)
    view.live = np.array([False, True, True])
    with pytest.raises(InvariantViolation) as raised:
        check_columns_conservation(view)
    assert raised.value.instance == 42
    assert str(raised.value).startswith("instance 42, round 7: CCW conservation")
    view.live = np.array([False, True, False])
    check_columns_conservation(view)
