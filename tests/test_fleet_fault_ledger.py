"""Conservation ledger of the fleet fault compiler.

Every pulse a fleet run sends or a fault creates is, at the end of the
run, received, removed by a fault, ignored by a terminated node, still
pending at a live node, or still in flight:

    Σsigma + duplicated + injected
        == Σrho + dropped + det_dropped + crash_lost
           + ignored_deliveries + live pending + final in-flight

This is an oracle independent of the pure-Python twin: both backends and
all three fleet runners must balance it exactly, for hypothesis-drawn
models of every clause kind except restarts and corruption (which rewrite
counters instead of moving pulses).

Pending and in-flight pulses are read from each run's last
:class:`~repro.simulator.fleet.FleetRoundView`.  A run ends with one more
fault application after that view: a row that quiesces there has
nothing in flight by definition, and a row cut off by the watchdog sees
no fault in that application, because every drawn clause acts within
the first rounds and every random rate is gated by a bounded burst.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.fleet import merge_events
from repro.faults.model import (
    FaultBurst,
    FaultGroup,
    FaultModel,
    GroupDrop,
    NodeCrash,
    PulseDrop,
)
from repro.simulator.fleet import (
    HAVE_NUMPY,
    run_nonoriented_fleet,
    run_terminating_fleet,
    run_warmup_fleet,
)

from strategies import unique_id_lists

BACKENDS = ["python"] + (["numpy"] if HAVE_NUMPY else [])
SCHEDULERS = ["lockstep", "seeded"]
DIRECTIONS = {
    "warmup": ("cw",),
    "terminating": ("cw", "ccw"),
    "nonoriented": ("cw", "ccw"),
}
OFFSET = 3
ROWS = 2
WATCHDOG = 400

bursts = st.builds(
    FaultBurst,
    start=st.integers(min_value=1, max_value=4),
    length=st.integers(min_value=1, max_value=6),
)
targets = st.none() | st.integers(min_value=OFFSET, max_value=OFFSET + ROWS - 1)


@st.composite
def fault_models(draw, algorithm, n):
    """Models without restarts or corruption whose clauses all act early."""
    nodes = st.integers(min_value=0, max_value=n - 1)
    directions = st.sampled_from(DIRECTIONS[algorithm])
    early = st.integers(min_value=1, max_value=6)
    group_drops = st.lists(
        st.builds(
            GroupDrop,
            offset=st.integers(min_value=0, max_value=3),
            node_offset=nodes,
            direction=directions,
            count=st.integers(min_value=1, max_value=2),
        ),
        max_size=2,
    )
    groups = []
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        crash, drops = draw(st.booleans()), tuple(draw(group_drops))
        burst = draw(st.none() | bursts)
        if not (crash or drops or burst):
            crash = True
        if draw(st.booleans()):
            trigger = dict(at_round=draw(early))
        else:
            trigger = dict(
                trigger_field=draw(st.sampled_from(["rho", "sigma"])),
                trigger_threshold=draw(st.integers(min_value=1, max_value=6)),
            )
        groups.append(FaultGroup(
            anchor=draw(nodes), crash=crash, drops=drops, burst=burst,
            instance=draw(targets), **trigger,
        ))
    drop_rate = draw(st.sampled_from([0.0, 0.1, 0.3]))
    duplicate_rate = draw(st.sampled_from([0.0, 0.1]))
    spurious_rate = draw(st.sampled_from([0.0, 0.05]))
    group_bursts = any(g.burst is not None for g in groups)
    return FaultModel(
        drop_rate=drop_rate,
        duplicate_rate=duplicate_rate,
        spurious_rate=spurious_rate,
        seed=draw(st.integers(min_value=0, max_value=2**16)),
        # The rates fire inside a group's burst windows, or else inside
        # one bounded top-level burst.
        burst=None if group_bursts else draw(bursts),
        drops=tuple(draw(st.lists(
            st.builds(
                PulseDrop, round_index=early, node=nodes, direction=directions,
                instance=targets, count=st.integers(min_value=1, max_value=3),
            ),
            max_size=2,
        ))),
        crashes=tuple(draw(st.lists(
            st.builds(NodeCrash, node=nodes, at_round=early, instance=targets),
            max_size=1,
        ))),
        crash_rate=draw(st.sampled_from([0.0, 0.25])),
        groups=tuple(groups),
    )


@st.composite
def cases(draw, algorithm):
    n = draw(st.integers(min_value=2, max_value=5))
    pool = [draw(unique_id_lists(n, n, 12)) for _ in range(ROWS)]
    return pool, draw(fault_models(algorithm, n))


def _total(*columns):
    return sum(sum(row) for column in columns if column for row in column)


def _ledger(algorithm, pool, model, backend, scheduler):
    """Both sides of the ledger for one fleet run."""
    last = {}  # (global instance, run number) -> its last view's counts
    runs = {}

    def observer(view):
        for b in range(len(view.flight_cw)):
            instance = view.instance_offset + b
            if view.round_index == 1:
                runs[instance] = runs.get(instance, 0) + 1
            live = [not t for t in view.terminated[b]]
            pending = sum(
                int(p) * alive
                for column in (view.pend_cw[b], view.pend_ccw[b])
                for p, alive in zip(column, live)
            )
            in_flight = int(sum(view.flight_cw[b]) + sum(view.flight_ccw[b]))
            last[instance, runs[instance]] = (
                view.round_index, pending, in_flight,
            )

    knobs = dict(
        backend=backend, scheduler=scheduler, seed=5, faults=model,
        observer=observer, instance_offset=OFFSET, watchdog_rounds=WATCHDOG,
    )
    if algorithm == "warmup":
        result = run_warmup_fleet(pool, **knobs)
    elif algorithm == "terminating":
        result = run_terminating_fleet(pool, **knobs)
    else:
        result = run_nonoriented_fleet(pool, **knobs)
    events = result.fault_events or merge_events()  # None when fault-free
    pending = sum(counts[1] for counts in last.values())
    # Only a run cut off by the watchdog ends with pulses in flight.
    in_flight = sum(
        counts[2] for counts in last.values() if counts[0] == WATCHDOG
    )
    sent = (
        _total(result.sigma_cw, result.sigma_ccw)
        + events["duplicated"] + events["injected"]
    )
    accounted = (
        _total(result.rho_cw, result.rho_ccw)
        + events["dropped"] + events["det_dropped"] + events["crash_lost"]
        + result.ignored_deliveries + pending + in_flight
    )
    return sent, accounted


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("algorithm", ["warmup", "terminating", "nonoriented"])
@settings(deadline=None)
@given(data=st.data())
def test_fault_ledger_balances(algorithm, backend, scheduler, data):
    pool, model = data.draw(cases(algorithm))
    sent, accounted = _ledger(algorithm, pool, model, backend, scheduler)
    assert sent == accounted
