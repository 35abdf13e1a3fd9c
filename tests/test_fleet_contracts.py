"""Fleet contracts shared by the ``python`` and ``numpy`` backends.

Four layers are pinned, each against the pure-Python reference:

* the vectorized counter-hash twins — :func:`repro.faults.fleet._np_rolls`
  vs :func:`repro.faults.model.roll_u64` and
  :func:`repro.simulator.fleet._np_schedule_bits` (over
  :func:`repro.simulator.fleet._np_schedule_keys`) vs
  :func:`repro.simulator.fleet.schedule_bit`, value for value over
  hypothesis-generated coordinates, plus the certain-rate (``2**64``)
  threshold that cannot ride in a uint64;
* the intra-lap hop-skip — :func:`repro.simulator.fleet._np_hop_skip` vs
  :func:`repro.simulator.fleet._py_hop_skip`, row by row over
  hypothesis-generated flights, margins and candidate masks;
* the run-level contracts every backend honours — the round-limit error,
  the stuck-run watchdog, and the per-round observer (which must fire
  with its backend's label and must not perturb the outcome);
* a rate-fault matrix at a non-zero ``instance_offset``: all three
  algorithms, both schedulers, fault-free and under rate faults
  (including a certain-drop burst), every per-instance field and the
  fault-event counters equal between the two backends.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernels.warmup import INT64_MAX
from repro.exceptions import SimulationLimitExceeded
from repro.faults.fleet import _np_rolls, _np_under
from repro.faults.model import (
    KIND_CRASH,
    KIND_DROP,
    KIND_DUPLICATE,
    KIND_SPURIOUS,
    FaultBurst,
    FaultModel,
    rate_threshold,
    roll_u64,
)
from repro.simulator.fleet import (
    _MARGIN_INF,
    HAVE_NUMPY,
    _np_hop_skip,
    _np_schedule_bits,
    _np_schedule_keys,
    _py_hop_skip,
    run_nonoriented_fleet,
    run_terminating_fleet,
    run_warmup_fleet,
    schedule_bit,
)

if HAVE_NUMPY:
    import numpy as np

BACKENDS = ["python"] + (["numpy"] if HAVE_NUMPY else [])
SCHEDULERS = ["lockstep", "seeded"]
ALGORITHMS = ["warmup", "terminating", "nonoriented"]

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")

POOL = [[5, 9, 2, 7], [3, 1, 4, 2], [4, 3, 2, 1]]
FLIPS = [[True, False, False, True], [False, True, True, False],
         [False, False, True, True]]


def _run(algorithm, pool, model=None, **kwargs):
    """One fleet run of ``algorithm`` under fault model ``model``."""
    if algorithm == "warmup":
        return run_warmup_fleet(pool, faults=model, **kwargs)
    if algorithm == "terminating":
        return run_terminating_fleet(pool, faults=model, **kwargs)
    flips = FLIPS if pool is POOL else None
    return run_nonoriented_fleet(pool, flip_lists=flips, faults=model,
                                 **kwargs)


# -- the vectorized counter-hash twins, value for value -----------------------


@needs_numpy
class TestNumpyHashTwins:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        kind=st.sampled_from([KIND_DROP, KIND_DUPLICATE, KIND_SPURIOUS,
                              KIND_CRASH]),
        instance_offset=st.integers(min_value=0, max_value=2**32),
        round_index=st.integers(min_value=0, max_value=2**32),
        chan_base=st.integers(min_value=0, max_value=2**20),
        pulse=st.integers(min_value=0, max_value=2**20),
    )
    def test_roll_u64(self, seed, kind, instance_offset, round_index,
                      chan_base, pulse):
        rows, n = 3, 4
        got = _np_rolls(np, seed, kind, round_index, pulse, instance_offset,
                        rows, chan_base, n)
        assert got.shape == (rows, n)
        for b in range(rows):
            for c in range(n):
                assert int(got[b, c]) == roll_u64(
                    seed, kind, instance_offset + b, round_index,
                    chan_base + c, pulse,
                )

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        instance_offset=st.integers(min_value=1, max_value=2**32),
        # Up to 2**64 - 1, so the round term wraps mod 2**64.
        round_index=st.integers(min_value=0, max_value=2**64 - 1),
    )
    def test_schedule_bit(self, seed, instance_offset, round_index):
        rows, channels = 3, 8
        keys = _np_schedule_keys(seed, instance_offset, rows, channels)
        got = _np_schedule_bits(keys, round_index)
        assert got.shape == (rows, channels) and got.dtype == bool
        for b in range(rows):
            for c in range(channels):
                assert bool(got[b, c]) == bool(
                    schedule_bit(seed, instance_offset + b, round_index, c)
                )

    def test_certain_rate_threshold(self):
        # rate 1.0's threshold is 2**64, which cannot ride in a uint64:
        # the comparison must report "always", not truncate to 0.
        rolls = np.array([[0, 1, 2**64 - 1]], dtype=np.uint64)
        assert rate_threshold(1.0) == 2**64
        assert _np_under(np, rolls, rate_threshold(1.0)).all()
        assert not _np_under(np, rolls, rate_threshold(0.0)).any()


# -- the hop-skip twins, row by row -------------------------------------------

@st.composite
def hop_blocks(draw):
    """A ``[B, n]`` block for the hop-skip: flights (all-zero rows
    included), margins in ``0 .. 3n`` or the sentinel (``None``), the
    candidate mask and the travel direction."""
    n = draw(st.integers(min_value=1, max_value=12))
    rows = st.lists(st.integers(min_value=0, max_value=5), min_size=n, max_size=n)
    margin = st.one_of(st.integers(min_value=0, max_value=3 * n), st.none())
    B = draw(st.integers(min_value=1, max_value=8))
    flights = draw(st.lists(st.one_of(st.just([0] * n), rows),
                            min_size=B, max_size=B))
    margins = draw(st.lists(st.lists(margin, min_size=n, max_size=n),
                            min_size=B, max_size=B))
    cand = draw(st.lists(st.booleans(), min_size=B, max_size=B))
    return flights, margins, cand, draw(st.booleans())


@needs_numpy
@settings(max_examples=300, deadline=None)
@given(block=hop_blocks())
def test_np_hop_skip_matches_scalar_twin(block):
    flights, margins, cand, backward = block
    got = _np_hop_skip(
        np,
        np.array(flights, dtype=np.int64),
        np.array([[INT64_MAX if m is None else m for m in row] for row in margins],
                 dtype=np.int64),
        np.array(cand, dtype=bool),
        backward,
    )
    want = [
        _py_hop_skip(flight, [_MARGIN_INF if m is None else m for m in row], backward)
        if c else (0, None, flight)
        for flight, row, c in zip(flights, margins, cand)
    ]
    if all(hops == 0 for hops, _, _ in want):
        assert got is None
        return
    H, gains, flight_after = got
    for b, (hops, row_gains, row_after) in enumerate(want):
        assert int(H[b]) == hops
        assert gains[b].tolist() == (row_gains if hops else [0] * len(row_after))
        assert flight_after[b].tolist() == row_after


# -- run-level contracts, per backend -----------------------------------------


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("backend", BACKENDS)
class TestRunContracts:
    def test_round_limit_raises(self, backend, algorithm):
        # The seeded scheduler delivers partial rounds, so an IDmax of
        # 100000 cannot quiesce within 5 rounds on any algorithm.
        with pytest.raises(SimulationLimitExceeded, match="exceeded 5 rounds"):
            _run(algorithm, [[100000, 1, 2]], backend=backend,
                 scheduler="seeded", max_rounds=5)

    def test_observer_fires_without_perturbing(self, backend,
                                                          algorithm):
        views = []
        watched = _run(algorithm, POOL, backend=backend, scheduler="seeded",
                       observer=views.append)
        plain = _run(algorithm, POOL, backend=backend, scheduler="seeded")
        assert views, "the observer never fired"
        assert {view.backend for view in views} == {backend}
        assert {view.algorithm for view in views} == {algorithm}
        assert (watched.leaders, watched.states, watched.total_pulses,
                watched.rho_cw) == (plain.leaders, plain.states,
                                    plain.total_pulses, plain.rho_cw)


@needs_numpy
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_watchdog_cuts_stuck_runs_identically(algorithm):
    # A 0.9 spurious rate keeps pulses circulating forever; the watchdog
    # must cut both backends off at the same point with the same state.
    model = FaultModel(spurious_rate=0.9, seed=3)
    a = _run(algorithm, [[3, 1, 2]], model, backend="numpy",
             watchdog_rounds=50)
    b = _run(algorithm, [[3, 1, 2]], model, backend="python",
             watchdog_rounds=50)
    assert a.unfinished == b.unfinished == [True]
    assert (a.leaders, a.states, a.total_pulses, a.rho_cw,
            a.fault_events) == (b.leaders, b.states, b.total_pulses,
                                b.rho_cw, b.fault_events)


# -- the rate-fault matrix at an instance offset ------------------------------

#: Rate-only fault models, including a burst window and a certain drop.
RATE_MODELS = [
    FaultModel(drop_rate=0.2, seed=11),
    FaultModel(duplicate_rate=0.15, spurious_rate=0.1, seed=7),
    FaultModel(drop_rate=0.15, duplicate_rate=0.1, spurious_rate=0.05,
               seed=5, burst=FaultBurst(start=2, length=6)),
    FaultModel(drop_rate=1.0, seed=3, burst=FaultBurst(start=3, length=1)),
]

# The schedule-invariant fields of each algorithm, and the whole-fleet
# batching diagnostics, which both backends count the same way (NumPy
# advances the block in shared rounds, pure Python one instance at a
# time); all must match bit for bit.
DIAGNOSTICS = ["rounds", "lap_skips", "ignored_deliveries"]
FIELDS = {
    "warmup": ["leaders", "states", "total_pulses", "rho_cw", "sigma_cw",
               "unfinished", "fault_events"],
    "terminating": ["leaders", "states", "total_pulses", "rho_cw",
                    "rho_ccw", "sigma_cw", "sigma_ccw", "term_pulse_sent",
                    "terminated", "unfinished", "fault_events"],
    "nonoriented": ["leaders", "states", "total_pulses", "rho_cw",
                    "rho_ccw", "sigma_cw", "sigma_ccw", "cw_port_labels",
                    "orientation_consistent", "unfinished", "fault_events"],
}


@needs_numpy
@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("model", [None] + RATE_MODELS, ids=str)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_rate_faults_at_offset_match(algorithm, model, scheduler):
    a = _run(algorithm, POOL, model, backend="numpy", scheduler=scheduler,
             instance_offset=3)
    b = _run(algorithm, POOL, model, backend="python", scheduler=scheduler,
             instance_offset=3)
    assert (a.backend, b.backend) == ("numpy", "python")
    for field in FIELDS[algorithm] + DIAGNOSTICS:
        assert getattr(a, field) == getattr(b, field), field
