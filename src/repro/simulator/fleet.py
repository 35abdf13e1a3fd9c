"""Vectorized fleet engine: lockstep struct-of-arrays simulation.

The paper's large-scale experiments — average-case pulse statistics over
random ID placements (Theorems 1–2) and w.h.p. validation of the
randomized sampler (Theorem 3 / Lemma 18) — run thousands of *independent*
ring executions.  Because pulses are contentless, the entire per-instance
state is a handful of small integers per node: receive counters
:math:`\\rho`, per-channel in-flight counts, and a few phase flags.  This
module batches ``B`` independent instances into struct-of-arrays (SoA)
state — ``rho[B, n]``, ``flight[B, n]``, ``terminated[B, n]`` — and
advances the whole fleet in lockstep *rounds*, so one scheduler step is a
few array operations across the fleet instead of ``B`` Python dispatches.

Semantics come from the transition kernels in :mod:`repro.core.kernels`
— this module owns *only* the round/flight/scheduler plumbing, written
once per backend as a round driver over *lanes*, one flight array per
travel direction (:func:`repro.faults.fleet.fleet_lanes`): Algorithm 1
runs one CW lane, Algorithm 2 a CW and a CCW lane, and Algorithm 3 two
one-lane runs.  The pure-Python backend runs kernel states
(``make_state`` / ``step`` / ``drain``) per node; the NumPy backend runs
the kernels' column lowerings (``step_block_np`` / ``drain_block_np``)
over the whole fleet.  Neither re-implements a transition rule.

Legality (the lockstep-equivalence argument, docs/PERFORMANCE.md).  A
fleet round delivers, per instance, the entire round-start content of a
set of channels; sends produced during the round enter the channels for
the next round.  Within one instance this is a legal schedule of the
asynchronous adversary: order the delivered channels arbitrarily and
expand each into consecutive per-pulse deliveries — exactly the batched
engine's adversary-equivalence argument, applied per instance.  The fleet
therefore *is* one reference execution per instance, under a particular
adversary; every schedule-invariant claim (elected leader, final
counters, exact pulse counts) transfers verbatim, and the differential
tests check this bit-for-bit against the batched and unbatched engines.

Two fleet schedulers are provided:

* ``"lockstep"`` — every round delivers, per instance, all round-start
  in-flight pulses of its first non-empty lane, plus a **lap-skip**:
  when ``k`` pulses circulate in one direction and no counter can cross a
  branch-relevant threshold (absorption ID, termination trigger, exit
  comparison) within ``L`` full laps, the laps collapse to closed-form
  counter arithmetic (``rho += L*k`` everywhere, ``L*k*n`` relays
  counted, in-flight population unchanged — after a full lap every pulse
  is back on its starting channel).  This bounds rounds by the number of
  threshold *crossings* (O(n) per instance) instead of ``IDmax``.  The
  skip margins are the kernels' ``skip_margin`` helpers, so the
  fast-forward legality argument lives next to the transition rules it
  fast-forwards.
* ``"seeded"`` — per-round, per-instance pseudo-random channel subsets
  drawn from a counter-based splitmix-style hash of
  ``(seed, instance, round, channel)`` with no sequential RNG state, so
  the NumPy and pure-Python backends produce bit-identical schedules,
  and an instance draws the same schedule in any block (see
  :func:`schedule_bit`).

Statistical-checking hooks (:mod:`repro.verification.statistical`):
every runner accepts an ``observer``, called with a
:class:`FleetRoundView` after every round (post-drain, post-flight
update), and ``faults``, a :class:`~repro.faults.model.FaultModel`
compiled onto the run's lanes (:mod:`repro.faults.fleet`) and applied
at the start of every round: seed-reproducible lost, duplicated or
spurious pulses, crashes and corruptions whose downstream invariant
violations the checker must catch.

Backends.  ``backend="numpy"`` runs the column lowerings over the whole
block; ``backend="python"``, the oracle, runs one instance at a time
with scalar kernel states (instances are independent, so the
trajectories are identical); ``backend="auto"`` resolves through
:func:`repro.accel.resolve_backend` (numpy → python by availability).
NumPy is an optional extra (``[perf]``).
"""

from __future__ import annotations

import importlib
import operator
import random
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.accel import HAVE_NUMPY, resolve_backend
from repro.accel import np as _np
from repro.exceptions import ConfigurationError, SimulationLimitExceeded

#: Safety bound on fleet rounds; with lap-skips a run needs O(n) rounds
#: per instance, so hitting this means a livelocked kernel, not a big ID.
DEFAULT_MAX_ROUNDS = 1_000_000

_MASK64 = (1 << 64) - 1

# The counter-based hash machinery (murmur3 finalizer + odd key
# constants) is shared with the fault subsystem — one mix, one set of
# keys, so schedule streams and fault streams live in the same
# replayable universe (disjoint by their kind/usage coordinates).
from repro.faults.model import (  # noqa: E402
    _KEY_CHANNEL,
    _KEY_INSTANCE,
    _KEY_ROUND,
    _MIX_A,
    _MIX_B,
)
from repro.faults.model import mix64 as _mix64  # noqa: E402


def schedule_bit(seed: int, instance: int, round_index: int, channel: int) -> int:
    """The seeded fleet scheduler's delivery bit for one channel.

    A pure function of its arguments (counter-based, no sequential RNG
    state), so any backend — NumPy, pure Python, a future GPU port —
    reproduces the exact schedule stream.  ``instance`` is the global
    index ``instance_offset + row``, the key fault rolls use, so a
    counterexample replayed solo draws the schedule it failed under.
    """
    key = (
        _mix64(seed)
        + instance * _KEY_INSTANCE
        + round_index * _KEY_ROUND
        + channel * _KEY_CHANNEL
    ) & _MASK64
    return (_mix64(key) >> 32) & 1


def _np_schedule_keys(seed: int, offset: int, n_instances: int, channels: int):
    """The round-free part of :func:`schedule_bit`'s key for instances
    ``offset .. offset + n_instances - 1``: uint64 ``[n_instances,
    channels]``, built once per run."""
    u64 = _np.uint64
    b = _np.arange(offset, offset + n_instances, dtype=u64)[:, None]
    c = _np.arange(channels, dtype=u64)[None, :]
    return u64(_mix64(seed)) + b * u64(_KEY_INSTANCE) + c * u64(_KEY_CHANNEL)


def _np_schedule_bits(keys, round_index: int):
    """Vectorized :func:`schedule_bit` over :func:`_np_schedule_keys`'
    ``keys``: bool array of the same shape.  The round term is reduced
    mod ``2**64`` in Python, so uint64 wrap-around adds it exactly."""
    u64 = _np.uint64
    x = keys + u64((round_index * _KEY_ROUND) & _MASK64)
    x ^= x >> u64(33)
    x *= u64(_MIX_A)
    x ^= x >> u64(33)
    x *= u64(_MIX_B)
    x ^= x >> u64(33)
    return (x & u64(1 << 32)).astype(bool)


def _check_fleet(id_lists: Sequence[Sequence[int]], unique: bool) -> Tuple[int, int]:
    from repro.core.common import validate_positive_ids, validate_unique_ids

    if not id_lists:
        raise ConfigurationError("a fleet needs at least one instance")
    n = len(id_lists[0])
    for ids in id_lists:
        if len(ids) != n:
            raise ConfigurationError(
                "all fleet instances must have the same ring size; "
                f"got sizes {sorted({len(i) for i in id_lists})} "
                "(shard ragged sweeps by n)"
            )
        if unique:
            validate_unique_ids(ids)
        else:
            validate_positive_ids(ids)
    return len(id_lists), n


def check_scheduler(scheduler: str) -> None:
    """Refuse a scheduler name the fleet runners do not know."""
    if scheduler not in ("lockstep", "seeded"):
        raise ConfigurationError(
            f"unknown fleet scheduler {scheduler!r}; choose 'lockstep' or 'seeded'"
        )


def _check_run(
    id_lists: Sequence[Sequence[int]], unique: bool, backend: str, scheduler: str
) -> str:
    """Validate a runner's call; returns the backend that will run."""
    check_scheduler(scheduler)
    resolved = resolve_backend(backend)
    _check_fleet(id_lists, unique)
    return resolved


def _limit(rounds: int, max_rounds: int) -> None:
    if rounds > max_rounds:
        raise SimulationLimitExceeded(
            f"fleet exceeded {max_rounds} rounds before quiescence", steps=rounds
        )


@dataclass
class FleetResult:
    """Final snapshot of a fleet run — one entry per instance throughout.

    ``states`` holds final :class:`~repro.core.common.LeaderState` values
    (for Algorithm 2 these are the terminal *outputs*).  ``rho_cw`` /
    ``rho_ccw`` are directional receive counters, ``sigma_cw`` /
    ``sigma_ccw`` the matching send counters; ``cw_port_labels`` is the
    port-indexed view Algorithm 3 exposes.  ``rounds`` / ``lap_skips``
    are batching diagnostics of the whole block, the same on both
    backends: ``rounds`` sums, over the algorithm's runs, the rounds until
    every instance quiesced, and ``lap_skips`` counts block-wide skip
    steps, one per run, round, lane and kind (lap or hop) at which any
    instance skipped.
    """

    algorithm: str
    backend: str
    scheduler: str
    ids: List[List[int]]
    leaders: List[List[int]]
    states: List[List[Any]]
    total_pulses: List[int]
    rho_cw: List[List[int]]
    rho_ccw: Optional[List[List[int]]] = None
    terminated: Optional[List[List[bool]]] = None
    cw_port_labels: Optional[List[List[Optional[int]]]] = None
    orientation_consistent: Optional[List[bool]] = None
    flips: Optional[List[List[bool]]] = None
    rounds: int = 0
    lap_skips: int = 0
    ignored_deliveries: int = 0
    sigma_cw: Optional[List[List[int]]] = None
    sigma_ccw: Optional[List[List[int]]] = None
    term_pulse_sent: Optional[List[List[bool]]] = None
    #: Per-instance True when the run was cut off by the stuck-run
    #: watchdog or the livelock guard instead of reaching quiescence
    #: (only possible under fault injection).
    unfinished: Optional[List[bool]] = None
    #: Per-kind totals of applied fault events (see
    #: :data:`repro.faults.fleet.EVENT_KEYS`), None for fault-free runs.
    fault_events: Optional[dict] = None

    @property
    def size(self) -> int:
        """Number of instances in the fleet."""
        return len(self.ids)

    @property
    def expected_leaders(self) -> List[int]:
        """Per instance, the index of the maximal-ID node."""
        return [
            max(range(len(ids)), key=lambda v: ids[v]) for ids in self.ids
        ]


from repro.faults.fleet import (  # noqa: E402
    compile_fleet_faults,
    fleet_lanes,
    merge_events,
)
from repro.faults.model import FaultModel  # noqa: E402


@dataclass
class FleetRoundView:
    """Read-only per-round snapshot handed to fleet observers.

    Column fields are ``[B, n]`` arrays on the NumPy backend and
    single-row lists-of-lists (``B == 1``) on the pure-Python backend;
    ``instance_offset`` maps row ``b`` to global instance index
    ``instance_offset + b`` so sharded statistical runs can report
    absolute counterexample coordinates.  ``flight_cw[b][v]`` counts
    pulses in transit *toward* node ``v``.  Observers must not mutate
    the columns.
    """

    algorithm: str
    backend: str
    round_index: int
    instance_offset: int
    ids: Any
    rho_cw: Any
    sigma_cw: Any
    pend_cw: Any
    flight_cw: Any
    rho_ccw: Any
    sigma_ccw: Any
    pend_ccw: Any
    flight_ccw: Any
    term_sent: Any
    terminated: Any
    #: The NumPy rows still running this round (None where every row
    #: is): a row quiesced before the round's deliveries is one its solo
    #: run no longer observes.  The round driver sets it; it marks the
    #: round rather than holding state, so it is not a field.
    live = None


#: Per-round statistical-checking hook (see :class:`FleetRoundView`).
FleetObserver = Callable[[FleetRoundView], None]


# ---------------------------------------------------------------------------
# The round driver: one per twin, over the lanes of one fleet run.  It
# owns the plumbing — fault application and the live/done mask, the
# watchdog and round limit, the scheduler's deliveries, the lap- and
# hop-skips, adding each lane's sends into its flight, the observer
# view — and a kernel spec (below) supplies the rest.
#
# Lockstep schedule: each row delivers only its first non-empty lane;
# later lanes stall in their channels (a legal adversary).  One lane
# delivers everything.  Algorithm 2 delivers CW pulses until its CW
# instance completes, then CCW, which keeps the lap-skip applicable in
# both halves: during the CW half the stalled CCW population is
# constant, and during the CCW half every gate is open (k_cw == 0 means
# all n CW absorptions happened, so rho_cw >= ID everywhere) and the
# exit threshold rho_cw is static.  Algorithm 2's lanes also hop-skip;
# Algorithm 1's lane does not, because a hop-skip shifts the round index
# that every later fault roll keys on.
# ---------------------------------------------------------------------------


def _np_hop_skip(np_mod, flight, margins, cand, backward):
    """Intra-lap fast-forward: collapse the largest crossing-free hop run.

    The whole-lap skip jumps ``L`` full laps but still pays up to a
    full lap of rounds (``n`` hops) to reach the next threshold crossing
    — that residual is what makes lockstep rounds scale like ``n^2`` per
    instance.  This helper removes it: after ``H < n`` consecutive
    all-deliver rounds with no branch crossing, node ``v`` has received
    the window sum of ``flight`` over the ``H`` channels upstream of it
    (``backward=True`` when sends shift ``+1``, i.e. CW travel; ``False``
    for CCW) and the flight array is the original rolled by ``H`` — so
    those rounds are one closed-form update.  ``H`` is the largest value
    whose window sums stay within ``margins`` at every node; window sums
    are nondecreasing in ``H``, so per-instance bisection over prefix
    sums of the doubled flight array finds it.  Rows outside ``cand``
    get ``H = 0``.  Returns ``(H, gains, flight_after)`` or ``None``
    when no row can advance.

    The prefix sums ``C`` fill one ``[B, 2n+1]`` buffer, and every
    window sum is a difference of two entries of ``C``: one fixed per
    node, one that moves with ``H``.  The moving one is gathered through
    flat indices into the buffer, built once per call, and so is
    ``flight_after``: its entry ``v`` is one element of the doubled
    array, the difference of two neighbouring entries of ``C``.
    """
    B, n = flight.shape
    if n < 2:
        return None
    width = 2 * n + 1
    csum = np_mod.empty((B, width), np_mod.int64)  # C[j] = sum(doubled[:j])
    csum[:, 0] = 0
    np_mod.cumsum(flight, axis=1, out=csum[:, 1 : n + 1])
    np_mod.add(csum[:, 1 : n + 1], csum[:, n : n + 1], out=csum[:, n + 1 :])
    flat = csum.ravel()
    base = np_mod.arange(0, B * width, width)[:, None] + np_mod.arange(n)
    if backward:  # node v's window: C[v + n + 1] - C[v + n + 1 - H]
        fixed = csum[:, n + 1 :]
        base += n + 1
    else:  # C[v + H] - C[v]
        fixed = csum[:, :n]

    def window_gains(hops):
        if backward:
            return fixed - flat[base - hops[:, None]]
        return flat[base + hops[:, None]] - fixed

    # The bisection keeps 0 <= lo <= mid: a row whose mid is 0 already
    # has lo = 0, so the check at H = 0 needs no guard.
    lo = np_mod.zeros(B, np_mod.int64)
    hi = np_mod.where(cand, n - 1, 0)
    for _ in range(int(n - 1).bit_length()):
        mid = (lo + hi + 1) // 2
        ok = (window_gains(mid) <= margins).all(axis=1)
        lo = np_mod.where(ok, mid, lo)
        hi = np_mod.where(ok, hi, mid - 1)
    if not (lo > 0).any():
        return None
    # doubled[j] = C[j + 1] - C[j]; after H hops node v holds
    # doubled[v + n - H] backward, doubled[v + H] forward.
    if backward:
        at = base - lo[:, None]
        edge = flat[at]
        return lo, fixed - edge, edge - flat[at - 1]
    at = base + lo[:, None]
    edge = flat[at]
    return lo, edge - fixed, flat[at + 1] - edge


#: Scalar stand-in for the NumPy path's int64-max margin sentinel; only
#: its "larger than any reachable window sum" property is observable.
_MARGIN_INF = 1 << 62


def _py_hop_skip(flight, margins, backward):
    """Scalar twin of :func:`_np_hop_skip` for one instance.

    Same contract: the largest ``H < n`` whose window sums stay within
    the per-node margins, found by extending the windows one hop at a
    time (the predicate is monotone, so the incremental scan and the
    NumPy bisection agree exactly).  Returns ``(H, gains, flight_after)``
    with ``gains`` ``None`` when ``H == 0``.
    """
    n = len(flight)
    step = -1 if backward else 1  # where the next upstream pulse sits
    gains = [0] * n
    hops = 0
    while hops < n - 1:
        trial = [g + flight[(v + step * hops) % n] for v, g in enumerate(gains)]
        if any(g > m for g, m in zip(trial, margins)):
            break
        gains, hops = trial, hops + 1
    if hops == 0:
        return 0, None, flight
    return hops, gains, [flight[(v + step * hops) % n] for v in range(n)]


def _blank_view(zeros, falses):
    """The view columns of a kernel that fills none: counters ``zeros``,
    flags ``falses``."""
    counters = (
        "rho_cw", "sigma_cw", "pend_cw", "flight_cw",
        "rho_ccw", "sigma_ccw", "pend_ccw", "flight_ccw",
    )
    return dict(dict.fromkeys(counters, zeros), term_sent=falses, terminated=falses)


def _view(algorithm, backend, round_index, instance_offset, ids, flights,
          columns, blank, live=None):
    """One round's :class:`FleetRoundView`: the spec's ``columns`` and
    the lanes' flights (a one-lane run shows its lane in the CW slots)
    over the ``blank`` ones."""
    fields = dict(blank, **columns)
    fields.update(zip(("flight_cw", "flight_ccw"), flights))
    view = FleetRoundView(
        algorithm, backend, round_index, instance_offset, ids, **fields
    )
    view.live = live
    return view


def _np_flush(lanes, flights, sends, total):
    """Add each lane's per-node sends into its flight in place (node
    ``v``'s sends land at ``v + shift``) and count them into the per-row
    ``total``."""
    for lane, flight, row in zip(lanes, flights, sends):
        n = flight.shape[1]
        shift = lane.shift % n
        flight[:, shift:] += row[:, : n - shift]
        flight[:, :shift] += row[:, n - shift :]
        total += row.sum(axis=1)


def _np_rounds(
    spec, runs, algorithm, scheduler, seed, max_rounds, observer,
    instance_offset, watchdog,
):
    """Advance a block through every run of its algorithm (NumPy twin).

    Each of ``runs`` is ``(gov_rows, lanes, faults)``: the governing
    IDs, the run's lanes and its optional fault adapter.  Runs go one
    after the other, each over the whole block.  Returns ``(columns,
    totals, unfinished, rounds, lap_skips, ignored)``: per run the
    spec's row-shaped columns, then per-row totals and stuck flags
    summed over runs, and fleet-wide counters.
    """
    from repro.core.kernels.warmup import INT64_MAX

    columns = []
    totals = stuck_any = None
    rounds_sum = skips = ignored = 0
    for gov_rows, lanes, faults in runs:
        state = spec(gov_rows)
        B, n = state.gov.shape
        flights = [_np.zeros((B, n), _np.int64) for _ in lanes]
        total = _np.zeros(B, _np.int64)
        _np_flush(lanes, flights, state.init_sends(), total)
        if scheduler == "seeded":
            keys = _np_schedule_keys(
                seed, instance_offset, B, max(lane.chan_base for lane in lanes) + n
            )
        skip = scheduler == "lockstep" and (faults is None or faults.allow_skips)
        if observer is not None:
            blank = _blank_view(_np.zeros((B, n), _np.int64), _np.zeros((B, n), bool))
        stuck = _np.zeros(B, bool)
        # A row whose flights hit zero after fault application has
        # quiesced: its pure-Python twin's per-instance loop exits there,
        # so faults must never touch it again (batch composition must
        # not alter per-instance fault streams).
        done = _np.zeros(B, bool)
        rounds = 0
        while True:
            if faults is not None:
                total += faults.apply_np(
                    _np, rounds + 1, state.columns, tuple(flights),
                    instance_offset, live=~done,
                )
            ks = [flight.sum(axis=1) for flight in flights]
            done |= sum(ks[1:], ks[0]) == 0
            active = ~done
            if not active.any():
                break
            if watchdog is not None and rounds >= watchdog:
                # Deadlock/livelock watchdog: whatever is still
                # circulating will never quiesce within budget — report,
                # don't raise.
                stuck |= active
                break
            rounds += 1
            _limit(rounds, max_rounds)
            if scheduler == "lockstep":
                # Per row, the first non-empty lane; `idle` marks the rows
                # whose earlier lanes are all empty.
                phases = [ks[0] > 0]
                idle = None
                for k in ks[1:]:
                    idle = ~phases[-1] if idle is None else idle & ~phases[-1]
                    phases.append(idle & (k > 0))
                if skip:
                    skippable = state.skippable()
                    for i, lane in enumerate(lanes):
                        cand = phases[i] & skippable
                        if not cand.any():
                            continue
                        margin = state.margins(lane)
                        mmin = margin.min(axis=1)
                        if faults is not None:
                            # Under injection every node may sit past
                            # threshold (infinite relay; the watchdog
                            # cuts it) — suppress the skip so the
                            # sentinel cannot overflow.
                            mmin = _np.where(mmin == INT64_MAX, 0, mmin)
                        k = ks[i]
                        laps = _np.where(cand, mmin // _np.maximum(k, 1), 0)
                        do = laps >= 1
                        if do.any():
                            skips += 1
                            add = laps * k * do
                            state.apply_laps(lane, add[:, None])
                            total += add * n
                            margin = margin - add[:, None]
                        if state.hops[i]:
                            hop = _np_hop_skip(
                                _np, flights[i], margin, cand, backward=lane.shift > 0
                            )
                            if hop is not None:
                                skips += 1
                                _, gains, flights[i] = hop
                                state.apply_laps(lane, gains)
                                total += gains.sum(axis=1)
                delivered = [flights[0]]
                flights[0] = _np.zeros_like(flights[0])
                for i in range(1, len(lanes)):
                    phase = phases[i][:, None]
                    delivered.append(flights[i] * phase)
                    flights[i] = flights[i] * ~phase
            else:
                mask = _np_schedule_bits(keys, rounds)
                delivered = [
                    flight * mask[:, lane.chan_base : lane.chan_base + n]
                    for lane, flight in zip(lanes, flights)
                ]
                drawn = [part.sum(axis=1) for part in delivered]
                # Progress guarantee: an active row whose drawn subset
                # holds no pulse delivers everything this round instead.
                forced = (active & (sum(drawn[1:], drawn[0]) == 0))[:, None]
                delivered = [
                    _np.where(forced, flight, part)
                    for flight, part in zip(flights, delivered)
                ]
                flights = [flight - part for flight, part in zip(flights, delivered)]
            _np_flush(lanes, flights, state.deliver(delivered), total)
            if observer is not None:
                observer(_view(
                    algorithm, "numpy", rounds, instance_offset, state.gov,
                    flights, state.view(), blank, active,
                ))
        cols, run_ignored = state.result()
        columns.append({name: col.tolist() for name, col in cols.items()})
        totals = total if totals is None else totals + total
        stuck_any = stuck if stuck_any is None else stuck_any | stuck
        rounds_sum += rounds
        ignored += run_ignored
    return columns, totals.tolist(), stuck_any.tolist(), rounds_sum, skips, ignored


def _py_flush(lanes, flights, sends):
    """Roll each lane's per-node sends into its flight (node ``v``'s
    sends land at ``v + shift``); returns how many pulses were sent."""
    sent = 0
    for lane, flight, row in zip(lanes, flights, sends):
        n = len(flight)
        for v, count in enumerate(row):
            if count:
                flight[(v + lane.shift) % n] += count
                sent += count
    return sent


def _py_rounds(
    spec, runs, algorithm, scheduler, seed, max_rounds, observer,
    instance_offset, watchdog,
):
    """Scalar twin of :func:`_np_rounds`: one instance at a time, each
    instance through its runs in order.

    The seeded schedule, fault rolls and observer views key on the
    global index ``instance``.  The batching diagnostics count what the
    NumPy twin counts: per run the largest per-instance round count,
    summed over runs, and one skip per distinct ``(run, round, lane,
    lap|hop)`` at which any instance skipped.
    """
    columns = [{} for _ in runs]
    totals, unfinished = [], []
    run_rounds = [0] * len(runs)
    skips = set()
    ignored = 0
    for b in range(len(runs[0][0])):
        instance = instance_offset + b
        total = 0
        stuck = False
        for r, (cols_out, (gov_rows, lanes, faults)) in enumerate(zip(columns, runs)):
            state = spec(list(gov_rows[b]))
            n = len(state.gov)
            flights = [[0] * n for _ in lanes]
            total += _py_flush(lanes, flights, state.init_sends())
            skip = scheduler == "lockstep" and (faults is None or faults.allow_skips)
            if observer is not None:
                blank = _blank_view([[0] * n], [[False] * n])
            rounds = 0
            while True:
                if faults is not None:
                    total += faults.apply_py(
                        rounds + 1, instance, state.gov, state.states,
                        tuple(flights), state.kernel,
                    )
                ks = [sum(flight) for flight in flights]
                if not any(ks):
                    break
                if watchdog is not None and rounds >= watchdog:
                    stuck = True
                    break
                rounds += 1
                _limit(rounds, max_rounds)
                if scheduler == "lockstep":
                    first = next(i for i, k in enumerate(ks) if k)
                    lane = lanes[first]
                    if skip and state.skippable():
                        k = ks[first]
                        margins = [
                            _MARGIN_INF if m is None else m for m in state.margins(lane)
                        ]
                        mmin = min(margins)
                        if faults is not None and mmin >= _MARGIN_INF:
                            # All nodes past threshold: infinite relay
                            # loop (the watchdog cuts it); no legal skip.
                            mmin = 0
                        laps = mmin // k
                        if laps >= 1:
                            skips.add((r, rounds, first, "lap"))
                            add = laps * k
                            state.apply_laps(lane, [add] * n)
                            total += add * n
                            margins = [m - add for m in margins]
                        if state.hops[first]:
                            hops, gains, flights[first] = _py_hop_skip(
                                flights[first], margins, backward=lane.shift > 0
                            )
                            if hops:
                                skips.add((r, rounds, first, "hop"))
                                state.apply_laps(lane, gains)
                                total += sum(gains)
                    delivered = [[0] * n for _ in lanes]
                    delivered[first], flights[first] = flights[first], [0] * n
                else:
                    delivered = [
                        [f if schedule_bit(seed, instance, rounds,
                                           lane.chan_base + v) else 0
                         for v, f in enumerate(flight)]
                        for lane, flight in zip(lanes, flights)
                    ]
                    if sum(map(sum, delivered)) == 0:
                        delivered, flights = flights, [[0] * n for _ in lanes]
                    else:
                        flights = [
                            [f - d for f, d in zip(flight, part)]
                            for flight, part in zip(flights, delivered)
                        ]
                # Sends enter the flights directly: `delivered` is a
                # round-start snapshot, so nothing lands before the next
                # round.
                total += _py_flush(lanes, flights, state.deliver(delivered))
                if observer is not None:
                    observer(_view(
                        algorithm, "python", rounds, instance,
                        [list(state.gov)], [[list(f)] for f in flights],
                        state.view(), blank,
                    ))
            cols, run_ignored = state.result()
            for name, row in cols.items():
                cols_out.setdefault(name, []).append(row)
            ignored += run_ignored
            run_rounds[r] = max(run_rounds[r], rounds)
        totals.append(total)
        unfinished.append(stuck)
    return columns, totals, unfinished, sum(run_rounds), len(skips), ignored


# ---------------------------------------------------------------------------
# Kernel specs: what the driver needs from a kernel.  A NumPy spec holds
# a block's ``[B, n]`` columns, a pure-Python spec one instance's kernel
# states; ``FIELDS`` maps the view columns the kernel fills to its
# column (NumPy) or state attribute.  Kernel functions are looked up on
# the module at call time, never cached, so a wrapper installed on the
# module sees every call.
# ---------------------------------------------------------------------------


class _Spec:
    """Base of the specs; ``KERNEL`` names the kernel module."""

    ignored = 0

    def __init__(self, gov):
        self.kernel = importlib.import_module("repro.core.kernels." + self.KERNEL)
        self.gov = gov

    def skippable(self):
        return True


class _NpSpec(_Spec):
    """A NumPy spec: ``columns`` maps names to the ``[B, n]`` arrays
    (the names the fault adapter writes)."""

    def view(self):
        return {field: self.columns[name] for field, name in self.FIELDS.items()}

    def result(self):
        return self.view(), self.ignored


class _PySpec(_Spec):
    """A pure-Python spec: ``states`` holds one kernel state per node."""

    def __init__(self, gov):
        from repro.core.common import CW_SEND_PORT

        super().__init__(gov)
        self.states = [self.kernel.make_state(g) for g in gov]
        self.cw_send = CW_SEND_PORT
        self.read_fields = operator.attrgetter(*self.FIELDS.values())

    def route(self, sends, v, emissions):
        """Buffer node ``v``'s emissions by lane: CW sends on lane 0,
        CCW sends on lane 1.  The warmup kernel only sends CW, whichever
        way its one lane travels."""
        for port, count in emissions:
            sends[port != self.cw_send][v] += count

    def init_sends(self):
        sends = tuple([0] * len(self.gov) for _ in self.hops)
        for v, st in enumerate(self.states):
            self.route(sends, v, self.kernel.init(st)[1])
        return sends

    def rows(self):
        """``FIELDS``' columns, one list per field, in table order."""
        return zip(self.FIELDS, map(list, zip(*map(self.read_fields, self.states))))

    def view(self):
        return {field: [row] for field, row in self.rows()}

    def result(self):
        return dict(self.rows()), self.ignored


class _NpWarmup(_NpSpec):
    """Algorithm 1 over ``[B, n]`` columns: one lane, whose counters sit
    in the kernel's CW slots whichever way the lane travels."""

    KERNEL = "warmup"
    hops = (False,)
    FIELDS = {"rho_cw": "rho", "sigma_cw": "sigma"}

    def __init__(self, gov_rows):
        super().__init__(_np.asarray(gov_rows, dtype=_np.int64))
        self.columns = {
            "rho": _np.zeros(self.gov.shape, _np.int64),
            "sigma": _np.ones(self.gov.shape, _np.int64),  # kernel.init
        }

    def init_sends(self):
        return (self.columns["sigma"],)  # every send so far is an init pulse

    def margins(self, lane):
        return self.kernel.skip_margins_np(_np, self.gov, self.columns["rho"])

    def apply_laps(self, lane, add):
        self.columns["rho"] += add
        self.columns["sigma"] += add

    def deliver(self, delivered):
        cols = self.columns
        cols["rho"], relays = self.kernel.step_block_np(
            _np, self.gov, cols["rho"], delivered[0]
        )
        cols["sigma"] += relays
        return (relays,)


class _PyWarmup(_PySpec):
    """Scalar twin of :class:`_NpWarmup`: per-node warmup kernel states."""

    KERNEL = "warmup"
    hops = (False,)
    FIELDS = {"rho_cw": "rho_cw", "sigma_cw": "sigma_cw"}

    def margins(self, lane):
        return [self.kernel.skip_margin(st.node_id, st.rho_cw) for st in self.states]

    def apply_laps(self, lane, pulses):
        for st, count in zip(self.states, pulses):
            self.kernel.apply_laps(st, count)

    def deliver(self, delivered):
        from repro.core.common import CW_ARRIVAL_PORT

        sends = ([0] * len(self.gov),)
        for v, count in enumerate(delivered[0]):
            if count:
                _, emissions, _ = self.kernel.step(
                    self.states[v], CW_ARRIVAL_PORT, count
                )
                self.route(sends, v, emissions)
        return sends


class _NpTerminating(_NpSpec):
    """Algorithm 2 over ``TerminatingColumns``: a CW and a CCW lane.

    Both lanes' deliveries are buffered into the pendings and drained
    ONCE per round: draining between the lanes would be a different
    legal schedule, and the differential tests pin this one.  Skips are
    legal only while no term pulse is out and no node has terminated.
    """

    KERNEL = "terminating"
    hops = (True, True)
    FIELDS = {
        name: name
        for name in ("rho_cw", "sigma_cw", "pend_cw", "rho_ccw", "sigma_ccw",
                     "pend_ccw", "term_sent", "terminated")
    }

    def __init__(self, gov_rows):
        super().__init__(_np.asarray(gov_rows, dtype=_np.int64))
        self.cols = self.kernel.TerminatingColumns.fresh(_np, self.gov)
        self.columns = vars(self.cols)

    def init_sends(self):
        return self.cols.sigma_cw, self.cols.sigma_ccw  # the init pulses

    def skippable(self):
        cols = self.cols
        return ~(cols.term_sent | cols.terminated).any(axis=1)

    def margins(self, lane):
        cols = self.cols
        if lane.direction == "cw":
            return self.kernel.cw_skip_margins_np(_np, cols.ids, cols.rho_cw)
        return self.kernel.ccw_skip_margins_np(_np, cols.ids, cols.rho_cw, cols.rho_ccw)

    def apply_laps(self, lane, add):
        self.columns["rho_" + lane.direction] += add
        self.columns["sigma_" + lane.direction] += add

    def deliver(self, delivered):
        cols = self.cols
        deliver_cw, deliver_ccw = delivered
        # Deliveries to terminated nodes are ignored (the model: a
        # terminated node reacts to nothing); Algorithm 2's quiescent
        # termination guarantees this count stays zero.
        dropped = (deliver_cw + deliver_ccw) * cols.terminated
        if dropped.any():
            self.ignored += int(dropped.sum())
            deliver_cw = deliver_cw * ~cols.terminated
            deliver_ccw = deliver_ccw * ~cols.terminated
        cols.pend_cw += deliver_cw
        cols.pend_ccw += deliver_ccw
        # The send buffers hold the previous round's sends until here.
        cols.sends_cw[:] = 0
        cols.sends_ccw[:] = 0
        self.kernel.drain_block_np(_np, cols)
        return cols.sends_cw, cols.sends_ccw

    def result(self):
        cols = self.cols
        out, ignored = super().result()
        out["out_leader"] = cols.out_leader
        stranded = (cols.pend_cw + cols.pend_ccw)[cols.terminated].sum()
        return out, ignored + int(stranded)


class _PyTerminating(_PySpec):
    """Scalar twin of :class:`_NpTerminating`: per-node terminating
    kernel states, buffered then drained once per round."""

    KERNEL = "terminating"
    hops = (True, True)
    FIELDS = dict(
        _NpTerminating.FIELDS,
        pend_cw="pending_cw",
        pend_ccw="pending_ccw",
        term_sent="term_pulse_sent",
    )

    def skippable(self):
        return not any(st.term_pulse_sent or st.terminated for st in self.states)

    def margins(self, lane):
        kernel, states = self.kernel, self.states
        if lane.direction == "cw":
            return [kernel.cw_skip_margin(st.node_id, st.rho_cw) for st in states]
        return [
            kernel.ccw_skip_margin(st.node_id, st.rho_cw, st.rho_ccw) for st in states
        ]

    def apply_laps(self, lane, pulses):
        kernel = self.kernel
        apply = kernel.apply_cw_laps if lane.direction == "cw" else kernel.apply_ccw_laps
        for st, count in zip(self.states, pulses):
            apply(st, count)

    def deliver(self, delivered):
        deliver_cw, deliver_ccw = delivered
        sends = ([0] * len(self.gov), [0] * len(self.gov))
        for v, st in enumerate(self.states):
            if st.terminated:
                self.ignored += deliver_cw[v] + deliver_ccw[v]
                continue
            st.pending_cw += deliver_cw[v]
            st.pending_ccw += deliver_ccw[v]
            emissions, verdict = self.kernel.drain(st)
            self.route(sends, v, emissions)
            if verdict is not None:
                st.terminated = True
        return sends

    def result(self):
        from repro.core.common import LeaderState

        out, ignored = super().result()
        # A terminated node's verdict is its state at the line-19 exit
        # (the drain's return value); nothing touches it afterwards.
        out["out_leader"] = [
            st.terminated and st.state is LeaderState.LEADER for st in self.states
        ]
        stranded = sum(
            st.pending_cw + st.pending_ccw for st in self.states if st.terminated
        )
        return out, ignored + stranded


#: Per algorithm, its kernel's (NumPy, pure-Python) specs; both halves
#: of Algorithm 3 are warmup-kernel runs.
_SPECS = {
    "warmup": (_NpWarmup, _PyWarmup),
    "terminating": (_NpTerminating, _PyTerminating),
    "nonoriented": (_NpWarmup, _PyWarmup),
}


def _leaders(states):
    from repro.core.common import LeaderState

    return [[v for v, s in enumerate(row) if s is LeaderState.LEADER] for row in states]


def _drive(
    algorithm, id_lists, govs, backend, scheduler, seed, max_rounds, faults,
    observer, instance_offset, watchdog_rounds,
):
    """Run ``algorithm``'s fleet runs, one per entry of ``govs`` (its
    governing-ID rows), on the ``backend`` twin.

    ``faults`` (None, a :class:`~repro.faults.model.PulseDrop` or a
    :class:`~repro.faults.model.FaultModel`) compiles to one adapter per
    run.  Whenever faults are injected the stuck-run watchdog defaults
    to ``1024 + 128 n`` rounds: faulted runs may never quiesce, since
    spurious pulses can circulate forever.  Returns the per-run columns
    (view column name -> one row per instance) and the
    :class:`FleetResult` fields every runner shares.
    """
    n = len(govs[0][0])
    if faults is not None and not isinstance(faults, FaultModel):
        faults = FaultModel(drops=(faults,))
    adapters = None
    if faults is not None and not faults.is_noop:
        adapters = compile_fleet_faults(faults, n, algorithm)
        if watchdog_rounds is None:
            watchdog_rounds = 1024 + 128 * n
    runs = tuple(zip(govs, fleet_lanes(algorithm, n), adapters or (None,) * len(govs)))
    np_spec, py_spec = _SPECS[algorithm]
    twin, spec = (_np_rounds, np_spec) if backend == "numpy" else (_py_rounds, py_spec)
    columns, totals, unfinished, rounds, skips, ignored = twin(
        spec, runs, algorithm, scheduler, seed, max_rounds, observer,
        instance_offset, watchdog_rounds,
    )
    return columns, dict(
        algorithm=algorithm,
        backend=backend,
        scheduler=scheduler,
        ids=[list(ids) for ids in id_lists],
        total_pulses=totals,
        rounds=rounds,
        lap_skips=skips,
        ignored_deliveries=ignored,
        unfinished=unfinished,
        fault_events=None if adapters is None else merge_events(
            *(adapter.events for adapter in adapters)
        ),
    )


# ---------------------------------------------------------------------------
# The runners: validate, drive, read the verdicts off the final counters.
# ---------------------------------------------------------------------------


def run_warmup_fleet(
    id_lists: Sequence[Sequence[int]],
    backend: str = "auto",
    scheduler: str = "lockstep",
    seed: int = 0,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    faults: Optional[FaultModel] = None,
    observer: Optional[FleetObserver] = None,
    instance_offset: int = 0,
    watchdog_rounds: Optional[int] = None,
) -> FleetResult:
    """Run a fleet of independent Algorithm 1 executions.

    Args:
        id_lists: One clockwise ID assignment per instance; all instances
            must share the same ring size (shard ragged sweeps by ``n``).
            Duplicates are allowed (Lemma 16), as in :func:`run_warmup`.
        backend: ``"auto"`` (numpy → python by availability),
            ``"numpy"``, or ``"python"`` — identical results by
            construction.
        scheduler: ``"lockstep"`` (all-deliver rounds + lap-skip) or
            ``"seeded"`` (per-instance pseudo-random channel subsets).
        seed: Stream seed for the seeded scheduler.
        max_rounds: Safety bound on fleet rounds.
        faults: Optional :class:`~repro.faults.model.FaultModel` (or a
            single :class:`~repro.faults.model.PulseDrop`) applied at the
            start of every round; fault rolls key on the global instance
            index.
        observer: Per-round statistical hook (direction data appears in
            the CW slots of the view; ``ids`` are governing thresholds).
        instance_offset: Global index of the first instance (sharding).
        watchdog_rounds: Stuck-run bound; defaults to ``1024 + 128 n``
            whenever faults are injected, None (disabled) otherwise.
    """
    from repro.core.kernels import warmup as kernel

    resolved = _check_run(id_lists, False, backend, scheduler)
    (cols,), shared = _drive(
        "warmup", id_lists, (id_lists,), resolved, scheduler, seed, max_rounds,
        faults, observer, instance_offset, watchdog_rounds,
    )
    states = [
        [kernel.stabilized_state(node_id, rho) for rho, node_id in zip(row, ids)]
        for row, ids in zip(cols["rho_cw"], id_lists)
    ]
    return FleetResult(
        states=states, leaders=_leaders(states), rho_cw=cols["rho_cw"],
        sigma_cw=cols["sigma_cw"], **shared,
    )


def run_terminating_fleet(
    id_lists: Sequence[Sequence[int]],
    backend: str = "auto",
    scheduler: str = "lockstep",
    seed: int = 0,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    observer: Optional[FleetObserver] = None,
    faults: Optional[FaultModel] = None,
    instance_offset: int = 0,
    watchdog_rounds: Optional[int] = None,
) -> FleetResult:
    """Run a fleet of independent Algorithm 2 executions.

    Per instance, the result matches :func:`run_terminating` exactly:
    the maximal-ID node is the unique leader, every node terminates, and
    the pulse count is exactly ``n(2*IDmax + 1)`` (Theorem 1).  See
    :func:`run_warmup_fleet` for the parameters; the observer sees both
    directions' columns.
    """
    from repro.core.common import LeaderState

    resolved = _check_run(id_lists, True, backend, scheduler)
    (cols,), shared = _drive(
        "terminating", id_lists, (id_lists,), resolved, scheduler, seed,
        max_rounds, faults, observer, instance_offset, watchdog_rounds,
    )
    states = [
        [LeaderState.LEADER if out else LeaderState.NON_LEADER for out in row]
        for row in cols["out_leader"]
    ]
    return FleetResult(
        states=states,
        leaders=_leaders(states),
        rho_cw=cols["rho_cw"],
        rho_ccw=cols["rho_ccw"],
        terminated=cols["terminated"],
        sigma_cw=cols["sigma_cw"],
        sigma_ccw=cols["sigma_ccw"],
        term_pulse_sent=cols["term_sent"],
        **shared,
    )


def run_nonoriented_fleet(
    id_lists: Sequence[Sequence[int]],
    flip_lists: Optional[Sequence[Sequence[bool]]] = None,
    scheme: Any = "successor",
    require_unique_ids: bool = True,
    backend: str = "auto",
    scheduler: str = "lockstep",
    seed: int = 0,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    faults: Optional[FaultModel] = None,
    observer: Optional[FleetObserver] = None,
    instance_offset: int = 0,
    watchdog_rounds: Optional[int] = None,
) -> FleetResult:
    """Run a fleet of independent Algorithm 3 executions.

    Args:
        id_lists: Per-instance clockwise IDs (duplicates allowed when
            ``require_unique_ids=False``, as the Theorem 3 pipeline needs).
        flip_lists: Per-instance port flips; ``None`` means all-unflipped
            rings, matching :func:`run_nonoriented`.
        scheme: :class:`~repro.core.kernels.nonoriented.IdScheme` or its
            string value (``"successor"`` / ``"doubled"``).
        faults: Optional :class:`~repro.faults.model.FaultModel` compiled
            onto both directional runs (CW channels key at base 0, CCW
            at base ``n``, matching the seeded scheduler's layout).
        observer / instance_offset / watchdog_rounds: As in
            :func:`run_warmup_fleet`; the observer sees each directional
            run separately, with direction data in the CW view slots.

    A pulse travelling clockwise arrives at node ``v``'s CCW port, so the
    governing virtual ID of the CW direction at ``v`` is
    ``virtual_ids[cw_port(v)]`` — the fleet keeps *directional* counters
    and maps them back to the port-indexed view at the end.
    """
    from repro.core.kernels import nonoriented as kernel

    resolved = _check_run(id_lists, require_unique_ids, backend, scheduler)
    B, n = len(id_lists), len(id_lists[0])
    scheme_name = getattr(scheme, "value", scheme)
    if scheme_name not in ("successor", "doubled"):
        raise ConfigurationError(f"unknown virtual-ID scheme {scheme!r}")
    id_scheme = kernel.coerce_scheme(scheme_name)
    if flip_lists is None:
        flip_lists = [[False] * n for _ in range(B)]
    flips = [[bool(f) for f in row] for row in flip_lists]
    if len(flips) != B or any(len(row) != n for row in flips):
        raise ConfigurationError("flip_lists must match id_lists in shape")
    # Ground-truth ports: cw_port(v) = 0 if flipped else 1 (ring.py).
    cw_ports = [[0 if f else 1 for f in row] for row in flips]
    vids = [[id_scheme.virtual_ids(node_id) for node_id in ids] for ids in id_lists]
    gov_cw = [[vid[p] for vid, p in zip(*row)] for row in zip(vids, cw_ports)]
    gov_ccw = [[vid[1 - p] for vid, p in zip(*row)] for row in zip(vids, cw_ports)]
    (cw, ccw), shared = _drive(
        "nonoriented", id_lists, (gov_cw, gov_ccw), resolved, scheduler, seed,
        max_rounds, faults, observer, instance_offset, watchdog_rounds,
    )
    rho_cw_rows, rho_ccw_rows = cw["rho_cw"], ccw["rho_cw"]
    # Port-indexed view + verdicts (the kernel's stabilized_verdict).
    states: List[List[Any]] = []
    labels: List[List[Optional[int]]] = []
    consistent: List[bool] = []
    for b, ports in enumerate(cw_ports):
        # CW pulses arrive at the CCW port: Port_0 when unflipped
        # (cw_port == 1), Port_1 when flipped.
        cw_rho, ccw_rho = rho_cw_rows[b], rho_ccw_rows[b]
        verdicts = [
            kernel.stabilized_verdict(
                *((ccw_rho[v], cw_rho[v]) if flips[b][v] else (cw_rho[v], ccw_rho[v])),
                vids[b][v][1],
            )
            for v in range(n)
        ]
        states.append([verdict for verdict, _ in verdicts])
        labels.append([label for _, label in verdicts])
        consistent.append(
            None not in labels[-1]
            and (labels[-1] == ports or labels[-1] == [1 - p for p in ports])
        )
    return FleetResult(
        states=states,
        leaders=_leaders(states),
        rho_cw=rho_cw_rows,
        rho_ccw=rho_ccw_rows,
        cw_port_labels=labels,
        orientation_consistent=consistent,
        flips=flips,
        sigma_cw=cw["sigma_cw"],
        sigma_ccw=ccw["sigma_cw"],
        **shared,
    )


# ---------------------------------------------------------------------------
# Theorem 3 pipeline — Algorithm 4 sampling feeding Algorithm 3, one seeded
# attempt per instance.  The per-seed RNG protocol replicates run_anonymous
# exactly (sample IDs first, then the port flips, from one random.Random).
# ---------------------------------------------------------------------------


@dataclass
class AnonymousFleetResult:
    """A fleet of Theorem-3 attempts: per-seed samples plus the election."""

    seeds: List[int]
    sampled_ids: List[List[int]]
    max_unique: List[bool]
    election: FleetResult

    @property
    def succeeded(self) -> List[bool]:
        """Per instance: exactly one leader and a consistent orientation."""
        return [
            len(self.election.leaders[b]) == 1
            and bool(self.election.orientation_consistent[b])
            for b in range(self.election.size)
        ]


def run_anonymous_fleet(
    n: int,
    seeds: Sequence[int],
    c: float = 2.0,
    scheme: Any = "successor",
    backend: str = "auto",
    scheduler: str = "lockstep",
    sched_seed: int = 0,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
) -> AnonymousFleetResult:
    """Run the Theorem-3 pipeline once per seed, as one fleet.

    Each seed drives its instance exactly like :func:`run_anonymous`:
    ``random.Random(seed)`` samples ``n`` IDs via Algorithm 4, then the
    ``n`` port flips — so per-seed samples (and hence outcomes) are
    identical between the scalar pipeline and the fleet.
    """
    from repro.ids.sampling import GeometricIdSampler, max_is_unique

    if n < 1:
        raise ConfigurationError(f"need at least one node, got n={n}")
    if not seeds:
        raise ConfigurationError("need at least one seed")
    sampler = GeometricIdSampler(c=c)
    sampled_lists: List[List[int]] = []
    flip_lists: List[List[bool]] = []
    for seed in seeds:
        rng = random.Random(seed)
        sampled_lists.append(sampler.sample_many(n, rng))
        flip_lists.append([rng.random() < 0.5 for _ in range(n)])
    election = run_nonoriented_fleet(
        sampled_lists,
        flip_lists=flip_lists,
        scheme=scheme,
        require_unique_ids=False,
        backend=backend,
        scheduler=scheduler,
        seed=sched_seed,
        max_rounds=max_rounds,
    )
    return AnonymousFleetResult(
        seeds=list(seeds),
        sampled_ids=sampled_lists,
        max_unique=[max_is_unique(ids) for ids in sampled_lists],
        election=election,
    )


@dataclass
class EarFleetResult:
    """A fleet of ear-walk elections: virtual-ring rows plus the physical view.

    The fleet simulates the graph's *oriented virtual ring* (one warm-up
    row of length ``L`` per instance — the ear kernel is Algorithm 1 over
    virtual IDs, so the whole numpy/python tier applies
    unchanged).  The physical view is reconstructed through the routing:
    per-vertex verdicts, and per-*port* pulse counters laid out in the
    topology's CSR port-offset table (``port_offsets[v] + p`` indexes
    vertex ``v``'s port ``p``).
    """

    routing: Any  # repro.core.kernels.ear.EarRouting
    virtual: FleetResult
    leaders: List[Optional[int]]
    port_rho: List[List[int]]
    port_sigma: List[List[int]]

    @property
    def size(self) -> int:
        return self.virtual.size

    @property
    def expected_leaders(self) -> List[int]:
        """Physical argmax vertex per instance (the contract's winner)."""
        return [
            max(range(len(ids)), key=lambda v: ids[v])
            for ids in self.physical_ids
        ]

    @property
    def physical_ids(self) -> List[List[int]]:
        """Recover each instance's per-vertex IDs from occurrence-0 vids."""
        stride = self.routing.stride
        firsts = [positions[0] for positions in self.routing.occurrences]
        # Occurrence 0 of vertex v carries vid = ID_v * stride exactly.
        return [[vids[j] // stride for j in firsts] for vids in self.virtual.ids]


def run_ear_fleet(
    graph: Any,
    id_lists: Sequence[Sequence[int]],
    backend: str = "auto",
    scheduler: str = "lockstep",
    seed: int = 0,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    observer: Optional[FleetObserver] = None,
    instance_offset: int = 0,
) -> EarFleetResult:
    """Run a fleet of ear-walk elections on one 2-edge-connected graph.

    All instances share the graph (hence the walk and the routing); each
    row supplies its own per-vertex IDs.  Refuses bridge-containing
    graphs with the bridge edge as witness, exactly like the engine path.

    Delegation is the whole implementation: the ear kernel *is* the
    warm-up kernel over virtual IDs, so this wires
    :func:`repro.core.kernels.ear.virtual_ids` rows into
    :func:`run_warmup_fleet` and folds the virtual outcome back through
    the routing (physical leaders, CSR per-port counters).
    """
    from repro.core.kernels import ear as ear_kernel
    from repro.graphs.connectivity import require_two_edge_connected

    _, n = _check_fleet(id_lists, unique=True)
    if n != graph.n:
        raise ConfigurationError(f"graph has {graph.n} vertices but {n} IDs were given")
    require_two_edge_connected(graph)
    routing = ear_kernel.build_routing(graph)
    vid_lists = [ear_kernel.virtual_ids(ids, routing) for ids in id_lists]
    virtual = run_warmup_fleet(
        vid_lists,
        backend=backend,
        scheduler=scheduler,
        seed=seed,
        max_rounds=max_rounds,
        observer=observer,
        instance_offset=instance_offset,
    )
    walk, topology = routing.walk, routing.topology
    leaders: List[Optional[int]] = []
    for virtual_leaders in virtual.leaders:
        vertices = {walk[j] for j in virtual_leaders}
        leaders.append(vertices.pop() if len(vertices) == 1 else None)

    def per_port(rows, ports):
        """Sum each virtual node's counter into its physical port slot."""
        slots = [topology.port_slot(v, p) for v, p in zip(walk, ports)]
        folded = []
        for row in rows:
            out = [0] * topology.total_ports
            for slot, count in zip(slots, row):
                out[slot] += count
            folded.append(out)
        return folded

    return EarFleetResult(
        routing=routing,
        virtual=virtual,
        leaders=leaders,
        port_rho=per_port(virtual.rho_cw, routing.in_ports),
        port_sigma=per_port(virtual.sigma_cw, routing.out_ports),
    )
