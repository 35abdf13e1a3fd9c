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
— this module owns *only* the round/flight/scheduler plumbing.  The
pure-Python backend runs actual kernel states (``make_state`` /
``step`` / ``drain``) per node; the NumPy backend runs the kernels'
column lowerings (``step_block_np`` / ``drain_block_np``) over the whole
fleet.  Neither backend re-implements a transition rule.

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

* ``"lockstep"`` — every round delivers all round-start in-flight pulses
  of the phase-eligible direction(s), plus a **lap-skip** fast-forward:
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
  ``(seed, instance, round, channel)``: reproducible per-instance RNG
  streams with no sequential RNG state, so the NumPy and pure-Python
  backends produce bit-identical schedules.

Statistical-checking hooks (:mod:`repro.verification.statistical`): the
terminating fleet accepts an ``observer`` called with a
:class:`FleetRoundView` after every round (post-drain, post-flight
update) and a :class:`~repro.faults.model.PulseDrop` that removes
in-flight pulses at the start of a chosen round — a seed-reproducible
"lost pulse" whose downstream invariant violations the checker must
catch.

Backends.  ``backend="numpy"`` runs the SoA kernels on NumPy arrays;
``backend="python"`` runs the same per-instance round/phase/skip logic
with scalar kernel states (instances are independent, so lockstep
across the fleet and per-instance iteration produce identical
trajectories); ``backend="auto"`` resolves through
:func:`repro.accel.resolve_backend` (numpy → python by availability);
the ``backend`` field of the result records what actually ran.  NumPy
is an optional extra (``[perf]``) — every result is defined by the
pure-Python semantics.
"""

from __future__ import annotations

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
    reproduces the exact per-instance schedule stream.
    """
    key = (
        _mix64(seed)
        + instance * _KEY_INSTANCE
        + round_index * _KEY_ROUND
        + channel * _KEY_CHANNEL
    ) & _MASK64
    return (_mix64(key) >> 32) & 1


def _np_schedule_bits(seed_mixed: int, n_instances: int, round_index: int, channels: int):
    """Vectorized :func:`schedule_bit`: bool array ``[B, channels]``."""
    u64 = _np.uint64
    with _np.errstate(over="ignore"):
        b = _np.arange(n_instances, dtype=u64)[:, None]
        c = _np.arange(channels, dtype=u64)[None, :]
        x = (
            u64(seed_mixed)
            + b * u64(_KEY_INSTANCE)
            + u64(round_index % (1 << 64)) * u64(_KEY_ROUND)
            + c * u64(_KEY_CHANNEL)
        )
        x = (x ^ (x >> u64(33))) * u64(_MIX_A)
        x = (x ^ (x >> u64(33))) * u64(_MIX_B)
        x = x ^ (x >> u64(33))
    return ((x >> u64(32)) & u64(1)).astype(bool)


def _check_scheduler(scheduler: str) -> None:
    if scheduler not in ("lockstep", "seeded"):
        raise ConfigurationError(
            f"unknown fleet scheduler {scheduler!r}; choose 'lockstep' or 'seeded'"
        )


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
    are whole-fleet diagnostics (they depend on the batching, unlike the
    per-instance outcomes, which are schedule-invariant).
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


from repro.faults.fleet import merge_events as _merge_fault_events  # noqa: E402
from repro.faults.model import FaultModel  # noqa: E402


def _fault_adapters(faults, n, algorithm):
    """Normalize the ``faults`` argument of the fleet entry points.

    Accepts None, a single :class:`~repro.faults.model.PulseDrop`, or a
    full :class:`~repro.faults.model.FaultModel`; returns one compiled
    adapter per fleet run of ``algorithm`` (see
    :func:`repro.faults.fleet.compile_fleet_faults`), or None for a no-op.
    """
    if faults is None:
        return None
    model = (
        faults
        if isinstance(faults, FaultModel)
        else FaultModel(drops=(faults,))
    )
    if model.is_noop:
        return None
    from repro.faults.fleet import compile_fleet_faults

    return compile_fleet_faults(model, n, algorithm)


def _fault_events(adapters):
    """The run's per-kind fault-event totals (None when fault-free)."""
    if adapters is None:
        return None
    return _merge_fault_events(*(adapter.events for adapter in adapters))


def _auto_watchdog(watchdog_rounds, faults, n):
    """Resolve the stuck-run watchdog: explicit value, or a generous
    default whenever faults are injected (faulted runs may never
    quiesce — spurious pulses can circulate forever)."""
    if watchdog_rounds is not None:
        return watchdog_rounds
    return 1024 + 128 * n if faults is not None else None


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


#: Per-round statistical-checking hook (see :class:`FleetRoundView`).
FleetObserver = Callable[[FleetRoundView], None]


# ---------------------------------------------------------------------------
# Algorithm 1 (warmup) — one directional instance; also Algorithm 3's halves.
#
# The round body is the warmup kernel: `step_block_np` (NumPy) or
# per-node `kernel.step` (Python) consume each node's delivered run in
# O(1); the lap-skip margins are the kernel's `skip_margin` helpers.
# ---------------------------------------------------------------------------


def _np_warmup_direction(
    gov,
    shift,
    scheduler,
    seed,
    chan_offset,
    max_rounds,
    faults=None,
    observer=None,
    instance_offset=0,
    watchdog=None,
    algorithm="warmup",
):
    """Advance a fleet of directional Algorithm-1 instances to quiescence.

    Args:
        gov: int64 ``[B, n]`` governing thresholds (real IDs for
            Algorithm 1, per-direction virtual IDs for Algorithm 3).
        shift: +1 when sends from node ``v`` fly toward ``v+1`` (the CW
            travel direction), -1 for CCW.
        chan_offset: Base channel index for the seeded schedule hash (the
            two directions of Algorithm 3 draw from disjoint streams).
        faults: Optional one-lane :class:`repro.faults.fleet.FleetFaults`
            applied at the start of every round.
        watchdog: Round bound after which still-active instances are
            marked stuck instead of raising (the recovery harness's
            deadlock detector); None disables.

    Returns:
        ``(rho, sigma, total_sent, rounds, lap_skips, stuck)``.
    """
    from repro.core.kernels import warmup as kernel

    B, n = gov.shape
    rho = _np.zeros((B, n), _np.int64)
    sigma = _np.ones((B, n), _np.int64)  # kernel.init: one pulse sent each
    flight = _np.ones((B, n), _np.int64)  # ... and one in flight toward each
    total = _np.full(B, n, _np.int64)
    seed_mixed = _mix64(seed)
    margin_inf = _np.iinfo(_np.int64).max
    stuck = _np.zeros(B, bool)
    # A row whose flight hit zero after fault application has quiesced:
    # its pure-Python twin's per-instance loop exits there, so faults must
    # never touch it again (batch composition must not alter per-instance
    # fault streams).
    done = _np.zeros(B, bool)
    if observer is not None:
        zeros = _np.zeros((B, n), _np.int64)
        falses = _np.zeros((B, n), bool)
    rounds = 0
    skips = 0
    while True:
        if faults is not None:
            total += faults.apply_np(
                _np, rounds + 1, {"rho": rho, "sigma": sigma}, (flight,),
                instance_offset, live=~done,
            )
        k = flight.sum(axis=1)
        done |= k == 0
        active = ~done
        if not active.any():
            break
        if watchdog is not None and rounds >= watchdog:
            # Deadlock/livelock watchdog: whatever is still circulating
            # will never quiesce within budget — report, don't raise.
            stuck |= active
            break
        rounds += 1
        _limit(rounds, max_rounds)
        if scheduler == "lockstep":
            # Lap-skip: L full laps are uniform as long as no node's rho
            # crosses its threshold; whenever k > 0 some node is still
            # below threshold, so the margin minimum is finite.  Fault
            # injection voids that guarantee: a row whose every node is
            # past threshold relays forever (an infinite loop the
            # watchdog will cut); suppress its skip so the int64 margin
            # sentinel cannot overflow into the counters.
            margin = kernel.skip_margins_np(_np, gov, rho)
            mmin = margin.min(axis=1)
            if faults is not None:
                mmin = _np.where(mmin == margin_inf, 0, mmin)
            if faults is None or faults.allow_skips:
                laps = _np.where(active, mmin // _np.maximum(k, 1), 0)
                do = laps >= 1
                if do.any():
                    skips += 1
                    add = (laps * k)[:, None] * do[:, None]
                    rho += add
                    sigma += add
                    total += do * (laps * k * n)
            delivered = flight
            flight = _np.zeros_like(flight)
        else:
            mask = _np_schedule_bits(seed_mixed, B, rounds, chan_offset + n)[
                :, chan_offset:
            ]
            delivered = flight * mask
            # Progress guarantee: an active instance whose drawn subset
            # holds no pulse delivers everything this round instead.
            starved = active & (delivered.sum(axis=1) == 0)
            delivered = _np.where(starved[:, None], flight, delivered)
            flight = flight - delivered
        rho, relays = kernel.step_block_np(_np, gov, rho, delivered)
        sigma += relays
        flight += _np.roll(relays, shift, axis=1)
        total += relays.sum(axis=1)
        if observer is not None:
            observer(
                FleetRoundView(
                    algorithm=algorithm,
                    backend="numpy",
                    round_index=rounds,
                    instance_offset=instance_offset,
                    ids=gov,
                    rho_cw=rho,
                    sigma_cw=sigma,
                    pend_cw=zeros,
                    flight_cw=flight,
                    rho_ccw=zeros,
                    sigma_ccw=zeros,
                    pend_ccw=zeros,
                    flight_ccw=zeros,
                    term_sent=falses,
                    terminated=falses,
                )
            )
    return rho, sigma, total, rounds, skips, stuck


def _py_warmup_direction_one(
    gov,
    shift,
    scheduler,
    seed,
    chan_offset,
    max_rounds,
    instance,
    faults=None,
    observer=None,
    instance_offset=0,
    watchdog=None,
    algorithm="warmup",
):
    """Scalar twin of :func:`_np_warmup_direction` for one instance,
    driving per-node warmup kernel states.  ``instance`` is the local
    row (the seeded scheduler's historical keying); fault rolls use the
    global index ``instance_offset + instance``."""
    from repro.core.common import CW_ARRIVAL_PORT
    from repro.core.kernels import warmup as kernel

    n = len(gov)
    states = [kernel.make_state(g) for g in gov]
    flight = [0] * n
    total = 0
    for v, st in enumerate(states):
        _, emissions, _ = kernel.init(st)
        for _port, cnt in emissions:
            flight[(v + shift) % n] += cnt
            total += cnt
    stuck = False
    rounds = 0
    skips = 0
    while True:
        if faults is not None:
            total += faults.apply_py(
                rounds + 1, instance_offset + instance, gov, states, (flight,),
                kernel,
            )
        k = sum(flight)
        if k == 0:
            break
        if watchdog is not None and rounds >= watchdog:
            stuck = True
            break
        rounds += 1
        _limit(rounds, max_rounds)
        if scheduler == "lockstep":
            finite = [
                m
                for m in (kernel.skip_margin(st.node_id, st.rho_cw) for st in states)
                if m is not None
            ]
            # Empty only under faults: every node past threshold relays
            # forever (the watchdog cuts the loop); no skip to take.
            margin = min(finite) if finite else 0
            laps = margin // k
            if laps >= 1 and (faults is None or faults.allow_skips):
                skips += 1
                add = laps * k
                for st in states:
                    kernel.apply_laps(st, add)
                total += add * n
            delivered = flight
            flight = [0] * n
        else:
            delivered = [
                flight[v]
                if schedule_bit(seed, instance, rounds, chan_offset + v)
                else 0
                for v in range(n)
            ]
            if sum(delivered) == 0:
                delivered = flight
                flight = [0] * n
            else:
                flight = [flight[v] - delivered[v] for v in range(n)]
        # Sends enter the flight array directly: `delivered` is a
        # round-start snapshot, so nothing lands before the next round.
        for v in range(n):
            count = delivered[v]
            if not count:
                continue
            _, emissions, _ = kernel.step(states[v], CW_ARRIVAL_PORT, count)
            for _port, cnt in emissions:
                flight[(v + shift) % n] += cnt
                total += cnt
        if observer is not None:
            zeros = [[0] * n]
            falses = [[False] * n]
            observer(
                FleetRoundView(
                    algorithm=algorithm,
                    backend="python",
                    round_index=rounds,
                    instance_offset=instance_offset + instance,
                    ids=[list(gov)],
                    rho_cw=[[st.rho_cw for st in states]],
                    sigma_cw=[[st.sigma_cw for st in states]],
                    pend_cw=zeros,
                    flight_cw=[list(flight)],
                    rho_ccw=zeros,
                    sigma_ccw=zeros,
                    pend_ccw=zeros,
                    flight_ccw=zeros,
                    term_sent=falses,
                    terminated=falses,
                )
            )
    rho = [st.rho_cw for st in states]
    sigma = [st.sigma_cw for st in states]
    return rho, sigma, total, rounds, skips, stuck


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

    _check_scheduler(scheduler)
    resolved = resolve_backend(backend)
    _, n = _check_fleet(id_lists, unique=False)
    adapters = _fault_adapters(faults, n, "warmup")
    (adapter,) = adapters or (None,)
    watchdog = _auto_watchdog(watchdog_rounds, adapters, n)
    if resolved == "numpy":
        gov = _np.asarray(id_lists, dtype=_np.int64)
        rho, sigma, total, rounds, skips, stuck = _np_warmup_direction(
            gov, +1, scheduler, seed, 0, max_rounds,
            faults=adapter, observer=observer,
            instance_offset=instance_offset, watchdog=watchdog,
        )
        rho_rows = rho.tolist()
        sigma_rows = sigma.tolist()
        totals = total.tolist()
        unfinished = stuck.tolist()
    else:
        rho_rows, sigma_rows, totals, unfinished = [], [], [], []
        rounds = skips = 0
        for b, ids in enumerate(id_lists):
            rho_b, sigma_b, total_b, rounds_b, skips_b, stuck_b = (
                _py_warmup_direction_one(
                    list(ids), +1, scheduler, seed, 0, max_rounds, b,
                    faults=adapter, observer=observer,
                    instance_offset=instance_offset, watchdog=watchdog,
                )
            )
            rho_rows.append(rho_b)
            sigma_rows.append(sigma_b)
            totals.append(total_b)
            unfinished.append(stuck_b)
            rounds = max(rounds, rounds_b)
            skips += skips_b
    states = [
        [
            kernel.stabilized_state(node_id, rho_v)
            for rho_v, node_id in zip(rho_b, ids)
        ]
        for rho_b, ids in zip(rho_rows, id_lists)
    ]
    from repro.core.common import LeaderState

    return FleetResult(
        algorithm="warmup",
        backend=resolved,
        scheduler=scheduler,
        ids=[list(ids) for ids in id_lists],
        leaders=[
            [v for v, s in enumerate(row) if s is LeaderState.LEADER]
            for row in states
        ],
        states=states,
        total_pulses=totals,
        rho_cw=rho_rows,
        sigma_cw=sigma_rows,
        rounds=rounds,
        lap_skips=skips,
        unfinished=unfinished,
        fault_events=_fault_events(adapters),
    )


# ---------------------------------------------------------------------------
# Algorithm 2 (terminating) — CW warmup + lagged CCW instance + termination.
#
# Lockstep schedule: each instance delivers only CW pulses until its CW
# instance completes (CCW pulses stall in their channels — a legal
# adversary), then delivers CCW.  This keeps the lap-skip applicable in
# both halves: during the CW half the stalled CCW population is constant,
# and during the CCW half every gate is open (k_cw == 0 means all n CW
# absorptions happened, so rho_cw >= ID everywhere) and the exit
# threshold rho_cw is static.  The margins are the terminating kernel's
# `cw_skip_margin` / `ccw_skip_margin` (the CCW one keeps rho_ccw <=
# rho_cw so neither the line-14 trigger nor the line-18 exit can fire
# mid-skip); skips are disabled once any term pulse is sent.
#
# Both directions' deliveries are buffered into the kernel pendings and
# then drained ONCE per round: draining between the directions would be
# a different legal schedule, and the differential tests pin this one.
# ---------------------------------------------------------------------------


def _np_hop_skip(np_mod, flight, margins, cand, backward):
    """Intra-lap fast-forward: collapse the largest crossing-free hop run.

    The whole-lap skip above jumps ``L`` full laps but still pays up to a
    full lap of rounds (``n`` hops) to reach the next threshold crossing
    — that residual is what makes lockstep rounds scale like ``n^2`` per
    instance.  This helper removes it: after ``H < n`` consecutive
    all-deliver rounds with no branch crossing, node ``v`` has received
    the window sum of ``flight`` over the ``H`` channels upstream of it
    (``backward=True`` when sends roll ``+1``, i.e. CW travel; ``False``
    for CCW) and the flight array is the original rolled by ``H`` — so
    those rounds are one closed-form update.  ``H`` is the largest value
    whose window sums stay within ``margins`` at every node; window sums
    are nondecreasing in ``H``, so per-instance bisection over prefix
    sums of the doubled flight array finds it.  Rows outside ``cand``
    get ``H = 0``.  Returns ``(H, gains, flight_after)`` or ``None``
    when no row can advance.
    """
    B, n = flight.shape
    if n < 2:
        return None
    doubled = np_mod.concatenate([flight, flight], axis=1)
    csum = np_mod.concatenate(
        [np_mod.zeros((B, 1), np_mod.int64), np_mod.cumsum(doubled, axis=1)],
        axis=1,
    )
    pos = np_mod.arange(n)
    if backward:
        window_end = csum[:, n + 1 : 2 * n + 1]  # C[v + n + 1], fixed per v

    def window_gains(hops):
        if backward:
            idx = pos[None, :] + (n + 1) - hops[:, None]
            return window_end - np_mod.take_along_axis(csum, idx, axis=1)
        idx = pos[None, :] + hops[:, None]
        return np_mod.take_along_axis(csum, idx, axis=1) - csum[:, :n]

    lo = np_mod.zeros(B, np_mod.int64)
    hi = np_mod.where(cand, n - 1, 0)
    for _ in range(int(n - 1).bit_length()):
        mid = np_mod.maximum((lo + hi + 1) // 2, 0)
        ok = (mid >= 1) & (window_gains(mid) <= margins).all(axis=1)
        lo = np_mod.where(ok, mid, lo)
        hi = np_mod.where(ok, hi, mid - 1)
    if not (lo > 0).any():
        return None
    gains = window_gains(lo)
    shift = -lo[:, None] if backward else lo[:, None]
    flight_after = np_mod.take_along_axis(flight, (pos[None, :] + shift) % n, axis=1)
    return lo, gains, flight_after


def _np_terminating(
    ids,
    scheduler,
    seed,
    max_rounds,
    observer=None,
    faults=None,
    instance_offset=0,
    watchdog=None,
):
    from repro.core.kernels import terminating as kernel

    B, n = ids.shape
    cols = kernel.TerminatingColumns.fresh(_np, ids)
    cw_flight = _np.ones((B, n), _np.int64)  # on_init: one CW pulse toward each
    ccw_flight = _np.zeros((B, n), _np.int64)
    total = _np.full(B, n, _np.int64)
    ignored = 0
    seed_mixed = _mix64(seed)
    margin_inf = _np.iinfo(_np.int64).max
    stuck = _np.zeros(B, bool)
    # Quiesced rows are frozen for fault purposes — see _np_warmup_direction.
    done = _np.zeros(B, bool)

    rounds = 0
    skips = 0
    while True:
        if faults is not None:
            total += faults.apply_np(
                _np, rounds + 1, vars(cols), (cw_flight, ccw_flight),
                instance_offset, live=~done,
            )
        k_cw = cw_flight.sum(axis=1)
        k_ccw = ccw_flight.sum(axis=1)
        done |= (k_cw + k_ccw) == 0
        active = ~done
        if not active.any():
            break
        if watchdog is not None and rounds >= watchdog:
            stuck |= active
            break
        rounds += 1
        _limit(rounds, max_rounds)
        if scheduler == "lockstep":
            skippable = ~cols.term_sent.any(axis=1) & ~cols.terminated.any(axis=1)
            if faults is not None and not faults.allow_skips:
                skippable &= False
            phase_cw = k_cw > 0
            phase_ccw = ~phase_cw & (k_ccw > 0)
            cand = phase_cw & skippable
            if cand.any():
                margin = kernel.cw_skip_margins_np(_np, ids, cols.rho_cw)
                mmin = margin.min(axis=1)
                if faults is not None:
                    # Under injection every node may sit past threshold
                    # (infinite relay; the watchdog cuts it) — suppress
                    # the skip so the sentinel cannot overflow.
                    mmin = _np.where(mmin == margin_inf, 0, mmin)
                laps = _np.where(cand, mmin // _np.maximum(k_cw, 1), 0)
                do = laps >= 1
                if do.any():
                    skips += 1
                    add = (laps * k_cw)[:, None] * do[:, None]
                    cols.rho_cw += add
                    cols.sigma_cw += add
                    total += do * (laps * k_cw * n)
                    margin = margin - add
                hop = _np_hop_skip(_np, cw_flight, margin, cand, backward=True)
                if hop is not None:
                    skips += 1
                    _, gains, cw_flight = hop
                    cols.rho_cw += gains
                    cols.sigma_cw += gains
                    total += gains.sum(axis=1)
            cand = phase_ccw & skippable
            if cand.any():
                margin = kernel.ccw_skip_margins_np(_np, ids, cols.rho_cw, cols.rho_ccw)
                laps = _np.where(cand, margin.min(axis=1) // _np.maximum(k_ccw, 1), 0)
                do = laps >= 1
                if do.any():
                    skips += 1
                    add = (laps * k_ccw)[:, None] * do[:, None]
                    cols.rho_ccw += add
                    cols.sigma_ccw += add
                    total += do * (laps * k_ccw * n)
                    margin = margin - add
                hop = _np_hop_skip(_np, ccw_flight, margin, cand, backward=False)
                if hop is not None:
                    skips += 1
                    _, gains, ccw_flight = hop
                    cols.rho_ccw += gains
                    cols.sigma_ccw += gains
                    total += gains.sum(axis=1)
            deliver_cw = cw_flight
            cw_flight = _np.zeros_like(cw_flight)
            deliver_ccw = ccw_flight * phase_ccw[:, None]
            ccw_flight = ccw_flight * ~phase_ccw[:, None]
        else:
            mask = _np_schedule_bits(seed_mixed, B, rounds, 2 * n)
            deliver_cw = cw_flight * mask[:, :n]
            deliver_ccw = ccw_flight * mask[:, n:]
            forced = active & ((deliver_cw.sum(axis=1) + deliver_ccw.sum(axis=1)) == 0)
            deliver_cw = _np.where(forced[:, None], cw_flight, deliver_cw)
            deliver_ccw = _np.where(forced[:, None], ccw_flight, deliver_ccw)
            cw_flight = cw_flight - deliver_cw
            ccw_flight = ccw_flight - deliver_ccw
        # Deliveries to terminated nodes are ignored (the model: a
        # terminated node reacts to nothing); Algorithm 2's quiescent
        # termination guarantees this count stays zero.
        dropped = (deliver_cw + deliver_ccw) * cols.terminated
        if dropped.any():
            ignored += int(dropped.sum())
            deliver_cw = deliver_cw * ~cols.terminated
            deliver_ccw = deliver_ccw * ~cols.terminated
        cols.pend_cw += deliver_cw
        cols.pend_ccw += deliver_ccw
        kernel.drain_block_np(_np, cols)
        cw_flight += _np.roll(cols.sends_cw, 1, axis=1)
        ccw_flight += _np.roll(cols.sends_ccw, -1, axis=1)
        total += cols.sends_cw.sum(axis=1) + cols.sends_ccw.sum(axis=1)
        cols.sends_cw[:] = 0
        cols.sends_ccw[:] = 0
        if observer is not None:
            observer(
                FleetRoundView(
                    algorithm="terminating",
                    backend="numpy",
                    round_index=rounds,
                    instance_offset=instance_offset,
                    ids=ids,
                    rho_cw=cols.rho_cw,
                    sigma_cw=cols.sigma_cw,
                    pend_cw=cols.pend_cw,
                    flight_cw=cw_flight,
                    rho_ccw=cols.rho_ccw,
                    sigma_ccw=cols.sigma_ccw,
                    pend_ccw=cols.pend_ccw,
                    flight_ccw=ccw_flight,
                    term_sent=cols.term_sent,
                    terminated=cols.terminated,
                )
            )
    ignored += int((cols.pend_cw + cols.pend_ccw)[cols.terminated].sum())
    return cols, total, rounds, skips, ignored, stuck


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
    gains = [0] * n
    hops = 0
    while hops < n - 1:
        nxt = hops + 1
        trial = []
        for v in range(n):
            src = (v - nxt + 1) % n if backward else (v + nxt - 1) % n
            g = gains[v] + flight[src]
            if g > margins[v]:
                trial = None
                break
            trial.append(g)
        if trial is None:
            break
        gains = trial
        hops = nxt
    if hops == 0:
        return 0, None, flight
    if backward:
        flight_after = [flight[(v - hops) % n] for v in range(n)]
    else:
        flight_after = [flight[(v + hops) % n] for v in range(n)]
    return hops, gains, flight_after


def _py_terminating_one(
    ids,
    scheduler,
    seed,
    max_rounds,
    instance,
    observer=None,
    faults=None,
    instance_offset=0,
    watchdog=None,
):
    """Scalar twin of :func:`_np_terminating` for one instance, driving
    per-node terminating kernel states."""
    from repro.core.common import CW_SEND_PORT, LeaderState
    from repro.core.kernels import terminating as kernel

    n = len(ids)
    states = [kernel.make_state(node_id) for node_id in ids]
    cw_flight = [0] * n
    ccw_flight = [0] * n
    sends_cw = [0] * n
    sends_ccw = [0] * n
    total = 0
    ignored = 0

    def buffer_emissions(v, emissions):
        for port, cnt in emissions:
            if port == CW_SEND_PORT:
                sends_cw[v] += cnt
            else:
                sends_ccw[v] += cnt

    for v, st in enumerate(states):
        _, emissions, _ = kernel.init(st)
        buffer_emissions(v, emissions)

    def flush_sends():
        nonlocal total
        for v in range(n):
            if sends_cw[v]:
                cw_flight[(v + 1) % n] += sends_cw[v]
                total += sends_cw[v]
                sends_cw[v] = 0
            if sends_ccw[v]:
                ccw_flight[(v - 1) % n] += sends_ccw[v]
                total += sends_ccw[v]
                sends_ccw[v] = 0

    flush_sends()

    stuck = False
    rounds = 0
    skips = 0
    while True:
        if faults is not None:
            total += faults.apply_py(
                rounds + 1,
                instance_offset + instance,
                ids,
                states,
                (cw_flight, ccw_flight),
                kernel,
            )
        k_cw = sum(cw_flight)
        k_ccw = sum(ccw_flight)
        if k_cw + k_ccw == 0:
            break
        if watchdog is not None and rounds >= watchdog:
            stuck = True
            break
        rounds += 1
        _limit(rounds, max_rounds)
        if scheduler == "lockstep":
            skippable = not any(st.term_pulse_sent for st in states) and not any(
                st.terminated for st in states
            )
            if faults is not None and not faults.allow_skips:
                skippable = False
            if skippable and k_cw > 0:
                margins = [
                    kernel.cw_skip_margin(st.node_id, st.rho_cw) for st in states
                ]
                margins = [_MARGIN_INF if m is None else m for m in margins]
                mmin = min(margins)
                if faults is not None and mmin >= _MARGIN_INF:
                    # All nodes past threshold: infinite relay loop (the
                    # watchdog cuts it); no legal skip (NumPy twin).
                    mmin = 0
                laps = mmin // k_cw
                if laps >= 1:
                    skips += 1
                    add = laps * k_cw
                    for st in states:
                        kernel.apply_cw_laps(st, add)
                    total += add * n
                    margins = [m - add for m in margins]
                hops, gains, cw_flight = _py_hop_skip(
                    cw_flight, margins, backward=True
                )
                if hops:
                    skips += 1
                    for v, st in enumerate(states):
                        kernel.apply_cw_laps(st, gains[v])
                    total += sum(gains)
            elif skippable and k_ccw > 0:
                margins = [
                    kernel.ccw_skip_margin(st.node_id, st.rho_cw, st.rho_ccw)
                    for st in states
                ]
                laps = min(margins) // k_ccw
                if laps >= 1:
                    skips += 1
                    add = laps * k_ccw
                    for st in states:
                        kernel.apply_ccw_laps(st, add)
                    total += add * n
                    margins = [m - add for m in margins]
                hops, gains, ccw_flight = _py_hop_skip(
                    ccw_flight, margins, backward=False
                )
                if hops:
                    skips += 1
                    for v, st in enumerate(states):
                        kernel.apply_ccw_laps(st, gains[v])
                    total += sum(gains)
            deliver_cw = cw_flight
            cw_flight = [0] * n
            if k_cw > 0:
                deliver_ccw = [0] * n
            else:
                deliver_ccw = ccw_flight
                ccw_flight = [0] * n
        else:
            deliver_cw = [
                cw_flight[v] if schedule_bit(seed, instance, rounds, v) else 0
                for v in range(n)
            ]
            deliver_ccw = [
                ccw_flight[v] if schedule_bit(seed, instance, rounds, n + v) else 0
                for v in range(n)
            ]
            if sum(deliver_cw) + sum(deliver_ccw) == 0:
                deliver_cw, cw_flight = cw_flight, [0] * n
                deliver_ccw, ccw_flight = ccw_flight, [0] * n
            else:
                cw_flight = [cw_flight[v] - deliver_cw[v] for v in range(n)]
                ccw_flight = [ccw_flight[v] - deliver_ccw[v] for v in range(n)]
        # Buffer both directions, then drain once per node (see the
        # section comment); drains without fresh deliveries are no-ops.
        for v, st in enumerate(states):
            if st.terminated:
                ignored += deliver_cw[v] + deliver_ccw[v]
                continue
            st.pending_cw += deliver_cw[v]
            st.pending_ccw += deliver_ccw[v]
        for v, st in enumerate(states):
            if st.terminated:
                continue
            emissions, verdict = kernel.drain(st)
            buffer_emissions(v, emissions)
            if verdict is not None:
                st.terminated = True
        flush_sends()
        if observer is not None:
            observer(
                FleetRoundView(
                    algorithm="terminating",
                    backend="python",
                    round_index=rounds,
                    instance_offset=instance_offset + instance,
                    ids=[list(ids)],
                    rho_cw=[[st.rho_cw for st in states]],
                    sigma_cw=[[st.sigma_cw for st in states]],
                    pend_cw=[[st.pending_cw for st in states]],
                    flight_cw=[list(cw_flight)],
                    rho_ccw=[[st.rho_ccw for st in states]],
                    sigma_ccw=[[st.sigma_ccw for st in states]],
                    pend_ccw=[[st.pending_ccw for st in states]],
                    flight_ccw=[list(ccw_flight)],
                    term_sent=[[st.term_pulse_sent for st in states]],
                    terminated=[[st.terminated for st in states]],
                )
            )
    ignored += sum(
        st.pending_cw + st.pending_ccw for st in states if st.terminated
    )
    # A terminated node's verdict is its state at the line-19 exit (the
    # drain's return value); nothing touches it afterwards.
    out_leader = [
        st.terminated and st.state is LeaderState.LEADER for st in states
    ]
    return states, out_leader, total, rounds, skips, ignored, stuck


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
    :func:`run_warmup_fleet` for the shared parameters.

    Statistical-checking hooks: ``observer`` is called with a
    :class:`FleetRoundView` after every round; ``faults`` accepts a full
    :class:`~repro.faults.model.FaultModel` or a single
    :class:`~repro.faults.model.PulseDrop`; ``instance_offset`` shifts the
    global instance indices reported to both (sharded runs);
    ``watchdog_rounds`` bounds stuck runs (see :func:`run_warmup_fleet`).
    """
    from repro.core.common import LeaderState

    _check_scheduler(scheduler)
    resolved = resolve_backend(backend)
    _, n = _check_fleet(id_lists, unique=True)
    adapters = _fault_adapters(faults, n, "terminating")
    (adapter,) = adapters or (None,)
    watchdog = _auto_watchdog(watchdog_rounds, adapters, n)
    if resolved == "numpy":
        ids_arr = _np.asarray(id_lists, dtype=_np.int64)
        cols, total, rounds, skips, ignored, stuck = _np_terminating(
            ids_arr,
            scheduler,
            seed,
            max_rounds,
            observer=observer,
            faults=adapter,
            instance_offset=instance_offset,
            watchdog=watchdog,
        )
        rho_cw_rows = cols.rho_cw.tolist()
        rho_ccw_rows = cols.rho_ccw.tolist()
        sigma_cw_rows = cols.sigma_cw.tolist()
        sigma_ccw_rows = cols.sigma_ccw.tolist()
        leader_rows = cols.out_leader.tolist()
        term_rows = cols.terminated.tolist()
        term_sent_rows = cols.term_sent.tolist()
        totals = total.tolist()
        unfinished = stuck.tolist()
    else:
        rho_cw_rows, rho_ccw_rows, leader_rows, term_rows, totals = [], [], [], [], []
        sigma_cw_rows, sigma_ccw_rows, term_sent_rows = [], [], []
        unfinished = []
        rounds = skips = ignored = 0
        for b, ids in enumerate(id_lists):
            states, out_b, total_b, rounds_b, skips_b, ignored_b, stuck_b = (
                _py_terminating_one(
                    list(ids),
                    scheduler,
                    seed,
                    max_rounds,
                    b,
                    observer=observer,
                    faults=adapter,
                    instance_offset=instance_offset,
                    watchdog=watchdog,
                )
            )
            rho_cw_rows.append([st.rho_cw for st in states])
            rho_ccw_rows.append([st.rho_ccw for st in states])
            sigma_cw_rows.append([st.sigma_cw for st in states])
            sigma_ccw_rows.append([st.sigma_ccw for st in states])
            term_sent_rows.append([st.term_pulse_sent for st in states])
            leader_rows.append(out_b)
            term_rows.append([st.terminated for st in states])
            totals.append(total_b)
            unfinished.append(stuck_b)
            rounds = max(rounds, rounds_b)
            skips += skips_b
            ignored += ignored_b
    states_rows = [
        [
            LeaderState.LEADER if is_leader else LeaderState.NON_LEADER
            for is_leader in row
        ]
        for row in leader_rows
    ]
    return FleetResult(
        algorithm="terminating",
        backend=resolved,
        scheduler=scheduler,
        ids=[list(ids) for ids in id_lists],
        leaders=[[v for v, flag in enumerate(row) if flag] for row in leader_rows],
        states=states_rows,
        total_pulses=totals,
        rho_cw=rho_cw_rows,
        rho_ccw=rho_ccw_rows,
        terminated=term_rows,
        rounds=rounds,
        lap_skips=skips,
        ignored_deliveries=ignored,
        sigma_cw=sigma_cw_rows,
        sigma_ccw=sigma_ccw_rows,
        term_pulse_sent=term_sent_rows,
        unfinished=unfinished,
        fault_events=_fault_events(adapters),
    )


# ---------------------------------------------------------------------------
# Algorithm 3 (non-oriented) — two independent directional warmup-kernel
# instances over per-direction virtual IDs; verdict/orientation are the
# kernel's `stabilized_verdict`, a pure function of the final counters.
# ---------------------------------------------------------------------------


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
    from repro.core.common import LeaderState
    from repro.core.kernels import nonoriented as kernel

    _check_scheduler(scheduler)
    resolved = resolve_backend(backend)
    B, n = _check_fleet(id_lists, unique=require_unique_ids)
    adapters = _fault_adapters(faults, n, "nonoriented")
    adapter_cw, adapter_ccw = adapters or (None, None)
    watchdog = _auto_watchdog(watchdog_rounds, adapters, n)
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
    gov_cw = [
        [id_scheme.virtual_ids(ids[v])[cw_ports[b][v]] for v in range(n)]
        for b, ids in enumerate(id_lists)
    ]
    gov_ccw = [
        [id_scheme.virtual_ids(ids[v])[1 - cw_ports[b][v]] for v in range(n)]
        for b, ids in enumerate(id_lists)
    ]
    if resolved == "numpy":
        rho_cw, sigma_cw, total_cw, rounds_cw, skips_cw, stuck_cw = (
            _np_warmup_direction(
                _np.asarray(gov_cw, dtype=_np.int64), +1, scheduler, seed, 0,
                max_rounds, faults=adapter_cw, observer=observer,
                instance_offset=instance_offset, watchdog=watchdog,
                algorithm="nonoriented",
            )
        )
        rho_ccw, sigma_ccw, total_ccw, rounds_ccw, skips_ccw, stuck_ccw = (
            _np_warmup_direction(
                _np.asarray(gov_ccw, dtype=_np.int64), -1, scheduler, seed, n,
                max_rounds, faults=adapter_ccw, observer=observer,
                instance_offset=instance_offset, watchdog=watchdog,
                algorithm="nonoriented",
            )
        )
        rho_cw_rows = rho_cw.tolist()
        rho_ccw_rows = rho_ccw.tolist()
        sigma_cw_rows = sigma_cw.tolist()
        sigma_ccw_rows = sigma_ccw.tolist()
        totals = (total_cw + total_ccw).tolist()
        rounds = rounds_cw + rounds_ccw
        skips = skips_cw + skips_ccw
        unfinished = (stuck_cw | stuck_ccw).tolist()
    else:
        rho_cw_rows, rho_ccw_rows, totals = [], [], []
        sigma_cw_rows, sigma_ccw_rows = [], []
        unfinished = []
        rounds = skips = 0
        for b in range(B):
            rho_cw_b, sigma_cw_b, total_cw_b, rounds_a, skips_a, stuck_a = (
                _py_warmup_direction_one(
                    gov_cw[b], +1, scheduler, seed, 0, max_rounds, b,
                    faults=adapter_cw, observer=observer,
                    instance_offset=instance_offset, watchdog=watchdog,
                    algorithm="nonoriented",
                )
            )
            rho_ccw_b, sigma_ccw_b, total_ccw_b, rounds_b, skips_b, stuck_b = (
                _py_warmup_direction_one(
                    gov_ccw[b], -1, scheduler, seed, n, max_rounds, b,
                    faults=adapter_ccw, observer=observer,
                    instance_offset=instance_offset, watchdog=watchdog,
                    algorithm="nonoriented",
                )
            )
            rho_cw_rows.append(rho_cw_b)
            rho_ccw_rows.append(rho_ccw_b)
            sigma_cw_rows.append(sigma_cw_b)
            sigma_ccw_rows.append(sigma_ccw_b)
            totals.append(total_cw_b + total_ccw_b)
            unfinished.append(stuck_a or stuck_b)
            rounds = max(rounds, rounds_a + rounds_b)
            skips += skips_a + skips_b
    # Port-indexed view + verdicts (the kernel's stabilized_verdict).
    states: List[List[Any]] = []
    labels: List[List[Optional[int]]] = []
    consistent: List[bool] = []
    for b, ids in enumerate(id_lists):
        row_states: List[Any] = []
        row_labels: List[Optional[int]] = []
        for v in range(n):
            # CW pulses arrive at the CCW port; with cw_port==1 (unflipped)
            # that is Port_0, with cw_port==0 (flipped) it is Port_1.
            if flips[b][v]:
                rho0, rho1 = rho_ccw_rows[b][v], rho_cw_rows[b][v]
            else:
                rho0, rho1 = rho_cw_rows[b][v], rho_ccw_rows[b][v]
            id_one = id_scheme.virtual_ids(ids[v])[1]
            verdict, label = kernel.stabilized_verdict(rho0, rho1, id_one)
            row_states.append(verdict)
            row_labels.append(label)
        states.append(row_states)
        labels.append(row_labels)
        if any(label is None for label in row_labels):
            consistent.append(False)
        else:
            consistent.append(
                all(row_labels[v] == cw_ports[b][v] for v in range(n))
                or all(row_labels[v] == 1 - cw_ports[b][v] for v in range(n))
            )
    return FleetResult(
        algorithm="nonoriented",
        backend=resolved,
        scheduler=scheduler,
        ids=[list(ids) for ids in id_lists],
        leaders=[
            [v for v, s in enumerate(row) if s is LeaderState.LEADER]
            for row in states
        ],
        states=states,
        total_pulses=totals,
        rho_cw=rho_cw_rows,
        rho_ccw=rho_ccw_rows,
        cw_port_labels=labels,
        orientation_consistent=consistent,
        flips=flips,
        rounds=rounds,
        lap_skips=skips,
        sigma_cw=sigma_cw_rows,
        sigma_ccw=sigma_ccw_rows,
        unfinished=unfinished,
        fault_events=_fault_events(adapters),
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
    faults: Optional[FaultModel] = None,
    observer: Optional[FleetObserver] = None,
    instance_offset: int = 0,
    watchdog_rounds: Optional[int] = None,
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
    from repro.core.common import validate_positive_ids, validate_unique_ids
    from repro.core.kernels import ear as ear_kernel
    from repro.graphs.connectivity import require_two_edge_connected

    if not id_lists:
        raise ConfigurationError("need at least one instance")
    for ids in id_lists:
        validate_positive_ids(ids)
        validate_unique_ids(ids)
        if len(ids) != graph.n:
            raise ConfigurationError(
                f"graph has {graph.n} vertices but {len(ids)} IDs were given"
            )
    require_two_edge_connected(graph)
    routing = ear_kernel.build_routing(graph)
    vid_lists = [ear_kernel.virtual_ids(ids, routing) for ids in id_lists]
    virtual = run_warmup_fleet(
        vid_lists,
        backend=backend,
        scheduler=scheduler,
        seed=seed,
        max_rounds=max_rounds,
        faults=faults,
        observer=observer,
        instance_offset=instance_offset,
        watchdog_rounds=watchdog_rounds,
    )
    walk = routing.walk
    topology = routing.topology
    leaders: List[Optional[int]] = []
    for virtual_leaders in virtual.leaders:
        vertices = sorted({walk[j] for j in virtual_leaders})
        leaders.append(vertices[0] if len(vertices) == 1 else None)
    total_ports = topology.total_ports
    port_rho: List[List[int]] = []
    port_sigma: List[List[int]] = []
    in_slots = [
        topology.port_slot(walk[j], routing.in_ports[j])
        for j in range(routing.length)
    ]
    out_slots = [
        topology.port_slot(walk[j], routing.out_ports[j])
        for j in range(routing.length)
    ]
    sigma_rows = virtual.sigma_cw or [[0] * routing.length] * virtual.size
    for b in range(virtual.size):
        rho_row = [0] * total_ports
        sigma_row = [0] * total_ports
        for j in range(routing.length):
            rho_row[in_slots[j]] += virtual.rho_cw[b][j]
            sigma_row[out_slots[j]] += sigma_rows[b][j]
        port_rho.append(rho_row)
        port_sigma.append(sigma_row)
    return EarFleetResult(
        routing=routing,
        virtual=virtual,
        leaders=leaders,
        port_rho=port_rho,
        port_sigma=port_sigma,
    )
