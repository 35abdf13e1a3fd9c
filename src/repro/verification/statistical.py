"""Statistical model checking over fleet-sampled schedules.

The exhaustive explorers (:mod:`repro.verification.explorer`,
:mod:`repro.verification.reduced`) certify *every* schedule of one small
instance.  This module attacks the complementary regime — instances far
too large to enumerate — by sampling: it draws millions of random ID
assignments, runs each through the vectorized fleet engine
(:mod:`repro.simulator.fleet`), evaluates the executable-lemma battery
(:mod:`repro.core.invariants`, column forms) at every fleet round plus
the end-state contract, and reports the invariant pass-rate with an
exact Clopper–Pearson confidence interval
(:func:`repro.analysis.stats.clopper_pearson_interval`).

Two algorithms are covered:

* ``"terminating"`` (Algorithm 2): Theorem 1's end state — every node
  terminated, the unique maximal-ID leader elected, and exactly
  :math:`n(2\\,\\mathsf{ID}_{max}+1)` pulses spent.
* ``"nonoriented"`` (Algorithm 3, successor IDs): the *stabilized
  verdict* contract of Theorem 2 — at quiescence every node is decided
  (via the kernel's ``stabilized_verdict``), the unique maximal-ID node
  is the one leader, all nodes agree on a ring orientation, and the
  exact pulse bound :math:`n(2\\,\\mathsf{ID}_{max}+1)` holds.

Everything is a pure function of ``(seed, sched_seed)``:

* sample ``index`` gets the ID assignment
  :func:`ids_for_instance` ``(seed, index, n, id_max)`` and (for the
  non-oriented ring) the port flips :func:`flips_for_instance` — both
  counter-based derivations, independent of block sharding and process
  count;
* the fleet's seeded scheduler (when selected) is already counter-based;
* injected faults (:mod:`repro.faults`) roll counter-based per-pulse
  decisions keyed on the *global* sample index.

So a violation found at sample ``index`` is *replayable*: the returned
:class:`Counterexample` carries everything needed to re-run exactly that
instance (:meth:`Counterexample.replay`) and re-raise the violation.

Violation localization.  The fleet simulates a block of ``B`` instances
at once, and a column invariant raises for the whole block.  The checker
then bisects the failing block — re-running halves until single
instances — which costs ``O(log B)`` extra fleet runs per violating
instance and attributes pass/fail exactly.  With many violations, the
search stops after ``max_counterexamples`` are localized and counts the
remaining failing sub-blocks' instances as failures (conservative for
the pass-rate, and the interval inherits the conservatism).

Fault injection serves two roles:

* **Self-test** (``repro verify --statistical --inject-drop``): a
  :class:`~repro.faults.model.PulseDrop` deletes in-flight pulses at
  a chosen round.  Pulse loss is outside the model, so a correct kernel
  + invariant battery must flag it, demonstrating the full find →
  localize → replay loop.
* **Recovery harness** (:func:`run_recovery_check`): a full
  :class:`~repro.faults.model.FaultModel` perturbs every sampled run
  mid-flight, and each run is classified by where it *ends up* —
  ``recovered`` (correct stable state despite the faults),
  ``wrong_stable`` (quiesced into an incorrect stable state), or
  ``stuck`` (undecided at quiescence, or cut off by the stuck-run
  watchdog).  Non-recovered runs become replayable counterexamples
  annotated with the first violated invariant.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.accel import resolve_backend
from repro.analysis.parallel import (
    ProcessCount,
    parallel_map,
    resolve_processes,
    shard_evenly,
)
from repro.analysis.stats import clopper_pearson_interval
from repro.core.common import LeaderState
from repro.core.invariants import InvariantViolation, column_invariants_for
from repro.exceptions import ConfigurationError
from repro.faults.fleet import merge_events
from repro.faults.model import FaultModel, PulseDrop
from repro.simulator.fleet import (
    DEFAULT_MAX_ROUNDS,
    FleetResult,
    _mix64,
    run_nonoriented_fleet,
    run_terminating_fleet,
)

#: Default fleet block size: big enough to amortize array dispatch,
#: small enough that bisecting a failing block stays cheap.
DEFAULT_BLOCK_SIZE = 8192

#: Algorithms with both a column invariant battery and an exact
#: end-state contract to check against.
CHECKABLE_ALGORITHMS = ("terminating", "nonoriented")

_KEY_SAMPLE = 0xA24BAED4963EE407  # odd constant for the per-sample stream
_KEY_FLIP = 0x9E6C63D0876A9A35  # odd constant for the per-sample flip stream

#: Anything the fleet entry points accept as a fault argument.
FaultArg = Optional[Union[PulseDrop, FaultModel]]


def ids_for_instance(seed: int, index: int, n: int, id_max: int) -> List[int]:
    """The ID assignment of sample ``index`` — pure in ``(seed, index)``.

    Draws ``n`` distinct IDs uniformly from ``[1, id_max]`` using a
    counter-derived RNG stream, so any shard layout (block size, process
    count) sees the same assignment for the same global sample index.
    """
    derived = _mix64(_mix64(seed) + index * _KEY_SAMPLE)
    rng = random.Random(derived)
    return rng.sample(range(1, id_max + 1), n)


def flips_for_instance(seed: int, index: int, n: int) -> List[bool]:
    """The adversarial port flips of sample ``index`` — pure in
    ``(seed, index)``, drawn from a stream independent of the ID stream
    (so the same sample keeps its IDs if only ``n`` changes the flips).
    """
    derived = _mix64(_mix64(seed) + index * _KEY_SAMPLE + _KEY_FLIP)
    rng = random.Random(derived)
    return [rng.random() < 0.5 for _ in range(n)]


@dataclass(frozen=True)
class Counterexample:
    """One localized, replayable violation (or non-recovered faulted run).

    ``instance`` is the global sample index; ``ids`` its ID assignment
    and ``flips`` its port flips (non-oriented rings only) — both
    recomputable from ``(seed, instance)``, stored for forensics.

    When produced by :func:`run_recovery_check`, ``classification`` is
    ``"wrong_stable"`` or ``"stuck"`` and ``first_invariant`` names the
    first column invariant the faulted run violated (None when the run
    degraded without tripping a mid-run invariant).
    """

    instance: int
    ids: Tuple[int, ...]
    message: str
    algorithm: str
    seed: int
    sched_seed: int
    scheduler: str
    backend: str
    fault: FaultArg = None
    flips: Optional[Tuple[bool, ...]] = None
    watchdog_rounds: Optional[int] = None
    classification: Optional[str] = None
    first_invariant: Optional[str] = None

    def replay(self) -> Optional[str]:
        """Re-run exactly this instance; the violation message, or None.

        Returns the (possibly refined) violation message when the re-run
        reproduces a violation, None when it does not — determinism of
        the whole pipeline means a genuine counterexample always
        reproduces.  Recovery-harness counterexamples re-classify the
        run and reproduce when it is again not ``recovered``.
        """
        flip_lists = [list(self.flips)] if self.flips is not None else None
        if self.classification is not None:
            result = _run_fleet(
                algorithm=self.algorithm,
                id_lists=[list(self.ids)],
                flip_lists=flip_lists,
                offset=self.instance,
                scheduler=self.scheduler,
                backend=self.backend,
                sched_seed=self.sched_seed,
                fault=self.fault,
                max_rounds=DEFAULT_MAX_ROUNDS,
                observer=None,
                watchdog_rounds=self.watchdog_rounds,
            )
            classification, message = _classify_instance(
                self.algorithm, result, 0, self.instance
            )
            return None if classification == "recovered" else message
        failures = _check_block(
            algorithm=self.algorithm,
            id_lists=[list(self.ids)],
            flip_lists=flip_lists,
            offset=self.instance,
            scheduler=self.scheduler,
            backend=self.backend,
            sched_seed=self.sched_seed,
            fault=self.fault,
            max_rounds=DEFAULT_MAX_ROUNDS,
            watchdog_rounds=self.watchdog_rounds,
            budget=1,
        )
        for index, message in failures:
            if index == self.instance:
                return message
        return None


@dataclass
class StatisticalReport:
    """Outcome of one statistical-checking run.

    ``violations`` counts failing samples; the pass-rate interval is the
    exact Clopper–Pearson interval at ``confidence`` for
    ``samples - violations`` successes out of ``samples``.
    """

    algorithm: str
    n: int
    id_max: int
    samples: int
    violations: int
    confidence: float
    rate_low: float
    rate_high: float
    backend: str
    scheduler: str
    seed: int
    sched_seed: int
    block_size: int
    counterexamples: List[Counterexample] = field(default_factory=list)

    @property
    def pass_rate(self) -> float:
        """Observed proportion of samples with no invariant violation."""
        return (self.samples - self.violations) / self.samples

    @property
    def clean(self) -> bool:
        """True when no sample violated any invariant."""
        return self.violations == 0


def _observer_for(algorithm: str) -> Optional[Callable[[Any], None]]:
    """Per-round battery: run every column invariant on the view."""
    try:
        battery = column_invariants_for(algorithm)
    except KeyError:
        return None

    def observe(view: Any) -> None:
        for check in battery:
            check(view)

    return observe


def _run_fleet(
    algorithm: str,
    id_lists: List[List[int]],
    flip_lists: Optional[List[List[bool]]],
    offset: int,
    scheduler: str,
    backend: str,
    sched_seed: int,
    fault: FaultArg,
    max_rounds: int,
    observer: Optional[Callable[[Any], None]],
    watchdog_rounds: Optional[int],
) -> FleetResult:
    """One fleet run of ``algorithm`` — the single dispatch point."""
    if algorithm == "nonoriented":
        return run_nonoriented_fleet(
            id_lists,
            flip_lists=flip_lists,
            backend=backend,
            scheduler=scheduler,
            seed=sched_seed,
            max_rounds=max_rounds,
            faults=fault,
            observer=observer,
            instance_offset=offset,
            watchdog_rounds=watchdog_rounds,
        )
    return run_terminating_fleet(
        id_lists,
        backend=backend,
        scheduler=scheduler,
        seed=sched_seed,
        max_rounds=max_rounds,
        observer=observer,
        fault=fault,
        instance_offset=offset,
        watchdog_rounds=watchdog_rounds,
    )


def _end_state_failures(
    algorithm: str, result: FleetResult, offset: int
) -> List[Tuple[int, str]]:
    """The end-state contract of ``algorithm``, attributed per instance.

    ``"terminating"``: Theorem 1 — all terminated, the unique maximal-ID
    leader, exact pulse count.  ``"nonoriented"``: Theorem 2's stabilized
    verdict — all decided, the unique maximal-ID leader, a consistent
    orientation, exact pulse count (successor scheme).
    """
    failures: List[Tuple[int, str]] = []
    unfinished = result.unfinished or [False] * result.size
    for b, ids in enumerate(result.ids):
        index = offset + b
        n, id_max = len(ids), max(ids)
        expected_leader = max(range(n), key=lambda v: ids[v])
        if unfinished[b]:
            failures.append(
                (
                    index,
                    f"instance {index}: did not quiesce "
                    "(stuck-run watchdog cut the run)",
                )
            )
            continue
        if algorithm == "nonoriented":
            undecided = [
                v
                for v, s in enumerate(result.states[b])
                if s is LeaderState.UNDECIDED
            ]
            consistent = (
                result.orientation_consistent is not None
                and bool(result.orientation_consistent[b])
            )
            if undecided:
                failures.append(
                    (
                        index,
                        f"instance {index}: nodes {undecided} undecided at "
                        "quiescence (stabilized-verdict guard unmet)",
                    )
                )
            elif result.leaders[b] != [expected_leader]:
                failures.append(
                    (
                        index,
                        f"instance {index}: leaders {result.leaders[b]} != "
                        f"[{expected_leader}] (the maximal-ID node)",
                    )
                )
            elif not consistent:
                failures.append(
                    (
                        index,
                        f"instance {index}: inconsistent orientation: "
                        f"cw_port_labels="
                        f"{result.cw_port_labels[b] if result.cw_port_labels else None}",
                    )
                )
            elif result.total_pulses[b] != n * (2 * id_max + 1):
                failures.append(
                    (
                        index,
                        f"instance {index}: total pulses "
                        f"{result.total_pulses[b]} != n(2*IDmax+1) = "
                        f"{n * (2 * id_max + 1)} (Theorem 2, successor IDs)",
                    )
                )
            continue
        if result.terminated is not None and not all(result.terminated[b]):
            failures.append(
                (index, f"instance {index}: not all nodes terminated")
            )
        elif result.leaders[b] != [expected_leader]:
            failures.append(
                (
                    index,
                    f"instance {index}: leaders {result.leaders[b]} != "
                    f"[{expected_leader}] (the maximal-ID node)",
                )
            )
        elif result.total_pulses[b] != n * (2 * id_max + 1):
            failures.append(
                (
                    index,
                    f"instance {index}: total pulses {result.total_pulses[b]} "
                    f"!= n(2*IDmax+1) = {n * (2 * id_max + 1)}",
                )
            )
    return failures


def _check_block(
    algorithm: str,
    id_lists: List[List[int]],
    flip_lists: Optional[List[List[bool]]],
    offset: int,
    scheduler: str,
    backend: str,
    sched_seed: int,
    fault: FaultArg,
    max_rounds: int,
    watchdog_rounds: Optional[int],
    budget: int,
) -> List[Tuple[int, str]]:
    """Failing ``(global_index, message)`` pairs within one block.

    Runs the whole block as one fleet; a per-round violation aborts the
    fleet run, so the block is bisected to localize it.  ``budget`` caps
    how many violations are localized exactly; once exceeded, a failing
    sub-block is attributed wholesale (every instance counted failing,
    with the block-level message).
    """
    try:
        result = _run_fleet(
            algorithm=algorithm,
            id_lists=id_lists,
            flip_lists=flip_lists,
            offset=offset,
            scheduler=scheduler,
            backend=backend,
            sched_seed=sched_seed,
            fault=fault,
            max_rounds=max_rounds,
            observer=_observer_for(algorithm),
            watchdog_rounds=watchdog_rounds,
        )
    except InvariantViolation as violation:
        if len(id_lists) == 1:
            return [(offset, str(violation))]
        if budget <= 0:
            return [
                (offset + b, f"unlocalized (budget exhausted): {violation}")
                for b in range(len(id_lists))
            ]
        half = len(id_lists) // 2
        left = _check_block(
            algorithm,
            id_lists[:half],
            flip_lists[:half] if flip_lists is not None else None,
            offset,
            scheduler,
            backend,
            sched_seed,
            fault,
            max_rounds,
            watchdog_rounds,
            budget,
        )
        right = _check_block(
            algorithm,
            id_lists[half:],
            flip_lists[half:] if flip_lists is not None else None,
            offset + half,
            scheduler,
            backend,
            sched_seed,
            fault,
            max_rounds,
            watchdog_rounds,
            budget - len(left),
        )
        return left + right
    return _end_state_failures(algorithm, result, offset)


def _worker(job: Tuple) -> List[Tuple[int, str]]:
    """Picklable shard worker: failing pairs across this shard's blocks."""
    (
        algorithm,
        n,
        id_max,
        indices,
        seed,
        sched_seed,
        scheduler,
        backend,
        block_size,
        fault,
        max_rounds,
        watchdog_rounds,
        budget,
    ) = job
    failures: List[Tuple[int, str]] = []
    for start in range(0, len(indices), block_size):
        chunk = indices[start : start + block_size]
        id_lists = [ids_for_instance(seed, i, n, id_max) for i in chunk]
        flip_lists = (
            [flips_for_instance(seed, i, n) for i in chunk]
            if algorithm == "nonoriented"
            else None
        )
        failures.extend(
            _check_block(
                algorithm,
                id_lists,
                flip_lists,
                chunk[0],
                scheduler,
                backend,
                sched_seed,
                fault,
                max_rounds,
                watchdog_rounds,
                budget - len(failures),
            )
        )
    return failures


def _validate_common(
    algorithm: str, samples: int, n: int, id_max: int, block_size: int
) -> None:
    if algorithm not in CHECKABLE_ALGORITHMS:
        raise ConfigurationError(
            "statistical checking supports algorithm='terminating' "
            f"(Algorithm 2) or 'nonoriented' (Algorithm 3), got {algorithm!r}"
        )
    if samples < 1:
        raise ConfigurationError(f"need at least one sample, got {samples}")
    if n < 2:
        raise ConfigurationError(f"need a ring of at least 2 nodes, got n={n}")
    if id_max < n:
        raise ConfigurationError(
            f"id_max={id_max} cannot host {n} distinct IDs"
        )
    if block_size < 1:
        raise ConfigurationError(f"block_size must be >= 1, got {block_size}")


def run_statistical_check(
    algorithm: str = "terminating",
    n: int = 8,
    id_max: int = 1000,
    samples: int = 1000,
    seed: int = 0,
    sched_seed: int = 0,
    scheduler: str = "lockstep",
    backend: str = "auto",
    block_size: int = DEFAULT_BLOCK_SIZE,
    confidence: float = 0.99,
    fault: FaultArg = None,
    max_counterexamples: int = 5,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    watchdog_rounds: Optional[int] = None,
    processes: ProcessCount = 1,
) -> StatisticalReport:
    """Statistically model-check ``algorithm`` over sampled instances.

    Args:
        algorithm: ``"terminating"`` (Algorithm 2, Theorem 1 contract) or
            ``"nonoriented"`` (Algorithm 3, Theorem 2 stabilized-verdict
            contract with per-sample adversarial port flips).
        n: Ring size of every sampled instance.
        id_max: IDs are drawn uniformly (distinct) from ``[1, id_max]``.
        samples: Number of sampled instances.
        seed: Master seed of the ID/flip sampling streams (see
            :func:`ids_for_instance`, :func:`flips_for_instance`).
        sched_seed: Seed of the fleet's ``"seeded"`` scheduler stream.
        scheduler: ``"lockstep"`` (default; lap-skip makes large
            ``id_max`` cheap) or ``"seeded"`` (random schedules, runtime
            grows with ``id_max``).
        backend: Fleet backend (``"auto"`` / ``"numpy"`` / ``"python"``).
        block_size: Instances per fleet run.
        confidence: Clopper–Pearson coverage for the pass-rate interval.
        fault: Optional injected fault — a single
            :class:`~repro.faults.model.PulseDrop` pulse loss (the
            checker's classic self-test) or a full
            :class:`~repro.faults.model.FaultModel`.
        max_counterexamples: How many violations to localize exactly
            (and record as replayable :class:`Counterexample` objects).
        max_rounds: Fleet safety bound.
        watchdog_rounds: Stuck-run watchdog override (None = automatic
            when faults are injected; see the fleet module).
        processes: Worker processes; samples are sharded evenly.
    """
    _validate_common(algorithm, samples, n, id_max, block_size)

    indices = list(range(samples))
    shards = shard_evenly(indices, resolve_processes(processes))
    jobs = [
        (
            algorithm,
            n,
            id_max,
            shard,
            seed,
            sched_seed,
            scheduler,
            backend,
            block_size,
            fault,
            max_rounds,
            watchdog_rounds,
            max_counterexamples,
        )
        for shard in shards
        if shard
    ]
    per_shard = parallel_map(_worker, jobs, processes=processes)
    failures = sorted(
        (pair for shard in per_shard for pair in shard), key=lambda p: p[0]
    )

    resolved_backend = resolve_backend(backend)
    counterexamples = [
        Counterexample(
            instance=index,
            ids=tuple(ids_for_instance(seed, index, n, id_max)),
            message=message,
            algorithm=algorithm,
            seed=seed,
            sched_seed=sched_seed,
            scheduler=scheduler,
            backend=resolved_backend,
            fault=fault,
            flips=(
                tuple(flips_for_instance(seed, index, n))
                if algorithm == "nonoriented"
                else None
            ),
            watchdog_rounds=watchdog_rounds,
        )
        for index, message in failures[:max_counterexamples]
    ]
    violations = len(failures)
    low, high = clopper_pearson_interval(
        samples - violations, samples, confidence=confidence
    )
    return StatisticalReport(
        algorithm=algorithm,
        n=n,
        id_max=id_max,
        samples=samples,
        violations=violations,
        confidence=confidence,
        rate_low=low,
        rate_high=high,
        backend=resolved_backend,
        scheduler=scheduler,
        seed=seed,
        sched_seed=sched_seed,
        block_size=block_size,
        counterexamples=counterexamples,
    )


# ---------------------------------------------------------------------------
# Recovery harness — classify faulted runs by their stable end state.
# ---------------------------------------------------------------------------

#: The three recovery verdicts, in decreasing order of health.
RECOVERY_CLASSES = ("recovered", "wrong_stable", "stuck")


def _classify_instance(
    algorithm: str, result: FleetResult, b: int, index: int
) -> Tuple[str, str]:
    """Classify instance ``b`` of a faulted fleet ``result``.

    Returns ``(classification, message)`` with classification one of
    :data:`RECOVERY_CLASSES`:

    * ``stuck`` — the watchdog cut the run (deadlock/livelock), or the
      run quiesced with undecided nodes or no leader at all;
    * ``wrong_stable`` — quiesced and fully decided, but the stable
      state is wrong (wrong/multiple leaders, inconsistent orientation);
    * ``recovered`` — the correct stable state despite the faults.
    """
    ids = result.ids[b]
    expected_leader = max(range(len(ids)), key=lambda v: ids[v])
    unfinished = bool(result.unfinished[b]) if result.unfinished else False
    if unfinished:
        return (
            "stuck",
            f"instance {index}: watchdog cut the run before quiescence "
            "(deadlock or fault-sustained livelock)",
        )
    if algorithm == "nonoriented":
        undecided = [
            v
            for v, s in enumerate(result.states[b])
            if s is LeaderState.UNDECIDED
        ]
        if undecided:
            return (
                "stuck",
                f"instance {index}: quiesced with nodes {undecided} "
                "undecided (no valid stable verdict)",
            )
    elif result.terminated is not None and not all(result.terminated[b]):
        stragglers = [
            v for v, t in enumerate(result.terminated[b]) if not t
        ]
        return (
            "stuck",
            f"instance {index}: quiesced with nodes {stragglers} "
            "unterminated",
        )
    if not result.leaders[b]:
        return (
            "stuck",
            f"instance {index}: quiesced with no leader at all",
        )
    if result.leaders[b] != [expected_leader]:
        return (
            "wrong_stable",
            f"instance {index}: stable but wrong leaders "
            f"{result.leaders[b]} != [{expected_leader}]",
        )
    if algorithm == "nonoriented":
        consistent = (
            result.orientation_consistent is not None
            and bool(result.orientation_consistent[b])
        )
        if not consistent:
            return (
                "wrong_stable",
                f"instance {index}: stable correct leader but inconsistent "
                f"orientation: cw_port_labels="
                f"{result.cw_port_labels[b] if result.cw_port_labels else None}",
            )
    return ("recovered", f"instance {index}: recovered to the correct state")


@dataclass
class RecoveryReport:
    """Outcome of one recovery-harness run.

    ``recovered + wrong_stable + stuck == samples``; the rate interval
    is the exact Clopper–Pearson interval for the *recovered* count.
    ``fault_events`` totals the fault events actually applied across all
    sampled runs (see :data:`repro.faults.fleet.EVENT_KEYS`).
    """

    algorithm: str
    n: int
    id_max: int
    samples: int
    recovered: int
    wrong_stable: int
    stuck: int
    confidence: float
    rate_low: float
    rate_high: float
    backend: str
    scheduler: str
    seed: int
    sched_seed: int
    block_size: int
    watchdog_rounds: Optional[int]
    faults: FaultModel
    fault_events: Dict[str, int] = field(default_factory=dict)
    counterexamples: List[Counterexample] = field(default_factory=list)

    @property
    def recovery_rate(self) -> float:
        """Observed proportion of samples that recovered."""
        return self.recovered / self.samples

    @property
    def all_recovered(self) -> bool:
        """True when every sampled run recovered."""
        return self.recovered == self.samples


def _recovery_worker(
    job: Tuple,
) -> Tuple[Dict[str, int], List[Tuple[int, str, str]], Dict[str, int]]:
    """Picklable shard worker for the recovery harness.

    Returns ``(class_counts, non_recovered, fault_events)`` where
    ``non_recovered`` holds ``(global_index, classification, message)``
    triples.  Blocks run *without* per-round observers: mid-run
    invariant breakage is expected under faults; only the stable end
    state is judged here (first-invariant forensics happen later, per
    counterexample).
    """
    (
        algorithm,
        n,
        id_max,
        indices,
        seed,
        sched_seed,
        scheduler,
        backend,
        block_size,
        faults,
        max_rounds,
        watchdog_rounds,
    ) = job
    counts = {name: 0 for name in RECOVERY_CLASSES}
    non_recovered: List[Tuple[int, str, str]] = []
    events: Dict[str, int] = {}
    for start in range(0, len(indices), block_size):
        chunk = indices[start : start + block_size]
        id_lists = [ids_for_instance(seed, i, n, id_max) for i in chunk]
        flip_lists = (
            [flips_for_instance(seed, i, n) for i in chunk]
            if algorithm == "nonoriented"
            else None
        )
        result = _run_fleet(
            algorithm=algorithm,
            id_lists=id_lists,
            flip_lists=flip_lists,
            offset=chunk[0],
            scheduler=scheduler,
            backend=backend,
            sched_seed=sched_seed,
            fault=faults,
            max_rounds=max_rounds,
            observer=None,
            watchdog_rounds=watchdog_rounds,
        )
        if result.fault_events:
            events = merge_events(events, result.fault_events)
        for b in range(result.size):
            index = chunk[0] + b
            classification, message = _classify_instance(
                algorithm, result, b, index
            )
            counts[classification] += 1
            if classification != "recovered":
                non_recovered.append((index, classification, message))
    return counts, non_recovered, events


def run_recovery_shard(
    algorithm: str,
    n: int,
    id_max: int,
    indices: List[int],
    seed: int = 0,
    sched_seed: int = 0,
    scheduler: str = "lockstep",
    backend: str = "auto",
    block_size: int = DEFAULT_BLOCK_SIZE,
    faults: Optional[FaultModel] = None,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    watchdog_rounds: Optional[int] = None,
) -> Tuple[Dict[str, int], List[Tuple[int, str, str]], Dict[str, int]]:
    """Public shard seam: classify exactly the given global ``indices``.

    This is the unit of work the sweep farm caches: a pure function of
    the semantics coordinates (everything here except ``backend`` and
    ``block_size``, which are bit-identical execution knobs).  Any
    partition of ``range(samples)`` into shards sums to the same counts
    and the same sorted ``non_recovered`` list that
    :func:`run_recovery_check` computes in one pass, because every
    instance's IDs, flips, and fault rolls are counter-derived from
    ``(seed, index)`` alone.
    """
    if faults is None:
        faults = FaultModel.none()
    if isinstance(faults, PulseDrop):
        faults = FaultModel(drops=(faults,))
    return _recovery_worker(
        (
            algorithm,
            n,
            id_max,
            list(indices),
            seed,
            sched_seed,
            scheduler,
            backend,
            block_size,
            faults,
            max_rounds,
            watchdog_rounds,
        )
    )


def _first_violation(
    algorithm: str,
    ids: List[int],
    flips: Optional[List[bool]],
    index: int,
    scheduler: str,
    backend: str,
    sched_seed: int,
    faults: FaultArg,
    max_rounds: int,
    watchdog_rounds: Optional[int],
) -> Optional[Tuple[str, str]]:
    """Forensic solo re-run: the first column invariant the faulted run
    violates, as ``(check_name, message)``, or None when the run degrades
    without tripping any mid-run invariant.

    The observer records the first violation and *swallows* it so the
    run continues to its stable end state (unlike the checking path,
    which aborts and bisects).
    """
    try:
        battery = column_invariants_for(algorithm)
    except KeyError:
        return None
    found: List[Tuple[str, str]] = []

    def observe(view: Any) -> None:
        if found:
            return
        for check in battery:
            try:
                check(view)
            except InvariantViolation as violation:
                found.append((check.__name__, str(violation)))
                return

    _run_fleet(
        algorithm=algorithm,
        id_lists=[list(ids)],
        flip_lists=[list(flips)] if flips is not None else None,
        offset=index,
        scheduler=scheduler,
        backend=backend,
        sched_seed=sched_seed,
        fault=faults,
        max_rounds=max_rounds,
        observer=observe,
        watchdog_rounds=watchdog_rounds,
    )
    return found[0] if found else None


def run_recovery_check(
    algorithm: str = "nonoriented",
    n: int = 8,
    id_max: int = 100,
    samples: int = 256,
    seed: int = 0,
    sched_seed: int = 0,
    scheduler: str = "lockstep",
    backend: str = "auto",
    block_size: int = DEFAULT_BLOCK_SIZE,
    confidence: float = 0.99,
    faults: Optional[FaultModel] = None,
    max_counterexamples: int = 5,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    watchdog_rounds: Optional[int] = None,
    processes: ProcessCount = 1,
) -> RecoveryReport:
    """Classify every faulted sampled run by its stable end state.

    This is the self-stabilization harness: inject the declarative
    ``faults`` (:class:`~repro.faults.model.FaultModel`) into every
    sampled instance and ask where each run *ends up* — ``recovered``,
    ``wrong_stable``, or ``stuck`` (see :func:`_classify_instance`).
    Non-recovered runs are returned as replayable
    :class:`Counterexample` objects annotated with the first violated
    invariant (forensic solo re-run with a non-aborting observer).

    With ``faults=None`` (or a no-op model) every run must classify
    ``recovered`` — a useful control arm.
    """
    _validate_common(algorithm, samples, n, id_max, block_size)
    if faults is None:
        faults = FaultModel.none()
    if isinstance(faults, PulseDrop):
        faults = FaultModel(drops=(faults,))

    indices = list(range(samples))
    shards = shard_evenly(indices, resolve_processes(processes))
    jobs = [
        (
            algorithm,
            n,
            id_max,
            shard,
            seed,
            sched_seed,
            scheduler,
            backend,
            block_size,
            faults,
            max_rounds,
            watchdog_rounds,
        )
        for shard in shards
        if shard
    ]
    per_shard = parallel_map(_recovery_worker, jobs, processes=processes)
    counts = {name: 0 for name in RECOVERY_CLASSES}
    non_recovered: List[Tuple[int, str, str]] = []
    events: Dict[str, int] = {}
    for shard_counts, shard_failures, shard_events in per_shard:
        for name in RECOVERY_CLASSES:
            counts[name] += shard_counts[name]
        non_recovered.extend(shard_failures)
        if shard_events:
            events = merge_events(events, shard_events)
    non_recovered.sort(key=lambda t: t[0])

    resolved_backend = resolve_backend(backend)
    counterexamples: List[Counterexample] = []
    for index, classification, message in non_recovered[:max_counterexamples]:
        ids = ids_for_instance(seed, index, n, id_max)
        flips = (
            flips_for_instance(seed, index, n)
            if algorithm == "nonoriented"
            else None
        )
        first = _first_violation(
            algorithm,
            ids,
            flips,
            index,
            scheduler,
            resolved_backend,
            sched_seed,
            faults,
            max_rounds,
            watchdog_rounds,
        )
        if first is not None:
            message = f"{message}; first violated invariant: {first[0]}"
        counterexamples.append(
            Counterexample(
                instance=index,
                ids=tuple(ids),
                message=message,
                algorithm=algorithm,
                seed=seed,
                sched_seed=sched_seed,
                scheduler=scheduler,
                backend=resolved_backend,
                fault=faults,
                flips=tuple(flips) if flips is not None else None,
                watchdog_rounds=watchdog_rounds,
                classification=classification,
                first_invariant=first[0] if first is not None else None,
            )
        )

    low, high = clopper_pearson_interval(
        counts["recovered"], samples, confidence=confidence
    )
    return RecoveryReport(
        algorithm=algorithm,
        n=n,
        id_max=id_max,
        samples=samples,
        recovered=counts["recovered"],
        wrong_stable=counts["wrong_stable"],
        stuck=counts["stuck"],
        confidence=confidence,
        rate_low=low,
        rate_high=high,
        backend=resolved_backend,
        scheduler=scheduler,
        seed=seed,
        sched_seed=sched_seed,
        block_size=block_size,
        watchdog_rounds=watchdog_rounds,
        faults=faults,
        fault_events=events,
        counterexamples=counterexamples,
    )


# ---------------------------------------------------------------------------
# Lemma 18 — the anonymous pipeline's w.h.p. success predicate.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnonymousCounterexample:
    """One failed anonymous-pipeline attempt, replayable by its seed.

    The whole Algorithm 4 → Algorithm 3 pipeline is a pure function of
    ``(n, c, attempt_seed)``, so the seed alone reproduces the failure
    in a fresh process.
    """

    attempt_seed: int
    n: int
    c: float
    backend: str
    message: str

    def replay(self) -> Optional[str]:
        """Re-run exactly this attempt; the failure message, or None."""
        from repro.simulator.fleet import run_anonymous_fleet

        outcome = run_anonymous_fleet(
            self.n, [self.attempt_seed], c=self.c, backend=self.backend
        )
        return None if outcome.succeeded[0] else self.message


@dataclass
class AnonymousWhpReport:
    """Outcome of one Lemma 18 w.h.p. check.

    ``target`` is Lemma 18's floor :math:`1 - n^{-c}`; the predicate
    :attr:`holds` is the one-sided binomial test — the observed successes
    are *consistent* with a true rate at or above the target exactly when
    the Clopper–Pearson upper bound reaches it (rejecting only when even
    the exact conservative interval excludes the floor).
    """

    n: int
    c: float
    trials: int
    successes: int
    confidence: float
    rate_low: float
    rate_high: float
    target: float
    seed: int
    backend: str
    counterexamples: List[AnonymousCounterexample] = field(default_factory=list)

    @property
    def success_rate(self) -> float:
        """Observed proportion of succeeded attempts."""
        return self.successes / self.trials

    @property
    def holds(self) -> bool:
        """Whether the data are consistent with Lemma 18's floor."""
        return self.rate_high >= self.target

    @property
    def failures(self) -> int:
        return self.trials - self.successes


def _anonymous_whp_worker(job: Tuple) -> List[Tuple[int, bool]]:
    """Picklable shard worker: (attempt_seed, succeeded) pairs."""
    from repro.simulator.fleet import run_anonymous_fleet

    n, seeds, c, backend = job
    outcome = run_anonymous_fleet(n, list(seeds), c=c, backend=backend)
    return list(zip(seeds, outcome.succeeded))


def run_anonymous_whp_check(
    n: int = 8,
    c: float = 2.0,
    trials: int = 400,
    seed: int = 0,
    backend: str = "auto",
    confidence: float = 0.99,
    max_counterexamples: int = 5,
    processes: ProcessCount = 1,
) -> AnonymousWhpReport:
    """Check Lemma 18's w.h.p. guarantee over seeded pipeline attempts.

    Attempt ``i`` runs the anonymous pipeline (Algorithm 4's geometric
    ID sampling at exponent ``c`` feeding Algorithm 3) with seed
    ``seed + i`` and succeeds on a unique leader + consistent
    orientation.  The report's :attr:`~AnonymousWhpReport.holds`
    predicate is the one-sided test of the success probability against
    Lemma 18's :math:`1 - n^{-c}` floor via the exact Clopper–Pearson
    upper bound; failed attempts come back as seed-replayable
    :class:`AnonymousCounterexample` objects.
    """
    from repro.analysis.whp import whp_target

    if trials < 1:
        raise ConfigurationError(f"need at least one trial, got {trials}")
    if n < 2:
        raise ConfigurationError(f"need a ring of at least 2 nodes, got n={n}")
    target = whp_target(n, c)
    seeds = list(range(seed, seed + trials))
    shards = shard_evenly(seeds, resolve_processes(processes))
    per_shard = parallel_map(
        _anonymous_whp_worker,
        [(n, shard, c, backend) for shard in shards if shard],
        processes=processes,
    )
    pairs = sorted(
        (pair for shard in per_shard for pair in shard), key=lambda p: p[0]
    )
    successes = sum(1 for _seed, ok in pairs if ok)
    failing = [s for s, ok in pairs if not ok]
    low, high = clopper_pearson_interval(
        successes, trials, confidence=confidence
    )
    resolved_backend = resolve_backend(backend)
    counterexamples = [
        AnonymousCounterexample(
            attempt_seed=s,
            n=n,
            c=c,
            backend=resolved_backend,
            message=(
                f"attempt seed {s}: anonymous pipeline failed (no unique "
                "leader with consistent orientation)"
            ),
        )
        for s in failing[:max_counterexamples]
    ]
    return AnonymousWhpReport(
        n=n,
        c=c,
        trials=trials,
        successes=successes,
        confidence=confidence,
        rate_low=low,
        rate_high=high,
        target=target,
        seed=seed,
        backend=resolved_backend,
        counterexamples=counterexamples,
    )


# ---------------------------------------------------------------------------
# Topology battery — the 2-edge-connected election's statistical contract.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TopologyCounterexample:
    """One replayable violation of the ear-election contract.

    Self-contained: carries the graph's edge list alongside the sampled
    IDs, so :meth:`replay` can rebuild the exact instance from scratch
    in a fresh process.
    """

    instance: int
    ids: Tuple[int, ...]
    message: str
    n: int
    edges: Tuple[Tuple[int, int], ...]
    seed: int
    sched_seed: int
    scheduler: str
    backend: str

    def replay(self) -> Optional[str]:
        """Re-run exactly this instance; the violation message, or None."""
        from repro.graphs.connectivity import Graph

        graph = Graph.from_edges(self.n, list(self.edges))
        failures = _topology_failures(
            graph,
            [list(self.ids)],
            offset=self.instance,
            scheduler=self.scheduler,
            backend=self.backend,
            sched_seed=self.sched_seed,
            max_rounds=DEFAULT_MAX_ROUNDS,
        )
        for index, message in failures:
            if index == self.instance:
                return message
        return None


@dataclass
class TopologyReport:
    """Outcome of one topology-battery run (mirrors StatisticalReport)."""

    n: int
    edges: int
    walk_length: int
    stride: int
    id_max: int
    samples: int
    violations: int
    confidence: float
    rate_low: float
    rate_high: float
    backend: str
    scheduler: str
    seed: int
    sched_seed: int
    counterexamples: List[TopologyCounterexample] = field(default_factory=list)

    @property
    def pass_rate(self) -> float:
        return (self.samples - self.violations) / self.samples

    @property
    def clean(self) -> bool:
        return self.violations == 0


def _topology_failures(
    graph: Any,
    id_lists: List[List[int]],
    offset: int,
    scheduler: str,
    backend: str,
    sched_seed: int,
    max_rounds: int,
) -> List[Tuple[int, str]]:
    """Run one ear-fleet block and collect per-instance contract failures.

    Checks, per instance: the warm-up column battery at every round of
    the virtual ring (the ear kernel *is* Algorithm 1 over virtual IDs,
    so the Lemma 6 / Corollary 14 / conservation column forms apply
    verbatim), then the end state — a unique physical leader at the
    argmax vertex, every virtual counter settled at ``VIDmax``, and the
    exact ``L * IDmax * C`` pulse count.
    """
    from repro.simulator.fleet import run_ear_fleet

    failures: List[Tuple[int, str]] = []
    try:
        result = run_ear_fleet(
            graph,
            id_lists,
            backend=backend,
            scheduler=scheduler,
            seed=sched_seed,
            max_rounds=max_rounds,
            observer=_observer_for("warmup"),
            instance_offset=offset,
        )
    except InvariantViolation as violation:
        # A column invariant indicts the whole block; localize by
        # bisection exactly like the ring checker.
        if len(id_lists) == 1:
            return [(offset, f"column invariant: {violation}")]
        half = len(id_lists) // 2
        failures.extend(
            _topology_failures(
                graph, id_lists[:half], offset, scheduler, backend,
                sched_seed, max_rounds,
            )
        )
        failures.extend(
            _topology_failures(
                graph, id_lists[half:], offset + half, scheduler, backend,
                sched_seed, max_rounds,
            )
        )
        return failures

    routing = result.routing
    vid_max_rows = [max(vids) for vids in result.virtual.ids]
    for b, ids in enumerate(id_lists):
        index = offset + b
        expected = max(range(len(ids)), key=lambda v: ids[v])
        problems: List[str] = []
        if result.leaders[b] != expected:
            problems.append(
                f"leader {result.leaders[b]} != argmax vertex {expected}"
            )
        vid_max = vid_max_rows[b]
        if any(rho != vid_max for rho in result.virtual.rho_cw[b]):
            problems.append(
                f"virtual counters not settled at VIDmax={vid_max}"
            )
        expected_pulses = routing.length * max(ids) * routing.stride
        if result.virtual.total_pulses[b] != expected_pulses:
            problems.append(
                f"total pulses {result.virtual.total_pulses[b]} != "
                f"L*IDmax*C = {expected_pulses}"
            )
        if problems:
            failures.append((index, "; ".join(problems)))
    return failures


def run_topology_shard(
    n: int,
    edges: Sequence[Tuple[int, int]],
    id_max: int,
    start: int,
    stop: int,
    seed: int = 0,
    sched_seed: int = 0,
    scheduler: str = "lockstep",
    backend: str = "auto",
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> List[Tuple[int, str]]:
    """Ear-election contract failures over global indices ``[start, stop)``.

    The sweep farm's shard primitive for the ``ear`` workload: a pure
    function of ``(topology, id_max, seed, sched_seed, scheduler)`` and
    the index range — instance ``i`` always draws
    ``ids_for_instance(seed, i, n, id_max)`` regardless of sharding, so
    any partition of ``[0, total)`` reproduces the uninterrupted sweep.
    Returns the (index, message) failures in index order; an empty list
    is a clean shard.
    """
    from repro.graphs.connectivity import Graph, require_two_edge_connected

    graph = Graph.from_edges(n, [tuple(edge) for edge in edges])
    require_two_edge_connected(graph)
    failures: List[Tuple[int, str]] = []
    for block_start in range(start, stop, block_size):
        block_stop = min(block_start + block_size, stop)
        id_lists = [
            ids_for_instance(seed, index, n, id_max)
            for index in range(block_start, block_stop)
        ]
        failures.extend(
            _topology_failures(
                graph, id_lists, block_start, scheduler, backend,
                sched_seed, DEFAULT_MAX_ROUNDS,
            )
        )
    failures.sort(key=lambda pair: pair[0])
    return failures


def run_topology_check(
    graph: Any,
    id_max: int = 1000,
    samples: int = 200,
    seed: int = 0,
    sched_seed: int = 0,
    scheduler: str = "lockstep",
    backend: str = "auto",
    block_size: int = DEFAULT_BLOCK_SIZE,
    confidence: float = 0.99,
    max_counterexamples: int = 5,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
) -> TopologyReport:
    """Statistically check the ear election's contract on one graph.

    Refuses graphs below the 2-edge-connectivity frontier with the
    bridge edge as witness (via the fleet's shared refusal path), then
    samples ID assignments — :func:`ids_for_instance`, the same
    counter-derived stream as the ring checker — and verifies the
    invariant battery plus the unique-leader / settled-counters /
    exact-pulse-count end state per instance.
    """
    if samples < 1:
        raise ConfigurationError(f"need at least one sample, got {samples}")
    if id_max < graph.n:
        raise ConfigurationError(
            f"id_max={id_max} cannot host {graph.n} distinct IDs"
        )
    if block_size < 1:
        raise ConfigurationError(f"block_size must be >= 1, got {block_size}")

    from repro.core.kernels import ear as ear_kernel
    from repro.graphs.connectivity import require_two_edge_connected

    require_two_edge_connected(graph)
    routing = ear_kernel.build_routing(graph)

    failures: List[Tuple[int, str]] = []
    for start in range(0, samples, block_size):
        stop = min(start + block_size, samples)
        id_lists = [
            ids_for_instance(seed, index, graph.n, id_max)
            for index in range(start, stop)
        ]
        failures.extend(
            _topology_failures(
                graph, id_lists, start, scheduler, backend, sched_seed,
                max_rounds,
            )
        )
    failures.sort(key=lambda pair: pair[0])

    resolved_backend = resolve_backend(backend)
    edges = tuple(sorted(graph.edges))
    counterexamples = [
        TopologyCounterexample(
            instance=index,
            ids=tuple(ids_for_instance(seed, index, graph.n, id_max)),
            message=message,
            n=graph.n,
            edges=edges,
            seed=seed,
            sched_seed=sched_seed,
            scheduler=scheduler,
            backend=resolved_backend,
        )
        for index, message in failures[:max_counterexamples]
    ]
    violations = len(failures)
    low, high = clopper_pearson_interval(
        samples - violations, samples, confidence=confidence
    )
    return TopologyReport(
        n=graph.n,
        edges=len(edges),
        walk_length=routing.length,
        stride=routing.stride,
        id_max=id_max,
        samples=samples,
        violations=violations,
        confidence=confidence,
        rate_low=low,
        rate_high=high,
        backend=resolved_backend,
        scheduler=scheduler,
        seed=seed,
        sched_seed=sched_seed,
        counterexamples=counterexamples,
    )
