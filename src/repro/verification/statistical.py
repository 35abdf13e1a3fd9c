"""Statistical model checking over fleet-sampled instances.

The exhaustive explorers (:mod:`repro.verification.explorer`,
:mod:`repro.verification.reduced`) certify *every* schedule of one small
instance.  This module attacks the complementary regime — instances far
too large to enumerate — by sampling: it draws millions of random
instances, runs each through the vectorized fleet engine
(:mod:`repro.simulator.fleet`), classifies every instance against an
exact per-instance contract, and reports the pass rate with an exact
Clopper–Pearson confidence interval
(:func:`repro.analysis.stats.clopper_pearson_interval`).

Every sampled check is one :class:`Check`, and one engine
(:func:`run_check`) runs any of them in five stages:

1. **sample** — :meth:`Check.sample` derives instance ``index`` from a
   counter stream, a pure function of ``(seed, index)``, so any block
   size or process count sees the same instance at the same index;
2. **run** — :meth:`Check.run` simulates one block of instances as one
   fleet;
3. **classify** — :meth:`Check.classify` puts each instance in one of
   the check's :attr:`~Check.classes`; the first class passes;
4. **bisect** (optional) — when :attr:`Check.bisect` is set, the
   check's column-invariant battery (:mod:`repro.core.invariants`) runs
   at every fleet round.  A violation aborts the whole block, so the
   engine re-runs halves down to single instances, ``O(log B)`` extra
   fleet runs per violating instance.  Once ``max_counterexamples``
   failures are localized, a failing sub-block is counted failing
   wholesale: conservative for the pass rate, and the interval inherits
   the conservatism;
5. **verdict** — :meth:`Check.verdict` decides whether the
   :class:`Report` upholds the contract.

The four checks:

=================  ======================================  ==================
check              contract                                classes
=================  ======================================  ==================
``statistical``    Theorem 1 (Algorithm 2) or Theorem 2's  passed / violated
                   stabilized verdict (Algorithm 3) end
                   state, column battery every round
``recovery``       where a faulted run ends up             recovered /
                                                           wrong_stable /
                                                           stuck
``anonymous-whp``  Lemma 18's ``1 - n^-c`` success floor   succeeded / failed
``topology``       the ear election's unique leader and    passed / violated
                   exact ``L * IDmax * C`` pulse count
=================  ======================================  ==================

Every instance outside the pass class becomes a :class:`Counterexample`
carrying its check and global index; :meth:`Counterexample.replay`
re-runs exactly that instance through the same engine, the only replay
path.  Injected faults (:mod:`repro.faults`) and the seeded schedule
draw counter-based decisions keyed on the global index, so a faulted or
seeded instance replays solo as it ran in its block, and any partition
of the samples into shards and blocks gives the same :func:`tally`.

Fault injection serves two roles:

* **Self-test** (``repro verify --statistical --inject-drop``): a
  :class:`~repro.faults.model.PulseDrop` deletes in-flight pulses at
  a chosen round.  Pulse loss is outside the model, so a correct kernel
  + invariant battery must flag it, demonstrating the full find →
  localize → replay loop.
* **Recovery harness** (:func:`run_recovery_check`): a full
  :class:`~repro.faults.model.FaultModel` perturbs every sampled run
  mid-flight, and each run is classified by where it *ends up*.
  Non-recovered runs are annotated with the first violated invariant.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

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
from repro.core.kernels import get_kernel
from repro.exceptions import ConfigurationError
from repro.faults.fleet import merge_events
from repro.faults.model import FaultModel, PulseDrop
from repro.simulator.fleet import (
    DEFAULT_MAX_ROUNDS,
    _mix64,
    check_scheduler,
    run_nonoriented_fleet,
    run_terminating_fleet,
)

#: Default fleet block size: big enough to amortize array dispatch,
#: small enough that bisecting a failing block stays cheap.
DEFAULT_BLOCK_SIZE = 8192

#: Algorithms with both a column invariant battery and an exact
#: end-state contract to check against.
CHECKABLE_ALGORITHMS = ("terminating", "nonoriented")

#: The three recovery verdicts, in decreasing order of health.
RECOVERY_CLASSES = ("recovered", "wrong_stable", "stuck")

_KEY_SAMPLE = 0xA24BAED4963EE407  # odd constant for the per-sample stream
_KEY_FLIP = 0x9E6C63D0876A9A35  # odd constant for the per-sample flip stream

#: Anything the fleet entry points accept as a fault argument.
FaultArg = Optional[Union[PulseDrop, FaultModel]]

#: ``(global index, class, message)`` of one instance outside the pass class.
Failure = Tuple[int, str, str]

#: Joins a counterexample's message to its forensic first invariant.
_FIRST_INVARIANT = "; first violated invariant: "

#: A per-round fleet hook (see :class:`repro.simulator.fleet.FleetRoundView`).
Observer = Optional[Callable[[Any], None]]


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


class Check:
    """One sampled check: the stages :func:`run_check` runs.

    Subclasses are frozen dataclasses of plain, picklable parameters, so
    one check travels to worker processes and into every
    :class:`Counterexample` it produces.  Each has a ``backend`` field,
    resolved to a concrete fleet tier on construction.
    """

    #: The tag reports and counterexamples carry.
    name: ClassVar[str] = ""
    #: Per-instance classes; the first is the pass class.
    classes: ClassVar[Tuple[str, ...]] = ("passed", "violated")
    #: Run :meth:`battery` every round, bisecting a violating block.
    bisect: ClassVar[bool] = True
    #: Prefix of a message localized from a per-round violation.
    violation_prefix: ClassVar[str] = ""
    #: Run a shard in fleet blocks of ``block_size``; False runs each
    #: shard as one fleet.
    blocked: ClassVar[bool] = True
    #: Fleet backend; every check declares it as a field.
    backend: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "backend", resolve_backend(self.backend))

    def sample(self, index: int) -> Any:
        """The instance at global sample ``index``."""
        raise NotImplementedError

    def run(self, block: List[Any], offset: int, observer: Observer) -> Any:
        """One fleet run over ``block``, whose first instance is ``offset``."""
        raise NotImplementedError

    def classify(
        self, sample: Any, result: Any, b: int, index: int
    ) -> Tuple[str, str]:
        """``(class, message)`` of instance ``b`` of ``result``."""
        raise NotImplementedError

    def battery(self) -> Sequence[Callable[[Any], None]]:
        """The column invariants a run must keep at every round."""
        return ()

    def verdict(self, report: "Report") -> bool:
        """Whether ``report`` upholds the check's contract."""
        return report.clean


@dataclass(frozen=True)
class RingCheck(Check):
    """Theorem 1 / Theorem 2 on sampled rings, battery every round.

    ``"terminating"`` (Algorithm 2): every node terminated, the unique
    maximal-ID leader elected, and exactly :math:`n(2\\,\\mathsf{ID}_{max}+1)`
    pulses spent.  ``"nonoriented"`` (Algorithm 3, successor IDs, per-sample
    adversarial port flips): the *stabilized verdict* contract of
    Theorem 2 — at quiescence every node is decided, the unique
    maximal-ID node is the one leader, all nodes agree on a ring
    orientation, and the same exact pulse bound holds.
    """

    algorithm: str
    n: int
    id_max: int
    seed: int = 0
    sched_seed: int = 0
    scheduler: str = "lockstep"
    backend: str = "auto"
    fault: FaultArg = None
    max_rounds: int = DEFAULT_MAX_ROUNDS
    watchdog_rounds: Optional[int] = None

    name = "statistical"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.algorithm not in CHECKABLE_ALGORITHMS:
            raise ConfigurationError(
                "statistical checking supports algorithm='terminating' "
                "(Algorithm 2) or 'nonoriented' (Algorithm 3), got "
                f"{self.algorithm!r}"
            )
        if self.n < 2:
            raise ConfigurationError(
                f"need a ring of at least 2 nodes, got n={self.n}"
            )
        if self.id_max < self.n:
            raise ConfigurationError(
                f"id_max={self.id_max} cannot host {self.n} distinct IDs"
            )
        check_scheduler(self.scheduler)

    def sample(self, index: int) -> Tuple[List[int], Optional[List[bool]]]:
        ids = ids_for_instance(self.seed, index, self.n, self.id_max)
        if self.algorithm == "nonoriented":
            return ids, flips_for_instance(self.seed, index, self.n)
        return ids, None

    def run(self, block: List[Any], offset: int, observer: Observer) -> Any:
        id_lists = [ids for ids, _flips in block]
        knobs: Dict[str, Any] = dict(
            backend=self.backend,
            scheduler=self.scheduler,
            seed=self.sched_seed,
            max_rounds=self.max_rounds,
            observer=observer,
            instance_offset=offset,
            watchdog_rounds=self.watchdog_rounds,
        )
        if self.algorithm == "nonoriented":
            flip_lists = [flips for _ids, flips in block]
            return run_nonoriented_fleet(
                id_lists, flip_lists=flip_lists, faults=self.fault, **knobs
            )
        return run_terminating_fleet(id_lists, faults=self.fault, **knobs)

    def battery(self) -> Sequence[Callable[[Any], None]]:
        return column_invariants_for(self.algorithm)

    def classify(
        self, sample: Any, result: Any, b: int, index: int
    ) -> Tuple[str, str]:
        ids = result.ids[b]
        expected_leader = max(range(len(ids)), key=lambda v: ids[v])
        bound = get_kernel(self.algorithm).module.pulse_bound(ids)
        if result.unfinished and result.unfinished[b]:
            return (
                "violated",
                f"instance {index}: did not quiesce "
                "(stuck-run watchdog cut the run)",
            )
        if self.algorithm == "nonoriented":
            undecided = [
                v
                for v, s in enumerate(result.states[b])
                if s is LeaderState.UNDECIDED
            ]
            if undecided:
                return (
                    "violated",
                    f"instance {index}: nodes {undecided} undecided at "
                    "quiescence (stabilized-verdict guard unmet)",
                )
            if result.leaders[b] != [expected_leader]:
                return (
                    "violated",
                    f"instance {index}: leaders {result.leaders[b]} != "
                    f"[{expected_leader}] (the maximal-ID node)",
                )
            if not (
                result.orientation_consistent is not None
                and result.orientation_consistent[b]
            ):
                return (
                    "violated",
                    f"instance {index}: inconsistent orientation: "
                    f"cw_port_labels="
                    f"{result.cw_port_labels[b] if result.cw_port_labels else None}",
                )
            if result.total_pulses[b] != bound:
                return (
                    "violated",
                    f"instance {index}: total pulses "
                    f"{result.total_pulses[b]} != n(2*IDmax+1) = "
                    f"{bound} (Theorem 2, successor IDs)",
                )
            return "passed", ""
        if result.terminated is not None and not all(result.terminated[b]):
            return "violated", f"instance {index}: not all nodes terminated"
        if result.leaders[b] != [expected_leader]:
            return (
                "violated",
                f"instance {index}: leaders {result.leaders[b]} != "
                f"[{expected_leader}] (the maximal-ID node)",
            )
        if result.total_pulses[b] != bound:
            return (
                "violated",
                f"instance {index}: total pulses {result.total_pulses[b]} "
                f"!= n(2*IDmax+1) = {bound}",
            )
        return "passed", ""


@dataclass(frozen=True)
class RecoveryCheck(RingCheck):
    """Faulted sampled rings, classified by their stable end state.

    Runs go *without* the per-round battery (mid-run breakage is
    expected under faults); only the end state is judged, and each
    non-recovered counterexample is annotated with the first invariant a
    forensic solo re-run violates.
    """

    name = "recovery"
    classes = RECOVERY_CLASSES
    bisect = False

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.fault is None:
            object.__setattr__(self, "fault", FaultModel.none())
        elif isinstance(self.fault, PulseDrop):
            object.__setattr__(self, "fault", FaultModel(drops=(self.fault,)))

    def classify(
        self, sample: Any, result: Any, b: int, index: int
    ) -> Tuple[str, str]:
        """``stuck`` — the watchdog cut the run, or it quiesced undecided,
        unterminated, or leaderless; ``wrong_stable`` — quiesced and
        decided, but with the wrong leaders or an inconsistent
        orientation; ``recovered`` — the correct stable state."""
        ids = result.ids[b]
        expected_leader = max(range(len(ids)), key=lambda v: ids[v])
        if result.unfinished and result.unfinished[b]:
            return (
                "stuck",
                f"instance {index}: watchdog cut the run before quiescence "
                "(deadlock or fault-sustained livelock)",
            )
        if self.algorithm == "nonoriented":
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
        if self.algorithm == "nonoriented" and not (
            result.orientation_consistent is not None
            and result.orientation_consistent[b]
        ):
            return (
                "wrong_stable",
                f"instance {index}: stable correct leader but inconsistent "
                f"orientation: cw_port_labels="
                f"{result.cw_port_labels[b] if result.cw_port_labels else None}",
            )
        return "recovered", f"instance {index}: recovered to the correct state"

    def verdict(self, report: "Report") -> bool:
        return sum(report.counts.values()) == report.samples


@dataclass(frozen=True)
class WhpCheck(Check):
    """Lemma 18 over seeded anonymous-pipeline attempts.

    Attempt ``index`` runs Algorithm 4's geometric ID sampling at
    exponent ``c`` feeding Algorithm 3 with seed ``seed + index``, and
    succeeds on a unique leader with a consistent orientation.  The
    verdict is the one-sided binomial test: the successes are consistent
    with a true rate at or above :attr:`target` exactly when the
    Clopper–Pearson upper bound reaches it.
    """

    n: int
    c: float = 2.0
    seed: int = 0
    backend: str = "auto"
    #: Lemma 18's floor :math:`1 - n^{-c}` (validates ``n`` and ``c``).
    target: float = field(init=False)

    name = "anonymous-whp"
    classes = ("succeeded", "failed")
    bisect = False
    blocked = False

    def __post_init__(self) -> None:
        from repro.analysis.whp import whp_target

        super().__post_init__()
        object.__setattr__(self, "target", whp_target(self.n, self.c))

    def sample(self, index: int) -> int:
        return self.seed + index

    def run(self, block: List[Any], offset: int, observer: Observer) -> Any:
        from repro.simulator.fleet import run_anonymous_fleet

        return run_anonymous_fleet(
            self.n, block, c=self.c, backend=self.backend
        ).succeeded

    def classify(
        self, sample: Any, result: Any, b: int, index: int
    ) -> Tuple[str, str]:
        if result[b]:
            return "succeeded", ""
        return (
            "failed",
            f"attempt seed {sample}: anonymous pipeline failed (no unique "
            "leader with consistent orientation)",
        )

    def verdict(self, report: "Report") -> bool:
        return report.rate_high >= self.target


@dataclass(frozen=True)
class TopologyCheck(Check):
    """The ear election's contract on one 2-edge-connected graph.

    Per instance: the warm-up column battery at every round of the
    virtual ring (the ear kernel *is* Algorithm 1 over virtual IDs, so
    the Lemma 6 / Corollary 14 / conservation column forms apply
    verbatim), then the end state — a unique physical leader at the
    argmax vertex, every virtual counter settled at ``VIDmax``, and the
    exact ``L * IDmax * C`` pulse count.  Graphs below the
    2-edge-connectivity frontier are refused with the bridge edge as
    witness.
    """

    graph: Any
    id_max: int
    seed: int = 0
    sched_seed: int = 0
    scheduler: str = "lockstep"
    backend: str = "auto"
    max_rounds: int = DEFAULT_MAX_ROUNDS

    name = "topology"
    violation_prefix = "column invariant: "

    def __post_init__(self) -> None:
        from repro.graphs.connectivity import require_two_edge_connected

        super().__post_init__()
        if self.id_max < self.graph.n:
            raise ConfigurationError(
                f"id_max={self.id_max} cannot host {self.graph.n} distinct IDs"
            )
        require_two_edge_connected(self.graph)
        check_scheduler(self.scheduler)

    @cached_property
    def routing(self) -> Any:
        """The virtual ring: walk length ``L`` and stride ``C``."""
        from repro.core.kernels import ear

        return ear.build_routing(self.graph)

    def sample(self, index: int) -> List[int]:
        return ids_for_instance(self.seed, index, self.graph.n, self.id_max)

    def run(self, block: List[Any], offset: int, observer: Observer) -> Any:
        from repro.simulator.fleet import run_ear_fleet

        return run_ear_fleet(
            self.graph,
            block,
            backend=self.backend,
            scheduler=self.scheduler,
            seed=self.sched_seed,
            max_rounds=self.max_rounds,
            observer=observer,
            instance_offset=offset,
        )

    def battery(self) -> Sequence[Callable[[Any], None]]:
        return column_invariants_for("warmup")

    def classify(
        self, sample: Any, result: Any, b: int, index: int
    ) -> Tuple[str, str]:
        expected = max(range(len(sample)), key=lambda v: sample[v])
        problems: List[str] = []
        if result.leaders[b] != expected:
            problems.append(
                f"leader {result.leaders[b]} != argmax vertex {expected}"
            )
        vid_max = max(result.virtual.ids[b])
        if any(rho != vid_max for rho in result.virtual.rho_cw[b]):
            problems.append(f"virtual counters not settled at VIDmax={vid_max}")
        from repro.core.kernels.ear import pulse_bound

        expected_pulses = pulse_bound(sample, result.routing)
        if result.virtual.total_pulses[b] != expected_pulses:
            problems.append(
                f"total pulses {result.virtual.total_pulses[b]} != "
                f"L*IDmax*C = {expected_pulses}"
            )
        return ("violated", "; ".join(problems)) if problems else ("passed", "")


@dataclass(frozen=True)
class Counterexample:
    """One instance outside its check's pass class, replayable.

    ``check`` (whose :attr:`~Check.name` tags the counterexample) and
    ``instance`` determine the run completely: :meth:`Check.sample`
    rederives the instance, faults and the seeded schedule key on the
    global index.
    ``first_invariant`` names the first column invariant a forensic
    re-run violated, for checks that run without the per-round battery.
    """

    check: Check
    instance: int
    classification: str
    message: str
    first_invariant: Optional[str] = None

    def replay(self) -> Optional[str]:
        """Re-run exactly this instance; its failure message, or None.

        Every stream keys on the global index, so a genuine
        counterexample always reproduces (:meth:`reproduces`).
        """
        _size, failures, _events = _run_shard((self.check, [self.instance], 1, 1))
        return failures[0][2] if failures else None

    def reproduces(self) -> bool:
        """Whether :meth:`replay` fails with this counterexample's own
        message, the first-invariant annotation aside."""
        return self.replay() == self.message.partition(_FIRST_INVARIANT)[0]


@dataclass
class Report:
    """Outcome of one :func:`run_check`: :func:`tally`'s counts,
    interval (at ``confidence``) and fault events over ``samples``, and
    the first counterexamples.  ``fault_events`` stays empty for a check
    with :attr:`~Check.bisect`, whose aborted runs report no events.
    """

    check: Check
    samples: int
    counts: Dict[str, int]
    confidence: float
    rate_low: float
    rate_high: float
    fault_events: Dict[str, int] = field(default_factory=dict)
    counterexamples: List[Counterexample] = field(default_factory=list)

    @property
    def passes(self) -> int:
        """Instances in the pass class."""
        return self.counts[self.check.classes[0]]

    @property
    def violations(self) -> int:
        """Instances outside the pass class."""
        return self.samples - self.passes

    @property
    def pass_rate(self) -> float:
        """Observed proportion of instances in the pass class."""
        return self.passes / self.samples

    @property
    def clean(self) -> bool:
        """True when every instance passed."""
        return self.violations == 0

    @property
    def holds(self) -> bool:
        """The check's verdict on this report."""
        return self.check.verdict(self)


def _observer(battery: Sequence[Callable[[Any], None]]) -> Callable[[Any], None]:
    """Per-round battery: run every column invariant on the view."""

    def observe(view: Any) -> None:
        for invariant in battery:
            invariant(view)

    return observe


def _run_block(
    check: Check,
    block: List[Any],
    offset: int,
    budget: int,
    events: List[Dict[str, int]],
) -> List[Failure]:
    """Failures within one block, in index order.

    A per-round violation aborts the fleet run, so the block is bisected
    to localize it.  ``budget`` caps how many failures are localized
    exactly; once spent, a failing sub-block is attributed wholesale
    (every instance failing, with the block-level message).
    """
    try:
        result = check.run(
            block, offset, _observer(check.battery()) if check.bisect else None
        )
    except InvariantViolation as violation:
        failed = check.classes[-1]
        if len(block) == 1:
            return [(offset, failed, check.violation_prefix + str(violation))]
        if budget <= 0:
            return [
                (offset + b, failed, f"unlocalized (budget exhausted): {violation}")
                for b in range(len(block))
            ]
        half = len(block) // 2
        left = _run_block(check, block[:half], offset, budget, events)
        right = _run_block(
            check, block[half:], offset + half, budget - len(left), events
        )
        return left + right
    if not check.bisect and getattr(result, "fault_events", None):
        events.append(result.fault_events)
    failures: List[Failure] = []
    for b, sample in enumerate(block):
        label, message = check.classify(sample, result, b, offset + b)
        if label != check.classes[0]:
            failures.append((offset + b, label, message))
    return failures


def _run_shard(
    job: Tuple[Check, Sequence[int], int, int],
) -> Tuple[int, List[Failure], Dict[str, int]]:
    """The one shard worker (picklable): the size, the failures (index
    order) and merged fault events of contiguous global ``indices``, run
    in blocks."""
    check, indices, block_size, budget = job
    if not check.blocked:
        block_size = max(len(indices), 1)
    failures: List[Failure] = []
    events: List[Dict[str, int]] = []
    for start in range(0, len(indices), block_size):
        chunk = indices[start : start + block_size]
        block = [check.sample(index) for index in chunk]
        failures.extend(
            _run_block(check, block, chunk[0], budget - len(failures), events)
        )
    return len(indices), failures, merge_events(*events) if events else {}


def _counts(
    classes: Sequence[str], total: int, failures: List[Failure]
) -> Dict[str, int]:
    counts = dict.fromkeys(classes, 0)
    for _index, label, _message in failures:
        counts[label] += 1
    counts[classes[0]] = total - len(failures)
    return counts


def tally(
    classes: Sequence[str],
    samples: int,
    shards: Iterable[Tuple[int, Iterable[Sequence[Any]], Optional[Dict[str, int]]]],
    confidence: float,
) -> Tuple[Dict[str, int], List[Failure], Dict[str, int], Tuple[float, float]]:
    """The one sampled-check tally (:func:`run_check`, the farm's
    recovery and ear folds): ``(size, failures, fault events)`` per
    shard of ``range(samples)`` folded into the counts, the failures in
    index order, the merged fault events and the exact Clopper–Pearson
    interval on the pass class.  Shards must cover ``samples``."""
    shards = list(shards)
    covered = sum(size for size, _failures, _events in shards)
    if covered != samples:
        raise ConfigurationError(
            f"aggregation mismatch: shards cover {covered} instances, "
            f"expected {samples}"
        )
    failures = sorted((i, c, m) for _size, part, _events in shards for i, c, m in part)
    counts = _counts(classes, samples, failures)
    events = [part for _size, _failures, part in shards if part]
    return (
        counts,
        failures,
        merge_events(*events) if events else {},
        clopper_pearson_interval(counts[classes[0]], samples, confidence=confidence),
    )


def check_shard(
    check: Check,
    indices: Sequence[int],
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> Tuple[Dict[str, int], List[Failure], Dict[str, int]]:
    """The shard seam: ``(counts, failures, fault_events)`` over exactly
    the contiguous global ``indices``, every failure localized.

    This is the unit of work the sweep farm caches.  Any partition of
    ``range(samples)`` into shards sums to the same counts and the same
    sorted failures :func:`run_check` computes in one pass, because
    every instance is counter-derived from ``(seed, index)`` alone;
    ``backend`` and ``block_size`` are bit-identical execution knobs.
    """
    indices = list(indices)
    size, failures, events = _run_shard((check, indices, block_size, len(indices)))
    return _counts(check.classes, size, failures), failures, events


def _first_violation(check: Check, index: int) -> Optional[str]:
    """Forensic solo re-run: the name of the first column invariant the
    run violates, or None.  The observer records the first violation and
    swallows it, so the run continues to its end state."""
    battery = check.battery()
    found: List[str] = []

    def observe(view: Any) -> None:
        if found:
            return
        for invariant in battery:
            try:
                invariant(view)
            except InvariantViolation:
                found.append(invariant.__name__)
                return

    if battery:
        check.run([check.sample(index)], index, observe)
    return found[0] if found else None


def _counterexample(
    check: Check, index: int, label: str, message: str
) -> Counterexample:
    first = None if check.bisect else _first_violation(check, index)
    if first is not None:
        message += _FIRST_INVARIANT + first
    return Counterexample(check, index, label, message, first)


def run_check(
    check: Check,
    samples: int,
    confidence: float = 0.99,
    block_size: int = DEFAULT_BLOCK_SIZE,
    max_counterexamples: int = 5,
    processes: ProcessCount = 1,
) -> Report:
    """Run ``check`` over global sample indices ``0 .. samples-1``.

    Samples are sharded evenly over ``processes`` and run in fleet
    blocks of ``block_size``; at most ``max_counterexamples`` failures
    per shard are localized by bisection and the first
    ``max_counterexamples`` overall become :class:`Counterexample`
    objects.
    """
    if samples < 1:
        raise ConfigurationError(f"need at least one sample, got {samples}")
    if block_size < 1:
        raise ConfigurationError(f"block_size must be >= 1, got {block_size}")
    if not 0.0 < confidence < 1.0:
        raise ConfigurationError(
            f"confidence must be in (0, 1), got {confidence}"
        )
    shards = shard_evenly(range(samples), resolve_processes(processes))
    per_shard = parallel_map(
        _run_shard,
        [(check, shard, block_size, max_counterexamples) for shard in shards],
        processes=processes,
    )
    counts, failures, events, (low, high) = tally(
        check.classes, samples, per_shard, confidence
    )
    examples = [
        _counterexample(check, *failure) for failure in failures[:max_counterexamples]
    ]
    return Report(check, samples, counts, confidence, low, high, events, examples)


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
) -> Report:
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
    check = RingCheck(
        algorithm=algorithm, n=n, id_max=id_max, seed=seed, sched_seed=sched_seed,
        scheduler=scheduler, backend=backend, fault=fault, max_rounds=max_rounds,
        watchdog_rounds=watchdog_rounds,
    )
    return run_check(
        check, samples, confidence, block_size, max_counterexamples, processes
    )


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
) -> Report:
    """Classify every faulted sampled run by its stable end state.

    This is the self-stabilization harness: inject the declarative
    ``faults`` (:class:`~repro.faults.model.FaultModel`) into every
    sampled instance and ask where each run *ends up* — ``recovered``,
    ``wrong_stable``, or ``stuck`` (see :meth:`RecoveryCheck.classify`).
    With ``faults=None`` (or a no-op model) every run must classify
    ``recovered`` — a useful control arm.
    """
    check = RecoveryCheck(
        algorithm=algorithm, n=n, id_max=id_max, seed=seed, sched_seed=sched_seed,
        scheduler=scheduler, backend=backend, fault=faults, max_rounds=max_rounds,
        watchdog_rounds=watchdog_rounds,
    )
    return run_check(
        check, samples, confidence, block_size, max_counterexamples, processes
    )


def run_anonymous_whp_check(
    n: int = 8,
    c: float = 2.0,
    trials: int = 400,
    seed: int = 0,
    backend: str = "auto",
    confidence: float = 0.99,
    max_counterexamples: int = 5,
    processes: ProcessCount = 1,
) -> Report:
    """Check Lemma 18's w.h.p. guarantee over ``trials`` seeded pipeline
    attempts (see :class:`WhpCheck`); failed attempts come back as
    seed-replayable counterexamples."""
    check = WhpCheck(n=n, c=c, seed=seed, backend=backend)
    return run_check(
        check, trials, confidence,
        max_counterexamples=max_counterexamples, processes=processes,
    )


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
) -> Report:
    """Statistically check the ear election's contract on one graph
    (see :class:`TopologyCheck`), sampling ID assignments from
    :func:`ids_for_instance` — the same counter stream as the ring
    checker."""
    check = TopologyCheck(
        graph=graph, id_max=id_max, seed=seed, sched_seed=sched_seed,
        scheduler=scheduler, backend=backend, max_rounds=max_rounds,
    )
    return run_check(check, samples, confidence, block_size, max_counterexamples)
