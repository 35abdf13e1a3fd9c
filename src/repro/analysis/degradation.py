"""Graceful-degradation curves: success probability vs fault rate.

The paper's guarantees are all-or-nothing — inside the model (FIFO
channels, no loss or injection) the algorithms are exact; the fault
subsystem (:mod:`repro.faults`) steps outside it on purpose.  This
module quantifies *how* the guarantees die: for each point of a fault
severity grid it runs the recovery check
(:class:`repro.verification.statistical.RecoveryCheck`) over a fresh
sample of instances and records the recovery probability with an exact
Clopper–Pearson band.

The resulting :class:`DegradationCurve` is the repo's robustness
contract, which ``tests/test_faults_model.py`` checks on every fault
kind:

* at fault rate 0 the success rate must be exactly 1.0 (the control arm
  — the fault harness itself must not perturb a fault-free run);
* moving along the grid, success must degrade *monotonically within the
  confidence bands* — a later point may not be significantly better
  than an earlier one (point estimates may wiggle inside their bands;
  that is sampling noise, not a violation).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.analysis.parallel import ProcessCount
from repro.exceptions import ConfigurationError
from repro.faults.model import FaultModel


@dataclass(frozen=True)
class DegradationPoint:
    """One grid point: a fault severity and its measured recovery rate."""

    rate: float
    samples: int
    recovered: int
    wrong_stable: int
    stuck: int
    low: float
    high: float
    fault_events: Dict[str, int] = field(default_factory=dict)

    @property
    def success_rate(self) -> float:
        """Point estimate of the recovery probability."""
        return self.recovered / self.samples

    def to_dict(self) -> dict:
        return {
            "rate": self.rate,
            "samples": self.samples,
            "recovered": self.recovered,
            "wrong_stable": self.wrong_stable,
            "stuck": self.stuck,
            "success_rate": self.success_rate,
            "low": self.low,
            "high": self.high,
            "fault_events": dict(self.fault_events),
        }


@dataclass
class DegradationCurve:
    """Success-probability-vs-fault-rate curve for one fault kind."""

    algorithm: str
    kind: str
    n: int
    id_max: int
    confidence: float
    seed: int
    backend: str
    scheduler: str
    points: List[DegradationPoint] = field(default_factory=list)

    @property
    def clean_at_zero(self) -> bool:
        """True when the rate-0 point (if present) has success rate 1.0."""
        for point in self.points:
            if point.rate == 0.0:
                return point.success_rate == 1.0
        return True

    def monotone_within_bands(self) -> bool:
        """True when no later point is significantly *better* than an
        earlier one: each point's estimate must not exceed the upper
        confidence bound of every earlier (milder) point."""
        for i, earlier in enumerate(self.points):
            for later in self.points[i + 1 :]:
                if later.success_rate > earlier.high:
                    return False
        return True

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "kind": self.kind,
            "n": self.n,
            "id_max": self.id_max,
            "confidence": self.confidence,
            "seed": self.seed,
            "backend": self.backend,
            "scheduler": self.scheduler,
            "clean_at_zero": self.clean_at_zero,
            "monotone_within_bands": self.monotone_within_bands(),
            "points": [point.to_dict() for point in self.points],
        }


#: Fault kinds the sweep knows how to scale by a single rate knob.
#: ``crash`` is node- rather than channel-scoped: each (instance, node)
#: rolls one counter-based fail-stop decision (see
#: ``FaultModel.crash_rate``), so the curve covers node failures too.
SWEEP_KINDS = ("drop", "duplicate", "spurious", "crash")


def model_for_rate(kind: str, rate: float, seed: int) -> FaultModel:
    """The :class:`FaultModel` of one grid point of a ``kind`` sweep."""
    if kind not in SWEEP_KINDS:
        raise ConfigurationError(
            f"unknown sweep kind {kind!r}; expected one of {SWEEP_KINDS}"
        )
    base = FaultModel(seed=seed)
    if kind == "drop":
        return replace(base, drop_rate=rate)
    if kind == "duplicate":
        return replace(base, duplicate_rate=rate)
    if kind == "crash":
        return replace(base, crash_rate=rate)
    return replace(base, spurious_rate=rate)


def measure_degradation(
    rates: Sequence[float],
    kind: str = "drop",
    algorithm: str = "nonoriented",
    n: int = 6,
    id_max: int = 64,
    samples: int = 200,
    seed: int = 0,
    sched_seed: int = 0,
    scheduler: str = "lockstep",
    backend: str = "auto",
    block_size: int = 256,
    confidence: float = 0.99,
    fault_seed: int = 0,
    watchdog_rounds: Optional[int] = None,
    processes: ProcessCount = 1,
    farm_root: Optional[Union[str, Path]] = None,
) -> DegradationCurve:
    """Measure one degradation curve over the ``rates`` grid.

    Every grid point reruns the same ``samples`` sampled instances (same
    ``seed``) under :func:`model_for_rate` ``(kind, rate)``, so points
    differ only in fault severity — the curve isolates the fault knob.

    The curve is a ``degradation`` campaign run by
    :func:`repro.farm.run_campaign`: without ``farm_root`` each rate's
    samples are split evenly over ``processes`` workers and run in fleet
    blocks of ``block_size``.  With ``farm_root`` set the sweep routes
    through the sweep farm (:mod:`repro.farm`): each (rate, shard-range)
    cell becomes a content-addressed job, cached cells are reused
    (including cells a standalone recovery campaign already computed),
    and the curve is collected from the store.  Both give the same
    curve, under either scheduler.
    """
    from repro.accel import resolve_backend
    from repro.farm import Campaign, degradation_params, run_campaign

    if not rates:
        raise ConfigurationError("need at least one fault rate to sweep")
    ordered = list(rates)
    if ordered != sorted(ordered):
        raise ConfigurationError(
            f"sweep rates must be non-decreasing, got {ordered}"
        )
    if samples < 1:
        raise ConfigurationError(f"need at least one sample, got {samples}")
    campaign = Campaign(
        "degradation",
        total=samples,
        params=degradation_params(
            kind=kind,
            rates=tuple(ordered),
            algorithm=algorithm,
            n=n,
            id_max=id_max,
            seed=seed,
            sched_seed=sched_seed,
            scheduler=scheduler,
            fault_seed=fault_seed,
            watchdog_rounds=watchdog_rounds,
        ),
    )
    return run_campaign(
        campaign,
        farm_root,
        backend=backend,
        processes=processes,
        block_size=block_size,
        confidence=confidence,
        backend_label=resolve_backend(backend),
    )
