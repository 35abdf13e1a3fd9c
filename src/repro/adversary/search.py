"""Recovery-minimizing search over the adversarial plan space.

Two classic derivative-free strategies over the discrete grid of
:class:`~repro.adversary.plans.PlanSpace`:

* **cross-entropy** — keep one categorical distribution per plan
  coordinate, sample a population, evaluate, refit the distributions to
  the elite fraction (with additive smoothing so no choice's mass ever
  hits zero), repeat;
* **epsilon-greedy** — a bandit walk: with probability epsilon sample a
  fresh uniform plan (explore), otherwise resample one coordinate of
  the incumbent best (exploit).

Both minimize the same objective: the **Clopper–Pearson upper bound**
of the recovery rate under the candidate plan, measured by the exact
farm-cacheable shard seam
(:func:`repro.verification.statistical.check_shard` of a
:class:`~repro.verification.statistical.RecoveryCheck`).  Using the
upper bound rather than the point estimate makes the objective
pessimistic about the *adversary's* evidence — a plan only ranks as
worse-for-the-protocol when the data actually supports it — and makes
ties at equal counts break deterministically (canonical plan JSON is
the final tiebreak, so a search is a pure function of its seeds).

Evaluations are memoized per canonical plan: the objective is itself a
pure function of the plan and the evaluation coordinates, so revisiting
a plan costs nothing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.adversary.plans import AdversaryPlan, PlanSpace
from repro.exceptions import ConfigurationError
from repro.farm.keys import canonical_json

#: Strategy names the search loop (and the CLI) accepts.
STRATEGIES = ("cross-entropy", "epsilon-greedy")


@dataclass(frozen=True)
class EvalSettings:
    """The evaluation coordinates every candidate is measured under.

    These are exactly the semantics coordinates of the recovery shard
    seam, so an artifact carrying them replays bit-identically and a
    farm campaign built from them shares cache entries with any other
    campaign at the same point.
    """

    algorithm: str = "nonoriented"
    n: int = 5
    id_max: int = 40
    samples: int = 64
    seed: int = 0
    sched_seed: int = 0
    scheduler: str = "lockstep"
    backend: str = "auto"
    block_size: int = 256
    confidence: float = 0.99
    watchdog_rounds: Optional[int] = None

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise ConfigurationError(
                f"plan evaluation needs >= 1 sample, got {self.samples}"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "algorithm": self.algorithm,
            "n": self.n,
            "id_max": self.id_max,
            "samples": self.samples,
            "seed": self.seed,
            "sched_seed": self.sched_seed,
            "scheduler": self.scheduler,
            "confidence": self.confidence,
            "watchdog_rounds": self.watchdog_rounds,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], **overrides: Any) -> "EvalSettings":
        """Rebuild from an artifact dict.  Backend/block_size are
        execution knobs (bit-identical by the conformance battery), so
        a replay may override them freely."""
        return cls(
            algorithm=data["algorithm"],
            n=data["n"],
            id_max=data["id_max"],
            samples=data["samples"],
            seed=data["seed"],
            sched_seed=data["sched_seed"],
            scheduler=data["scheduler"],
            confidence=data["confidence"],
            watchdog_rounds=data["watchdog_rounds"],
            **overrides,
        )


@dataclass(frozen=True)
class PlanEvaluation:
    """One measured candidate: the plan and its recovery statistics."""

    plan: AdversaryPlan
    samples: int
    recovered: int
    wrong_stable: int
    stuck: int
    rate_low: float
    rate_high: float
    fault_events: Mapping[str, int] = field(default_factory=dict)

    @property
    def success_rate(self) -> float:
        return self.recovered / self.samples

    @property
    def objective(self) -> Tuple[float, float, str]:
        """Minimization key: CP upper bound, then point estimate, then
        canonical plan JSON (a total, deterministic order)."""
        return (
            self.rate_high,
            self.success_rate,
            canonical_json(self.plan.to_canonical()),
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "plan": self.plan.to_canonical(),
            "cost": self.plan.cost,
            "samples": self.samples,
            "recovered": self.recovered,
            "wrong_stable": self.wrong_stable,
            "stuck": self.stuck,
            "success_rate": self.success_rate,
            "rate_low": self.rate_low,
            "rate_high": self.rate_high,
            "fault_events": dict(self.fault_events),
        }


def evaluate_plan(
    plan: AdversaryPlan,
    settings: EvalSettings,
    farm_root: Optional[Union[str, Path]] = None,
) -> PlanEvaluation:
    """Measure one plan's recovery statistics (the search objective).

    The plan runs as an ``adversary`` campaign through
    :func:`repro.farm.run_campaign`: one shard over ``range(samples)``,
    or, with ``farm_root``, the sweep farm rooted there — whose jobs
    resolve to plain ``recovery`` shards, so repeated searches (and
    overlapping recovery campaigns) hit the content-addressed cache.
    """
    from repro.farm import Campaign, run_campaign
    from repro.farm.campaign import adversary_params

    campaign = Campaign(
        "adversary",
        total=settings.samples,
        params=adversary_params(
            plan=plan.to_canonical(),
            algorithm=settings.algorithm,
            n=settings.n,
            id_max=settings.id_max,
            seed=settings.seed,
            sched_seed=settings.sched_seed,
            scheduler=settings.scheduler,
            watchdog_rounds=settings.watchdog_rounds,
        ),
    )
    summary = run_campaign(
        campaign,
        farm_root,
        backend=settings.backend,
        block_size=settings.block_size,
        confidence=settings.confidence,
    )
    del summary["non_recovered"]
    return PlanEvaluation(plan=plan, **summary)


class _Memo:
    """Per-search evaluation cache keyed by canonical plan JSON."""

    def __init__(
        self,
        settings: EvalSettings,
        farm_root: Optional[Union[str, Path]],
    ) -> None:
        self.settings = settings
        self.farm_root = farm_root
        self.cache: Dict[str, PlanEvaluation] = {}
        self.evaluations = 0

    def __call__(self, plan: AdversaryPlan) -> PlanEvaluation:
        key = canonical_json(plan.to_canonical())
        hit = self.cache.get(key)
        if hit is not None:
            return hit
        evaluation = evaluate_plan(plan, self.settings, self.farm_root)
        self.cache[key] = evaluation
        self.evaluations += 1
        return evaluation


@dataclass
class SearchResult:
    """What one search run found, plus enough trace to audit it."""

    strategy: str
    budget: int
    search_seed: int
    iterations: int
    evaluations: int
    best: PlanEvaluation
    trace: List[Dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "strategy": self.strategy,
            "budget": self.budget,
            "search_seed": self.search_seed,
            "iterations": self.iterations,
            "evaluations": self.evaluations,
            "best": self.best.to_dict(),
            "trace": list(self.trace),
        }


def _better(a: PlanEvaluation, b: Optional[PlanEvaluation]) -> bool:
    return b is None or a.objective < b.objective


def _cross_entropy(
    space: PlanSpace,
    memo: _Memo,
    rng: "random.Random",
    iterations: int,
    population: int,
    elite_frac: float,
    smoothing: float,
    trace: List[Dict[str, Any]],
) -> PlanEvaluation:
    coords = space.coordinates()
    weights: Dict[str, List[float]] = {
        name: [1.0] * len(choices) for name, choices in coords.items()
    }
    n_elite = max(1, int(round(population * elite_frac)))
    best: Optional[PlanEvaluation] = None
    for iteration in range(iterations):
        candidates: List[Tuple[AdversaryPlan, Dict[str, int], List[int]]] = []
        for _ in range(population):
            idx = {
                name: rng.choices(
                    range(len(coords[name])), weights=weights[name]
                )[0]
                for name in coords
            }
            draw = {name: coords[name][i] for name, i in idx.items()}
            drop_idx = [
                (
                    rng.choices(
                        range(len(coords["drop_offset"])),
                        weights=weights["drop_offset"],
                    )[0],
                    rng.choices(
                        range(len(coords["drop_node_offset"])),
                        weights=weights["drop_node_offset"],
                    )[0],
                    rng.choices(
                        range(len(coords["drop_direction"])),
                        weights=weights["drop_direction"],
                    )[0],
                )
                for _ in range(draw["n_drops"])
            ]
            drop_coords = [
                (
                    coords["drop_offset"][o],
                    coords["drop_node_offset"][v],
                    coords["drop_direction"][d],
                )
                for o, v, d in drop_idx
            ]
            plan = space.assemble(draw, drop_coords)
            candidates.append((plan, idx, [i for triple in drop_idx for i in triple]))
        scored = [
            (memo(plan), idx, flat_drops)
            for plan, idx, flat_drops in candidates
        ]
        scored.sort(key=lambda item: item[0].objective)
        elites = scored[:n_elite]
        if _better(elites[0][0], best):
            best = elites[0][0]
        trace.append(
            {
                "iteration": iteration,
                "strategy": "cross-entropy",
                "best_rate_high": best.rate_high,
                "elite_rate_high": elites[0][0].rate_high,
            }
        )
        # Refit every categorical to elite counts, with additive
        # smoothing so no choice's probability collapses to zero.
        for name in coords:
            counts = [smoothing] * len(coords[name])
            for evaluation, idx, flat_drops in elites:
                if name in idx:
                    counts[idx[name]] += 1.0
                if name in ("drop_offset", "drop_node_offset", "drop_direction"):
                    offset = (
                        0
                        if name == "drop_offset"
                        else 1
                        if name == "drop_node_offset"
                        else 2
                    )
                    for i in range(offset, len(flat_drops), 3):
                        counts[flat_drops[i]] += 1.0
            weights[name] = counts
    assert best is not None  # iterations >= 1 is validated by the caller
    return best


def _epsilon_greedy(
    space: PlanSpace,
    memo: _Memo,
    rng: "random.Random",
    iterations: int,
    epsilon: float,
    trace: List[Dict[str, Any]],
) -> PlanEvaluation:
    best = memo(space.sample(rng))
    for iteration in range(iterations):
        if rng.random() < epsilon:
            candidate = space.sample(rng)
            move = "explore"
        else:
            candidate = space.mutate(best.plan, rng)
            move = "exploit"
        evaluation = memo(candidate)
        if _better(evaluation, best):
            best = evaluation
        trace.append(
            {
                "iteration": iteration,
                "strategy": "epsilon-greedy",
                "move": move,
                "candidate_rate_high": evaluation.rate_high,
                "best_rate_high": best.rate_high,
            }
        )
    return best


def search_worst_plan(
    space: PlanSpace,
    settings: EvalSettings,
    strategy: str = "cross-entropy",
    iterations: int = 8,
    population: int = 12,
    elite_frac: float = 0.25,
    epsilon: float = 0.3,
    smoothing: float = 0.5,
    search_seed: int = 0,
    farm_root: Optional[Union[str, Path]] = None,
) -> SearchResult:
    """Find the budgeted plan that minimizes the recovery CP upper bound.

    A zero-budget space short-circuits: the only admissible plan is the
    trivial one, which is evaluated once and returned (the CLI's
    ``--budget 0`` clean-exit contract).
    """
    if strategy not in STRATEGIES:
        raise ConfigurationError(
            f"unknown search strategy {strategy!r}; choose from {STRATEGIES}"
        )
    if iterations < 1:
        raise ConfigurationError(
            f"search needs >= 1 iteration, got {iterations}"
        )
    if population < 2:
        raise ConfigurationError(
            f"cross-entropy population must be >= 2, got {population}"
        )
    if not 0.0 < elite_frac <= 1.0:
        raise ConfigurationError(
            f"elite_frac must be in (0, 1], got {elite_frac}"
        )
    if not 0.0 <= epsilon <= 1.0:
        raise ConfigurationError(f"epsilon must be in [0, 1], got {epsilon}")
    memo = _Memo(settings, farm_root)
    trace: List[Dict[str, Any]] = []
    if space.budget == 0:
        best = memo(AdversaryPlan.trivial(space.fault_seed))
        return SearchResult(
            strategy=strategy,
            budget=0,
            search_seed=search_seed,
            iterations=0,
            evaluations=memo.evaluations,
            best=best,
            trace=trace,
        )
    rng = random.Random(search_seed)
    if strategy == "cross-entropy":
        best = _cross_entropy(
            space, memo, rng, iterations, population, elite_frac, smoothing, trace
        )
    else:
        best = _epsilon_greedy(space, memo, rng, iterations, epsilon, trace)
    return SearchResult(
        strategy=strategy,
        budget=space.budget,
        search_seed=search_seed,
        iterations=iterations,
        evaluations=memo.evaluations,
        best=best,
        trace=trace,
    )


def random_baseline(
    space: PlanSpace,
    settings: EvalSettings,
    count: int,
    search_seed: int = 0,
    farm_root: Optional[Union[str, Path]] = None,
) -> PlanEvaluation:
    """Best (lowest-objective) of ``count`` uniform random plans.

    The equal-budget yardstick for the CI smoke gate: a search that
    cannot beat (or at least match) blind sampling at the same budget
    is not searching.  Uses its own seeded stream, disjoint from the
    search's by construction (pass a different ``search_seed``).
    """
    if count < 1:
        raise ConfigurationError(
            f"baseline needs >= 1 random plan, got {count}"
        )
    memo = _Memo(settings, farm_root)
    rng = random.Random(search_seed)
    best: Optional[PlanEvaluation] = None
    for _ in range(count):
        evaluation = memo(space.sample(rng))
        if _better(evaluation, best):
            best = evaluation
    assert best is not None
    return best
