"""Average-case message counts for the classic baselines.

Chang-Roberts' famous analysis: over a uniformly random circular
placement of IDs, the expected number of candidate messages is
:math:`n \\cdot H_n` (the n-th harmonic number) — each node's candidate
message survives ``j`` hops with probability ``1/(j+1)``... summing to
``H_n`` expected hops per candidate.  The paper's algorithm, by
contrast, has *no* placement variance at all: its cost is the constant
``n(2*IDmax+1)``.

These helpers give the closed forms; the tests and the E5 bench compare
them against measured averages over random placements.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from repro.analysis.parallel import ProcessCount, parallel_map
from repro.exceptions import ConfigurationError


def harmonic(n: int) -> float:
    """The n-th harmonic number :math:`H_n = \\sum_{k=1}^n 1/k`."""
    if n < 1:
        raise ConfigurationError(f"harmonic number needs n >= 1, got {n}")
    return sum(1.0 / k for k in range(1, n + 1))


def chang_roberts_expected_candidate_messages(n: int) -> float:
    """Expected candidate messages over random placements: :math:`nH_n`."""
    return n * harmonic(n)


def chang_roberts_expected_total(n: int) -> float:
    """Expected total including the ``n`` announcement messages."""
    return chang_roberts_expected_candidate_messages(n) + n


@dataclass(frozen=True)
class PlacementStats:
    """Summary of measured message counts over random ID placements."""

    n: int
    trials: int
    mean: float
    minimum: int
    maximum: int

    @property
    def spread(self) -> int:
        """Max minus min: the placement sensitivity."""
        return self.maximum - self.minimum


def random_placements(n: int, trials: int, seed: int = 0) -> List[List[int]]:
    """``trials`` seeded random circular placements of the IDs ``1..n``.

    Built up front (and always sequentially) so that serial and parallel
    sweeps over the same seed visit byte-identical placements.
    """
    rng = random.Random(seed)
    base = list(range(1, n + 1))
    placements: List[List[int]] = []
    for _ in range(trials):
        ids = base[:]
        rng.shuffle(ids)
        placements.append(ids)
    return placements


def _stats_from_counts(n: int, counts: Sequence[int]) -> PlacementStats:
    return PlacementStats(
        n=n,
        trials=len(counts),
        mean=sum(counts) / len(counts),
        minimum=min(counts),
        maximum=max(counts),
    )


def _chang_roberts_total(ids: Sequence[int]) -> int:
    """Picklable worker: total messages of one Chang-Roberts run."""
    from repro.baselines import run_baseline
    from repro.baselines.chang_roberts import ChangRobertsNode

    return run_baseline(ChangRobertsNode, list(ids)).total_messages


def _oblivious_total(job: "Tuple[Sequence[int], bool]") -> int:
    """Picklable worker: total pulses of one Algorithm 2 run."""
    from repro.core.terminating import run_terminating

    ids, batched = job
    return run_terminating(list(ids), batched=batched).total_pulses


def measure_chang_roberts_over_placements(
    n: int, trials: int, seed: int = 0, processes: ProcessCount = None
) -> PlacementStats:
    """Run Chang-Roberts over ``trials`` random placements of ``1..n``.

    ``processes`` fans the placements out over worker processes (see
    :func:`repro.analysis.parallel.parallel_map`); results are identical
    to the serial sweep for any worker count.
    """
    placements = random_placements(n, trials, seed=seed)
    counts = parallel_map(_chang_roberts_total, placements, processes=processes)
    return _stats_from_counts(n, counts)


def measure_oblivious_over_placements(
    n: int,
    trials: int,
    seed: int = 0,
    processes: ProcessCount = None,
    batched: bool = False,
    fleet: Optional[bool] = None,
    backend: str = "auto",
    farm_root: Optional[Union[str, Path]] = None,
) -> PlacementStats:
    """The same sweep for Algorithm 2: the spread must be exactly zero.

    ``fleet`` advances all trials in lockstep through the vectorized
    fleet engine (:mod:`repro.simulator.fleet`) as a ``placements``
    campaign (:func:`repro.farm.run_campaign`), one fleet per worker
    process — processes × SIMD rather than processes × scalar.  With
    ``fleet`` off each trial runs on its own, on the engine's counting
    fast path when ``batched`` (identical outcomes, much faster for
    large IDs).  All paths produce identical statistics for identical
    seeds.  ``fleet`` defaults to on exactly when ``farm_root`` is set.

    ``farm_root`` routes the fleet sweep through the sweep farm rooted
    there (:mod:`repro.farm`): cached placement shards are reused, new
    ones are computed and cached, and the stats are collected from the
    store.  The farm runs only the fleet, so ``fleet=False`` with a
    ``farm_root`` is refused.
    """
    if trials < 1:
        raise ConfigurationError(f"need at least one trial, got {trials}")
    if fleet is None:
        fleet = farm_root is not None
    if fleet:
        from repro.farm import Campaign, placements_params, run_campaign

        campaign = Campaign(
            "placements", total=trials, params=placements_params(n=n, seed=seed)
        )
        return run_campaign(
            campaign, farm_root, backend=backend, processes=processes
        )
    if farm_root is not None:
        raise ConfigurationError(
            "the farm runs the fleet engine only: fleet=False "
            "(sweep --no-fleet) has no farm path"
        )
    counts = parallel_map(
        _oblivious_total,
        [(ids, batched) for ids in random_placements(n, trials, seed=seed)],
        processes=processes,
    )
    return _stats_from_counts(n, counts)
