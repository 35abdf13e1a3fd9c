"""The Theorem 3 with-high-probability experiment at fleet scale.

Theorem 3 (via Lemma 18) promises that the anonymous pipeline —
Algorithm 4 sampling feeding Algorithm 3 — elects a unique leader and
a consistent orientation with probability :math:`1 - O(n^{-c})`.
Validating "with high probability" empirically needs *thousands* of
independent seeded attempts per parameter point, which is exactly the
workload the vectorized fleet engine (:mod:`repro.simulator.fleet`)
batches: this module runs one fleet per process shard and summarizes
the per-seed success indicators with a Wilson interval.

The geometric ID sampler has an unbounded tail, so a scalar engine
sweep must either cap its step budget (discarding seeds, which biases
the estimate) or pay :math:`O(n \\cdot \\mathrm{ID_{max}})` deliveries
on tail seeds.  The fleet's lap-skip fast-forward handles tail IDs in
closed form, so ``fleet=True`` takes *every* seed unbiased; the serial
path exists for differential checking at small scale.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from repro.analysis.parallel import ProcessCount
from repro.analysis.stats import BernoulliEstimate
from repro.exceptions import ConfigurationError


def whp_target(n: int, c: float) -> float:
    """Lemma 18's success-probability floor :math:`1 - n^{-c}`.

    The w.h.p. experiments and the statistical checker's anonymous
    predicate both test observed success counts against this target
    (via :meth:`~repro.analysis.stats.BernoulliEstimate.consistent_with_at_least`
    or the Clopper–Pearson upper bound).
    """
    if n < 2:
        raise ConfigurationError(f"need a ring of at least 2 nodes, got n={n}")
    if c <= 0:
        raise ConfigurationError(f"sampler exponent c must be > 0, got {c}")
    return 1.0 - float(n) ** (-c)


def measure_anonymous_success(
    n: int,
    trials: int,
    c: float = 2.0,
    seed: int = 0,
    processes: ProcessCount = None,
    fleet: bool = True,
    backend: str = "auto",
    z: float = 2.576,
    interval: str = "wilson",
    farm_root: Optional[Union[str, Path]] = None,
) -> BernoulliEstimate:
    """Estimate the Theorem 3 success probability over seeded attempts.

    Attempt ``i`` uses seed ``seed + i`` and succeeds when the pipeline
    elects exactly one leader with a consistent orientation (the
    :attr:`repro.core.anonymous.AnonymousOutcome.succeeded` predicate).

    Args:
        n: Ring size (at least 2, as :func:`whp_target` requires).
        trials: Number of independent seeded attempts.
        c: Sampler exponent; success probability is :math:`1 - O(n^{-c})`.
        seed: First attempt seed (attempts use a contiguous seed range).
        processes: Worker processes; the seed range is sharded evenly and
            each shard runs as one vectorized fleet.
        fleet: When False, run each seed through the scalar
            :func:`repro.core.anonymous.run_anonymous` pipeline instead
            (slow; only viable at small n and lucky seeds — used by the
            differential tests).  It has no farm path.
        backend: Fleet backend (``"auto"`` / ``"numpy"`` / ``"python"``).
        z: Confidence quantile for the Wilson interval.
        interval: ``"wilson"`` (default) or ``"clopper-pearson"`` — the
            exact interval the statistical checker reports (its ~99%
            level is derived from ``z`` as the matching normal quantile).
        farm_root: When set, route through the sweep farm rooted there
            (:mod:`repro.farm`): shards already in its content-addressed
            store are reused, new shards are computed and cached, and the
            estimate is aggregated from the store — bit-identical to the
            direct path (the per-seed flags are pure in ``seed + i``).

    Both engines fold their flags through the one ``whp`` fold of
    :func:`repro.farm.run_campaign`.
    """
    from repro.farm import Campaign, run_campaign, whp_params
    from repro.farm.workloads import FOLDS, collect_options

    options = collect_options(z=z, interval=interval)
    if trials < 1:
        raise ConfigurationError(f"need at least one trial, got {trials}")
    whp_target(n, c)
    campaign = Campaign("whp", total=trials, params=whp_params(n=n, c=c, seed=seed))
    if fleet:
        return run_campaign(
            campaign, farm_root, backend=backend, processes=processes, **options
        )
    if farm_root is not None:
        raise ConfigurationError(
            "the farm runs the fleet engine only: fleet=False "
            "(sweep --no-fleet) has no farm path"
        )
    from repro.core.anonymous import run_anonymous

    flags = [
        int(run_anonymous(n, c=c, seed=s).succeeded)
        for s in range(seed, seed + trials)
    ]
    fold, _layout = FOLDS["whp"]
    return fold(campaign, [[{"succeeded": flags}]], options)
