"""Statistics helpers for the randomized experiments (Theorem 3, Lemma 18).

"With high probability" claims cannot be asserted per-run; the anonymous-
ring experiments estimate success rates over many seeded trials and check
them against the paper's :math:`1 - O(n^{-c})` guarantee using binomial
confidence intervals.  Two interval constructions are provided:

* :func:`wilson_interval` — the Wilson score interval (robust at success
  rates near 1, where a normal approximation would degenerate); the
  default for the w.h.p. experiments.
* :func:`clopper_pearson_interval` — the exact (conservative) interval,
  used by the statistical model checker where the observed proportion is
  typically 0/N or N/N and an *exact* guarantee statement is wanted.
  Implemented from scratch (regularized incomplete beta via a Lentz
  continued fraction + bisection) so the checker stays dependency-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Tuple


@dataclass(frozen=True)
class BernoulliEstimate:
    """A success-rate estimate with a binomial confidence interval."""

    successes: int
    trials: int
    low: float
    high: float

    @property
    def rate(self) -> float:
        """Point estimate of the success probability."""
        return self.successes / self.trials

    def consistent_with_at_least(self, p: float) -> bool:
        """Could the true rate plausibly be ``>= p``?  (interval test)"""
        return self.high >= p


def wilson_interval(
    successes: int, trials: int, z: float = 2.576
) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Args:
        successes: Number of successful trials.
        trials: Total trials (must be positive).
        z: Normal quantile; the default 2.576 gives a ~99% interval.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes={successes} out of range for trials={trials}")
    p_hat = successes / trials
    denom = 1.0 + z * z / trials
    centre = (p_hat + z * z / (2 * trials)) / denom
    margin = (
        z
        * math.sqrt(p_hat * (1 - p_hat) / trials + z * z / (4 * trials * trials))
        / denom
    )
    return (max(0.0, centre - margin), min(1.0, centre + margin))


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Lentz's continued fraction for the incomplete beta (NR 'betacf')."""
    max_iterations = 300
    eps = 3e-14
    fpmin = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, max_iterations + 1):
        m2 = 2 * m
        numerator = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + numerator * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + numerator / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        h *= d * c
        numerator = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + numerator * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + numerator / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            break
    return h


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """:math:`I_x(a, b)`, the Beta(a, b) CDF at ``x`` (pure Python).

    Uses the continued fraction on whichever side of the distribution
    converges fast, with the symmetry
    :math:`I_x(a,b) = 1 - I_{1-x}(b,a)`.
    """
    if a <= 0 or b <= 0:
        raise ValueError(f"beta parameters must be positive, got a={a}, b={b}")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def _beta_ppf(q: float, a: float, b: float) -> float:
    """Quantile of Beta(a, b) by bisection on the monotone CDF."""
    low, high = 0.0, 1.0
    for _ in range(100):  # 2^-100: far below float spacing
        mid = 0.5 * (low + high)
        if regularized_incomplete_beta(a, b, mid) < q:
            low = mid
        else:
            high = mid
    return 0.5 * (low + high)


def clopper_pearson_interval(
    successes: int, trials: int, confidence: float = 0.99
) -> Tuple[float, float]:
    """Exact (Clopper–Pearson) confidence interval for a proportion.

    Guaranteed coverage at least ``confidence`` for every true rate —
    conservative, which is the right direction for a model checker's
    "no violation in N samples" statement.  Endpoints are the standard
    beta quantiles: ``low = Beta(alpha/2; s, n-s+1)`` (0 when ``s=0``),
    ``high = Beta(1-alpha/2; s+1, n-s)`` (1 when ``s=n``).

    Args:
        successes: Number of successful trials.
        trials: Total trials (must be positive).
        confidence: Two-sided coverage level in (0, 1); default 99%.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes={successes} out of range for trials={trials}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    alpha = 1.0 - confidence
    if successes == 0:
        low = 0.0
    else:
        low = _beta_ppf(alpha / 2.0, successes, trials - successes + 1)
    if successes == trials:
        high = 1.0
    else:
        high = _beta_ppf(1.0 - alpha / 2.0, successes + 1, trials - successes)
    return (low, high)


def z_to_confidence(z: float) -> float:
    """Two-sided coverage of the +-z normal range (so z=2.576 -> ~0.99)."""
    return max(1e-9, min(1 - 1e-12, math.erf(z / math.sqrt(2.0))))


def estimate_success_rate(
    trial_fn: Callable[[int], bool], seeds: Iterable[int], z: float = 2.576
) -> BernoulliEstimate:
    """Run ``trial_fn`` over seeds and summarize the success proportion.

    Args:
        trial_fn: Maps a seed to True (success) / False (failure).
        seeds: Seeds to evaluate (one trial each).
        z: Confidence quantile for the Wilson interval.
    """
    successes = 0
    trials = 0
    for seed in seeds:
        trials += 1
        if trial_fn(seed):
            successes += 1
    low, high = wilson_interval(successes, trials, z=z)
    return BernoulliEstimate(successes=successes, trials=trials, low=low, high=high)
