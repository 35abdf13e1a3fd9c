"""Average-case analysis: Chang-Roberts' n*H_n vs Algorithm 2's constancy."""

import pytest

from repro.analysis.average_case import (
    chang_roberts_expected_candidate_messages,
    chang_roberts_expected_total,
    harmonic,
    measure_chang_roberts_over_placements,
    measure_oblivious_over_placements,
)
from repro.exceptions import ConfigurationError


class TestHarmonic:
    def test_known_values(self):
        assert harmonic(1) == 1.0
        assert harmonic(2) == 1.5
        assert harmonic(4) == pytest.approx(25 / 12)

    def test_monotone(self):
        values = [harmonic(n) for n in range(1, 30)]
        assert values == sorted(values)

    def test_invalid_rejected(self):
        with pytest.raises(ConfigurationError):
            harmonic(0)


class TestChangRobertsAverageCase:
    def test_measured_mean_tracks_n_harmonic_n(self):
        # 300 random placements of 1..16: the mean total should land
        # within ~10% of n*H_n + n.
        stats = measure_chang_roberts_over_placements(16, trials=300, seed=4)
        expected = chang_roberts_expected_total(16)
        assert stats.mean == pytest.approx(expected, rel=0.10)

    def test_placement_spread_is_wide(self):
        stats = measure_chang_roberts_over_placements(16, trials=300, seed=4)
        # best case 3n-1 = 47, worst n(n+1)/2 + n = 152: real spread.
        assert stats.spread > 16

    def test_mean_between_best_and_worst(self):
        n = 12
        stats = measure_chang_roberts_over_placements(n, trials=200, seed=1)
        assert 3 * n - 1 <= stats.minimum
        assert stats.maximum <= n * (n + 1) // 2 + n
        assert stats.minimum < stats.mean < stats.maximum


class TestObliviousConstancy:
    def test_zero_spread_across_placements(self):
        # Theorem 1's count depends only on (n, IDmax), both placement-
        # invariant: the measured spread must be exactly zero.
        stats = measure_oblivious_over_placements(10, trials=60, seed=2)
        assert stats.spread == 0
        assert stats.mean == 10 * (2 * 10 + 1)

    @pytest.mark.parametrize("fleet", [True, False])
    def test_no_trials_rejected(self, fleet):
        with pytest.raises(ConfigurationError, match="need at least one trial, got 0"):
            measure_oblivious_over_placements(4, trials=0, fleet=fleet)

    def test_expected_formula_helpers(self):
        assert chang_roberts_expected_candidate_messages(1) == 1.0
        assert chang_roberts_expected_total(2) == pytest.approx(2 * 1.5 + 2)
