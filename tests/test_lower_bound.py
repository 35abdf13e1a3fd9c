"""Section 6: solitude patterns and the message-complexity lower bound."""

import math

import pytest

from repro.analysis.complexity import algorithm2_pulses
from repro.core.lower_bound import (
    expected_algorithm2_pattern,
    find_common_prefix_group,
    find_pattern_collision,
    lower_bound_pulses,
    prefix_length,
    solitude_pattern,
    solitude_patterns,
)
from repro.core.terminating import TerminatingNode, run_terminating
from repro.core.warmup import WarmupNode
from repro.exceptions import ConfigurationError


def algorithm2_factory(node_id: int) -> TerminatingNode:
    return TerminatingNode(node_id)


class TestSolitudePatterns:
    @pytest.mark.parametrize("node_id", [1, 2, 3, 5, 10, 17])
    def test_algorithm2_pattern_closed_form(self, node_id):
        # In solitude, Algorithm 2's node with ID i observes 0^i 1^(i+1).
        assert solitude_pattern(algorithm2_factory, node_id) == (
            expected_algorithm2_pattern(node_id)
        )

    def test_pattern_length_matches_message_complexity(self):
        # On the n=1 ring every sent pulse is received by the node, so
        # the pattern length equals Theorem 1's count 2*ID + 1.
        for node_id in (1, 4, 9):
            assert len(solitude_pattern(algorithm2_factory, node_id)) == (
                2 * node_id + 1
            )

    def test_warmup_pattern_is_all_cw(self):
        # Algorithm 1 in solitude: the node receives exactly ID CW pulses.
        pattern = solitude_pattern(lambda i: WarmupNode(i), 6)
        assert pattern == "0" * 6

    def test_patterns_unique_across_id_universe(self):
        # Lemma 22: correct algorithms have collision-free patterns.
        patterns = solitude_patterns(algorithm2_factory, range(1, 65))
        assert find_pattern_collision(patterns) is None

    def test_collision_finder_detects_collisions(self):
        assert find_pattern_collision({1: "0011", 2: "0100", 3: "0011"}) == (1, 3)
        assert find_pattern_collision({1: "0", 2: "1"}) is None


class TestPigeonholeConstruction:
    """Corollary 24 made executable."""

    def test_prefix_length_formula(self):
        assert prefix_length(32, 4) == 3
        assert prefix_length(16, 16) == 0
        assert prefix_length(1024, 2) == 9

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            prefix_length(3, 5)

    @pytest.mark.parametrize("k,n", [(16, 2), (32, 4), (64, 8), (40, 5)])
    def test_group_shares_guaranteed_prefix(self, k, n):
        patterns = solitude_patterns(algorithm2_factory, range(1, k + 1))
        group, prefix = find_common_prefix_group(patterns, n)
        assert len(group) == n
        assert len(prefix) >= prefix_length(k, n)
        for node_id in group:
            assert patterns[node_id].startswith(prefix)

    def test_adversarial_assignment_forces_the_bound(self):
        # Theorem 20's construction, executed: place the prefix-sharing
        # IDs on a ring; the run must send at least n*floor(log2(k/n)).
        k, n = 64, 4
        patterns = solitude_patterns(algorithm2_factory, range(1, k + 1))
        group, _prefix = find_common_prefix_group(patterns, n)
        outcome = run_terminating(group)
        assert outcome.total_pulses >= lower_bound_pulses(n, k)


class TestBoundFormulas:
    def test_lower_bound_values(self):
        assert lower_bound_pulses(4, 64) == 4 * 4
        assert lower_bound_pulses(1, 1024) == 10
        assert lower_bound_pulses(8, 8) == 0

    def test_lower_bound_grows_without_bound_in_idmax(self):
        # "the number of messages in a ring of size n is unbounded"
        n = 2
        values = [lower_bound_pulses(n, 2**exp) for exp in range(2, 12)]
        assert values == sorted(values)
        assert values[-1] > values[0]

    def test_upper_bound_dominates_lower_bound(self):
        for n in (1, 2, 4, 16):
            for id_max in (n, 2 * n, 64 * n, 1024 * n):
                assert algorithm2_pulses(n, id_max) > lower_bound_pulses(
                    n, id_max
                )

    def test_upper_bound_requires_feasible_idmax(self):
        with pytest.raises(ConfigurationError):
            algorithm2_pulses(8, 5)

    def test_measured_cost_between_bounds(self):
        # Every actual run of Algorithm 2 sits between Theorem 4's floor
        # (with k = IDmax) and Theorem 1's exact ceiling.
        import random

        rng = random.Random(13)
        for _ in range(10):
            n = rng.randint(1, 10)
            ids = rng.sample(range(1, 300), n)
            outcome = run_terminating(ids)
            assert (
                lower_bound_pulses(n, max(ids))
                <= outcome.total_pulses
                == algorithm2_pulses(n, max(ids))
            )
