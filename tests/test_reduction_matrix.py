"""Four-way differential matrix over the reduction stack.

Every reduction layer (ample, sleep, symmetry, full) must produce the
unreduced explorer's verdicts on the small-instance grid — terminal
states, confluence, message counts, violation existence.  On top of the
equality matrix this file pins the acceptance criteria of the reduction
stack itself: the ``full`` mode's orbit-adjusted state reduction is at
least the ring size ``n`` on the Algorithm 2/3 instances, frontier
instances beyond the unreduced budget still certify, the visited store
spills to disk without changing verdicts, and unsound combinations
(symmetry under faults) are refused loudly.
"""

from __future__ import annotations

import pytest

from repro.core.invariants import ALGORITHM2_HOOKS
from repro.core.nonoriented import NonOrientedNode
from repro.core.terminating import TerminatingNode
from repro.core.warmup import WarmupNode
from repro.exceptions import ConfigurationError
from repro.faults import FaultModel, apply_fault_model
from repro.simulator.ring import build_nonoriented_ring, build_oriented_ring
from repro.verification import (
    REDUCTION_MODES,
    ExplorationLimitExceeded,
    explore_all_schedules,
    explore_reduced,
)


def oriented_factory(node_cls, ids, **kwargs):
    def build():
        return build_oriented_ring([node_cls(i, **kwargs) for i in ids]).network

    return build


def nonoriented_factory(ids, flips):
    def build():
        return build_nonoriented_ring(
            [NonOrientedNode(i) for i in ids], flips=flips
        ).network

    return build


#: The small-instance grid: (label, factory, include_duals).  Sizes are
#: chosen so the *unreduced* search finishes in well under a second each.
GRID = [
    ("warmup-4", oriented_factory(WarmupNode, [2, 3, 1, 4]), False),
    ("warmup-dup", oriented_factory(WarmupNode, [1, 2, 1, 2]), False),
    ("terminating-3", oriented_factory(TerminatingNode, [2, 3, 1]), False),
    ("nonoriented-3", nonoriented_factory([1, 2, 3], [False, True, False]), True),
]


def assert_matches_unreduced(full, reduced):
    """One reduction's certificate must agree with the reference search."""
    assert set(full.terminal_node_fingerprints) == set(
        reduced.terminal_node_fingerprints
    )
    assert full.confluent == reduced.confluent
    assert sorted(full.terminal_total_sent) == sorted(reduced.terminal_total_sent)
    assert (full.quiescence_violations == 0) == (
        reduced.quiescence_violations == 0
    )
    assert reduced.states_explored <= full.states_explored


@pytest.mark.parametrize(
    "label,factory,duals", GRID, ids=[row[0] for row in GRID]
)
@pytest.mark.parametrize("reduction", REDUCTION_MODES)
def test_four_way_verdict_equality(label, factory, duals, reduction):
    full = explore_all_schedules(factory)
    reduced = explore_reduced(
        factory, reduction=reduction, include_duals=duals
    )
    assert_matches_unreduced(full, reduced)
    assert reduced.reduction == reduction
    if reduction in ("symmetry", "full"):
        assert reduced.orbit_factor >= 1
        assert reduced.instances_certified == reduced.orbit_factor
        assert len(reduced.canonical_terminal_fingerprints) == len(
            reduced.terminal_node_fingerprints
        )
    else:
        assert reduced.orbit_factor == 1
        assert not reduced.canonical_terminal_fingerprints
    assert reduced.visited_bytes > 0
    assert not reduced.spilled


def test_sleep_layer_only_ever_prunes_states():
    """Sleep mode visits a subset of the ample search's states.

    (Transitions are *not* monotone: the state-matching variant may
    re-execute an edge when it re-reaches a state with a smaller sleep
    set — it trades a few repeated deliveries for never exploring a
    covered interleaving's subtree.)
    """
    skipped_anywhere = 0
    for _label, factory, _duals in GRID:
        ample = explore_reduced(factory, reduction="ample")
        sleep = explore_reduced(factory, reduction="sleep")
        assert sleep.states_explored <= ample.states_explored
        skipped_anywhere += sleep.sleep_skipped
    assert skipped_anywhere > 0


@pytest.mark.parametrize(
    "factory,n",
    [
        (oriented_factory(TerminatingNode, [2, 3, 1]), 3),
        (oriented_factory(TerminatingNode, [2, 3, 1, 4]), 4),
        (nonoriented_factory([1, 2, 3], [False, True, False]), 3),
    ],
    ids=["terminating-3", "terminating-4", "nonoriented-3"],
)
def test_full_reduction_beats_ring_size(factory, n):
    """Acceptance gate: orbit-adjusted reduction ≥ n on Algorithms 2/3."""
    full = explore_all_schedules(factory)
    reduced = explore_reduced(factory, reduction="full", include_duals=(n == 3))
    ratio = reduced.state_reduction_vs(full.states_explored)
    assert ratio >= n, f"reduction {ratio:.2f}x below ring size {n}"


def test_terminating_frontier_beyond_unreduced_budget():
    """Algorithm 2 frontier: unreduced blows a 4000-state budget, full fits."""
    ids = [1, 2, 3, 4, 5, 6]
    budget = 4_000
    factory = oriented_factory(TerminatingNode, ids)
    with pytest.raises(ExplorationLimitExceeded):
        explore_all_schedules(factory, max_states=budget)
    reduced = explore_reduced(factory, max_states=budget, reduction="full")
    assert reduced.confluent and reduced.quiescence_violations == 0
    assert reduced.terminal_total_sent == [len(ids) * (2 * max(ids) + 1)]
    assert reduced.orbit_factor == len(ids)


def test_nonoriented_frontier_beyond_unreduced_budget():
    """Algorithm 3 frontier: duals double the orbit, full fits the budget."""
    ids = [1, 2, 3, 4]
    flips = [False, True, False, False]
    budget = 4_000
    factory = nonoriented_factory(ids, flips)
    with pytest.raises(ExplorationLimitExceeded):
        explore_all_schedules(factory, max_states=budget)
    reduced = explore_reduced(
        factory, max_states=budget, reduction="full", include_duals=True
    )
    assert reduced.confluent and reduced.quiescence_violations == 0
    assert reduced.orbit_factor == 2 * len(ids)


# -- composition with faults --------------------------------------------------


def test_symmetry_under_faults_is_refused():
    plan = FaultModel(drop_rate=0.3, duplicate_rate=0.0, seed=7)

    def factory():
        network = build_oriented_ring([WarmupNode(i) for i in (1, 2, 3)]).network
        apply_fault_model(network, plan)
        return network

    for reduction in ("symmetry", "full"):
        with pytest.raises(ConfigurationError, match="fault"):
            explore_reduced(factory, reduction=reduction)


def test_sleep_under_faults_matches_unreduced():
    plan = FaultModel(drop_rate=0.2, duplicate_rate=0.2, seed=11)

    def factory():
        network = build_oriented_ring([WarmupNode(i) for i in (1, 2, 3)]).network
        apply_fault_model(network, plan)
        return network

    full = explore_all_schedules(factory)
    reduced = explore_reduced(factory, reduction="sleep")
    assert_matches_unreduced(full, reduced)


def test_unknown_reduction_mode_is_refused():
    with pytest.raises(ConfigurationError, match="unknown reduction"):
        explore_reduced(
            oriented_factory(WarmupNode, [1, 2]), reduction="turbo"
        )


# -- visited-store spilling ---------------------------------------------------


@pytest.mark.parametrize("reduction", ["ample", "full"])
def test_disk_spilled_visited_set_preserves_verdicts(tmp_path, reduction):
    factory = oriented_factory(TerminatingNode, [2, 3, 1])
    in_memory = explore_reduced(factory, reduction=reduction)
    spilled = explore_reduced(
        factory,
        reduction=reduction,
        spill_dir=str(tmp_path),
        spill_threshold=1,  # force an immediate spill
    )
    assert spilled.spilled and not in_memory.spilled
    assert spilled.states_explored == in_memory.states_explored
    assert spilled.transitions == in_memory.transitions
    assert set(spilled.terminal_node_fingerprints) == set(
        in_memory.terminal_node_fingerprints
    )
    assert spilled.terminal_total_sent == in_memory.terminal_total_sent
    assert spilled.visited_bytes >= in_memory.visited_bytes


@pytest.mark.parametrize("reduction", ["ample", "full"])
def test_shared_spill_dir_keeps_runs_apart(tmp_path, reduction):
    """Two spilling runs in one ``spill_dir`` never see each other's keys.

    The first run spills part-way (its early keys reach the database);
    the second spills at once.  Each must equal the in-memory
    certificate, and neither may leave a file behind.
    """
    factory = oriented_factory(TerminatingNode, [2, 3, 1])
    in_memory = explore_reduced(factory, reduction=reduction)
    for threshold in (40 * 130, 1):
        spilled = explore_reduced(
            factory,
            reduction=reduction,
            spill_dir=str(tmp_path),
            spill_threshold=threshold,
        )
        assert spilled.spilled
        for name in (
            "states_explored",
            "transitions",
            "terminal_node_fingerprints",
            "terminal_outputs",
            "terminal_total_sent",
            "canonical_terminal_fingerprints",
        ):
            assert getattr(spilled, name) == getattr(in_memory, name), name
    assert list(tmp_path.iterdir()) == []


# -- orbit spot-checks --------------------------------------------------------


def test_spot_checks_run_under_symmetry_only():
    factory = oriented_factory(TerminatingNode, [2, 3, 1])
    with_sym = explore_reduced(
        factory, invariant_hooks=ALGORITHM2_HOOKS, reduction="full"
    )
    without_sym = explore_reduced(
        factory, invariant_hooks=ALGORITHM2_HOOKS, reduction="sleep"
    )
    assert with_sym.spot_checks == with_sym.states_explored
    assert without_sym.spot_checks == 0


def test_duplicate_id_instances_reduce_soundly():
    # [2,2] is rotation-invariant: nothing to certify beyond itself.
    result = explore_reduced(
        oriented_factory(WarmupNode, [2, 2]), reduction="full"
    )
    assert result.orbit_factor == 1
    # [1,2,1,2] has a stabilizer of order 2: ambiguity handling engages.
    factory = oriented_factory(WarmupNode, [1, 2, 1, 2])
    full = explore_all_schedules(factory)
    reduced = explore_reduced(factory, reduction="full")
    assert_matches_unreduced(full, reduced)
    assert reduced.orbit_factor == 2


def test_summary_keys_are_stable():
    result = explore_reduced(
        oriented_factory(WarmupNode, [2, 3, 1]), reduction="full"
    )
    summary = result.summary()
    for key in (
        "reduction",
        "states",
        "transitions",
        "branch_reduction",
        "sleep_skipped",
        "orbit_factor",
        "instances_certified",
        "spot_checks",
        "visited_bytes",
        "spilled",
        "confluent",
    ):
        assert key in summary
    assert summary["reduction"] == "full"
    assert summary["states"] == result.states_explored
