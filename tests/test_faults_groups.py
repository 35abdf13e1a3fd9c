"""Correlated fault groups: validation, edge semantics, backend identity.

:class:`~repro.faults.model.FaultGroup` binds member clauses (crash,
relative drops, burst window) to one anchor and one shared trigger —
an absolute round or a rho/sigma threshold crossing.  These tests pin
the clause language itself (validation, the fire-round predicates, the
NodeCrash edge cases the grouped compilers inherit) and the contract
that matters downstream: grouped faults are **bit-identical across
fleet backends** and **stable under re-sharding**, because every roll
and every fire round is a pure function of the semantics coordinates.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.core.warmup import WarmupNode
from repro.exceptions import ConfigurationError
from repro.faults import apply_fault_model, merge_events
from repro.faults.model import (
    FaultBurst,
    FaultGroup,
    FaultModel,
    GroupDrop,
    NodeCrash,
)
from repro.simulator.fleet import HAVE_NUMPY
from repro.simulator.ring import build_oriented_ring
from repro.verification.statistical import RecoveryCheck, check_shard

from strategies import fault_groups

FLEET_BACKENDS = ["python"] + (["numpy"] if HAVE_NUMPY else [])


class TestGroupValidation:
    def test_exactly_one_trigger_required(self):
        with pytest.raises(ConfigurationError, match="exactly one trigger"):
            FaultGroup(anchor=0, crash=True)
        with pytest.raises(ConfigurationError, match="exactly one trigger"):
            FaultGroup(
                anchor=0, at_round=2, trigger_field="rho",
                trigger_threshold=1, crash=True,
            )

    def test_threshold_trigger_validates(self):
        with pytest.raises(ConfigurationError, match="trigger_field"):
            FaultGroup(
                anchor=0, trigger_field="tau", trigger_threshold=1, crash=True
            )
        with pytest.raises(ConfigurationError, match="trigger_threshold"):
            FaultGroup(
                anchor=0, trigger_field="rho", trigger_threshold=0, crash=True
            )
        with pytest.raises(ConfigurationError, match="one trigger"):
            FaultGroup(anchor=0, trigger_threshold=2, crash=True)

    def test_at_round_is_one_based(self):
        with pytest.raises(ConfigurationError, match="1-based"):
            FaultGroup(anchor=0, at_round=0, crash=True)
        FaultGroup(anchor=0, at_round=1, crash=True)  # the boundary is legal

    def test_restart_requires_crash(self):
        with pytest.raises(ConfigurationError, match="nothing to restart"):
            FaultGroup(anchor=0, at_round=1, restart_after=2,
                       drops=(GroupDrop(),))
        with pytest.raises(ConfigurationError, match="restart_after"):
            FaultGroup(anchor=0, at_round=1, crash=True, restart_after=0)

    def test_at_least_one_member_clause(self):
        with pytest.raises(ConfigurationError, match="at least one member"):
            FaultGroup(anchor=0, at_round=1)

    def test_anchor_nonnegative(self):
        with pytest.raises(ConfigurationError, match="anchor"):
            FaultGroup(anchor=-1, at_round=1, crash=True)

    def test_group_drop_validates(self):
        with pytest.raises(ConfigurationError, match="direction"):
            GroupDrop(direction="sideways")
        with pytest.raises(ConfigurationError, match="offset"):
            GroupDrop(offset=-1)
        with pytest.raises(ConfigurationError, match="count"):
            GroupDrop(count=0)

    def test_model_burst_conflicts_with_group_bursts(self):
        group = FaultGroup(
            anchor=0, at_round=1, burst=FaultBurst(start=1, length=2)
        )
        with pytest.raises(ConfigurationError):
            FaultModel(
                drop_rate=0.5, burst=FaultBurst(start=1, length=2),
                groups=(group,),
            )
        # Groups taking over the gating is the valid spelling.
        model = FaultModel(drop_rate=0.5, groups=(group,))
        assert not model.is_noop

    def test_groups_are_fleet_only(self):
        topology = build_oriented_ring([WarmupNode(1), WarmupNode(2)])
        model = FaultModel(
            groups=(FaultGroup(anchor=0, at_round=1, crash=True),)
        )
        with pytest.raises(ConfigurationError, match="fleet"):
            apply_fault_model(topology.network, model)

    def test_groups_disable_lap_skips(self):
        """Threshold triggers must observe every round, so the fleet
        fault adapter runs skip-free whenever groups are present."""
        from repro.faults.fleet import compile_fleet_faults

        grouped = FaultModel(
            groups=(FaultGroup(anchor=0, at_round=1, crash=True),)
        )
        (adapter,) = compile_fleet_faults(grouped, 4, "warmup")
        assert not adapter.allow_skips
        (clean,) = compile_fleet_faults(FaultModel(drop_rate=0.1), 4, "warmup")
        assert clean.allow_skips


class TestGroupFirePredicates:
    def test_down_and_restart_track_the_fire_round(self):
        group = FaultGroup(
            anchor=1, trigger_field="sigma", trigger_threshold=2,
            crash=True, restart_after=2,
        )
        fire = 5
        assert [group.down(r, fire) for r in range(4, 9)] == [
            False, True, True, False, False,
        ]
        assert group.restarts_at(7, fire) and not group.restarts_at(6, fire)

    def test_permanent_group_crash_never_restarts(self):
        group = FaultGroup(anchor=0, at_round=3, crash=True)
        assert group.down(10**6, 3) and not group.restarts_at(10**6, 3)

    def test_burst_window_is_relative_to_fire(self):
        group = FaultGroup(
            anchor=0, at_round=1, burst=FaultBurst(start=1, length=2)
        )
        fire = 4
        assert [group.burst_active(r, fire) for r in range(3, 8)] == [
            False, True, True, False, False,
        ]


class TestNodeCrashEdgeSemantics:
    """The edge cases the grouped compilers inherit from NodeCrash."""

    def test_round_zero_crash_rejected(self):
        with pytest.raises(ConfigurationError, match="1-based"):
            NodeCrash(node=0, at_round=0)

    def test_crash_at_first_round_is_down_immediately(self):
        crash = NodeCrash(node=0, at_round=1)
        assert crash.down(1) and crash.down(10**6)
        assert not crash.restarts_at(1)

    def test_restart_boundary_is_exact(self):
        crash = NodeCrash(node=0, at_round=4, restart_after=3)
        assert not crash.down(3)
        assert crash.down(4) and crash.down(6)
        assert not crash.down(7)
        assert crash.restarts_at(7)
        assert not crash.restarts_at(6) and not crash.restarts_at(8)

    @pytest.mark.parametrize("backend", FLEET_BACKENDS)
    def test_crash_at_round_one_classifies_identically(self, backend):
        faults = FaultModel(crashes=(NodeCrash(node=1, at_round=1),))
        counts, non_rec, events = check_shard(
            RecoveryCheck(
                algorithm="nonoriented", n=4, id_max=30, fault=faults, backend=backend,
            ),
            list(range(8)),
        )
        ref_counts, ref_non_rec, ref_events = check_shard(
            RecoveryCheck(
                algorithm="nonoriented", n=4, id_max=30, fault=faults, backend="python",
            ),
            list(range(8)),
        )
        assert (counts, non_rec, events) == (ref_counts, ref_non_rec, ref_events)

    @pytest.mark.parametrize("backend", FLEET_BACKENDS)
    def test_restart_beyond_horizon_equals_permanent(self, backend):
        """A restart scheduled past every reachable round must behave as
        a permanent crash — the reboot never lands inside the run."""
        horizon = 10**6
        late = FaultModel(
            crashes=(NodeCrash(node=1, at_round=3, restart_after=horizon),)
        )
        forever = FaultModel(crashes=(NodeCrash(node=1, at_round=3),))
        late_run = check_shard(
            RecoveryCheck(
                algorithm="nonoriented", n=4, id_max=30, fault=late, backend=backend,
            ),
            list(range(6)),
        )
        forever_run = check_shard(
            RecoveryCheck(
                algorithm="nonoriented", n=4, id_max=30, fault=forever, backend=backend,
            ),
            list(range(6)),
        )
        late_counts, late_non_rec, late_events = late_run
        forever_counts, forever_non_rec, forever_events = forever_run
        assert late_counts == forever_counts
        assert late_non_rec == forever_non_rec
        assert late_events.get("restarts", 0) == 0
        assert forever_events.get("restarts", 0) == 0

    def test_crash_restart_deep_in_run_is_backend_identical(self):
        """A crash-restart timed where a clean run would be lap-skipping:
        the fault disables skips, and every backend must agree on the
        resulting classification bit for bit."""
        faults = FaultModel(
            crashes=(NodeCrash(node=2, at_round=9, restart_after=4),)
        )
        runs = [
            check_shard(
                RecoveryCheck(
                    algorithm="nonoriented", n=5, id_max=40, fault=faults, backend=backend,
                ),
                list(range(8)),
            )
            for backend in FLEET_BACKENDS
        ]
        for other in runs[1:]:
            assert other == runs[0]
        assert runs[0][2]["restarts"] > 0


def _grouped_model() -> FaultModel:
    """One model exercising every grouped member clause at once."""
    return FaultModel(
        drop_rate=0.5,
        seed=3,
        groups=(
            FaultGroup(
                anchor=1,
                trigger_field="sigma",
                trigger_threshold=2,
                crash=True,
                restart_after=3,
                drops=(GroupDrop(offset=1, node_offset=1, direction="ccw"),),
                burst=FaultBurst(start=1, length=2),
            ),
        ),
    )


class TestGroupedBackendConformance:
    @pytest.mark.parametrize("backend", FLEET_BACKENDS)
    def test_grouped_model_matches_python_reference(self, backend):
        reference = check_shard(
            RecoveryCheck(
                algorithm="nonoriented", n=5, id_max=40, fault=_grouped_model(), backend="python",
            ),
            list(range(10)),
        )
        observed = check_shard(
            RecoveryCheck(
                algorithm="nonoriented", n=5, id_max=40, fault=_grouped_model(), backend=backend,
            ),
            list(range(10)),
        )
        assert observed == reference
        counts, _non_rec, events = reference
        assert sum(counts.values()) == 10
        assert events  # the group actually fired somewhere

    @pytest.mark.parametrize("trigger_field", ["rho", "sigma"])
    def test_threshold_triggers_agree_across_backends(self, trigger_field):
        faults = FaultModel(
            groups=(
                FaultGroup(
                    anchor=0,
                    trigger_field=trigger_field,
                    trigger_threshold=1,
                    crash=True,
                    restart_after=2,
                ),
            )
        )
        runs = [
            check_shard(
                RecoveryCheck(
                    algorithm="nonoriented", n=4, id_max=30, fault=faults, backend=backend,
                ),
                list(range(8)),
            )
            for backend in FLEET_BACKENDS
        ]
        for other in runs[1:]:
            assert other == runs[0]

    @given(group=fault_groups(max_anchor=3))
    @settings(max_examples=15, deadline=None)
    def test_arbitrary_groups_are_backend_identical(self, group):
        model = FaultModel(
            drop_rate=0.4 if group.burst is not None else 0.0,
            seed=2,
            groups=(group,),
        )
        runs = [
            check_shard(
                RecoveryCheck(
                    algorithm="nonoriented", n=4, id_max=24, fault=model, backend=backend,
                ),
                list(range(4)),
            )
            for backend in FLEET_BACKENDS
        ]
        for other in runs[1:]:
            assert other == runs[0]


class TestGroupedShardStability:
    def test_resharding_sums_to_the_single_pass(self):
        """Any partition of the index range re-derives the one-pass
        counts, sorted non-recovered list, and merged event totals —
        the property the farm's fixed-range shards rely on."""
        model = _grouped_model()
        whole = check_shard(
            RecoveryCheck(algorithm="nonoriented", n=5, id_max=40, fault=model),
            list(range(12)),
        )
        counts: dict = {}
        non_rec: list = []
        events: dict = {}
        for chunk in ([0, 1, 2], [3], [4, 5, 6, 7], [8, 9, 10, 11]):
            c, nr, ev = check_shard(
                RecoveryCheck(algorithm="nonoriented", n=5, id_max=40, fault=model),
                chunk,
            )
            counts = {
                key: counts.get(key, 0) + value for key, value in c.items()
            }
            non_rec.extend(nr)
            events = merge_events(events, ev)
        assert counts == whole[0]
        assert sorted(non_rec) == sorted(whole[1])
        assert events == whole[2]

    def test_block_size_does_not_change_grouped_results(self):
        model = _grouped_model()
        small = check_shard(
            RecoveryCheck(algorithm="nonoriented", n=5, id_max=40, fault=model),
            list(range(10)), 2,
        )
        large = check_shard(
            RecoveryCheck(algorithm="nonoriented", n=5, id_max=40, fault=model),
            list(range(10)), 64,
        )
        assert small == large
