"""The unified fault language: model validation, counter-based rolls,
seeded replay, recovery classification, and degradation curves.

:mod:`repro.faults` is one declarative description compiled onto every
backend; these tests pin the language itself (validation, the pure
counter-based decision function, seeded-replay determinism of the
event-channel compiler) and the two consumers built on it — the recovery
harness (:class:`repro.verification.statistical.RecoveryCheck`) and
the graceful-degradation sweep
(:func:`repro.analysis.degradation.measure_degradation`).
"""

from __future__ import annotations

import pytest

from repro.analysis.degradation import (
    DegradationCurve,
    DegradationPoint,
    measure_degradation,
    model_for_rate,
)
from repro.core.warmup import WarmupNode
from repro.exceptions import ConfigurationError
from repro.faults import (
    FAULT_SPURIOUS_BIT,
    FAULT_TWIN_BIT,
    FaultBurst,
    FaultGroup,
    FaultModel,
    FaultyChannel,
    GroupDrop,
    NodeCrash,
    PulseDrop,
    StateCorruption,
    apply_fault_model,
    corruptible_fields,
    fault_counts,
    is_fault_seq,
    merge_events,
    rate_threshold,
    roll_u64,
)
from repro.faults.model import KIND_DROP, KIND_SEND
from repro.simulator.engine import Engine
from repro.simulator.fleet import (
    HAVE_NUMPY,
    run_nonoriented_fleet,
    run_terminating_fleet,
    run_warmup_fleet,
)
from repro.simulator.ring import build_oriented_ring
from repro.verification.statistical import (
    RECOVERY_CLASSES,
    RecoveryCheck,
    flips_for_instance,
    ids_for_instance,
    run_check,
)

BACKENDS = ["python"] + (["numpy"] if HAVE_NUMPY else [])


class TestModelValidation:
    def test_rates_must_be_probabilities(self):
        with pytest.raises(ConfigurationError):
            FaultModel(drop_rate=1.5)
        with pytest.raises(ConfigurationError):
            FaultModel(spurious_rate=-0.1)

    def test_drop_plus_duplicate_share_one_roll(self):
        with pytest.raises(ConfigurationError):
            FaultModel(drop_rate=0.7, duplicate_rate=0.5)

    def test_all_zero_model_is_the_valid_noop(self):
        assert FaultModel().is_noop
        assert FaultModel.none().is_noop
        assert not FaultModel(drop_rate=0.1).is_noop
        assert not FaultModel(crashes=(NodeCrash(node=0, at_round=1),)).is_noop

    def test_burst_window(self):
        with pytest.raises(ConfigurationError):
            FaultBurst(start=0)
        with pytest.raises(ConfigurationError):
            FaultBurst(start=1, length=0)
        burst = FaultBurst(start=3, length=2)
        assert [burst.covers(k) for k in range(1, 7)] == [
            False, False, True, True, False, False,
        ]
        assert FaultBurst(start=2).covers(10**9)  # unbounded tail

    def test_crash_schedule(self):
        with pytest.raises(ConfigurationError):
            NodeCrash(node=-1, at_round=1)
        with pytest.raises(ConfigurationError):
            NodeCrash(node=0, at_round=0)
        with pytest.raises(ConfigurationError):
            NodeCrash(node=0, at_round=1, restart_after=0)
        crash = NodeCrash(node=2, at_round=3, restart_after=2)
        assert [crash.down(r) for r in range(1, 7)] == [
            False, False, True, True, False, False,
        ]
        assert crash.restarts_at(5) and not crash.restarts_at(4)
        forever = NodeCrash(node=2, at_round=3)
        assert forever.down(10**6) and not forever.restarts_at(10**6)

    def test_corruption_and_drop_clauses_validate(self):
        with pytest.raises(ConfigurationError):
            StateCorruption(node=0, at_round=0)
        with pytest.raises(ConfigurationError):
            StateCorruption(node=0, at_round=1, value=-3)
        with pytest.raises(ConfigurationError):
            PulseDrop(round_index=1, node=0, direction="sideways")
        with pytest.raises(ConfigurationError):
            PulseDrop(round_index=0, node=0)

    def test_corruptible_fields_trace_to_kernel_schemas(self):
        assert corruptible_fields("warmup") == ("rho_cw", "sigma_cw")
        assert "pending_ccw" in corruptible_fields("terminating")
        assert corruptible_fields("nonoriented") == (
            "rho_cw", "sigma_cw", "rho_ccw", "sigma_ccw",
        )
        with pytest.raises(ConfigurationError):
            corruptible_fields("anonymous")


class TestCounterRolls:
    def test_roll_is_pure_in_its_coordinates(self):
        base = roll_u64(7, KIND_DROP, 3, 5, 2, 1)
        assert roll_u64(7, KIND_DROP, 3, 5, 2, 1) == base
        # Moving any single coordinate lands on a different 64-bit value.
        assert roll_u64(8, KIND_DROP, 3, 5, 2, 1) != base
        assert roll_u64(7, KIND_SEND, 3, 5, 2, 1) != base
        assert roll_u64(7, KIND_DROP, 4, 5, 2, 1) != base
        assert roll_u64(7, KIND_DROP, 3, 6, 2, 1) != base
        assert roll_u64(7, KIND_DROP, 3, 5, 3, 1) != base
        assert roll_u64(7, KIND_DROP, 3, 5, 2, 2) != base

    def test_rate_threshold_endpoints(self):
        assert rate_threshold(0.0) == 0
        assert rate_threshold(1.0) == 1 << 64  # certain means certain
        assert rate_threshold(2.0) == 1 << 64
        mid = rate_threshold(0.5)
        assert abs(mid - (1 << 63)) <= 1

    def test_send_outcome_replays_in_any_order(self):
        model = FaultModel(drop_rate=0.3, duplicate_rate=0.3,
                           spurious_rate=0.2, seed=11)
        forward = [model.send_outcome(4, i) for i in range(50)]
        backward = [model.send_outcome(4, i) for i in reversed(range(50))]
        assert forward == list(reversed(backward))
        outcomes = {c for c, _ in forward}
        assert outcomes <= {0, 1, 2} and len(outcomes) > 1

    def test_burst_gates_random_rates(self):
        burst = FaultBurst(start=1, length=3)
        model = FaultModel(drop_rate=1.0, seed=0, burst=burst)
        # Ordinal k of send index i is i + 1: only the first 3 sends drop.
        assert [model.send_outcome(0, i)[0] for i in range(5)] == [0, 0, 0, 1, 1]


def _fresh_channel(model):
    topology = build_oriented_ring([WarmupNode(1), WarmupNode(2)])
    return FaultyChannel(topology.network.channels[0], model)


class TestFaultyChannelSeededReplay:
    def test_same_seed_same_fault_pattern_bit_for_bit(self):
        model = FaultModel(drop_rate=0.25, duplicate_rate=0.25,
                           spurious_rate=0.15, seed=9)
        first = _fresh_channel(model)
        second = _fresh_channel(model)
        for seq in range(1, 40):
            first.enqueue(send_seq=seq)
            second.enqueue(send_seq=seq)
        assert list(first._queue) == list(second._queue)
        assert (first.dropped, first.duplicated, first.injected) == (
            second.dropped, second.duplicated, second.injected,
        )
        assert first.dropped + first.duplicated + first.injected > 0

    def test_different_seed_different_pattern(self):
        a = _fresh_channel(FaultModel(drop_rate=0.5, seed=1))
        b = _fresh_channel(FaultModel(drop_rate=0.5, seed=2))
        for seq in range(1, 60):
            a.enqueue(send_seq=seq)
            b.enqueue(send_seq=seq)
        assert list(a._queue) != list(b._queue)

    def test_twin_and_spurious_pulses_are_tagged(self):
        dup = _fresh_channel(FaultModel(duplicate_rate=1.0))
        dup.enqueue(send_seq=5)
        seqs = [seq for seq, _ in dup._queue]
        assert seqs == [5, 5 | FAULT_TWIN_BIT]
        assert [is_fault_seq(s) for s in seqs] == [False, True]

        spur = _fresh_channel(FaultModel(spurious_rate=1.0))
        spur.enqueue(send_seq=5)
        seqs = [seq for seq, _ in spur._queue]
        assert seqs == [5, 5 | FAULT_SPURIOUS_BIT]
        assert is_fault_seq(seqs[1]) and spur.injected == 1

    def test_fleet_only_clauses_rejected_by_event_compiler(self):
        topology = build_oriented_ring([WarmupNode(1), WarmupNode(2)])
        model = FaultModel(crashes=(NodeCrash(node=0, at_round=2),))
        with pytest.raises(ConfigurationError, match="fleet"):
            apply_fault_model(topology.network, model)

    def test_engine_run_replays_identically(self):
        model = FaultModel(drop_rate=0.2, duplicate_rate=0.2, seed=4)
        counts = []
        for _ in range(2):
            nodes = [WarmupNode(i) for i in [3, 7, 5]]
            topology = build_oriented_ring(nodes)
            apply_fault_model(topology.network, model)
            result = Engine(topology.network, max_steps=50_000).run()
            counts.append((result.total_sent, fault_counts(topology.network)))
        assert counts[0] == counts[1]
        assert counts[0][1]["dropped"] + counts[0][1]["duplicated"] > 0


class TestFleetEventCounters:
    def test_fault_events_reported_and_mergeable(self):
        model = FaultModel(drop_rate=0.05, seed=3)
        result = run_nonoriented_fleet(
            [[3, 1, 2], [2, 3, 1]], faults=model, backend="python"
        )
        assert result.fault_events is not None
        assert result.fault_events["dropped"] > 0
        merged = merge_events(result.fault_events, {"dropped": 1, "restarts": 2})
        assert merged["dropped"] == result.fault_events["dropped"] + 1
        assert merged["restarts"] == 2

    def test_noop_model_reports_no_events(self):
        result = run_terminating_fleet([[2, 1, 3]], faults=FaultModel.none())
        assert result.fault_events is None
        assert result.leaders == [[2]]

    def test_corruption_field_validated_against_schema(self):
        bad = FaultModel(
            corruptions=(StateCorruption(node=0, at_round=1, field="pending_cw"),)
        )
        with pytest.raises(ConfigurationError):
            run_nonoriented_fleet([[2, 1, 3]], faults=bad)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "model",
        [
            FaultModel(drops=(PulseDrop(round_index=1, node=1,
                                        direction="ccw"),)),
            FaultModel(groups=(FaultGroup(
                anchor=1, at_round=1,
                drops=(GroupDrop(node_offset=0, direction="ccw"),),
            ),)),
        ],
        ids=["PulseDrop", "GroupDrop"],
    )
    def test_drop_direction_validated_against_lanes(self, model, backend):
        # Algorithm 1 runs no CCW lane: a CCW drop would silently drop
        # nothing, so compilation rejects it like a bad corruption field.
        with pytest.raises(ConfigurationError, match="never runs"):
            run_warmup_fleet([[2, 1, 3]], backend=backend, faults=model)
        # The algorithms that run a CCW lane take the same clause.
        assert run_terminating_fleet(
            [[2, 1, 3]], backend=backend, faults=model
        ).fault_events is not None
        assert run_nonoriented_fleet(
            [[2, 1, 3]], backend=backend, faults=model
        ).fault_events is not None


class TestRecoveryHarness:
    def test_control_arm_recovers_everything(self):
        report = run_check(
            RecoveryCheck(algorithm="nonoriented", n=4, id_max=30), 24, block_size=8
        )
        assert report.clean
        assert report.counts == {"recovered": 24, "wrong_stable": 0, "stuck": 0}
        assert not report.counterexamples
        assert report.fault_events == {}

    def test_drops_classify_and_counterexamples_replay(self):
        check = RecoveryCheck(
            algorithm="nonoriented",
            n=5,
            id_max=40,
            fault=FaultModel(drop_rate=0.05, seed=2),
        )
        report = run_check(check, 32, block_size=8, max_counterexamples=2)
        assert sum(report.counts.values()) == 32
        assert report.counts["stuck"] > 0
        assert report.fault_events["dropped"] > 0
        for ce in report.counterexamples:
            assert ce.classification in RECOVERY_CLASSES
            assert "first violated invariant" in ce.message
            assert ce.replay() is not None  # still failing on solo replay

    def test_crash_on_terminating_ring_goes_stuck(self):
        check = RecoveryCheck(
            algorithm="terminating",
            n=4,
            id_max=30,
            fault=FaultModel(crashes=(NodeCrash(node=1, at_round=3),)),
        )
        report = run_check(check, 16, block_size=8, max_counterexamples=1)
        assert report.counts["stuck"] == 16
        assert report.counterexamples[0].classification == "stuck"

    def test_mid_run_crash_is_classified_and_replays(self):
        """A crash without restart strands Algorithm 3: every run lands in
        one class, and the first counterexample replays from its seeds."""
        check = RecoveryCheck(
            algorithm="nonoriented",
            n=5,
            id_max=40,
            fault=FaultModel(crashes=(NodeCrash(node=1, at_round=3),)),
        )
        report = run_check(check, 32, max_counterexamples=1)
        assert sum(report.counts.values()) == report.samples == 32
        assert report.counterexamples
        assert report.counterexamples[0].replay() is not None

    def test_single_pulse_drop_accepted(self):
        drop = PulseDrop(round_index=3, node=1, instance=2)
        check = RecoveryCheck(algorithm="terminating", n=4, id_max=30, fault=drop)
        report = run_check(check, 8, block_size=8, max_counterexamples=1)
        assert sum(report.counts.values()) == 8
        assert report.counts["stuck"] == 1  # only the targeted instance suffers

    def test_sampled_coordinates_are_pure_functions(self):
        assert ids_for_instance(7, 5, 3, 100) == ids_for_instance(7, 5, 3, 100)
        assert flips_for_instance(7, 5, 3) == flips_for_instance(7, 5, 3)
        assert flips_for_instance(7, 5, 6) != flips_for_instance(7, 6, 6) or (
            flips_for_instance(7, 5, 6) != flips_for_instance(8, 5, 6)
        )
        assert len(flips_for_instance(0, 0, 9)) == 9


class TestDegradationSweep:
    def test_rate_grid_validation(self):
        with pytest.raises(ConfigurationError):
            measure_degradation([])
        with pytest.raises(ConfigurationError):
            measure_degradation([0.1, 0.0])
        with pytest.raises(ConfigurationError):
            model_for_rate("gamma-rays", 0.1, 0)

    def test_model_for_rate_sets_only_its_knob(self):
        drop = model_for_rate("drop", 0.2, 5)
        assert (drop.drop_rate, drop.duplicate_rate, drop.seed) == (0.2, 0.0, 5)
        assert model_for_rate("duplicate", 0.2, 5).duplicate_rate == 0.2
        assert model_for_rate("spurious", 0.2, 5).spurious_rate == 0.2

    def test_small_sweep_degrades_gracefully(self):
        curve = measure_degradation(
            [0.0, 0.05], kind="drop", n=4, id_max=30, samples=24, block_size=8
        )
        assert isinstance(curve, DegradationCurve)
        assert curve.clean_at_zero
        assert curve.monotone_within_bands()
        assert [p.rate for p in curve.points] == [0.0, 0.05]
        zero, heavy = curve.points
        assert isinstance(zero, DegradationPoint)
        assert zero.success_rate == 1.0
        assert heavy.success_rate < 1.0  # drops must actually hurt
        payload = curve.to_dict()
        assert payload["clean_at_zero"] and payload["monotone_within_bands"]
        assert len(payload["points"]) == 2
        assert 0.0 <= heavy.low <= heavy.success_rate <= heavy.high <= 1.0

    @pytest.mark.parametrize(
        "kind,rates",
        [
            ("drop", [0.0, 0.01, 0.05]),
            ("duplicate", [0.0, 0.05]),
            ("spurious", [0.0, 0.05]),
            ("crash", [0.0, 0.02]),
        ],
    )
    def test_every_kind_is_clean_at_zero_and_monotone(self, kind, rates):
        """The robustness contract (docs/ROBUSTNESS.md) on every fault kind."""
        curve = measure_degradation(
            rates,
            kind=kind,
            algorithm="nonoriented",
            n=5,
            id_max=40,
            samples=64,
            fault_seed=7,
            processes=1,
        )
        assert [p.rate for p in curve.points] == rates
        assert curve.clean_at_zero
        assert curve.monotone_within_bands()
