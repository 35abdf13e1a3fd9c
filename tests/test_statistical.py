"""Tests for the statistical model checker (sampled-schedule verification).

The checker (:mod:`repro.verification.statistical`) runs the invariant
battery over fleet-sampled instances.  Correct code must yield pass-rate
1.0; a :class:`~repro.faults.model.PulseDrop` injection (pulse loss —
outside the model) must be caught, localized by block bisection to the
exact instance, and reproduced by :meth:`Counterexample.replay`.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import clopper_pearson_interval
from repro.exceptions import ConfigurationError
from repro.faults.fleet import merge_events
from repro.faults.model import FaultModel, PulseDrop
from repro.simulator.fleet import HAVE_NUMPY
from repro.verification.statistical import (
    Counterexample,
    RecoveryCheck,
    RingCheck,
    TopologyCheck,
    WhpCheck,
    check_shard,
    ids_for_instance,
    run_check,
    run_anonymous_whp_check,
    run_recovery_check,
    run_statistical_check,
    run_topology_check,
)

BACKENDS = ["python"] + (["numpy"] if HAVE_NUMPY else [])


# -- ID sampling ------------------------------------------------------------


def test_ids_for_instance_is_deterministic_and_distinct():
    a = ids_for_instance(7, 3, 8, 100)
    assert a == ids_for_instance(7, 3, 8, 100)
    assert len(a) == 8 == len(set(a))
    assert all(1 <= x <= 100 for x in a)
    assert a != ids_for_instance(8, 3, 8, 100)  # seed matters
    assert a != ids_for_instance(7, 4, 8, 100)  # index matters


def test_ids_for_instance_independent_of_sharding():
    # The assignment of global sample index 37 must not depend on which
    # block or process evaluates it.
    direct = ids_for_instance(0, 37, 6, 64)
    report_a = run_statistical_check(n=6, id_max=64, samples=40, block_size=8)
    report_b = run_statistical_check(n=6, id_max=64, samples=40, block_size=40)
    assert report_a.clean and report_b.clean
    assert direct == ids_for_instance(report_a.check.seed, 37, 6, 64)


# -- clean runs -------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_clean_run_passes_with_exact_interval(backend):
    report = run_statistical_check(
        n=6, id_max=60, samples=300, block_size=64, backend=backend
    )
    assert report.clean
    assert report.violations == 0
    assert report.pass_rate == 1.0
    assert report.counterexamples == []
    assert (report.rate_low, report.rate_high) == clopper_pearson_interval(
        300, 300, confidence=report.confidence
    )
    assert report.rate_high == 1.0
    assert 0.97 < report.rate_low < 1.0


def test_seeded_scheduler_clean():
    report = run_statistical_check(
        n=5, id_max=40, samples=60, block_size=16,
        scheduler="seeded", sched_seed=11,
    )
    assert report.clean


def test_multiprocess_run_matches_serial():
    serial = run_statistical_check(n=5, id_max=40, samples=120, block_size=32)
    forked = run_statistical_check(
        n=5, id_max=40, samples=120, block_size=32, processes=2
    )
    assert serial.clean and forked.clean
    assert serial.violations == forked.violations


# -- fault injection: find, localize, replay --------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_injected_drop_is_caught_localized_and_replayed(backend):
    fault = PulseDrop(round_index=3, node=1, direction="cw", instance=10)
    report = run_statistical_check(
        n=6, id_max=50, samples=64, block_size=64, backend=backend, fault=fault
    )
    assert not report.clean
    assert report.violations == 1
    assert len(report.counterexamples) == 1
    ce = report.counterexamples[0]
    assert ce.instance == 10  # bisection attributed the exact instance
    assert "conservation" in ce.message or "instance 10" in ce.message
    assert ce.check.sample(ce.instance)[0] == ids_for_instance(
        report.check.seed, 10, 6, 50
    )
    replayed = ce.replay()
    assert replayed is not None  # deterministic: always reproduces
    assert "instance 10" in replayed


def test_seeded_counterexamples_replay_their_own_message():
    """A seeded counterexample from a block of 8 replays solo under the
    schedule it failed under: the schedule keys on its global index."""
    report = run_recovery_check(
        algorithm="nonoriented", n=6, id_max=60, samples=64,
        scheduler="seeded", block_size=8,
        faults=FaultModel(drop_rate=0.02, seed=3), backend="python",
    )
    assert [ce.instance for ce in report.counterexamples] == [0, 1, 2, 3, 4]
    assert [ce.replay() for ce in report.counterexamples] == [
        ce.message.partition("; first violated invariant: ")[0]
        for ce in report.counterexamples
    ]
    assert all(ce.reproduces() for ce in report.counterexamples)


def test_fault_in_untested_instance_is_silent():
    # Instance index beyond the sample range: nothing to catch.
    fault = PulseDrop(round_index=3, node=1, direction="cw", instance=999)
    report = run_statistical_check(
        n=6, id_max=50, samples=32, block_size=32, fault=fault
    )
    assert report.clean


def test_counterexample_budget_is_respected():
    # Fault with instance=None hits EVERY instance; the checker must
    # still terminate quickly, recording at most max_counterexamples.
    fault = PulseDrop(round_index=3, node=0, direction="cw", instance=None)
    report = run_statistical_check(
        n=6, id_max=50, samples=48, block_size=16, fault=fault,
        max_counterexamples=2,
    )
    assert not report.clean
    assert len(report.counterexamples) <= 2
    assert report.violations >= len(report.counterexamples)
    assert report.pass_rate < 1.0


def test_fleet_fault_validation():
    with pytest.raises(ConfigurationError):
        PulseDrop(round_index=0, node=0)
    with pytest.raises(ConfigurationError):
        PulseDrop(round_index=1, node=0, direction="sideways")
    with pytest.raises(ConfigurationError):
        PulseDrop(round_index=1, node=0, count=0)


# -- configuration errors ---------------------------------------------------


def test_configuration_validation():
    with pytest.raises(ConfigurationError, match="terminating"):
        run_statistical_check(algorithm="warmup", samples=1)
    with pytest.raises(ConfigurationError, match="sample"):
        run_statistical_check(samples=0)
    with pytest.raises(ConfigurationError, match="distinct"):
        run_statistical_check(n=10, id_max=5, samples=1)
    with pytest.raises(ConfigurationError, match="block_size"):
        run_statistical_check(samples=1, block_size=0)


def _theta():
    from repro.graphs.samples import theta_graph

    return theta_graph(0, 1, 2)


#: The four sampled checks, each at a tiny size, taking extra kwargs.
CHECKS = {
    "statistical": lambda **kw: run_statistical_check(
        n=4, id_max=16, samples=4, **kw
    ),
    "recovery": lambda **kw: run_recovery_check(
        n=4, id_max=16, samples=4, **kw
    ),
    "anonymous-whp": lambda **kw: run_anonymous_whp_check(n=4, trials=4, **kw),
    "topology": lambda **kw: run_topology_check(
        _theta(), id_max=16, samples=4, **kw
    ),
}


@pytest.mark.parametrize("check", sorted(CHECKS))
def test_every_check_reports_through_the_one_engine(check):
    report = CHECKS[check]()
    assert report.check.name == check
    assert sum(report.counts.values()) == report.samples == 4
    assert report.passes == report.counts[report.check.classes[0]]
    for ce in report.counterexamples:
        assert isinstance(ce, Counterexample) and ce.check is report.check
        assert ce.replay() is not None


@pytest.mark.parametrize("confidence", [0.0, 1.0, 1.5])
@pytest.mark.parametrize("check", sorted(CHECKS))
def test_confidence_is_validated_before_sampling(check, confidence, monkeypatch):
    import repro.verification.statistical as statistical

    def no_sampling(job):
        raise AssertionError("sampling started")

    monkeypatch.setattr(statistical, "_run_shard", no_sampling)
    with pytest.raises(ConfigurationError, match="confidence"):
        CHECKS[check](confidence=confidence)


def test_topology_check_honours_processes():
    check = TopologyCheck(graph=_theta(), id_max=64)
    serial = run_check(check, 24, block_size=8, processes=1)
    forked = run_check(check, 24, block_size=8, processes=2)
    assert forked == serial


def test_fault_events_total_every_run_or_stay_empty():
    """A check without bisection totals every run's fault events, the
    same total the shard seam gives; a bisecting check, whose aborted
    runs report none, leaves them empty rather than undercount."""
    faults = FaultModel(drop_rate=0.05, seed=2)
    ring = dict(algorithm="nonoriented", n=5, id_max=40, fault=faults)
    recovery = run_check(
        RecoveryCheck(**ring), 32, block_size=8, max_counterexamples=0,
        processes=2,
    )
    _counts, _failures, events = check_shard(
        RecoveryCheck(**ring), range(32), block_size=32
    )
    assert recovery.fault_events == events and events["dropped"] > 0
    drop = PulseDrop(round_index=3, node=2, direction="cw", instance=5)
    ring.update(n=8, id_max=100, fault=FaultModel(drops=(drop,)))
    bisected = run_check(RingCheck(**ring), 32, block_size=8)
    assert bisected.violations == 1 and bisected.fault_events == {}


def test_whp_check_runs_each_shard_as_one_fleet(monkeypatch):
    sizes = []
    run = WhpCheck.run

    def recording_run(self, block, offset, observer):
        sizes.append(len(block))
        return run(self, block, offset, observer)

    monkeypatch.setattr(WhpCheck, "run", recording_run)
    report = run_check(WhpCheck(n=4), 10, block_size=3)
    assert sizes == [10] and report.samples == 10


# -- report arithmetic ------------------------------------------------------

def test_report_interval_with_failures():
    fault = PulseDrop(round_index=3, node=0, direction="cw", instance=None)
    report = run_statistical_check(
        n=5, id_max=30, samples=20, block_size=4, fault=fault,
        max_counterexamples=1,
    )
    low, high = clopper_pearson_interval(
        report.samples - report.violations,
        report.samples,
        confidence=report.confidence,
    )
    assert (report.rate_low, report.rate_high) == (low, high)


# -- partition independence -------------------------------------------------

#: Fault arms of the partition property: none, one pulse lost per
#: instance, and a rate model.  Fault-free outcomes are the same under
#: every schedule (Theorems 1 and 2), so only a faulted seeded arm can
#: show a cut-dependent schedule.
PARTITION_FAULTS = {
    "fault-free": None,
    "pulse-drop": PulseDrop(round_index=2, node=1, direction="cw"),
    "drop-rate": FaultModel(drop_rate=0.05, seed=4),
}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("fault", sorted(PARTITION_FAULTS))
@pytest.mark.parametrize("scheduler", ["lockstep", "seeded"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_any_partition_tallies_like_one_block(scheduler, fault, backend, data):
    """Any split of ``range(samples)`` into contiguous shards, in any
    block size, gives the counts, failures and fault events of one
    block: IDs, flips, fault rolls and the seeded schedule all key on
    an instance's global index alone."""
    samples = data.draw(st.integers(min_value=1, max_value=12), label="samples")
    cuts = data.draw(st.sets(st.integers(min_value=1, max_value=samples)), label="cuts")
    block_size = data.draw(st.integers(min_value=1, max_value=samples), label="block")
    check = RecoveryCheck(
        algorithm="nonoriented", n=4, id_max=16, sched_seed=7,
        scheduler=scheduler, backend=backend, fault=PARTITION_FAULTS[fault],
    )
    edges = sorted(cuts | {0})
    parts = [
        check_shard(check, range(start, stop), block_size)
        for start, stop in zip(edges, edges[1:] + [samples])
        if start < stop
    ]
    events = [part_events for _counts, _failures, part_events in parts if part_events]
    assert (
        {name: sum(counts[name] for counts, _f, _e in parts) for name in check.classes},
        [failure for _counts, failures, _e in parts for failure in failures],
        merge_events(*events) if events else {},
    ) == check_shard(check, range(samples), samples)
