"""Differential tests: the fleet engine vs the reference engines.

The fleet (:mod:`repro.simulator.fleet`) must be *observationally
indistinguishable* from the batched and unbatched engines on every
schedule-invariant outcome — leaders, final states, exact pulse counts,
orientation verdicts — for Algorithms 1/2/3 and the Theorem 3 pipeline.
These tests drive Hypothesis-generated instances (shared strategies from
``tests/strategies.py``) through both worlds and compare element-wise,
on both fleet backends and both fleet schedulers, plus:

* multi-instance fleets vs singleton fleets (no cross-instance leakage
  through the shared arrays), and
* NumPy-vs-pure-Python bit identity, including the seeded scheduler's
  counter-based RNG stream.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.average_case import measure_oblivious_over_placements
from repro.analysis.parallel import parallel_map, shard_evenly
from repro.analysis.whp import measure_anonymous_success
from repro.core.anonymous import run_anonymous
from repro.core.kernels import terminating as terminating_kernel
from repro.core.common import LeaderState
from repro.core.nonoriented import IdScheme, run_nonoriented
from repro.core.terminating import run_terminating
from repro.core.warmup import run_warmup
from repro.exceptions import ConfigurationError
from repro.faults import (
    FaultBurst,
    FaultModel,
    NodeCrash,
    PulseDrop,
    StateCorruption,
)
from repro.ids.sampling import GeometricIdSampler
from repro.simulator.fleet import (
    HAVE_NUMPY,
    run_anonymous_fleet,
    run_nonoriented_fleet,
    run_terminating_fleet,
    run_warmup_fleet,
    schedule_bit,
)

from strategies import flipped_rings, unique_id_lists

BACKENDS = ["python"] + (["numpy"] if HAVE_NUMPY else [])
SCHEDULERS = ["lockstep", "seeded"]

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")


def duplicate_id_lists(min_size=1, max_size=6, max_id=12):
    """Positive IDs, duplicates allowed (Algorithm 1 / Lemma 16 territory)."""
    return st.lists(
        st.integers(min_value=1, max_value=max_id),
        min_size=min_size,
        max_size=max_size,
    )


@st.composite
def uniform_pools(draw, min_n=2, max_n=4, min_b=2, max_b=5, max_id=12):
    """A fleet-shaped pool: ``B`` unique-ID rings of one shared size."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    return draw(
        st.lists(
            unique_id_lists(min_size=n, max_size=n, max_id=max_id),
            min_size=min_b,
            max_size=max_b,
        )
    )


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("scheduler", SCHEDULERS)
class TestWarmupFleet:
    @given(ids=duplicate_id_lists())
    def test_matches_both_engines(self, backend, scheduler, ids):
        fleet = run_warmup_fleet([ids], backend=backend, scheduler=scheduler)
        for batched in (False, True):
            eng = run_warmup(ids, batched=batched)
            assert fleet.leaders[0] == eng.leaders
            assert fleet.total_pulses[0] == eng.total_pulses
            assert fleet.states[0] == list(eng.states)

    @given(pool=st.lists(duplicate_id_lists(min_size=3, max_size=3), min_size=2, max_size=5))
    def test_no_cross_instance_leakage(self, backend, scheduler, pool):
        fleet = run_warmup_fleet(pool, backend=backend, scheduler=scheduler)
        for b, ids in enumerate(pool):
            solo = run_warmup_fleet([ids], backend=backend, scheduler=scheduler)
            assert fleet.leaders[b] == solo.leaders[0]
            assert fleet.total_pulses[b] == solo.total_pulses[0]
            assert fleet.rho_cw[b] == solo.rho_cw[0]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("scheduler", SCHEDULERS)
class TestTerminatingFleet:
    @given(ids=unique_id_lists(min_size=1, max_size=6))
    def test_matches_both_engines(self, backend, scheduler, ids):
        fleet = run_terminating_fleet([ids], backend=backend, scheduler=scheduler)
        for batched in (False, True):
            eng = run_terminating(ids, batched=batched)
            assert fleet.leaders[0] == eng.leaders
            assert fleet.total_pulses[0] == eng.total_pulses
            assert fleet.states[0] == list(eng.outputs)
            assert fleet.sigma_cw[0] == [n.sigma_cw for n in eng.nodes]
            assert fleet.sigma_ccw[0] == [n.sigma_ccw for n in eng.nodes]
            assert fleet.term_pulse_sent[0] == [
                n.term_pulse_sent for n in eng.nodes
            ]
        assert all(fleet.terminated[0])
        assert fleet.ignored_deliveries == 0

    @given(ids=unique_id_lists(min_size=1, max_size=6))
    def test_schema_fingerprints_match_engine(self, backend, scheduler, ids):
        # The shared-schema digest (repro.core.schema) must agree between
        # engine node objects and fleet-reconstructed rows.
        fleet = run_terminating_fleet([ids], backend=backend, scheduler=scheduler)
        eng = run_terminating(ids)
        engine_prints = [
            terminating_kernel.SCHEMA.state_fingerprint(node)
            for node in eng.nodes
        ]
        fleet_prints = [
            terminating_kernel.SCHEMA.fleet_fingerprint(
                {
                    "node_id": ids[v],
                    "strict_lag": True,
                    "rho_cw": fleet.rho_cw[0][v],
                    "sigma_cw": fleet.sigma_cw[0][v],
                    "rho_ccw": fleet.rho_ccw[0][v],
                    "sigma_ccw": fleet.sigma_ccw[0][v],
                    "state": fleet.states[0][v],
                    "term_pulse_sent": fleet.term_pulse_sent[0][v],
                }
            )
            for v in range(len(ids))
        ]
        assert fleet_prints == engine_prints

    @given(pool=uniform_pools())
    def test_no_cross_instance_leakage(self, backend, scheduler, pool):
        fleet = run_terminating_fleet(pool, backend=backend, scheduler=scheduler)
        for b, ids in enumerate(pool):
            solo = run_terminating_fleet([ids], backend=backend, scheduler=scheduler)
            assert fleet.leaders[b] == solo.leaders[0]
            assert fleet.total_pulses[b] == solo.total_pulses[0]
            assert (fleet.rho_cw[b], fleet.rho_ccw[b]) == (
                solo.rho_cw[0],
                solo.rho_ccw[0],
            )


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("scheduler", SCHEDULERS)
class TestNonOrientedFleet:
    @given(case=flipped_rings(), scheme=st.sampled_from(list(IdScheme)))
    def test_matches_both_engines(self, backend, scheduler, case, scheme):
        ids, flips = case
        fleet = run_nonoriented_fleet(
            [ids], flip_lists=[flips], scheme=scheme,
            backend=backend, scheduler=scheduler,
        )
        for batched in (False, True):
            eng = run_nonoriented(ids, flips=flips, scheme=scheme, batched=batched)
            assert fleet.leaders[0] == eng.leaders
            assert fleet.total_pulses[0] == eng.total_pulses
            assert fleet.states[0] == list(eng.states)
            assert fleet.orientation_consistent[0] == eng.orientation_consistent

    @given(ids=unique_id_lists(min_size=2, max_size=5))
    def test_default_flips_match_oriented_wiring(self, backend, scheduler, ids):
        fleet = run_nonoriented_fleet([ids], backend=backend, scheduler=scheduler)
        eng = run_nonoriented(ids, batched=True)
        assert fleet.leaders[0] == eng.leaders
        assert fleet.cw_port_labels[0] == [n.cw_port_label for n in eng.nodes]


class TestAnonymousFleet:
    # Scalar run_anonymous can't afford geometric-tail IDs, so the
    # differential uses pre-screened small-sample seeds; the fleet itself
    # takes any seed (fleet-only tail coverage in test_tail_seeds).
    SMALL_SEEDS = [
        s
        for s in range(60)
        if max(GeometricIdSampler(c=2.0).sample_many(5, random.Random(s))) < 500
    ][:12]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matches_scalar_pipeline_per_seed(self, backend):
        fleet = run_anonymous_fleet(5, self.SMALL_SEEDS, c=2.0, backend=backend)
        for i, seed in enumerate(self.SMALL_SEEDS):
            eng = run_anonymous(5, c=2.0, seed=seed)
            assert fleet.sampled_ids[i] == eng.sampled_ids
            assert fleet.max_unique[i] == eng.max_unique
            assert fleet.succeeded[i] == eng.succeeded
            assert fleet.election.total_pulses[i] == eng.election.total_pulses
            assert fleet.election.leaders[i] == eng.election.leaders

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_tail_seeds_terminate(self, backend):
        # Seeds whose samples the scalar engine cannot afford still
        # finish under lap-skip, with the success predicate well-defined.
        fleet = run_anonymous_fleet(4, range(30), c=2.0, backend=backend)
        assert len(fleet.succeeded) == 30
        assert all(isinstance(flag, bool) for flag in fleet.succeeded)


@needs_numpy
class TestBackendBitIdentity:
    @given(
        pool=uniform_pools(min_n=1, max_n=5, min_b=1, max_b=4),
        scheduler=st.sampled_from(SCHEDULERS),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_terminating(self, pool, scheduler, seed):
        a = run_terminating_fleet(pool, backend="numpy", scheduler=scheduler, seed=seed)
        b = run_terminating_fleet(pool, backend="python", scheduler=scheduler, seed=seed)
        assert (
            a.leaders,
            a.states,
            a.total_pulses,
            a.rho_cw,
            a.rho_ccw,
            a.sigma_cw,
            a.sigma_ccw,
            a.term_pulse_sent,
            a.rounds,
            a.lap_skips,
        ) == (
            b.leaders,
            b.states,
            b.total_pulses,
            b.rho_cw,
            b.rho_ccw,
            b.sigma_cw,
            b.sigma_ccw,
            b.term_pulse_sent,
            b.rounds,
            b.lap_skips,
        )

    @given(case=flipped_rings(), scheduler=st.sampled_from(SCHEDULERS))
    def test_nonoriented(self, case, scheduler):
        ids, flips = case
        a = run_nonoriented_fleet(
            [ids], flip_lists=[flips], backend="numpy", scheduler=scheduler
        )
        b = run_nonoriented_fleet(
            [ids], flip_lists=[flips], backend="python", scheduler=scheduler
        )
        assert (
            a.leaders, a.states, a.total_pulses, a.cw_port_labels, a.rounds,
            a.lap_skips,
        ) == (
            b.leaders, b.states, b.total_pulses, b.cw_port_labels, b.rounds,
            b.lap_skips,
        )

    @given(
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        instance=st.integers(min_value=0, max_value=10**6),
        round_index=st.integers(min_value=0, max_value=10**6),
        channel=st.integers(min_value=0, max_value=4096),
    )
    def test_schedule_bit_is_a_bit(self, seed, instance, round_index, channel):
        assert schedule_bit(seed, instance, round_index, channel) in (0, 1)


#: Fault models exercising every clause kind of the unified language
#: (random rates + burst, deterministic drops, crash, crash-restart,
#: state corruption) — the backends must stay bit-identical under all.
FAULT_MODELS = [
    FaultModel(drop_rate=0.08, seed=5),
    FaultModel(duplicate_rate=0.08, spurious_rate=0.05, seed=7,
               burst=FaultBurst(start=2, length=4)),
    FaultModel(drops=(PulseDrop(round_index=2, node=0),
                      PulseDrop(round_index=4, node=1, direction="ccw"))),
    FaultModel(crashes=(NodeCrash(node=1, at_round=3),)),
    FaultModel(crashes=(NodeCrash(node=0, at_round=2, restart_after=3),)),
    FaultModel(corruptions=(StateCorruption(node=1, at_round=3,
                                            field="rho_cw", value=2),)),
]


@needs_numpy
class TestFaultedBackendBitIdentity:
    """NumPy and pure-Python columns must agree *under faults* too —
    including the end-state fields the recovery harness classifies on
    (``unfinished``) and the per-kind fault-event counters."""

    @pytest.mark.parametrize("model", FAULT_MODELS)
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_terminating(self, model, scheduler):
        pool = [[3, 1, 4, 2], [2, 4, 1, 3], [4, 3, 2, 1]]
        a = run_terminating_fleet(pool, backend="numpy",
                                  scheduler=scheduler, faults=model)
        b = run_terminating_fleet(pool, backend="python",
                                  scheduler=scheduler, faults=model)
        assert (
            a.leaders, a.states, a.total_pulses, a.rho_cw, a.rho_ccw,
            a.sigma_cw, a.sigma_ccw, a.unfinished, a.fault_events,
        ) == (
            b.leaders, b.states, b.total_pulses, b.rho_cw, b.rho_ccw,
            b.sigma_cw, b.sigma_ccw, b.unfinished, b.fault_events,
        )

    @pytest.mark.parametrize("model", FAULT_MODELS)
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_nonoriented(self, model, scheduler):
        pool = [[3, 1, 4, 2], [2, 4, 1, 3]]
        flips = [[True, False, False, True], [False, True, True, False]]
        a = run_nonoriented_fleet(pool, flip_lists=flips, backend="numpy",
                                  scheduler=scheduler, faults=model)
        b = run_nonoriented_fleet(pool, flip_lists=flips, backend="python",
                                  scheduler=scheduler, faults=model)
        assert (
            a.leaders, a.states, a.total_pulses, a.rho_cw, a.rho_ccw,
            a.unfinished, a.fault_events,
        ) == (
            b.leaders, b.states, b.total_pulses, b.rho_cw, b.rho_ccw,
            b.unfinished, b.fault_events,
        )

    @pytest.mark.parametrize("model", FAULT_MODELS)
    def test_warmup(self, model):
        # Algorithm 1 runs no CCW lane (a CCW drop is rejected there),
        # so it takes each model's CW clauses.
        model = dataclasses.replace(
            model, drops=tuple(d for d in model.drops if d.direction == "cw")
        )
        pool = [[3, 1, 4, 2], [2, 4, 1, 3]]
        a = run_warmup_fleet(pool, backend="numpy", faults=model)
        b = run_warmup_fleet(pool, backend="python", faults=model)
        assert (a.leaders, a.states, a.total_pulses, a.rho_cw,
                a.unfinished, a.fault_events) == (
            b.leaders, b.states, b.total_pulses, b.rho_cw,
            b.unfinished, b.fault_events)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_shard_replay_fidelity(self, backend):
        # Fault rolls key on the *global* instance index: running row 1
        # of a batch solo at instance_offset=1 must replay its exact
        # fault pattern — this is what makes counterexamples portable.
        model = FaultModel(drop_rate=0.1, duplicate_rate=0.05, seed=13)
        pool = [[3, 1, 4, 2], [2, 4, 1, 3], [4, 3, 2, 1]]
        batch = run_terminating_fleet(pool, backend=backend, faults=model)
        solo = run_terminating_fleet([pool[1]], backend=backend,
                                     faults=model, instance_offset=1)
        assert (batch.leaders[1], batch.states[1], batch.total_pulses[1],
                batch.rho_cw[1], batch.unfinished[1]) == (
            solo.leaders[0], solo.states[0], solo.total_pulses[0],
            solo.rho_cw[0], solo.unfinished[0])

    def test_quiesced_rows_are_frozen_for_faults(self):
        # A batch row that quiesces early must not keep absorbing fault
        # rolls while slower rows finish: its outcome equals its solo run
        # even when a late clause (round-5 restart) fires batch-wide.
        model = FaultModel(crashes=(NodeCrash(node=0, at_round=2,
                                              restart_after=3),))
        fast, slow = [2, 1], [9, 5]  # fast quiesces before the restart
        for backend in BACKENDS:
            batch = run_warmup_fleet([fast, slow], backend=backend,
                                     faults=model)
            solo = run_warmup_fleet([fast], backend=backend, faults=model)
            assert (batch.states[0], batch.rho_cw[0], batch.total_pulses[0]) \
                == (solo.states[0], solo.rho_cw[0], solo.total_pulses[0])


class TestFleetValidation:
    def test_empty_fleet_rejected(self):
        with pytest.raises(ConfigurationError):
            run_terminating_fleet([])

    def test_ragged_fleet_rejected(self):
        with pytest.raises(ConfigurationError):
            run_terminating_fleet([[1, 2], [1, 2, 3]])

    def test_duplicate_ids_rejected_for_terminating(self):
        with pytest.raises(ConfigurationError):
            run_terminating_fleet([[3, 3]])

    def test_unknown_backend_and_scheduler_rejected(self):
        with pytest.raises(ConfigurationError):
            run_terminating_fleet([[1, 2]], backend="gpu")
        with pytest.raises(ConfigurationError):
            run_terminating_fleet([[1, 2]], scheduler="chaotic")


class TestAnalysisIntegration:
    def test_fleet_sweep_equals_scalar_sweep(self):
        fleet = measure_oblivious_over_placements(10, 20, seed=3, fleet=True)
        scalar = measure_oblivious_over_placements(10, 20, seed=3, batched=True)
        assert fleet == scalar

    def test_fleet_whp_equals_scalar_whp(self):
        seeds_ok = TestAnonymousFleet.SMALL_SEEDS
        # Scalar path over the same pre-screened contiguous seed range.
        fleet = run_anonymous_fleet(5, seeds_ok, c=2.0)
        expected = sum(run_anonymous(5, c=2.0, seed=s).succeeded for s in seeds_ok)
        assert sum(fleet.succeeded) == expected

    def test_whp_estimate_shape(self):
        est = measure_anonymous_success(5, 30, c=2.0, seed=0, fleet=True)
        assert est.trials == 30
        assert 0.0 <= est.low <= est.rate <= est.high <= 1.0


class TestParallelSatellite:
    def test_single_worker_never_spawns_a_pool(self, monkeypatch):
        import repro.analysis.parallel as par

        def boom(*args, **kwargs):  # pragma: no cover - must not be reached
            raise AssertionError("ProcessPoolExecutor spawned for serial work")

        monkeypatch.setattr(par, "ProcessPoolExecutor", boom)
        assert par.parallel_map(abs, [-1, -2, -3], processes=1) == [1, 2, 3]
        # Fewer items than one shard per worker: clamp, and a single item
        # short-circuits all the way to the comprehension.
        assert par.parallel_map(abs, [-7], processes=8) == [7]

    def test_worker_clamp_still_parallel_when_enough_items(self):
        assert parallel_map(abs, [-1, -2, -3, -4], processes=2) == [1, 2, 3, 4]

    def test_shard_evenly_balanced(self):
        assert shard_evenly(range(7), 3) == [[0, 1, 2], [3, 4], [5, 6]]
        assert shard_evenly(range(2), 5) == [[0], [1]]
        assert shard_evenly([], 3) == []
        with pytest.raises(ConfigurationError):
            shard_evenly([1], 0)

    def test_shards_reassemble_in_order(self):
        items = list(range(23))
        shards = shard_evenly(items, 4)
        assert [x for shard in shards for x in shard] == items
        assert max(len(s) for s in shards) - min(len(s) for s in shards) <= 1
