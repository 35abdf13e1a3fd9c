"""The sweep farm: cache keys, store, ledger, and the crash/resume battery.

The farm's contract has three legs, each pinned here:

* **Keys** — the content address of a shard is a pure, canonical
  function of its semantics coordinates: injective on semantically
  distinct campaigns, stable across dict insertion order and backend
  choice (property-tested via Hypothesis).
* **Durability** — results are written atomically and checksummed; a
  corrupt or truncated object is detected, quarantined, and recomputed,
  never silently aggregated; the ledger replays cleanly around a
  truncated tail and dead-pid ``running`` records.
* **Resume** — a campaign SIGKILLed mid-run (real subprocess) or failed
  mid-shard (injected) completes on re-submit from its cached shards,
  and the collected stats are byte-identical to an uninterrupted run.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings

from repro.accel import HAVE_NUMPY
from repro.exceptions import ConfigurationError
from repro.farm import (
    Campaign,
    Farm,
    Ledger,
    ResultStore,
    canonical_fault_model,
    canonical_json,
    degradation_params,
    fault_model_from_canonical,
    placements_params,
    recovery_params,
    shard_key,
    shard_ranges,
    whp_params,
)
from repro.farm.service import INJECT_FAIL_ENV
from repro.faults.model import (
    FaultBurst,
    FaultModel,
    NodeCrash,
    PulseDrop,
    StateCorruption,
)
from strategies import farm_campaigns

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


def _job_coordinates(job) -> str:
    """The canonical spelling of everything a shard key may depend on."""
    return canonical_json(
        {
            "workload": job.workload,
            "params": dict(job.params),
            "start": job.start,
            "stop": job.stop,
        }
    )


class TestKeys:
    def test_canonical_json_sorts_keys(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_canonical_json_rejects_nan(self):
        with pytest.raises(ConfigurationError):
            canonical_json({"x": float("nan")})

    def test_canonical_json_rejects_non_string_keys(self):
        with pytest.raises(ConfigurationError):
            canonical_json({1: "x"})

    def test_shard_key_stable_across_dict_order(self):
        params = recovery_params(n=5, id_max=40, seed=2)
        shuffled = dict(reversed(list(params.items())))
        assert shard_key("recovery", params, 0, 100) == shard_key(
            "recovery", shuffled, 0, 100
        )

    def test_shard_key_range_validated(self):
        params = placements_params(n=4)
        with pytest.raises(ConfigurationError):
            shard_key("placements", params, 10, 10)
        with pytest.raises(ConfigurationError):
            shard_key("placements", params, -1, 10)

    def test_fault_model_canonical_roundtrip(self):
        model = FaultModel(
            drop_rate=0.01,
            duplicate_rate=0.02,
            spurious_rate=0.005,
            seed=7,
            burst=FaultBurst(start=2, length=5),
            drops=(PulseDrop(round_index=1, node=0),),
            crashes=(NodeCrash(node=1, at_round=3, restart_after=2),),
            corruptions=(StateCorruption(node=2, at_round=4, value=9),),
        )
        assert fault_model_from_canonical(canonical_fault_model(model)) == model
        assert fault_model_from_canonical(None) is None
        assert canonical_fault_model(None) is None

    def test_campaign_id_distinguishes_shard_grids(self):
        params = placements_params(n=8)
        a = Campaign("placements", total=100, params=params, shard_size=10)
        b = Campaign("placements", total=100, params=params, shard_size=20)
        assert a.cid != b.cid  # different grids are different campaigns
        same = Campaign("placements", total=100, params=params, shard_size=10)
        assert same.cid == a.cid  # ... and identity is purely the spec

    @given(campaign=farm_campaigns())
    @settings(max_examples=60, deadline=None)
    def test_keys_stable_across_spec_roundtrip(self, campaign):
        """A campaign rebuilt from its JSON spec re-derives identical keys
        (dict ordering through JSON is immaterial)."""
        spec = json.loads(canonical_json(campaign.spec()))
        rebuilt = Campaign.from_spec(spec)
        assert rebuilt.cid == campaign.cid
        assert [job.key for job in rebuilt.jobs()] == [
            job.key for job in campaign.jobs()
        ]

    @given(a=farm_campaigns(), b=farm_campaigns())
    @settings(max_examples=80, deadline=None)
    def test_keys_injective_on_semantics(self, a, b):
        """Two shards share a key iff their semantic coordinates match."""
        ja, jb = a.jobs()[0], b.jobs()[0]
        if _job_coordinates(ja) == _job_coordinates(jb):
            assert ja.key == jb.key
        else:
            assert ja.key != jb.key


class TestShardGrid:
    def test_shard_ranges_fixed_size_contiguous(self):
        assert shard_ranges(10, 4) == [(0, 4), (4, 8), (8, 10)]
        assert shard_ranges(4, 4) == [(0, 4)]
        assert shard_ranges(1, 100) == [(0, 1)]

    def test_shard_ranges_validate(self):
        with pytest.raises(ConfigurationError):
            shard_ranges(0, 4)
        with pytest.raises(ConfigurationError):
            shard_ranges(10, 0)

    def test_enlarged_campaign_reuses_prefix_keys(self):
        """Growing total keeps every existing shard key (fixed ranges)."""
        params = placements_params(n=8, seed=1)
        small = Campaign("placements", total=1000, params=params, shard_size=250)
        large = Campaign("placements", total=2000, params=params, shard_size=250)
        small_keys = [job.key for job in small.jobs()]
        large_keys = [job.key for job in large.jobs()]
        assert large_keys[: len(small_keys)] == small_keys

    def test_degradation_jobs_share_keys_with_standalone_recovery(self):
        """A degradation grid point is cache-compatible with a recovery
        campaign at the same (rate, fault_seed) coordinates."""
        from repro.analysis.degradation import model_for_rate

        curve = Campaign(
            "degradation",
            total=100,
            params=degradation_params(
                kind="drop", rates=(0.0, 0.02), n=5, id_max=40, fault_seed=3
            ),
            shard_size=50,
        )
        standalone = Campaign(
            "recovery",
            total=100,
            params=recovery_params(
                n=5, id_max=40, faults=model_for_rate("drop", 0.02, 3)
            ),
            shard_size=50,
        )
        curve_keys = {job.key for job in curve.jobs()}
        standalone_keys = {job.key for job in standalone.jobs()}
        assert standalone_keys <= curve_keys

    def test_campaign_validates_workload_and_params(self):
        with pytest.raises(ConfigurationError):
            Campaign("nope", total=10, params={})
        with pytest.raises(ConfigurationError):
            Campaign("whp", total=10, params={"n": 4})  # missing c, seed
        with pytest.raises(ConfigurationError):
            Campaign(
                "whp", total=10, params={**whp_params(), "extra": 1}
            )
        with pytest.raises(ConfigurationError):
            degradation_params(rates=(0.05, 0.0))
        with pytest.raises(ConfigurationError):
            degradation_params(rates=())


class TestResultStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path)
        payload = {"totals": [1, 2, 3], "nested": {"a": 0.5}}
        key = "ab" + "0" * 62
        store.put(key, payload)
        assert store.get(key) == payload
        assert store.has(key)
        assert list(store.keys()) == [key]
        assert store.delete(key)
        assert store.get(key) is None
        assert not store.delete(key)

    def test_atomic_write_leaves_no_partial_object(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "cd" + "1" * 62
        store.put(key, {"x": 1})
        # Overwrite with new content; a reader sees old or new, never junk.
        store.put(key, {"x": 2})
        assert store.get(key) == {"x": 2}
        assert store.sweep_tmp() == 0  # no temporaries left behind

    def test_corrupted_payload_is_quarantined(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "ef" + "2" * 62
        path = store.put(key, {"count": 10})
        body = json.loads(path.read_text())
        body["payload"]["count"] = 11  # bit rot: checksum now wrong
        path.write_text(json.dumps(body))
        assert store.get(key) is None
        assert not path.exists()  # quarantined → will be recomputed

    def test_truncated_object_is_quarantined(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "01" + "3" * 62
        path = store.put(key, {"count": 10})
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        assert store.get(key) is None
        assert not path.exists()

    def test_object_at_wrong_address_is_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "23" + "4" * 62
        other = "23" + "5" * 62
        path = store.put(key, {"count": 10})
        moved = path.parent / f"{other}.json"
        path.rename(moved)
        assert store.get(other) is None  # key field disagrees with address
        assert not moved.exists()

    def test_sweep_tmp_removes_strays(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "45" + "6" * 62
        store.put(key, {"x": 1})
        stray = store.objects / "45" / ".tmp-999-dead.json"
        stray.write_text("{")
        assert store.sweep_tmp() == 1
        assert not stray.exists()
        assert store.get(key) == {"x": 1}


class TestLedger:
    def test_replay_last_record_wins(self, tmp_path):
        ledger = Ledger(tmp_path)
        ledger.record_campaign({"id": "c1", "workload": "whp"})
        ledger.record_shard("c1", "k1", 0, 0, 10, "running")
        ledger.record_shard("c1", "k1", 0, 0, 10, "done")
        state = ledger.replay()
        assert state["shards"][("c1", "k1")]["state"] == "done"
        assert ledger.shard_states("c1")["k1"]["state"] == "done"

    def test_rejects_unknown_state(self, tmp_path):
        with pytest.raises(ValueError):
            Ledger(tmp_path).record_shard("c", "k", 0, 0, 1, "bogus")

    def test_truncated_tail_line_is_skipped(self, tmp_path):
        ledger = Ledger(tmp_path)
        ledger.record_campaign({"id": "c1"})
        ledger.record_shard("c1", "k1", 0, 0, 10, "done")
        with open(ledger.path, "a") as handle:
            handle.write('{"type": "shard", "campaign": "c1", "key"')
        state = ledger.replay()
        assert state["shards"][("c1", "k1")]["state"] == "done"
        assert len(ledger.records()) == 2

    def test_stale_running_detects_dead_pid(self, tmp_path):
        ledger = Ledger(tmp_path)
        dead = subprocess.Popen([sys.executable, "-c", "pass"])
        dead.wait()
        ledger.append(
            {
                "type": "shard",
                "campaign": "c1",
                "key": "k1",
                "index": 0,
                "start": 0,
                "stop": 10,
                "state": "running",
                "pid": dead.pid,
            }
        )
        ledger.record_shard("c1", "k2", 1, 10, 20, "running")  # us: alive
        stale = ledger.stale_running()
        assert [record["key"] for record in stale] == ["k1"]

    def test_compact_reaps_orphans_and_demotes_dead_running(self, tmp_path):
        ledger = Ledger(tmp_path)
        dead = subprocess.Popen([sys.executable, "-c", "pass"])
        dead.wait()
        ledger.record_campaign({"id": "live"})
        ledger.record_campaign({"id": "orphan"})
        ledger.record_shard("orphan", "k0", 0, 0, 10, "done")
        ledger.append(
            {
                "type": "shard",
                "campaign": "live",
                "key": "k1",
                "index": 0,
                "start": 0,
                "stop": 10,
                "state": "running",
                "pid": dead.pid,
            }
        )
        counters = ledger.compact(live_campaigns={"live"})
        assert counters == {"orphaned_entries": 2, "demoted_running": 1}
        state = ledger.replay()
        assert set(state["campaigns"]) == {"live"}
        record = state["shards"][("live", "k1")]
        assert record["state"] == "pending"
        assert record["note"] == "gc: dead pid"


@pytest.mark.skipif(not HAVE_NUMPY, reason="needs the numpy tier")
class TestBackendIndependence:
    def test_shard_payload_identical_across_backends(self):
        """The justification for excluding backend from cache keys."""
        from repro.farm.workloads import run_shard

        params = recovery_params(
            n=4, id_max=16, seed=1, faults=FaultModel(drop_rate=0.05, seed=2)
        )
        by_backend = {
            backend: run_shard("recovery", params, 0, 12, backend=backend)
            for backend in ("python", "numpy")
        }
        assert by_backend["python"] == by_backend["numpy"]

    def test_block_size_does_not_change_payload(self):
        from repro.farm.workloads import run_shard

        params = recovery_params(
            n=4, id_max=16, seed=1, faults=FaultModel(drop_rate=0.05, seed=2)
        )
        small = run_shard("recovery", params, 0, 12, block_size=3)
        large = run_shard("recovery", params, 0, 12, block_size=256)
        assert small == large


class TestSubmitCollect:
    def test_unknown_campaign_and_empty_last(self, tmp_path):
        farm = Farm(tmp_path)
        with pytest.raises(ConfigurationError):
            farm.load_campaign("last")
        with pytest.raises(ConfigurationError):
            farm.load_campaign("deadbeefdeadbeef")

    def test_tampered_spec_file_is_rejected(self, tmp_path):
        farm = Farm(tmp_path)
        campaign = Campaign(
            "placements", total=10, params=placements_params(n=3), shard_size=5
        )
        farm.submit(campaign)
        path = farm.campaigns_dir / f"{campaign.cid}.json"
        spec = json.loads(path.read_text())
        spec["total"] = 20
        path.write_text(json.dumps(spec))
        with pytest.raises(ConfigurationError):
            farm.load_campaign(campaign.cid)

    def test_collect_refuses_incomplete_campaign(self, tmp_path):
        farm = Farm(tmp_path)
        campaign = Campaign(
            "placements", total=20, params=placements_params(n=4), shard_size=5
        )
        farm.submit(campaign)
        farm.store.delete(campaign.jobs()[2].key)
        with pytest.raises(ConfigurationError, match="incomplete"):
            farm.collect(campaign.cid)

    def test_submit_is_incremental_not_all_or_nothing(self, tmp_path):
        """Each computed shard is durable immediately: deleting one
        object later costs exactly one shard of recompute."""
        farm = Farm(tmp_path)
        campaign = Campaign(
            "placements", total=40, params=placements_params(n=5), shard_size=10
        )
        cold = farm.submit(campaign)
        assert (cold.hits, cold.computed) == (0, 4)
        farm.store.delete(campaign.jobs()[1].key)
        resumed = farm.submit(campaign)
        assert (resumed.hits, resumed.computed) == (3, 1)
        assert resumed.complete

    def test_status_reports_interrupted_shards(self, tmp_path):
        farm = Farm(tmp_path)
        campaign = Campaign(
            "placements", total=20, params=placements_params(n=4), shard_size=10
        )
        farm.submit(campaign)
        # Fake a killed worker: object gone, ledger stuck at running
        # under a dead pid.
        dead = subprocess.Popen([sys.executable, "-c", "pass"])
        dead.wait()
        victim = campaign.jobs()[0]
        farm.store.delete(victim.key)
        farm.ledger.append(
            {
                "type": "shard",
                "campaign": campaign.cid,
                "key": victim.key,
                "index": victim.index,
                "start": victim.start,
                "stop": victim.stop,
                "state": "running",
                "pid": dead.pid,
            }
        )
        summary = farm.status(campaign.cid)["campaigns"][campaign.cid]
        assert summary["interrupted"] == 1
        assert summary["done"] == 1
        assert not summary["complete"]
        counters = farm.gc()
        assert counters["demoted_running"] == 1


class TestInjectedFailureResume:
    def test_failed_shard_resumes_bit_identically(self, tmp_path, monkeypatch):
        params = recovery_params(
            n=5, id_max=40, seed=2, faults=FaultModel(drop_rate=0.02, seed=5)
        )
        campaign = Campaign("recovery", total=60, params=params, shard_size=15)

        reference = Farm(tmp_path / "reference")
        assert reference.submit(campaign).complete
        expected = reference.collect_text(campaign.cid)

        farm = Farm(tmp_path / "interrupted")
        monkeypatch.setenv(INJECT_FAIL_ENV, "1,3")
        broken = farm.submit(campaign)
        assert len(broken.failed) == 2
        assert not broken.complete
        assert {index for index, _k, _m in broken.failed} == {1, 3}
        with pytest.raises(ConfigurationError):
            farm.collect(campaign.cid)
        states = farm.ledger.shard_states(campaign.cid)
        failed_states = [r["state"] for r in states.values()]
        assert failed_states.count("failed") == 2

        monkeypatch.delenv(INJECT_FAIL_ENV)
        resumed = farm.submit(campaign)
        assert resumed.complete
        assert (resumed.hits, resumed.computed) == (2, 2)
        assert farm.collect_text(campaign.cid) == expected


class TestColdWarmMixedDifferential:
    def test_degradation_collect_byte_identical(self, tmp_path):
        """Same curve, three execution histories, one byte string."""
        campaign = Campaign(
            "degradation",
            total=60,
            params=degradation_params(
                kind="drop", rates=(0.0, 0.02), n=5, id_max=40, seed=2
            ),
            shard_size=20,
        )
        farm = Farm(tmp_path)
        cold = farm.submit(campaign)
        assert cold.complete and cold.hits == 0
        cold_text = farm.collect_text(campaign.cid)

        warm = farm.submit(campaign)
        assert warm.hit_rate == 1.0 and warm.computed == 0
        warm_text = farm.collect_text(campaign.cid)

        # Mixed: delete one object, corrupt another, truncate a third.
        jobs = campaign.jobs()
        farm.store.delete(jobs[0].key)
        corrupt_path = farm.store._path(jobs[2].key)
        body = json.loads(corrupt_path.read_text())
        body["payload"]["counts"]["recovered"] += 1
        corrupt_path.write_text(json.dumps(body))
        truncate_path = farm.store._path(jobs[4].key)
        truncate_path.write_text(truncate_path.read_text()[:40])

        mixed = farm.submit(campaign)
        assert mixed.complete
        assert (mixed.hits, mixed.computed) == (len(jobs) - 3, 3)
        mixed_text = farm.collect_text(campaign.cid)

        assert cold_text == warm_text == mixed_text

    def test_corruption_is_never_silently_aggregated(self, tmp_path):
        """A checksum-mismatched shard must change nothing in collect:
        it is quarantined at read time and recomputed on submit."""
        campaign = Campaign(
            "placements", total=30, params=placements_params(n=4), shard_size=10
        )
        farm = Farm(tmp_path)
        farm.submit(campaign)
        honest = farm.collect_text(campaign.cid)

        victim = campaign.jobs()[1]
        path = farm.store._path(victim.key)
        body = json.loads(path.read_text())
        body["payload"]["totals"][0] += 1000  # would shift the mean
        path.write_text(json.dumps(body))

        # Collect detects the bad checksum → campaign reads incomplete.
        with pytest.raises(ConfigurationError, match="incomplete"):
            farm.collect(campaign.cid)
        resumed = farm.submit(campaign)
        assert resumed.computed == 1
        assert farm.collect_text(campaign.cid) == honest


class TestFarmMatchesDirectPaths:
    def test_measure_degradation_farm_equals_direct(self, tmp_path):
        from repro.analysis.degradation import measure_degradation

        kwargs = dict(
            kind="drop", n=5, id_max=40, samples=40, seed=2, confidence=0.95
        )
        direct = measure_degradation([0.0, 0.05], **kwargs)
        farmed = measure_degradation(
            [0.0, 0.05], farm_root=tmp_path, **kwargs
        )
        assert farmed.to_dict() == direct.to_dict()

    def test_measure_anonymous_success_farm_equals_direct(self, tmp_path):
        from repro.analysis.whp import measure_anonymous_success

        direct = measure_anonymous_success(8, 25, seed=11)
        farmed = measure_anonymous_success(8, 25, seed=11, farm_root=tmp_path)
        assert farmed == direct

    def test_measure_placements_farm_equals_direct(self, tmp_path):
        from repro.analysis.average_case import (
            measure_oblivious_over_placements,
        )

        direct = measure_oblivious_over_placements(5, 30, seed=3, fleet=True)
        farmed = measure_oblivious_over_placements(
            5, 30, seed=3, farm_root=tmp_path
        )
        assert farmed == direct

    def test_whp_interval_choices_match(self, tmp_path):
        from repro.analysis.whp import measure_anonymous_success

        for interval in ("wilson", "clopper-pearson"):
            direct = measure_anonymous_success(6, 20, seed=3, interval=interval)
            farmed = measure_anonymous_success(
                6, 20, seed=3, interval=interval, farm_root=tmp_path
            )
            assert farmed == direct


#: Campaigns whose jobs cannot run, each with the block size it is
#: submitted at and the message the direct path fails with.
UNRUNNABLE = {
    "block-size-0": (
        Campaign("recovery", total=8, params=recovery_params()),
        0,
        "block_size must be >= 1, got 0",
    ),
    "algorithm": (
        Campaign("recovery", total=8, params=recovery_params(algorithm="warmup")),
        8,
        "statistical checking supports algorithm='terminating'",
    ),
    "scheduler": (
        Campaign("recovery", total=8, params=recovery_params(scheduler="fifo")),
        8,
        "unknown fleet scheduler 'fifo'",
    ),
    "ring-size": (
        Campaign("recovery", total=8, params=recovery_params(n=1)),
        8,
        "need a ring of at least 2 nodes, got n=1",
    ),
    "degradation-kind": (
        Campaign("degradation", total=8, params=degradation_params(kind="flip")),
        8,
        "unknown sweep kind 'flip'",
    ),
    "whp-c": (
        Campaign("whp", total=8, params=whp_params(n=6, c=0.0)),
        8,
        "sampler exponent c must be > 0, got 0.0",
    ),
    "placements-n": (
        Campaign("placements", total=8, params=placements_params(n=0)),
        8,
        "need at least one ID",
    ),
}


class TestRefusedBeforeAnythingIsWritten:
    @pytest.mark.parametrize("case", sorted(UNRUNNABLE))
    def test_submit_refuses_with_the_direct_message(self, case, tmp_path):
        from repro.farm import run_campaign

        campaign, block_size, message = UNRUNNABLE[case]
        with pytest.raises(ConfigurationError) as direct:
            run_campaign(campaign, block_size=block_size, backend="python")
        with pytest.raises(ConfigurationError) as farmed:
            Farm(tmp_path).submit(campaign, block_size=block_size, backend="python")
        assert message in str(direct.value)
        assert str(farmed.value) == str(direct.value)
        assert list(tmp_path.iterdir()) == []

    def test_cli_submit_block_size_0_writes_no_campaign(self, tmp_path, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["farm", "submit", "--root", str(tmp_path), "--total", "8",
                  "--block-size", "0"])
        assert excinfo.value.code == "block_size must be >= 1, got 0"
        assert not (tmp_path / "campaigns").exists()

    def test_confidence_is_checked_before_any_shard_runs(self, tmp_path):
        from repro.analysis.degradation import measure_degradation

        with pytest.raises(ConfigurationError, match=r"confidence must be in \(0, 1\), got 1.5"):
            measure_degradation([0.0], samples=8, confidence=1.5, farm_root=tmp_path)
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(ConfigurationError, match=r"confidence must be in \(0, 1\), got 1.5"):
            Farm(tmp_path).collect("last", confidence=1.5)


class TestOneRulePerStatistic:
    @pytest.mark.parametrize("route", ["fleet", "scalar", "farm"])
    @pytest.mark.parametrize(
        "n, c, message",
        [
            (1, 2.0, "need a ring of at least 2 nodes, got n=1"),
            (6, 0.0, "sampler exponent c must be > 0, got 0.0"),
        ],
    )
    def test_whp_refuses_what_whp_check_refuses(self, route, n, c, message, tmp_path):
        from repro.analysis.whp import measure_anonymous_success

        kwargs = {"fleet": route != "scalar"}
        if route == "farm":
            kwargs["farm_root"] = tmp_path
        with pytest.raises(ConfigurationError) as excinfo:
            measure_anonymous_success(n, 5, c=c, **kwargs)
        assert str(excinfo.value) == message
        assert list(tmp_path.iterdir()) == []

    def test_fleet_false_has_no_farm_path(self, tmp_path):
        from repro.analysis.average_case import (
            measure_oblivious_over_placements,
        )
        from repro.analysis.whp import measure_anonymous_success

        message = "the farm runs the fleet engine only"
        with pytest.raises(ConfigurationError, match=message):
            measure_oblivious_over_placements(
                5, 4, fleet=False, batched=True, farm_root=tmp_path
            )
        with pytest.raises(ConfigurationError, match=message):
            measure_anonymous_success(5, 4, fleet=False, farm_root=tmp_path)
        assert list(tmp_path.iterdir()) == []


def _submit_subprocess(root: Path, total: int, shard_size: int) -> subprocess.Popen:
    """Launch `repro farm submit` for the battery's recovery campaign."""
    env = {**os.environ, "PYTHONPATH": SRC_DIR}
    env.pop(INJECT_FAIL_ENV, None)
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "farm",
            "submit",
            "--root",
            str(root),
            "--workload",
            "recovery",
            "--n",
            "6",
            "--id-max",
            "64",
            "--seed",
            "9",
            "--drop-rate",
            "0.01",
            "--fault-seed",
            "9",
            "--total",
            str(total),
            "--shard-size",
            str(shard_size),
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _battery_campaign(total: int, shard_size: int) -> Campaign:
    """The in-process twin of :func:`_submit_subprocess`'s campaign."""
    return Campaign(
        "recovery",
        total=total,
        params=recovery_params(
            n=6,
            id_max=64,
            seed=9,
            faults=FaultModel(drop_rate=0.01, seed=9),
        ),
        shard_size=shard_size,
    )


def _object_count(root: Path) -> int:
    """Committed (os.replace'd) result objects under ``root`` — in-flight
    ``.tmp-*`` files are exactly what a kill may destroy, so they don't
    count."""
    objects = root / "objects"
    if not objects.is_dir():
        return 0
    return sum(
        1
        for path in objects.rglob("*.json")
        if not path.name.startswith(".tmp-")
    )


class TestSigkillResumeBattery:
    def test_sigkill_mid_campaign_then_resume_bit_identical(self, tmp_path):
        """The acceptance criterion in miniature: SIGKILL a real worker
        process mid-shard, re-submit, and the collected stats must be
        byte-identical to a never-interrupted run."""
        total, shard_size = 4000, 100
        campaign = _battery_campaign(total, shard_size)

        reference = Farm(tmp_path / "reference")
        assert reference.submit(campaign).complete
        expected = reference.collect_text(campaign.cid)

        victim_root = tmp_path / "victim"
        proc = _submit_subprocess(victim_root, total, shard_size)
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if _object_count(victim_root) >= 2:
                break
            if proc.poll() is not None:
                break
            time.sleep(0.005)
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)

        farm = Farm(victim_root)
        cached = sum(
            1 for job in campaign.jobs() if farm.store.has(job.key)
        )
        resumed = farm.submit(campaign)
        assert resumed.complete
        assert resumed.hits == cached
        assert resumed.hits + resumed.computed == len(campaign.jobs())
        assert farm.collect_text(campaign.cid) == expected
        # gc reaps whatever the kill left behind without changing results.
        farm.gc()
        assert farm.collect_text(campaign.cid) == expected

    @pytest.mark.skipif(
        not os.environ.get("REPRO_FARM_BIG"),
        reason="set REPRO_FARM_BIG=1 for the 1M-instance acceptance run",
    )
    def test_million_instance_sigkill_resume_bit_identical(self, tmp_path):
        """The ISSUE's acceptance criterion at full scale: a campaign of
        1,000,000 instances, killed mid-run, completes from cached
        shards with bit-identical collected stats."""
        params = placements_params(n=16, seed=1)
        campaign = Campaign(
            "placements", total=1_000_000, params=params, shard_size=50_000
        )
        reference = Farm(tmp_path / "reference")
        assert reference.submit(campaign).complete
        expected = reference.collect_text(campaign.cid)

        victim_root = tmp_path / "victim"
        env = {**os.environ, "PYTHONPATH": SRC_DIR}
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "farm",
                "submit",
                "--root",
                str(victim_root),
                "--workload",
                "placements",
                "--n",
                "16",
                "--seed",
                "1",
                "--total",
                "1000000",
                "--shard-size",
                "50000",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + 600.0
        while time.monotonic() < deadline:
            if _object_count(victim_root) >= 2 or proc.poll() is not None:
                break
            time.sleep(0.05)
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=60)

        farm = Farm(victim_root)
        resumed = farm.submit(campaign)
        assert resumed.complete
        assert resumed.hits >= 2
        assert farm.collect_text(campaign.cid) == expected


class TestEarWorkload:
    """The topology-sweep workload: ear election over a graph descriptor.

    Two contracts: (1) ear campaigns run, resume from the warm cache,
    and collect the same summary the foreground topology battery would;
    (2) ring workload keys never move — the topology_semantics
    coordinate enters only params carrying a topology descriptor.
    """

    def _campaign(self, total=24, shard_size=8):
        from repro.farm.campaign import ear_params
        from repro.graphs.samples import theta_graph

        return Campaign(
            "ear",
            total=total,
            params=ear_params(theta_graph(0, 1, 2), id_max=64),
            shard_size=shard_size,
        )

    def test_submit_collect_and_warm_cache(self, tmp_path):
        farm = Farm(tmp_path)
        cold = farm.submit(self._campaign(), backend="python")
        assert cold.complete and cold.hits == 0 and cold.computed == 3
        warm = farm.submit(self._campaign(), backend="python")
        assert warm.complete and warm.hits == 3 and warm.computed == 0
        collected = farm.collect(cold.cid)
        assert collected["workload"] == "ear"
        result = collected["result"]
        assert result["clean"] and result["violations"] == 0
        assert result["samples"] == 24

    def test_collect_matches_foreground_battery(self, tmp_path):
        from repro.graphs.samples import theta_graph
        from repro.verification.statistical import TopologyCheck, run_check

        farm = Farm(tmp_path)
        outcome = farm.submit(self._campaign(), backend="python")
        result = farm.collect(outcome.cid)["result"]
        check = TopologyCheck(graph=theta_graph(0, 1, 2), id_max=64, backend="python")
        report = run_check(check, 24)
        assert result["violations"] == report.violations
        assert result["rate_low"] == report.rate_low
        assert result["rate_high"] == report.rate_high

    def test_ear_params_canonical_across_edge_spellings(self):
        from repro.farm.campaign import ear_params
        from repro.graphs import Graph
        from repro.graphs.samples import theta_graph

        graph = theta_graph()
        respelled = Graph.from_edges(
            graph.n, [(b, a) for a, b in sorted(graph.edges, reverse=True)]
        )
        assert ear_params(graph) == ear_params(respelled)
        assert (
            shard_key("ear", ear_params(graph), 0, 10)
            == shard_key("ear", ear_params(respelled), 0, 10)
        )

    def test_ear_keys_carry_topology_semantics(self):
        from repro.farm.campaign import ear_params
        from repro.farm.keys import (
            SEMANTICS_VERSION,
            TOPOLOGY_SEMANTICS_VERSION,
            digest,
        )
        from repro.graphs.samples import theta_graph

        params = ear_params(theta_graph())
        assert params["topology"] is not None
        expected = digest(
            {
                "semantics": SEMANTICS_VERSION,
                "workload": "ear",
                "params": dict(params),
                "start": 0,
                "stop": 10,
                "topology_semantics": TOPOLOGY_SEMANTICS_VERSION,
            }
        )
        assert shard_key("ear", params, 0, 10) == expected

    def test_ring_workload_params_have_no_topology(self):
        """Every ring workload's param set stays topology-free, so its
        keys can never pick up the topology_semantics coordinate."""
        from repro.farm.campaign import (
            placements_params,
            recovery_params,
            whp_params,
        )

        for params in (recovery_params(), whp_params(), placements_params()):
            assert "topology" not in params
