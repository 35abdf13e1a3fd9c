"""The farm itself: submit / status / collect / gc over one root dir.

A farm root is a plain directory::

    <root>/
      campaigns/<cid>.json   # canonical campaign specs (+ LAST pointer)
      objects/..             # content-addressed shard results (store.py)
      ledger.jsonl           # shard-state event log (ledger.py)

``submit`` is *idempotent and resumable*: it walks the campaign's job
grid, skips every shard whose verified result already sits in the
store (a cache hit — whether from this campaign, an interrupted
earlier submit, or an overlapping campaign), and computes the rest,
writing each result atomically as soon as its chunk finishes.  Killing
a submit at any instant loses at most the in-flight chunk; the next
submit picks up from the objects on disk.  ``collect`` folds a
complete campaign's shards into the stats object the analysis modules
return — byte-identically, whatever mixture of runs produced the
shards.  :func:`run_campaign` is the one entry point the analysis
modules call, with or without a farm root.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Set, Tuple, Union

from repro.analysis.parallel import (
    ProcessCount,
    parallel_map,
    resolve_processes,
    shard_evenly,
)
from repro.exceptions import ConfigurationError
from repro.farm.campaign import Campaign
from repro.farm.keys import canonical_json
from repro.farm.ledger import Ledger, pid_alive
from repro.farm.store import ResultStore
from repro.farm.workloads import (
    DEFAULT_JOB_BLOCK_SIZE,
    FOLDS,
    collect_options,
    run_shard_task,
    validate_campaign,
)

#: Env hook for tests/CI: comma-separated job indices whose shard run
#: fails (before computing anything).  Exercises the failed→resume path
#: without patching internals.
INJECT_FAIL_ENV = "REPRO_FARM_INJECT_FAIL"

#: Name of the "most recently submitted campaign" pointer file.
LAST_POINTER = "LAST"


def _injected_failures() -> Set[int]:
    raw = os.environ.get(INJECT_FAIL_ENV, "").strip()
    if not raw:
        return set()
    return {int(part) for part in raw.split(",") if part.strip()}


def _run_job_task(
    task: Tuple[int, str, Dict[str, Any], int, int, str, int],
) -> Tuple[int, str, Any]:
    """Picklable worker: one shard → ``(index, "ok", payload)`` or
    ``(index, "error", message)``.  Never raises — a failed shard must
    not take down its submit (the other shards' results still count)."""
    index, *job = task
    if index in _injected_failures():
        return (
            index,
            "error",
            f"injected failure ({INJECT_FAIL_ENV} includes {index})",
        )
    try:
        payload = run_shard_task(tuple(job))
    except Exception as exc:  # noqa: BLE001 - boundary: report, don't crash
        return (index, "error", f"{type(exc).__name__}: {exc}")
    return (index, "ok", payload)


@dataclass
class SubmitOutcome:
    """What one ``submit`` did: cache hits vs computed vs failed."""

    cid: str
    jobs: int
    hits: int
    computed: int
    failed: List[Tuple[int, str, str]] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        """True when every shard of the campaign now has a result."""
        return self.hits + self.computed == self.jobs

    @property
    def hit_rate(self) -> float:
        """Fraction of shards served from the cache."""
        return self.hits / self.jobs if self.jobs else 1.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "campaign": self.cid,
            "jobs": self.jobs,
            "cache_hits": self.hits,
            "computed": self.computed,
            "failed": [
                {"index": index, "key": key, "error": message}
                for index, key, message in self.failed
            ],
            "complete": self.complete,
            "hit_rate": self.hit_rate,
        }


class Farm:
    """Submit/monitor/collect pipeline rooted at one directory."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.store = ResultStore(self.root)
        self.ledger = Ledger(self.root)
        self.campaigns_dir = self.root / "campaigns"

    # -- campaign spec persistence -------------------------------------

    def _spec_path(self, cid: str) -> Path:
        return self.campaigns_dir / f"{cid}.json"

    def save_campaign(self, campaign: Campaign) -> str:
        """Persist the canonical spec (idempotent) and point LAST at it."""
        cid = campaign.cid
        self.campaigns_dir.mkdir(parents=True, exist_ok=True)
        path = self._spec_path(cid)
        body = canonical_json({"id": cid, **campaign.spec()}) + "\n"
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(body)
        os.replace(tmp, path)
        (self.campaigns_dir / LAST_POINTER).write_text(cid + "\n")
        return cid

    def campaign_ids(self) -> List[str]:
        """Every campaign with a spec on disk, sorted."""
        if not self.campaigns_dir.is_dir():
            return []
        return sorted(
            path.stem
            for path in self.campaigns_dir.glob("*.json")
            if not path.name.endswith(".tmp")
        )

    def resolve_cid(self, cid: str) -> str:
        """Resolve the ``"last"`` convenience alias to a concrete cid."""
        if cid != "last":
            return cid
        pointer = self.campaigns_dir / LAST_POINTER
        try:
            resolved = pointer.read_text().strip()
        except FileNotFoundError:
            raise ConfigurationError(
                f"no campaign submitted yet under {self.root} "
                "('last' has nothing to point at)"
            ) from None
        return resolved

    def load_campaign(self, cid: str) -> Campaign:
        """Rebuild a campaign from its stored spec (accepts ``"last"``)."""
        cid = self.resolve_cid(cid)
        path = self._spec_path(cid)
        try:
            import json

            spec = json.loads(path.read_text())
        except FileNotFoundError:
            raise ConfigurationError(
                f"unknown campaign {cid!r} under {self.root} "
                f"(known: {self.campaign_ids() or 'none'})"
            ) from None
        spec.pop("id", None)
        campaign = Campaign.from_spec(spec)
        if campaign.cid != cid:
            raise ConfigurationError(
                f"campaign spec file {path} hashes to {campaign.cid}, "
                f"not its own name {cid} — refusing to trust it"
            )
        return campaign

    # -- submit --------------------------------------------------------

    def submit(
        self,
        campaign: Campaign,
        backend: str = "auto",
        processes: ProcessCount = None,
        block_size: int = DEFAULT_JOB_BLOCK_SIZE,
    ) -> SubmitOutcome:
        """Run (or resume) a campaign: compute every shard not cached.

        Results land in the store chunk by chunk — ``resolve_processes``
        shards at a time — so an interrupt loses at most one chunk of
        work and the next submit resumes from the completed shards.
        A campaign whose jobs cannot run is refused before anything is
        written (see :func:`~repro.farm.workloads.validate_campaign`).
        """
        validate_campaign(campaign, backend, block_size)
        cid = self.save_campaign(campaign)
        self.ledger.record_campaign({"id": cid, **campaign.spec()})

        jobs = campaign.jobs()
        pending = []
        hits = 0
        for job in jobs:
            if self.store.has(job.key):
                hits += 1
            else:
                pending.append(job)

        computed = 0
        failed: List[Tuple[int, str, str]] = []
        chunk_size = max(1, resolve_processes(processes))
        for offset in range(0, len(pending), chunk_size):
            chunk = pending[offset : offset + chunk_size]
            for job in chunk:
                self.ledger.record_shard(
                    cid, job.key, job.index, job.start, job.stop, "running"
                )
            tasks = [
                (
                    job.index,
                    job.workload,
                    dict(job.params),
                    job.start,
                    job.stop,
                    backend,
                    block_size,
                )
                for job in chunk
            ]
            results = parallel_map(_run_job_task, tasks, processes=processes)
            by_index = {index: (status, value) for index, status, value in results}
            for job in chunk:
                status, value = by_index[job.index]
                if status == "ok":
                    self.store.put(job.key, value)
                    self.ledger.record_shard(
                        cid, job.key, job.index, job.start, job.stop, "done"
                    )
                    computed += 1
                else:
                    self.ledger.record_shard(
                        cid,
                        job.key,
                        job.index,
                        job.start,
                        job.stop,
                        "failed",
                        note=str(value),
                    )
                    failed.append((job.index, job.key, str(value)))
        return SubmitOutcome(
            cid=cid, jobs=len(jobs), hits=hits, computed=computed, failed=failed
        )

    # -- status --------------------------------------------------------

    def status(self, cid: Optional[str] = None) -> Dict[str, Any]:
        """Shard-state summary per campaign (ledger + object presence).

        ``done`` means *a verified result object exists now* — the
        store, not the ledger, is the source of truth for completion
        (a ledger ``done`` whose object was deleted reads as pending).
        ``interrupted`` counts ledger-``running`` shards whose recorded
        pid is dead: work a killed submit left behind.
        """
        cids = [self.resolve_cid(cid)] if cid is not None else self.campaign_ids()
        ledger_shards = self.ledger.replay()["shards"]
        campaigns: Dict[str, Any] = {}
        for one in cids:
            campaign = self.load_campaign(one)
            jobs = campaign.jobs()
            done = failed = running = interrupted = pending = 0
            for job in jobs:
                if self.store.has(job.key):
                    done += 1
                    continue
                record = ledger_shards.get((one, job.key))
                state = record.get("state") if record else None
                if state == "running":
                    if pid_alive(int(record.get("pid", -1))):
                        running += 1
                    else:
                        interrupted += 1
                elif state == "failed":
                    failed += 1
                else:
                    pending += 1
            campaigns[one] = {
                "workload": campaign.workload,
                "total": campaign.total,
                "shard_size": campaign.shard_size,
                "jobs": len(jobs),
                "done": done,
                "pending": pending,
                "running": running,
                "interrupted": interrupted,
                "failed": failed,
                "complete": done == len(jobs),
            }
        return {"root": str(self.root), "campaigns": campaigns}

    # -- collect -------------------------------------------------------

    def _payloads(self, campaign: Campaign) -> List[List[Mapping[str, Any]]]:
        """The stored payloads, one list per grid point in range order."""
        jobs = campaign.jobs()
        payloads: List[Mapping[str, Any]] = []
        missing: List[int] = []
        for job in jobs:
            payload = self.store.get(job.key)
            if payload is None:
                missing.append(job.index)
            else:
                payloads.append(payload)
        if missing:
            raise ConfigurationError(
                f"campaign {campaign.cid} incomplete: {len(missing)} of "
                f"{len(jobs)} shards missing "
                f"(first missing job index {missing[0]}) — "
                "run `repro farm submit` again to compute them"
            )
        return _by_point(payloads, len(jobs) // len(campaign.grid()))

    def collect_object(self, cid: str, **options: Any) -> Any:
        """Aggregate a complete campaign into its native stats object.

        Returns what the analysis module returns for the same sweep: a
        recovery summary dict, a
        :class:`~repro.analysis.degradation.DegradationCurve`, a
        :class:`~repro.analysis.stats.BernoulliEstimate`, or a
        :class:`~repro.analysis.average_case.PlacementStats`.
        ``options`` are :func:`~repro.farm.workloads.collect_options`'s,
        validated before any shard is read.  Raises
        :class:`ConfigurationError` when shards are missing or fail
        checksum verification (those are quarantined so the next
        submit recomputes them).
        """
        return self._collect(cid, collect_options(**options))[1]

    def _collect(self, cid: str, options: Dict[str, Any]) -> Tuple[Campaign, Any]:
        campaign = self.load_campaign(cid)
        fold, _layout = FOLDS[campaign.workload]
        return campaign, fold(campaign, self._payloads(campaign), options)

    def collect(self, cid: str, **options: Any) -> Dict[str, Any]:
        """:meth:`collect_object` as a JSON-ready dict.

        The dict is assembled from counts and one-shot interval
        arithmetic only, so it is byte-identical (via
        :func:`collect_text`) for any cold/warm/mixed execution history.
        """
        options = collect_options(**options)
        campaign, obj = self._collect(cid, options)
        _fold, layout = FOLDS[campaign.workload]
        return {
            "campaign": {"id": campaign.cid, **campaign.spec()},
            "workload": campaign.workload,
            "result": layout(obj, options),
        }

    def collect_text(self, cid: str, **kwargs: Any) -> str:
        """The canonical-JSON form of :meth:`collect` — the byte string
        the differential cold/warm/mixed tests compare."""
        return canonical_json(self.collect(cid, **kwargs)) + "\n"

    # -- gc ------------------------------------------------------------

    def gc(self) -> Dict[str, int]:
        """Reap what crashes leave behind: compact the ledger (dropping
        entries of campaigns with no spec on disk, demoting dead-pid
        ``running`` records) and sweep stray temp files."""
        counters = self.ledger.compact(live_campaigns=set(self.campaign_ids()))
        counters["tmp_files"] = self.store.sweep_tmp()
        return counters


def _by_point(payloads: List[Any], per_point: int) -> List[List[Any]]:
    """Grid-major payloads cut into one list per grid point."""
    return [
        payloads[offset : offset + per_point]
        for offset in range(0, len(payloads), per_point)
    ]


def run_campaign(
    campaign: Campaign,
    root: Optional[Union[str, Path]] = None,
    *,
    backend: str = "auto",
    processes: ProcessCount = None,
    block_size: int = DEFAULT_JOB_BLOCK_SIZE,
    **collect_kwargs: Any,
) -> Any:
    """Compute ``campaign`` and fold it into its stats object.

    With ``root``, the campaign goes through the farm there: cached
    shards are reused, the rest are computed and stored, and the stats
    are collected from the store.  Without it, nothing is stored: each
    grid point's ``range(total)`` is split into one contiguous range per
    worker (:func:`~repro.analysis.parallel.shard_evenly`, not the
    campaign's ``shard_size``: fewer, larger fleets; the cut changes no
    outcome), each range runs through the same
    :func:`~repro.farm.workloads.run_shard`, and the payloads fold
    through the same table
    (:data:`~repro.farm.workloads.FOLDS`).  ``collect_kwargs`` are
    :func:`~repro.farm.workloads.collect_options`'s, validated, like
    the campaign, before any shard runs.
    """
    options = collect_options(**collect_kwargs)
    if root is not None:
        farm = Farm(root)
        outcome = farm.submit(
            campaign, backend=backend, processes=processes, block_size=block_size
        )
        if not outcome.complete:
            raise ConfigurationError(
                f"farm submit left {len(outcome.failed)} shards failed "
                f"for campaign {outcome.cid}: {outcome.failed[0][2]}"
            )
        return farm.collect_object(campaign.cid, **options)
    validate_campaign(campaign, backend, block_size)
    ranges = [
        (shard[0], shard[-1] + 1)
        for shard in shard_evenly(
            range(campaign.total), resolve_processes(processes)
        )
    ]
    payloads = parallel_map(
        run_shard_task,
        [
            (campaign.job_workload, dict(point), start, stop, backend, block_size)
            for point in campaign.grid()
            for start, stop in ranges
        ],
        processes=processes,
    )
    fold, _layout = FOLDS[campaign.workload]
    return fold(campaign, _by_point(payloads, len(ranges)), options)
