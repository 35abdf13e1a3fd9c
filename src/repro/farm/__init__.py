"""``repro.farm`` — persistent submit/monitor/collect sweep pipeline.

Million-instance campaigns (recovery batteries, degradation curves,
Theorem 1/3 sweeps) shard into resumable jobs whose results live in a
content-addressed on-disk store; a JSONL ledger with advisory locking
tracks shard states across process restarts.  No services, no daemons —
a farm is just a directory, and ``repro farm submit`` can be killed and
re-run until ``collect`` has every shard.

Layering: :mod:`~repro.farm.keys` (canonical hashing) →
:mod:`~repro.farm.store` (atomic checksummed objects) /
:mod:`~repro.farm.ledger` (shard-state log) →
:mod:`~repro.farm.campaign` (spec + shard grid) →
:mod:`~repro.farm.workloads` (shard runners + folds) →
:mod:`~repro.farm.service` (the :class:`Farm` pipeline and
:func:`run_campaign`, which the analysis modules call with or without
a farm root).
"""

from repro.farm.campaign import (
    DEFAULT_SHARD_SIZE,
    WORKLOADS,
    Campaign,
    Job,
    degradation_params,
    ear_params,
    placements_params,
    recovery_params,
    shard_ranges,
    whp_params,
)
from repro.farm.keys import (
    SEMANTICS_VERSION,
    campaign_id,
    canonical_fault_model,
    canonical_json,
    digest,
    fault_model_from_canonical,
    shard_key,
)
from repro.farm.ledger import SHARD_STATES, Ledger
from repro.farm.service import (
    INJECT_FAIL_ENV,
    Farm,
    SubmitOutcome,
    run_campaign,
)
from repro.farm.store import ResultStore
from repro.farm.workloads import run_shard

__all__ = [
    "DEFAULT_SHARD_SIZE",
    "INJECT_FAIL_ENV",
    "SEMANTICS_VERSION",
    "SHARD_STATES",
    "WORKLOADS",
    "Campaign",
    "Farm",
    "Job",
    "Ledger",
    "ResultStore",
    "SubmitOutcome",
    "campaign_id",
    "canonical_fault_model",
    "canonical_json",
    "degradation_params",
    "ear_params",
    "digest",
    "fault_model_from_canonical",
    "placements_params",
    "recovery_params",
    "run_campaign",
    "run_shard",
    "shard_key",
    "shard_ranges",
    "whp_params",
]
