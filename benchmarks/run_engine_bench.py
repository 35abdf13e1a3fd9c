"""Engine throughput benchmark: batched vs pulse-by-pulse delivery.

Measures simulator throughput (pulses/second) on the Theorem 1 workload
— ``run_terminating`` costs exactly ``n(2*IDmax + 1)`` pulses — over the
grid ``n in {8, 32, 128} x IDmax in {10^3, 10^5}``, once per engine mode:

* ``unbatched`` — the reference per-pulse loop, default global-FIFO
  adversary;
* ``batched`` — the counting fast path under the same adversary;
* ``batched_longest_run`` — the fast path under the run-snowballing
  :class:`~repro.simulator.scheduler.LongestRunScheduler` (any scheduler
  is a legal adversary and the pulse count is schedule-invariant, so
  throughput is comparable across rows).

Each config cross-checks the modes' outcomes (leader, exact pulse count)
and the script additionally fans a randomized differential sweep over
:func:`repro.analysis.parallel.parallel_map`.

A separate *sweep* workload times the Monte Carlo shape the analysis
layer actually runs — many independent instances — through three
engines: per-instance unbatched, per-instance batched, and the
vectorized fleet (:mod:`repro.simulator.fleet`) advancing all instances
in lockstep.  The fleet runs every instance; the scalar engines are
timed on a subsample and extrapolated (their per-instance cost is the
schedule-invariant ``n(2*IDmax+1)`` pulse count, identical across
instances up to the ID draw).  Outcomes are verified by element-wise
comparison on the subsample plus closed-form checks (exact Theorem 1
pulse count, max-ID leader, all terminated) over the full fleet.

A *farm* section times a sweep-farm recovery campaign cold, warm (all
cache hits) and resumed.  Thread counts (OMP/BLAS) are pinned at module
import, before any ``repro`` import, and echoed into the report
metadata.

Results land in a machine-readable ``BENCH_engine.json`` at the repo
root so future PRs have a perf trajectory::

    PYTHONPATH=src python benchmarks/run_engine_bench.py            # full grid
    PYTHONPATH=src python benchmarks/run_engine_bench.py --quick    # small grid
    PYTHONPATH=src python benchmarks/run_engine_bench.py --processes auto
    PYTHONPATH=src python benchmarks/run_engine_bench.py --quick \\
        --min-batched-speedup 5 --min-fleet-speedup 5               # CI gate
"""

from __future__ import annotations

import os

# Pin thread counts BEFORE any repro/numpy import: BLAS pools size
# themselves at import, and an oversubscribed box turns throughput
# numbers into noise.  ``setdefault`` keeps an explicit
# operator override; the effective pins land in the report metadata.
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
for _var, _default in THREAD_PINS.items():
    os.environ.setdefault(_var, _default)

import argparse
import json
import pathlib
import platform
import random
import time
from typing import Dict, List, Optional

from repro.analysis.parallel import parallel_map, resolve_processes
from repro.core.terminating import run_terminating
from repro.exceptions import ConfigurationError
from repro.simulator.scheduler import GlobalFifoScheduler, LongestRunScheduler

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
FULL_GRID = [(n, id_max) for id_max in (10**3, 10**5) for n in (8, 32, 128)]
QUICK_GRID = [(n, id_max) for id_max in (10**3, 10**4) for n in (8, 32)]


def pinned_ids(n: int, id_max: int, seed: int) -> List[int]:
    """``n`` distinct IDs with the maximum pinned to ``id_max``."""
    rng = random.Random(seed)
    ids = rng.sample(range(1, id_max), n - 1) + [id_max]
    rng.shuffle(ids)
    return ids


def _timed_run(ids: List[int], batched: bool, scheduler_factory) -> Dict:
    t0 = time.perf_counter()
    outcome = run_terminating(
        ids, scheduler=scheduler_factory(), max_steps=10**9, batched=batched
    )
    seconds = time.perf_counter() - t0
    assert outcome.total_pulses == outcome.theorem1_message_bound
    assert outcome.leaders == [outcome.expected_leader]
    assert outcome.run.quiescently_terminated
    return {
        "seconds": round(seconds, 4),
        "steps": outcome.run.steps,
        "pulses": outcome.total_pulses,
        "pulses_per_sec": round(outcome.total_pulses / seconds),
        "leader_id": outcome.ids[outcome.leaders[0]],
    }


def bench_config(n: int, id_max: int) -> Dict:
    ids = pinned_ids(n, id_max, seed=1000 * n + id_max)
    unbatched = _timed_run(ids, batched=False, scheduler_factory=GlobalFifoScheduler)
    batched = _timed_run(ids, batched=True, scheduler_factory=GlobalFifoScheduler)
    snowball = _timed_run(ids, batched=True, scheduler_factory=LongestRunScheduler)
    for row in (batched, snowball):
        row["speedup"] = round(unbatched["seconds"] / row["seconds"], 2)
    outcomes_match = (
        unbatched["leader_id"] == batched["leader_id"] == snowball["leader_id"]
        and unbatched["pulses"] == batched["pulses"] == snowball["pulses"]
    )
    return {
        "n": n,
        "id_max": id_max,
        "claimed_pulses": n * (2 * id_max + 1),
        "unbatched": unbatched,
        "batched": batched,
        "batched_longest_run": snowball,
        "outcomes_match": outcomes_match,
    }


def bench_sweep(fleet_size: int, n: int, id_max: int, subsample: int) -> Dict:
    """Time the three engines on a ``fleet_size``-instance Monte Carlo sweep."""
    from repro.simulator.fleet import HAVE_NUMPY, run_terminating_fleet

    instances = [pinned_ids(n, id_max, seed=b) for b in range(fleet_size)]

    t0 = time.perf_counter()
    result = run_terminating_fleet(instances)
    fleet_seconds = time.perf_counter() - t0
    fleet_pulses = sum(result.total_pulses)

    # Closed-form checks over the FULL fleet: Theorem 1's exact count,
    # the max-ID leader, and termination everywhere.
    closed_form_ok = (
        all(
            total == n * (2 * max(ids) + 1)
            for total, ids in zip(result.total_pulses, instances)
        )
        and all(
            result.leaders[b] == [max(range(n), key=lambda v: instances[b][v])]
            for b in range(fleet_size)
        )
        and all(all(row) for row in result.terminated)
        and result.ignored_deliveries == 0
    )

    # Scalar engines: time a subsample, extrapolate by pulse volume (the
    # per-instance cost is schedule-invariant and near-identical across
    # the fleet, so pulses/s is the stable quantity).
    sample = instances[:subsample]
    elementwise_ok = True
    t0 = time.perf_counter()
    for b, ids in enumerate(sample):
        outcome = run_terminating(ids, batched=True, max_steps=10**9)
        elementwise_ok &= (
            outcome.leaders == result.leaders[b]
            and outcome.total_pulses == result.total_pulses[b]
        )
    batched_seconds = time.perf_counter() - t0
    batched_pulses = sum(result.total_pulses[:subsample])

    t0 = time.perf_counter()
    outcome = run_terminating(instances[0], max_steps=10**9)
    unbatched_seconds = time.perf_counter() - t0
    elementwise_ok &= (
        outcome.leaders == result.leaders[0]
        and outcome.total_pulses == result.total_pulses[0]
    )

    fleet_rate = fleet_pulses / fleet_seconds
    batched_rate = batched_pulses / batched_seconds
    unbatched_rate = outcome.total_pulses / unbatched_seconds
    return {
        "fleet_size": fleet_size,
        "n": n,
        "id_max": id_max,
        "subsample": subsample,
        "backend": result.backend,
        "numpy_available": HAVE_NUMPY,
        "fleet": {
            "seconds": round(fleet_seconds, 4),
            "pulses": fleet_pulses,
            "pulses_per_sec": round(fleet_rate),
            "rounds": result.rounds,
            "lap_skips": result.lap_skips,
        },
        "batched": {
            "sampled_seconds": round(batched_seconds, 4),
            "pulses_per_sec": round(batched_rate),
            "extrapolated_sweep_seconds": round(fleet_pulses / batched_rate, 2),
        },
        "unbatched": {
            "sampled_seconds": round(unbatched_seconds, 4),
            "pulses_per_sec": round(unbatched_rate),
            "extrapolated_sweep_seconds": round(fleet_pulses / unbatched_rate, 2),
        },
        "fleet_speedup_vs_batched": round(fleet_rate / batched_rate, 2),
        "fleet_speedup_vs_unbatched": round(fleet_rate / unbatched_rate, 2),
        "outcomes_match": bool(closed_form_ok and elementwise_ok),
    }


def bench_farm(quick: bool) -> Dict:
    """Sweep-farm cache economics: cold vs warm campaign wall time.

    Submits one recovery campaign into a throwaway farm root three ways:
    *cold* (every shard computed), *warm* (every shard a cache hit —
    an immediate re-submit), and *resume* (one shard deleted, as after
    an interrupted run).  The warm collect must be byte-identical to the
    cold collect, and the cache speedup (cold / warm wall time,
    submit+collect) is the number the ``--min-cache-speedup`` gate
    checks.
    """
    import shutil
    import tempfile

    from repro.farm.campaign import Campaign, recovery_params
    from repro.farm.service import Farm
    from repro.faults.model import FaultModel

    # Heavy compute per payload byte (large n, low fault rate) so the
    # warm run measures cache reads, not JSON parsing of failure logs.
    if quick:
        total, shard_size, n, id_max = 2000, 500, 12, 128
    else:
        total, shard_size, n, id_max = 10000, 1250, 12, 128
    root = pathlib.Path(tempfile.mkdtemp(prefix="repro-farm-bench-"))
    try:
        farm = Farm(root)
        campaign = Campaign(
            "recovery",
            total=total,
            params=recovery_params(
                n=n,
                id_max=id_max,
                seed=9,
                faults=FaultModel(drop_rate=0.002, seed=9),
            ),
            shard_size=shard_size,
        )
        t0 = time.perf_counter()
        cold_outcome = farm.submit(campaign)
        cold_text = farm.collect_text(campaign.cid)
        cold_seconds = time.perf_counter() - t0

        t0 = time.perf_counter()
        warm_outcome = farm.submit(campaign)
        warm_text = farm.collect_text(campaign.cid)
        warm_seconds = time.perf_counter() - t0

        first_key = campaign.jobs()[0].key
        farm.store.delete(first_key)
        t0 = time.perf_counter()
        resume_outcome = farm.submit(campaign)
        resume_seconds = time.perf_counter() - t0

        shards = len(campaign.jobs())
        return {
            "workload": (
                f"recovery campaign n={n} id_max={id_max} total={total} "
                f"drop_rate=0.002 ({shards} shards of {shard_size})"
            ),
            "shards": shards,
            "cold_seconds": round(cold_seconds, 4),
            "warm_seconds": round(warm_seconds, 4),
            "cache_speedup": round(cold_seconds / warm_seconds, 3),
            "cold_computed": cold_outcome.computed,
            "warm_cache_hits": warm_outcome.hits,
            "warm_hit_rate": warm_outcome.hit_rate,
            "byte_identical_collect": cold_text == warm_text,
            "resume_seconds": round(resume_seconds, 4),
            "resume_recomputed": resume_outcome.computed,
            "resume_overhead_vs_warm": round(
                resume_seconds - warm_seconds + 1e-9, 4
            ),
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _dist_version(name: str) -> Optional[str]:
    """Installed version of ``name``, or None when it is absent."""
    try:
        from importlib.metadata import version

        return version(name)
    except Exception:
        return None


def _differential_case(case_seed: int) -> bool:
    """Picklable worker: one small batched-vs-unbatched comparison."""
    rng = random.Random(case_seed)
    n = rng.randint(2, 8)
    ids = rng.sample(range(1, 200), n)
    slow = run_terminating(ids)
    fast = run_terminating(ids, batched=True)
    return (
        slow.leaders == fast.leaders
        and slow.total_pulses == fast.total_pulses == n * (2 * max(ids) + 1)
        and slow.run.termination_order == fast.run.termination_order
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small grid for smoke runs"
    )
    parser.add_argument(
        "--processes",
        default=None,
        help="worker processes for the differential sweep (int, 'auto', default serial)",
    )
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=REPO_ROOT / "BENCH_engine.json",
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--min-batched-speedup",
        type=float,
        default=None,
        help="fail unless the best batched speedup meets this floor",
    )
    parser.add_argument(
        "--min-fleet-speedup",
        type=float,
        default=None,
        help="fail unless the fleet sweep speedup over batched meets this floor",
    )
    parser.add_argument(
        "--min-cache-speedup",
        type=float,
        default=None,
        help="fail unless a warm sweep-farm campaign (all cache hits) "
        "beats the cold run by this factor",
    )
    args = parser.parse_args(argv)
    processes = args.processes
    if isinstance(processes, str):
        try:
            processes = int(processes)
        except ValueError:
            pass
    try:  # fail fast on a bad worker count, not after the whole grid
        resolve_processes(processes)
    except ConfigurationError as exc:
        parser.error(str(exc))

    grid = QUICK_GRID if args.quick else FULL_GRID
    configs = []
    for n, id_max in grid:
        print(f"benchmarking n={n} IDmax={id_max} ...", flush=True)
        config = bench_config(n, id_max)
        print(
            f"  unbatched {config['unbatched']['pulses_per_sec']:>10,} pulses/s | "
            f"batched {config['batched']['pulses_per_sec']:>12,} pulses/s "
            f"({config['batched']['speedup']}x) | "
            f"longest_run {config['batched_longest_run']['speedup']}x",
            flush=True,
        )
        configs.append(config)

    if args.quick:
        print("sweep workload: fleet=100 n=16 IDmax=10^4 ...", flush=True)
        sweep_config = bench_sweep(fleet_size=100, n=16, id_max=10**4, subsample=10)
    else:
        print("sweep workload: fleet=1000 n=64 IDmax=10^5 ...", flush=True)
        sweep_config = bench_sweep(fleet_size=1000, n=64, id_max=10**5, subsample=5)
    print(
        f"  fleet {sweep_config['fleet']['pulses_per_sec']:>12,} pulses/s "
        f"({sweep_config['backend']}) | "
        f"{sweep_config['fleet_speedup_vs_batched']}x vs batched | "
        f"{sweep_config['fleet_speedup_vs_unbatched']}x vs unbatched | "
        f"outcomes_match={sweep_config['outcomes_match']}",
        flush=True,
    )

    print("farm workload: cold vs warm recovery campaign ...", flush=True)
    farm_bench = bench_farm(args.quick)
    print(
        f"  farm cold {farm_bench['cold_seconds']}s | warm "
        f"{farm_bench['warm_seconds']}s ({farm_bench['cache_speedup']}x) | "
        f"resume {farm_bench['resume_seconds']}s "
        f"(recomputed {farm_bench['resume_recomputed']} shard) | "
        f"byte_identical={farm_bench['byte_identical_collect']}",
        flush=True,
    )

    sweep_cases = 40
    sweep = parallel_map(
        _differential_case, range(sweep_cases), processes=processes
    )
    top_id_max = max(id_max for _n, id_max in grid)
    top_rows = [c for c in configs if c["id_max"] == top_id_max]
    speedups = {f"n={c['n']}": c["batched"]["speedup"] for c in top_rows}
    best = max(
        max(c["batched"]["speedup"], c["batched_longest_run"]["speedup"])
        for c in top_rows
    )
    report = {
        "generated_by": "benchmarks/run_engine_bench.py"
        + (" --quick" if args.quick else ""),
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "thread_pins": {var: os.environ[var] for var in THREAD_PINS},
        "numpy_version": _dist_version("numpy"),
        "workload": "run_terminating (Theorem 1: exactly n(2*IDmax+1) pulses)",
        "grid": configs,
        "sweep": sweep_config,
        "farm": farm_bench,
        "differential_sweep": {
            "cases": sweep_cases,
            "all_match": all(sweep),
            "processes": args.processes or "serial",
        },
        "summary": {
            "top_id_max": top_id_max,
            "batched_speedup_at_top_id_max": speedups,
            "best_speedup_at_top_id_max": best,
            "meets_10x_at_top_id_max": best >= 10.0,
            "fleet_speedup_vs_batched": sweep_config["fleet_speedup_vs_batched"],
            "fleet_meets_10x_vs_batched": sweep_config["fleet_speedup_vs_batched"]
            >= 10.0,
            "farm_cache_speedup": farm_bench["cache_speedup"],
            "farm_collect_byte_identical": farm_bench[
                "byte_identical_collect"
            ],
        },
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    if (
        not all(sweep)
        or not all(c["outcomes_match"] for c in configs)
        or not sweep_config["outcomes_match"]
    ):
        print("DIFFERENTIAL MISMATCH — fast engines disagree with reference")
        return 1
    if not farm_bench["byte_identical_collect"]:
        print("FARM MISMATCH — warm collect differs from cold collect")
        return 1
    if (
        args.min_cache_speedup is not None
        and farm_bench["cache_speedup"] < args.min_cache_speedup
    ):
        print(
            f"SPEEDUP REGRESSION — warm farm campaign "
            f"{farm_bench['cache_speedup']}x over cold below the required "
            f"{args.min_cache_speedup}x"
        )
        return 1
    if (
        args.min_batched_speedup is not None
        and best < args.min_batched_speedup
    ):
        print(
            f"SPEEDUP REGRESSION — best batched speedup {best}x below the "
            f"required {args.min_batched_speedup}x"
        )
        return 1
    if (
        args.min_fleet_speedup is not None
        and sweep_config["fleet_speedup_vs_batched"] < args.min_fleet_speedup
    ):
        print(
            f"SPEEDUP REGRESSION — fleet sweep speedup "
            f"{sweep_config['fleet_speedup_vs_batched']}x below the required "
            f"{args.min_fleet_speedup}x"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
