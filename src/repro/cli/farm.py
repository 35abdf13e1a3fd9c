"""``repro farm submit|status|collect|gc``: the persistent sweep farm's
resumable campaigns over a content-addressed result cache."""

from __future__ import annotations

import argparse
from typing import Optional

from repro.cli.common import add_options, parse_topology


def add_arguments(parser: argparse.ArgumentParser) -> None:
    sub = parser.add_subparsers(dest="farm_command", required=True)

    fsubmit = sub.add_parser(
        "submit",
        help="run (or resume) a campaign; kill and re-run freely — "
        "completed shards are never recomputed",
    )
    add_options(fsubmit, "--root")
    fsubmit.add_argument(
        "--workload",
        choices=("recovery", "degradation", "whp", "placements", "ear",
                 "adversary"),
        default="recovery",
    )
    fsubmit.add_argument(
        "--plan", default=None, metavar="PATH",
        help="adversary workload: a `repro faults search` artifact (its "
             "worst plan is evaluated) or a bare canonical plan JSON file",
    )
    fsubmit.add_argument(
        "--topology", default=None, metavar="SPEC",
        help="ear workload: the 2-edge-connected graph to sweep "
             "(same SPEC grammar as elect --topology; default theta)",
    )
    fsubmit.add_argument("--total", type=int, default=1000,
                         help="instances per grid point")
    fsubmit.add_argument("--shard-size", type=int, default=250,
                         help="instances per resumable shard")
    add_options(
        fsubmit, "--n", "--id-max", "--seed", "--sched-seed", "--scheduler",
        "--algorithm", id_max="recovery/degradation/ear/adversary: ID universe bound",
    )
    fsubmit.add_argument("--c", type=float, default=2.0,
                         help="whp: sampler exponent")
    add_options(
        fsubmit, "--kind", "--rates",
        kind="degradation: fault kind to sweep",
        rates="degradation: non-decreasing rate grid",
    )
    fsubmit.add_argument("--drop-rate", type=float, default=0.0,
                         help="recovery: per-pulse drop probability")
    fsubmit.add_argument("--duplicate-rate", type=float, default=0.0,
                         help="recovery: per-pulse duplication probability")
    fsubmit.add_argument("--spurious-rate", type=float, default=0.0,
                         help="recovery: per-slot spurious-pulse probability")
    add_options(fsubmit, "--fault-seed", "--backend", "--block-size", "--processes")
    fsubmit.add_argument(
        "--min-hit-rate",
        type=float,
        default=None,
        help="fail unless at least this fraction of shards came from "
        "the cache (1.0 gates an immediate re-submit on all-hits)",
    )

    fstatus = sub.add_parser("status", help="shard-state summary per campaign")
    add_options(fstatus, "--root")
    fstatus.add_argument(
        "--campaign",
        default=None,
        help="campaign id (or 'last'); default: every campaign",
    )

    fcollect = sub.add_parser(
        "collect",
        help="aggregate a complete campaign's cached shards into its "
        "stats object (canonical JSON on stdout)",
    )
    add_options(fcollect, "--root")
    fcollect.add_argument("--campaign", default="last",
                          help="campaign id (default: 'last')")
    fcollect.add_argument("--confidence", type=float, default=0.99,
                          help="recovery/degradation: CP interval level")
    fcollect.add_argument("--z", type=float, default=2.576,
                          help="whp: normal quantile for the interval")
    fcollect.add_argument("--interval", choices=["wilson", "clopper-pearson"],
                          default="wilson", help="whp: interval method")
    fcollect.add_argument("--out", default=None, metavar="PATH",
                          help="also write the canonical JSON to PATH")

    fgc = sub.add_parser(
        "gc",
        help="reap crash leftovers: compact the ledger (orphaned "
        "campaigns, dead-pid running shards) and sweep temp files",
    )
    add_options(fgc, "--root")


_SUBMIT = {"root", "workload", "total", "shard_size", "backend", "block_size",
           "processes", "min_hit_rate"}
_SEEDS = {"id_max", "seed", "sched_seed", "scheduler"}
_SAMPLED = _SUBMIT | _SEEDS | {"algorithm", "n"}

#: mode label -> the dests its path reads (other sub-verbs have one path).
MODES = {
    "submit --workload recovery": _SAMPLED
    | {"drop_rate", "duplicate_rate", "spurious_rate", "fault_seed"},
    "submit --workload degradation": _SAMPLED | {"kind", "rates", "fault_seed"},
    "submit --workload whp": _SUBMIT | {"n", "c", "seed"},
    "submit --workload placements": _SUBMIT | {"n", "seed"},
    "submit --workload ear": _SUBMIT | _SEEDS | {"topology"},
    "submit --workload adversary": _SAMPLED | {"plan"},
}


def mode(args: argparse.Namespace) -> Optional[str]:
    submit = args.farm_command == "submit"
    return f"submit --workload {args.workload}" if submit else None


def run(args: argparse.Namespace) -> int:
    return {"submit": _submit, "status": _status, "collect": _collect, "gc": _gc}[
        args.farm_command
    ](args)


def _load_plan_spec(path: Optional[str]):
    """A canonical plan dict from a search artifact or a raw plan JSON."""
    import json

    if path is None:
        raise SystemExit(
            "farm submit --workload adversary needs --plan PATH "
            "(a `repro faults search` artifact, or a bare canonical "
            "plan JSON file)"
        )
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        raise SystemExit(f"no plan file at {path}") from None
    except json.JSONDecodeError as error:
        raise SystemExit(f"plan file {path} is not valid JSON: {error}") from None
    if isinstance(payload, dict) and "worst_plan" in payload:
        return payload["worst_plan"]["plan"]
    return payload


def _campaign(args: argparse.Namespace):
    """Build the Campaign an `repro farm submit` invocation describes."""
    from repro.farm.campaign import (
        Campaign,
        degradation_params,
        placements_params,
        recovery_params,
        whp_params,
    )
    from repro.faults.model import FaultModel

    seeds = dict(
        id_max=args.id_max,
        seed=args.seed,
        sched_seed=args.sched_seed,
        scheduler=args.scheduler,
    )
    sampled = dict(algorithm=args.algorithm, n=args.n, **seeds)
    if args.workload == "recovery":
        params = recovery_params(
            faults=FaultModel(
                drop_rate=args.drop_rate,
                duplicate_rate=args.duplicate_rate,
                spurious_rate=args.spurious_rate,
                seed=args.fault_seed,
            ),
            **sampled,
        )
    elif args.workload == "degradation":
        params = degradation_params(
            kind=args.kind,
            rates=tuple(args.rates),
            fault_seed=args.fault_seed,
            **sampled,
        )
    elif args.workload == "adversary":
        from repro.farm.campaign import adversary_params

        params = adversary_params(plan=_load_plan_spec(args.plan), **sampled)
    elif args.workload == "whp":
        params = whp_params(n=args.n, c=args.c, seed=args.seed)
    elif args.workload == "ear":
        from repro.farm.campaign import ear_params

        params = ear_params(parse_topology(args.topology or "theta"), **seeds)
    else:
        params = placements_params(n=args.n, seed=args.seed)
    return Campaign(
        args.workload,
        total=args.total,
        params=params,
        shard_size=args.shard_size,
    )


def _submit(args: argparse.Namespace) -> int:
    from repro.farm.service import Farm

    outcome = Farm(args.root).submit(
        _campaign(args),
        backend=args.backend,
        processes=args.processes,
        block_size=args.block_size,
    )
    print(
        f"farm submit: campaign={outcome.cid} workload={args.workload} "
        f"total={args.total} shards={outcome.jobs}"
    )
    print(
        f"cache hits={outcome.hits} computed={outcome.computed} "
        f"failed={len(outcome.failed)} hit_rate={outcome.hit_rate:.4f}"
    )
    for index, _key, message in outcome.failed[:5]:
        print(f"  shard {index} failed: {message}")
    if outcome.failed:
        print("FAIL: some shards failed; submit again to retry them")
        return 1
    if args.min_hit_rate is not None and outcome.hit_rate < args.min_hit_rate:
        print(
            f"FAIL: cache hit rate {outcome.hit_rate:.4f} below the "
            f"required {args.min_hit_rate}"
        )
        return 1
    print("OK: campaign complete" if outcome.complete else "incomplete")
    return 0


def _status(args: argparse.Namespace) -> int:
    import json

    from repro.farm.service import Farm

    report = Farm(args.root).status(args.campaign)
    print(json.dumps(report, indent=2, sort_keys=True))
    incomplete = [
        cid
        for cid, summary in report["campaigns"].items()
        if not summary["complete"]
    ]
    return 0 if not incomplete else 1


def _collect(args: argparse.Namespace) -> int:
    from repro.farm.service import Farm

    text = Farm(args.root).collect_text(
        args.campaign,
        confidence=args.confidence,
        z=args.z,
        interval=args.interval,
    )
    if args.out is not None:
        with open(args.out, "w") as handle:
            handle.write(text)
    print(text, end="")
    return 0


def _gc(args: argparse.Namespace) -> int:
    from repro.farm.service import Farm

    counters = Farm(args.root).gc()
    print(
        f"farm gc: orphaned_entries={counters['orphaned_entries']} "
        f"demoted_running={counters['demoted_running']} "
        f"tmp_files={counters['tmp_files']}"
    )
    return 0
