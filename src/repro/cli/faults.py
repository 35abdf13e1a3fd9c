"""``repro faults sweep|search|replay``: graceful-degradation curves, the
adversarial worst-plan search, and replay of its artifacts."""

from __future__ import annotations

import argparse
from typing import Optional

from repro.cli.common import add_options, float_list, int_list, list_type


def _restart(part: str) -> Optional[int]:
    """One restart delay; ``none`` means a permanent crash."""
    return None if part.strip().lower() == "none" else int(part)


def _add_sampling(
    parser: argparse.ArgumentParser, samples: int, samples_help: str
) -> None:
    """The sampled-evaluation block ``faults sweep`` and ``search`` share."""
    add_options(parser, "--algorithm", "--n", "--id-max")
    parser.add_argument("--samples", type=int, default=samples, help=samples_help)
    add_options(
        parser, "--seed", "--sched-seed", "--fault-seed", "--scheduler",
        "--backend", "--block-size", "--confidence", seed="ID/flip sampling seed",
    )


def add_arguments(parser: argparse.ArgumentParser) -> None:
    sub = parser.add_subparsers(dest="faults_command", required=True)
    fsweep = sub.add_parser(
        "sweep",
        help="success-probability-vs-fault-rate degradation curve",
    )
    add_options(
        fsweep, "--kind", "--rates",
        kind="which fault rate to sweep (crash: per-node fail-stop probability)",
        rates="non-decreasing fault-rate grid, e.g. 0,0.01,0.05",
    )
    _add_sampling(fsweep, 200, "sampled instances per grid point")
    fsweep.add_argument("--json", default=None, metavar="PATH",
                        help="also write the curve as JSON to PATH")
    add_options(fsweep, "--processes", "--farm")

    fsearch = sub.add_parser(
        "search",
        help="adversarial search: the budgeted correlated fault plan "
             "that minimizes the recovery rate (CP upper bound)",
    )
    fsearch.add_argument("--budget", type=int, default=3,
                         help="plan budget: 2*crash + drops + burst rounds "
                              "(0 exits cleanly with the trivial plan)")
    fsearch.add_argument("--strategy", choices=("cross-entropy", "epsilon-greedy"),
                         default="cross-entropy")
    fsearch.add_argument("--iterations", type=int, default=8,
                         help="optimizer iterations (cross-entropy "
                              "generations or bandit steps)")
    fsearch.add_argument("--population", type=int, default=12,
                         help="cross-entropy: candidates per generation")
    fsearch.add_argument("--elite-frac", type=float, default=0.25,
                         help="cross-entropy: elite fraction refit per "
                              "generation")
    fsearch.add_argument("--epsilon", type=float, default=0.3,
                         help="epsilon-greedy: exploration probability")
    fsearch.add_argument("--search-seed", type=int, default=0,
                         help="seed of the candidate stream (same seed "
                              "walks the same candidates)")
    _add_sampling(fsearch, 64, "sampled instances per candidate evaluation")
    fsearch.add_argument("--watchdog", type=int, default=None,
                         help="stuck-run watchdog rounds (default: "
                              "automatic)")
    fsearch.add_argument("--rounds", type=int_list, default=[1, 2, 3, 4, 6, 8, 12, 16],
                         help="absolute trigger-round choices")
    fsearch.add_argument("--thresholds", type=int_list, default=[1, 2, 3],
                         help="rho/sigma threshold-trigger choices")
    fsearch.add_argument("--offsets", type=int_list, default=[0, 1, 2, 3],
                         help="drop-offset choices (rounds after the fire "
                              "round)")
    fsearch.add_argument("--restarts", type=list_type(_restart, "ints or 'none'"),
                         default=[None, 1, 2, 4],
                         help="crash restart-delay choices; 'none' = "
                              "permanent crash (e.g. none,1,2)")
    fsearch.add_argument("--drop-rates", type=float_list, default=[0.5, 1.0],
                         help="burst-window drop-rate choices")
    fsearch.add_argument("--max-drops", type=int, default=4,
                         help="most deterministic drops one plan may carry")
    fsearch.add_argument("--max-burst", type=int, default=6,
                         help="longest burst window one plan may carry")
    fsearch.add_argument("--baseline", default=None, metavar="N|equal",
                         help="also evaluate the best of N uniform random "
                              "plans ('equal': N = the search's evaluation "
                              "count)")
    fsearch.add_argument("--baseline-seed", type=int, default=101,
                         help="seed of the baseline's candidate stream")
    fsearch.add_argument("--require-beats-baseline", action="store_true",
                         help="exit 1 unless the found plan's CP upper "
                              "bound is strictly below the baseline's "
                              "(implies --baseline equal when no "
                              "--baseline is given)")
    fsearch.add_argument("--out", default=None, metavar="PATH",
                         help="write the seed-replayable plan artifact "
                              "(canonical JSON) to PATH")
    add_options(
        fsearch, "--farm",
        farm="route candidate evaluations through the sweep farm rooted "
        "at ROOT (revisited plans and overlapping recovery campaigns "
        "hit the cache)",
    )

    freplay = sub.add_parser(
        "replay",
        help="re-run a `faults search` artifact and demand bit-identical "
             "classification counts",
    )
    freplay.add_argument("artifact", help="path to the plan artifact JSON")
    add_options(
        freplay, "--backend", "--farm",
        farm="evaluate through the sweep farm rooted at ROOT",
    )


def run(args: argparse.Namespace) -> int:
    return {"sweep": _sweep, "search": _search, "replay": _replay}[
        args.faults_command
    ](args)


def _sweep(args: argparse.Namespace) -> int:
    from repro.analysis.degradation import measure_degradation

    curve = measure_degradation(
        args.rates,
        kind=args.kind,
        algorithm=args.algorithm,
        n=args.n,
        id_max=args.id_max,
        samples=args.samples,
        seed=args.seed,
        sched_seed=args.sched_seed,
        scheduler=args.scheduler,
        backend=args.backend,
        block_size=args.block_size,
        confidence=args.confidence,
        fault_seed=args.fault_seed,
        processes=args.processes,
        farm_root=args.farm,
    )
    print(
        f"degradation sweep: algorithm={curve.algorithm} kind={curve.kind} "
        f"n={curve.n} id_max={curve.id_max} samples/point={args.samples} "
        f"backend={curve.backend}"
    )
    print(
        f"{'rate':>8}  {'success':>8}  "
        f"{int(curve.confidence * 100)}% CP interval      r/w/s"
    )
    for point in curve.points:
        print(
            f"{point.rate:>8.4f}  {point.success_rate:>8.4f}  "
            f"[{point.low:.4f}, {point.high:.4f}]  "
            f"{point.recovered}/{point.wrong_stable}/{point.stuck}"
        )
    ok = True
    if not curve.clean_at_zero:
        print("FAIL: fault-free point (rate 0) did not succeed with rate 1.0")
        ok = False
    if not curve.monotone_within_bands():
        print(
            "FAIL: success rate is not monotonically degrading within the "
            "confidence bands"
        )
        ok = False
    if args.json is not None:
        import json

        with open(args.json, "w") as handle:
            json.dump(curve.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"curve written        : {args.json}")
    print("OK (graceful degradation)" if ok else "FAILED")
    return 0 if ok else 1


def _search(args: argparse.Namespace) -> int:
    from repro.adversary import (
        EvalSettings,
        PlanSpace,
        artifact_dict,
        random_baseline,
        save_artifact,
        search_worst_plan,
    )
    from repro.farm.keys import canonical_json

    space = PlanSpace(
        n=args.n,
        budget=args.budget,
        rounds=tuple(args.rounds),
        thresholds=tuple(args.thresholds),
        offsets=tuple(args.offsets),
        restarts=tuple(args.restarts),
        drop_rates=tuple(args.drop_rates),
        max_drops=args.max_drops,
        max_burst=args.max_burst,
        fault_seed=args.fault_seed,
    )
    settings = EvalSettings(
        algorithm=args.algorithm,
        n=args.n,
        id_max=args.id_max,
        samples=args.samples,
        seed=args.seed,
        sched_seed=args.sched_seed,
        scheduler=args.scheduler,
        backend=args.backend,
        block_size=args.block_size,
        confidence=args.confidence,
        watchdog_rounds=args.watchdog,
    )
    result = search_worst_plan(
        space,
        settings,
        strategy=args.strategy,
        iterations=args.iterations,
        population=args.population,
        elite_frac=args.elite_frac,
        epsilon=args.epsilon,
        search_seed=args.search_seed,
        farm_root=args.farm,
    )
    best = result.best
    print(
        f"adversary search     : strategy={result.strategy} "
        f"budget={result.budget} iterations={result.iterations} "
        f"evaluations={result.evaluations} seed={result.search_seed}"
    )
    print(
        f"evaluation point     : algorithm={settings.algorithm} "
        f"n={settings.n} id_max={settings.id_max} "
        f"samples={settings.samples}"
    )
    if args.budget == 0:
        print(
            "budget 0             : only the trivial (no-op) plan is "
            "admissible — nothing to search"
        )
    print(f"worst plan           : {canonical_json(best.plan.to_canonical())}")
    print(f"  cost               : {best.plan.cost} of budget {args.budget}")
    print(
        f"  recovery           : {best.recovered}/{best.samples} = "
        f"{best.success_rate:.4f} ({int(settings.confidence * 100)}% CP "
        f"[{best.rate_low:.4f}, {best.rate_high:.4f}])"
    )
    baseline = None
    baseline_count = 0
    if args.baseline is not None or args.require_beats_baseline:
        spec = args.baseline if args.baseline is not None else "equal"
        if spec == "equal":
            baseline_count = result.evaluations
        else:
            try:
                baseline_count = int(spec)
            except ValueError:
                raise SystemExit(
                    f"--baseline takes an int or 'equal', got {spec!r}"
                ) from None
        baseline = random_baseline(
            space,
            settings,
            count=baseline_count,
            search_seed=args.baseline_seed,
            farm_root=args.farm,
        )
        print(
            f"random baseline      : best of {baseline_count} plans "
            f"(seed {args.baseline_seed}): {baseline.recovered}/"
            f"{baseline.samples} CP high {baseline.rate_high:.4f}"
        )
    payload = artifact_dict(
        result, settings, baseline=baseline, baseline_count=baseline_count
    )
    if args.out is not None:
        path = save_artifact(args.out, payload)
        print(f"artifact written     : {path}")
    if args.require_beats_baseline:
        assert baseline is not None
        if not best.rate_high < baseline.rate_high:
            print(
                f"FAIL: search CP upper bound {best.rate_high:.4f} does not "
                f"strictly beat the equal-budget random baseline "
                f"{baseline.rate_high:.4f}"
            )
            return 1
        print(
            f"search beats baseline: {best.rate_high:.4f} < "
            f"{baseline.rate_high:.4f} (strict, CP upper bounds)"
        )
    print("OK")
    return 0


def _replay(args: argparse.Namespace) -> int:
    from repro.adversary import load_artifact, replay_artifact
    from repro.farm.keys import canonical_json

    payload = load_artifact(args.artifact)
    outcome = replay_artifact(payload, backend=args.backend, farm_root=args.farm)
    recorded = payload["worst_plan"]
    print(f"artifact             : {args.artifact}")
    print(f"plan                 : {canonical_json(recorded['plan'])}")
    print(
        f"recorded             : {recorded['recovered']}/"
        f"{recorded['samples']} recovered "
        f"(wrong_stable={recorded['wrong_stable']}, "
        f"stuck={recorded['stuck']})"
    )
    ev = outcome.evaluation
    print(
        f"replayed             : {ev.recovered}/{ev.samples} recovered "
        f"(wrong_stable={ev.wrong_stable}, stuck={ev.stuck})"
    )
    if not outcome.matches:
        drift = {
            key: (outcome.expected.get(key), outcome.observed.get(key))
            for key in sorted(set(outcome.expected) | set(outcome.observed))
            if outcome.expected.get(key) != outcome.observed.get(key)
        }
        print(f"FAIL: replay drifted on {drift}")
        return 1
    print("OK: replay bit-identical (classification and fault-event counts)")
    return 0
