"""``repro sweep``: Monte Carlo sweeps of Theorem 1's placement variance
and Theorem 3's success rate."""

from __future__ import annotations

import argparse

from repro.cli.common import add_options


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workload",
        choices=("placements", "whp"),
        default="placements",
        help="placements: Theorem 1 variance sweep; whp: Theorem 3 success rate",
    )
    parser.add_argument("--n", type=int, default=16)
    parser.add_argument("--trials", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--c", type=float, default=2.0, help="sampler exponent (whp)")
    add_options(parser, "--processes")
    parser.add_argument(
        "--fleet",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="advance all trials in lockstep via the vectorized fleet engine",
    )
    add_options(parser, "--backend", backend="fleet backend (auto prefers numpy)")
    parser.add_argument(
        "--min-rate",
        type=float,
        default=None,
        help="whp only: fail unless the Wilson interval admits this rate",
    )
    parser.add_argument(
        "--lemma18",
        action="store_true",
        help="whp only: gate on Lemma 18's 1 - n^-c floor (the --min-rate "
        "is derived from --n and --c instead of being hand-picked)",
    )
    add_options(parser, "--farm")


_SWEEP = {"workload", "n", "trials", "seed", "processes", "fleet", "backend", "farm"}
_WHP = {"c", "min_rate", "lemma18"}

#: mode label -> the dests its path reads.  Without the fleet, each trial
#: runs on its own and no fleet backend is chosen; the library refuses a
#: farm root there with its own message, so ``farm`` stays readable.  The
#: scalar whp path runs in this process, so it reads no ``processes``.
MODES = {
    "--workload placements": _SWEEP,
    "--workload whp": _SWEEP | _WHP,
    "--workload placements --no-fleet": _SWEEP - {"backend"},
    "--workload whp --no-fleet": (_SWEEP | _WHP) - {"backend", "processes"},
}


def mode(args: argparse.Namespace) -> str:
    return f"--workload {args.workload}" + ("" if args.fleet else " --no-fleet")


def run(args: argparse.Namespace) -> int:
    from repro.analysis.average_case import measure_oblivious_over_placements
    from repro.analysis.complexity import algorithm2_pulses
    from repro.analysis.whp import measure_anonymous_success

    engine = "fleet" if args.fleet else ("batched" if args.workload == "placements" else "scalar")
    print(
        f"sweep: workload={args.workload} n={args.n} trials={args.trials} "
        f"seed={args.seed} engine={engine} backend={args.backend}"
    )
    shared = dict(
        seed=args.seed,
        processes=args.processes,
        fleet=args.fleet,
        backend=args.backend,
        farm_root=args.farm,
    )
    if args.workload == "placements":
        stats = measure_oblivious_over_placements(
            args.n, args.trials, batched=not args.fleet, **shared
        )
        print(
            f"algorithm 2 pulses over {stats.trials} random placements of "
            f"1..{args.n}: mean={stats.mean:.1f} min={stats.minimum} "
            f"max={stats.maximum} spread={stats.spread}"
        )
        expected = algorithm2_pulses(args.n, args.n)
        print(f"theorem 1 bound n(2*IDmax+1) = {expected}")
        if stats.spread != 0 or stats.minimum != expected:
            print("FAIL: placement variance detected (theorem 1 violated)")
            return 1
        print("OK: zero placement variance, every trial met the bound exactly")
        return 0
    estimate = measure_anonymous_success(args.n, args.trials, c=args.c, **shared)
    print(
        f"theorem 3 success rate at n={args.n}, c={args.c}: "
        f"{estimate.successes}/{estimate.trials} = {estimate.rate:.4f} "
        f"(wilson 99% [{estimate.low:.4f}, {estimate.high:.4f}])"
    )
    floor = args.min_rate
    if args.lemma18:
        from repro.analysis.whp import whp_target

        target = whp_target(args.n, args.c)
        print(f"lemma 18 target      : 1 - n^-c = {target:.6f}")
        floor = target if floor is None else max(floor, target)
    if floor is not None and not estimate.consistent_with_at_least(floor):
        print(f"FAIL: interval excludes the required floor {floor}")
        return 1
    print("OK")
    return 0
