"""``repro compare``: Algorithm 2's message count against the classic
content-carrying baselines on one random ring."""

from __future__ import annotations

import argparse

from repro.exceptions import ConfigurationError


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=16)
    parser.add_argument("--spread", type=int, default=256)
    parser.add_argument("--seed", type=int, default=0)


def run(args: argparse.Namespace) -> int:
    import random

    from repro.baselines import ALL_BASELINES, run_baseline
    from repro.core.lower_bound import lower_bound_pulses
    from repro.core.terminating import run_terminating

    if args.n < 1:
        raise ConfigurationError(f"need at least one node, got n={args.n}")
    rng = random.Random(args.seed)
    spread = max(args.spread, args.n)
    ids = rng.sample(range(1, spread + 1), args.n)
    print(f"ring: n={args.n}, IDmax={max(ids)} (spread {spread}, seed {args.seed})")
    print(f"{'algorithm':>22}  messages")
    oblivious = run_terminating(ids).total_pulses
    print(f"{'content-oblivious':>22}  {oblivious}")
    print(f"{'(theorem 4 floor)':>22}  {lower_bound_pulses(args.n, max(ids))}")
    for name, cls in sorted(ALL_BASELINES.items()):
        print(f"{name:>22}  {run_baseline(cls, ids).total_messages}")
    return 0
