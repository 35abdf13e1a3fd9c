"""``repro simulate``: a content-carrying ring algorithm run over pulses
(Corollary 5, the universal simulation)."""

from __future__ import annotations

import argparse

from repro.cli.common import int_list


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ids", type=int_list, required=True,
                        help="clockwise unique IDs (>= 3 nodes)")
    parser.add_argument("--algorithm", choices=["chang_roberts", "broadcast", "sum"],
                        default="chang_roberts")
    parser.add_argument("--value", type=int, default=42, help="broadcast payload")
    parser.add_argument("--inputs", type=int_list, default=None,
                        help="per-node inputs for sum")


#: mode label -> the dests its path reads.
MODES = {
    "--algorithm chang_roberts": {"ids", "algorithm"},
    "--algorithm broadcast": {"ids", "algorithm", "value"},
    "--algorithm sum": {"ids", "algorithm", "inputs"},
}


def mode(args: argparse.Namespace) -> str:
    return f"--algorithm {args.algorithm}"


def run(args: argparse.Namespace) -> int:
    from repro.core.composition import run_simulated_composed
    from repro.defective.ring_algorithms import (
        SimBroadcast,
        SimChangRoberts,
        SimConvergecastSum,
    )

    ids = args.ids
    if args.algorithm == "chang_roberts":
        sims = [SimChangRoberts(node_id) for node_id in ids]
    elif args.algorithm == "broadcast":
        sims = [SimBroadcast() for _ in ids]
        # The phase-1 winner is the max-ID node; it carries the value.
        sims[max(range(len(ids)), key=lambda i: ids[i])] = SimBroadcast(args.value)
    else:
        inputs = args.inputs if args.inputs is not None else list(ids)
        if len(inputs) != len(ids):
            raise SystemExit("--inputs must match --ids in length")
        sims = [SimConvergecastSum(value) for value in inputs]
    outcome = run_simulated_composed(ids, sims)
    print(f"phase-1 leader : node {outcome.leader}")
    print(f"sim outputs    : {outcome.outputs}")
    print(f"total pulses   : {outcome.total_pulses}")
    print(f"quiescent term : {outcome.run.quiescently_terminated}")
    return 0 if outcome.run.quiescently_terminated else 1
