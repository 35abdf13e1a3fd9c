"""``repro compute``: content-oblivious computation (Corollary 5), after an
election or from a given root."""

from __future__ import annotations

import argparse

from repro.cli.common import int_list


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ids", type=int_list, default=None,
                        help="elect first (omit to use --leader directly)")
    parser.add_argument("--inputs", type=int_list, required=True)
    parser.add_argument("--op", default="sum", help="sum|max|min|size|gather")
    parser.add_argument("--leader", type=int, default=0,
                        help="pre-set root when --ids is omitted")


#: mode label -> the dests its path reads.
MODES = {"--ids": {"ids", "inputs", "op"}, "": {"inputs", "op", "leader"}}


def mode(args: argparse.Namespace) -> str:
    return "--ids" if args.ids is not None else ""


def run(args: argparse.Namespace) -> int:
    if args.ids is not None:
        from repro.core.composition import run_composed
        from repro.defective.simulation import (
            AllReduceProgram,
            GatherProgram,
            SizeProgram,
        )

        programs = {
            "sum": lambda: AllReduceProgram(lambda a, b: a + b),
            "max": lambda: AllReduceProgram(max),
            "min": lambda: AllReduceProgram(min),
            "size": SizeProgram,
            "gather": GatherProgram,
        }
        if args.op not in programs:
            raise SystemExit(f"unknown op {args.op!r}; choose from {sorted(programs)}")
        outcome = run_composed(args.ids, args.inputs, programs[args.op]())
        print(f"leader (elected): node {outcome.leader}")
        print(f"outputs         : {outcome.outputs}")
        print(f"pulses          : {outcome.total_pulses}")
        print(f"quiescent term  : {outcome.run.quiescently_terminated}")
        return 0 if outcome.run.quiescently_terminated else 1
    from repro.defective.simulation import run_defective_computation

    try:
        outcome = run_defective_computation(args.inputs, args.op, leader=args.leader)
    except ValueError as error:
        raise SystemExit(str(error)) from None
    print(f"leader (given): node {args.leader}")
    print(f"outputs       : {outcome.outputs}")
    print(f"pulses        : {outcome.total_pulses}")
    return 0
