"""``repro elect``: one leader election on a ring, or on a 2-edge-connected
graph with ``--topology``."""

from __future__ import annotations

import argparse
from typing import Optional

from repro.cli.common import bool_list, int_list, parse_topology, print_refusal
from repro.simulator.scheduler import Scheduler, all_standard_schedulers


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--setting", choices=["oriented", "nonoriented", "anonymous"],
                        default="oriented")
    parser.add_argument("--ids", type=int_list, default=None,
                        help="clockwise unique IDs, e.g. 3,7,5,2")
    parser.add_argument("--flips", type=bool_list, default=None,
                        help="port flips for nonoriented, e.g. 1,0,1,0")
    parser.add_argument("--n", type=int, default=8, help="ring size (anonymous)")
    parser.add_argument("--c", type=float, default=2.0, help="confidence (anonymous)")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--scheduler", default=None,
                        help="global_fifo|lifo|random|round_robin|lag_ccw|lag_cw|longest_run")
    parser.add_argument("--topology", default=None, metavar="SPEC",
                        help="run the 2-edge-connected ear election on SPEC "
                             "instead of a ring: theta[:A,B,C], "
                             "nested[:DEPTH[,CYCLE]], random:SEED[,TARGET], "
                             "ring:N, bridge, or edges:A-B,C-D,...; --ids "
                             "are per-vertex (default 1..n); graphs with a "
                             "bridge are refused with the bridge as witness")


#: mode label -> the dests its path reads.
MODES = {
    "--topology": {"topology", "ids", "scheduler"},
    "--setting oriented": {"setting", "ids", "scheduler"},
    "--setting nonoriented": {"setting", "ids", "flips", "scheduler"},
    "--setting anonymous": {"setting", "n", "c", "seed", "scheduler"},
}


def mode(args: argparse.Namespace) -> str:
    """The MODES label of ``args``: ``--topology`` wins over ``--setting``."""
    return "--topology" if args.topology is not None else f"--setting {args.setting}"


def _scheduler(name: Optional[str]) -> Optional[Scheduler]:
    if name is None:
        return None
    registry = all_standard_schedulers()
    if name not in registry:
        raise SystemExit(
            f"unknown scheduler {name!r}; choose from {sorted(registry)}"
        )
    return registry[name]


def _run_topology(args: argparse.Namespace) -> int:
    from repro.core.ear_election import elect_leader_ear
    from repro.core.kernels.ear import build_routing
    from repro.exceptions import BridgeWitnessError

    graph = parse_topology(args.topology)
    ids = args.ids if args.ids is not None else list(range(1, graph.n + 1))
    header = (
        "setting      : ear (2-edge-connected election)\n"
        f"topology     : {args.topology} (n={graph.n}, {len(graph.edges)} edges)"
    )
    try:
        report = elect_leader_ear(graph, ids, scheduler=_scheduler(args.scheduler))
    except BridgeWitnessError as refusal:
        print(header)
        return print_refusal(refusal, 13)
    routing = build_routing(graph)
    print(header)
    print(f"virtual ring : L={routing.length} stride C={routing.stride}")
    print(f"leader       : {report.leader}")
    print(f"states       : {[state.value for state in report.states]}")
    print(f"pulses       : {report.total_pulses}")
    exact = (
        "exact match" if report.total_pulses == report.claimed_bound
        else "MISMATCH"
    )
    print(f"bound L*IDmax*C : {report.claimed_bound}  ({exact})")
    return 0 if report.succeeded else 1


def run(args: argparse.Namespace) -> int:
    from repro.core.election import (
        elect_leader_anonymous,
        elect_leader_nonoriented,
        elect_leader_oriented,
    )

    if args.topology is not None:
        return _run_topology(args)
    if args.setting != "anonymous" and args.ids is None:
        raise argparse.ArgumentError(
            None, "--ids is required for oriented/nonoriented elections"
        )
    scheduler = _scheduler(args.scheduler)
    if args.setting == "oriented":
        report = elect_leader_oriented(args.ids, scheduler=scheduler)
    elif args.setting == "nonoriented":
        report = elect_leader_nonoriented(
            args.ids, flips=args.flips, scheduler=scheduler
        )
    else:
        report = elect_leader_anonymous(
            args.n, c=args.c, seed=args.seed, scheduler=scheduler
        )
    print(f"setting      : {report.setting}")
    print(f"ring size    : {report.n}")
    print(f"leader       : {report.leader}")
    print(f"states       : {[state.value for state in report.states]}")
    print(f"pulses       : {report.total_pulses}")
    if report.claimed_bound is not None:
        exact = "exact match" if report.total_pulses == report.claimed_bound else "MISMATCH"
        print(f"paper bound  : {report.claimed_bound}  ({exact})")
    print(f"terminated   : {report.terminated}")
    if report.cw_ports is not None:
        print(f"cw ports     : {report.cw_ports}")
    return 0 if report.succeeded else 1
