"""``repro timeline``: an ASCII space-time diagram of one Algorithm 2 run."""

from __future__ import annotations

import argparse

from repro.cli.common import int_list


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ids", type=int_list, required=True)
    parser.add_argument("--rows", type=int, default=60)


def run(args: argparse.Namespace) -> int:
    from repro.core.terminating import TerminatingNode
    from repro.simulator.engine import Engine
    from repro.simulator.ring import build_oriented_ring
    from repro.simulator.timeline import render_space_time, summarize_counters

    nodes = [TerminatingNode(node_id) for node_id in args.ids]
    topology = build_oriented_ring(nodes)
    result = Engine(topology.network, record_events=True).run()
    labels = [f"id{node_id}" for node_id in args.ids]
    print(render_space_time(result, len(args.ids), labels=labels, max_rows=args.rows))
    print()
    print(summarize_counters(result, len(args.ids)))
    return 0
