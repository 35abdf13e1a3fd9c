"""``repro solitude``: Algorithm 2's solitude patterns (Definition 21) and
the Lemma 22 collision check."""

from __future__ import annotations

import argparse


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-id", type=int, default=16)


def run(args: argparse.Namespace) -> int:
    from repro.core.lower_bound import (
        expected_algorithm2_pattern,
        find_pattern_collision,
        solitude_patterns,
    )
    from repro.core.terminating import TerminatingNode

    patterns = solitude_patterns(
        lambda node_id: TerminatingNode(node_id), range(1, args.max_id + 1)
    )
    print("ID  solitude pattern (0=CW pulse, 1=CCW pulse)")
    for node_id in sorted(patterns):
        marker = "" if patterns[node_id] == expected_algorithm2_pattern(node_id) else "  (!)"
        print(f"{node_id:>2}  {patterns[node_id]}{marker}")
    collision = find_pattern_collision(patterns)
    print(f"collisions: {collision if collision else 'none (Lemma 22 holds)'}")
    return 0 if collision is None else 1
