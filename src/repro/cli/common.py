"""What several verbs share: list types, shared options, topology specs,
and the bridge-refusal printer."""

from __future__ import annotations

import argparse
from typing import Any, Callable, Dict, List, Union

from repro.accel import BACKEND_CHOICES


def list_type(kind: Callable, noun: str) -> Callable[[str], list]:
    """An argparse type for a comma-separated list of ``kind``."""

    def parse(text: str) -> list:
        try:
            return [kind(part) for part in text.split(",") if part != ""]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {noun}, got {text!r}"
            ) from None

    return parse


int_list = list_type(int, "ints")
float_list = list_type(float, "floats")


def bool_list(text: str) -> List[bool]:
    return [bool(value) for value in int_list(text)]


def process_count(text: str) -> Union[int, str]:
    """``--processes``: a worker count or ``auto``."""
    if text == "auto":
        return text
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an int or 'auto', got {text!r}"
        ) from None


#: Options more than one verb declares: flag -> add_argument keywords.
OPTIONS: Dict[str, Dict[str, Any]] = {
    "--algorithm": dict(choices=["terminating", "nonoriented"], default="nonoriented"),
    "--n": dict(type=int, default=6),
    "--id-max": dict(type=int, default=64),
    "--seed": dict(type=int, default=0),
    "--sched-seed": dict(type=int, default=0),
    "--fault-seed": dict(
        type=int, default=0, help="seed of the counter-based fault streams"
    ),
    "--scheduler": dict(choices=["lockstep", "seeded"], default="lockstep"),
    "--backend": dict(choices=list(BACKEND_CHOICES), default="auto"),
    "--block-size": dict(type=int, default=256),
    "--confidence": dict(type=float, default=0.99),
    "--kind": dict(choices=("drop", "duplicate", "spurious", "crash"), default="drop"),
    "--rates": dict(type=float_list, default=[0.0, 0.005, 0.01, 0.02, 0.05]),
    "--processes": dict(
        type=process_count, default=None, help="worker processes (int or 'auto')"
    ),
    "--farm": dict(
        default=None,
        metavar="ROOT",
        help="route through the sweep farm rooted at ROOT (cached shards "
        "are reused; new shards are cached for later campaigns)",
    ),
    "--root": dict(required=True, help="farm root directory"),
}


def add_options(parser: argparse.ArgumentParser, *flags: str, **helps: str) -> None:
    """Add the shared ``flags`` in order; ``helps`` replaces the help
    string of an option, keyed by its dest."""
    for flag in flags:
        kwargs = dict(OPTIONS[flag])
        if isinstance(kwargs.get("default"), list):
            kwargs["default"] = list(kwargs["default"])  # one list per parser
        dest = flag[2:].replace("-", "_")
        if dest in helps:
            kwargs["help"] = helps[dest]
        parser.add_argument(flag, **kwargs)


def parse_topology(spec: str):
    """Build the graph named by a ``--topology`` spec.

    Grammar (names come from :data:`repro.graphs.samples.SAMPLE_TOPOLOGIES`)::

        theta[:A,B,C]      theta graph, path interior counts A,B,C
        nested[:DEPTH[,CYCLE]]   nested-ears ladder
        random:SEED[,TARGET]     random ear composition
        ring:N             the cycle C_N
        bridge             two triangles joined by a bridge (refusal demo)
        edges:A-B,C-D,...  explicit edge list (n = max vertex + 1)
    """
    from repro.exceptions import ConfigurationError
    from repro.graphs.connectivity import Graph
    from repro.graphs.samples import (
        bridge_graph,
        nested_ears,
        random_ear_composition,
        theta_graph,
    )

    name, _, params = spec.partition(":")
    values = int_list(params) if params and name != "edges" else []
    try:
        if name == "theta":
            return theta_graph(*values) if values else theta_graph()
        if name == "nested":
            return nested_ears(*values) if values else nested_ears()
        if name == "random":
            if not values:
                raise SystemExit("--topology random needs a seed: random:SEED[,TARGET]")
            return random_ear_composition(*values)
        if name == "ring":
            if len(values) != 1:
                raise SystemExit("--topology ring needs a size: ring:N")
            return Graph.ring(values[0])
        if name == "bridge":
            return bridge_graph()
        if name == "edges":
            try:
                pairs = [
                    tuple(int(part) for part in chunk.split("-"))
                    for chunk in params.split(",")
                    if chunk
                ]
            except ValueError:
                pairs = []
            if not pairs or any(len(pair) != 2 for pair in pairs):
                raise SystemExit(
                    f"--topology edges expects A-B,C-D,... pairs, got {params!r}"
                )
            n = max(max(pair) for pair in pairs) + 1
            return Graph.from_edges(n, pairs)
    except ConfigurationError as error:
        raise SystemExit(f"--topology {spec}: {error}") from None
    raise SystemExit(
        f"unknown topology {name!r}; choose from theta, nested, random, "
        "ring, bridge, edges"
    )


def print_refusal(refusal, width: int) -> int:
    """Print a bridge refusal and its witness edge; returns exit status 1."""
    print(f"{'REFUSED':<{width}}: {refusal}")
    if refusal.bridge is not None:
        print(f"{'witness':<{width}}: bridge edge {refusal.bridge}")
    return 1
