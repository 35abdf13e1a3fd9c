"""Section 6: the message-complexity lower bound and its machinery.

Theorem 20: for any uniform content-oblivious leader-election algorithm,
any ring size ``n``, and any ID universe of ``k >= n`` assignable IDs,
some assignment of IDs forces at least :math:`n\\lfloor\\log_2(k/n)\\rfloor`
pulses.  With :math:`k = \\mathsf{ID}_{max}` this yields Theorem 4's
:math:`n\\lfloor\\log(\\mathsf{ID}_{max}/n)\\rfloor` bound.

The proof objects are all executable here:

* :func:`solitude_pattern` — Definition 21: run a candidate algorithm on a
  one-node ring under the send-order scheduler and record the binary
  string of incoming pulse directions (0 = CW, 1 = CCW).
* :func:`find_pattern_collision` — Lemma 22 says collisions are impossible
  for *correct* algorithms; searching for one is an algorithm sanity check
  (and, run against a broken algorithm, a bug finder).
* :func:`find_common_prefix_group` — Corollary 24's pigeonhole: among
  ``k`` distinct patterns, ``n`` share a prefix of length
  :math:`\\lfloor\\log_2(k/n)\\rfloor`.  The returned IDs are exactly the
  adversarial assignment of Theorem 20's proof.
* :func:`lower_bound_pulses` — the bound itself, as a formula.

For our Algorithm 2, the solitude pattern of ID ``i`` is
:math:`0^i 1^{i+1}` (``i`` CW arrivals, then the CCW instance's ``i``
arrivals plus the returning termination pulse), which the tests verify.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError
from repro.core.common import CW_ARRIVAL_PORT
from repro.simulator.engine import Engine
from repro.simulator.node import Node
from repro.simulator.ring import build_oriented_ring
from repro.simulator.scheduler import GlobalFifoScheduler

NodeFactory = Callable[[int], Node]


def solitude_pattern(
    factory: NodeFactory, node_id: int, max_steps: int = 1_000_000
) -> str:
    """Definition 21: the pulse-arrival pattern of a node run in solitude.

    Runs ``factory(node_id)`` on a one-node ring (its CW port wired to its
    own CCW port) under the Definition-21 scheduler — pulses delivered one
    by one in the order they were sent.  Returns the arrival sequence as a
    binary string: ``'0'`` per clockwise pulse, ``'1'`` per
    counterclockwise pulse.

    Args:
        factory: Builds a fresh algorithm node for a given ID.
        node_id: The ID to run in solitude.
        max_steps: Engine safety bound.
    """
    node = factory(node_id)
    topology = build_oriented_ring([node])
    engine = Engine(
        topology.network,
        scheduler=GlobalFifoScheduler(),
        max_steps=max_steps,
        record_events=True,
    )
    result = engine.run()
    return "".join(
        "0" if record.port == CW_ARRIVAL_PORT else "1"
        for record in result.trace.delivery_records
    )


def solitude_patterns(
    factory: NodeFactory, ids: Iterable[int], max_steps: int = 1_000_000
) -> Dict[int, str]:
    """Solitude patterns for a whole ID universe, keyed by ID."""
    return {
        node_id: solitude_pattern(factory, node_id, max_steps=max_steps)
        for node_id in ids
    }


def find_pattern_collision(patterns: Dict[int, str]) -> Optional[Tuple[int, int]]:
    """Search for two IDs with identical solitude patterns.

    Lemma 22 proves a *correct* uniform content-oblivious leader-election
    algorithm has no collision (two colliding IDs placed on a two-node
    ring would both elect themselves).  Returns the first colliding ID
    pair, or None.
    """
    seen: Dict[str, int] = {}
    for node_id in sorted(patterns):
        pattern = patterns[node_id]
        if pattern in seen:
            return (seen[pattern], node_id)
        seen[pattern] = node_id
    return None


def find_common_prefix_group(
    patterns: Dict[int, str], n: int
) -> Tuple[List[int], str]:
    """Corollary 24: ``n`` IDs whose patterns share a long common prefix.

    Given ``k = len(patterns)`` distinct patterns, returns ``n`` IDs
    sharing a prefix of length at least
    :math:`s = \\lfloor\\log_2(k/n)\\rfloor`, together with that prefix.
    These IDs are the adversarial assignment in Theorem 20's proof: placed
    on an ``n``-ring under the send-order scheduler, every node behaves as
    in solitude for ``s`` steps, each sending one pulse per step.

    Raises:
        ConfigurationError: If ``n`` exceeds the universe size or no group
            of the guaranteed size exists (impossible for distinct
            patterns, by the pigeonhole argument).
    """
    k = len(patterns)
    if n < 1 or n > k:
        raise ConfigurationError(f"need 1 <= n <= k={k}, got n={n}")
    s = prefix_length(k, n)
    groups: Dict[str, List[int]] = defaultdict(list)
    for node_id, pattern in patterns.items():
        if len(pattern) >= s:
            groups[pattern[:s]].append(node_id)
    for prefix, members in sorted(groups.items()):
        if len(members) >= n:
            return (sorted(members)[:n], prefix)
    raise ConfigurationError(
        f"no {n} of the {k} patterns share a prefix of length {s}; "
        "Corollary 24 guarantees one exists when all patterns are distinct"
    )


def prefix_length(k: int, n: int) -> int:
    """The guaranteed shared-prefix length :math:`\\lfloor\\log_2(k/n)\\rfloor`."""
    if k < n or n < 1:
        raise ConfigurationError(f"need k >= n >= 1, got k={k}, n={n}")
    return math.floor(math.log2(k / n))


def lower_bound_pulses(n: int, k: int) -> int:
    """Theorem 20's bound: :math:`n\\lfloor\\log_2(k/n)\\rfloor` pulses.

    Args:
        n: Ring size.
        k: Number of assignable IDs; with IDs drawn from
            :math:`[\\mathsf{ID}_{max}]` this is :math:`\\mathsf{ID}_{max}`
            (Theorem 4).
    """
    return n * prefix_length(k, n)


def expected_algorithm2_pattern(node_id: int) -> str:
    """Closed form of Algorithm 2's solitude pattern: :math:`0^i 1^{i+1}`.

    In solitude, a node with ID ``i`` receives its own ``i`` CW pulses
    (the CW instance), then ``i`` CCW pulses (the CCW instance), then the
    returning termination pulse — one more CCW arrival.
    """
    return "0" * node_id + "1" * (node_id + 1)
