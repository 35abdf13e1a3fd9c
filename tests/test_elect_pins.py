"""Pinned stdout and exit status of ``repro elect``.

Each case runs ``repro.cli.main(["elect", ...])`` in this process and
pins its exit status and the sha256 of everything it printed.  The
shapes are the oriented and the nonoriented setting (seeded
``--flips``) on rings like the benchmark's (n = 8, 16 and 26 with ID 48
at a seeded node), and the ear election on ``--topology theta``,
``nested:3``, ``random:5`` and ``ring:5``.  Each shape runs under the
default scheduler and under each of the seven standard schedulers, and
all eight runs must print the one pinned output: the report's fields
(leader, states, pulses, bound, orientation) do not depend on the
schedule.  The ``bridge`` refusal and its exit status are pinned too.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from typing import Dict, List, Optional, Tuple

import pytest

from repro.cli import main
from repro.simulator.scheduler import all_standard_schedulers

SCHEDULERS: List[Optional[str]] = [None] + sorted(all_standard_schedulers())
ID_MAX = 48


def _ring(n: int) -> Tuple[str, str]:
    """Seeded IDs below ID_MAX plus ID_MAX at a seeded node, and flips."""
    rng = random.Random(0xE1EC7 + n)
    ids = rng.sample(range(1, ID_MAX), n - 1) + [ID_MAX]
    rng.shuffle(ids)
    flips = [rng.randrange(2) for _ in range(n)]
    return ",".join(map(str, ids)), ",".join(map(str, flips))


def _shapes() -> Dict[str, List[str]]:
    shapes: Dict[str, List[str]] = {}
    for n in (8, 16, 26):
        ids, flips = _ring(n)
        shapes[f"oriented-n{n}"] = ["elect", "--ids", ids]
        shapes[f"nonoriented-n{n}"] = [
            "elect", "--ids", ids, "--setting", "nonoriented", "--flips", flips,
        ]
    for spec in ("theta", "nested:3", "random:5", "ring:5"):
        shapes[f"topology-{spec}"] = ["elect", "--topology", spec]
    return shapes


SHAPES = _shapes()

#: shape -> (exit status, sha256 of stdout), under every scheduler.
PINS: Dict[str, Tuple[int, str]] = {
    "oriented-n8": (0, "1a92b8edad6376b552dc4bf07254a2fe97932842dc289095b096b483c3ca887b"),
    "oriented-n16": (0, "4b2209c8b80b8c4dc6a1ca6dceffa9fc6fc841003decdd62b0d146d65382baf5"),
    "oriented-n26": (0, "2f62663ba5e6c0187fae2dc5947c7b69eefe34f94851ae207d0c86f07cf6aa3a"),
    "nonoriented-n8": (0, "78619dc865d5fb568f75212a16725a45427a14d4d1d8268bab8c2bf934a8e96d"),
    "nonoriented-n16": (0, "a6d64fde94b539c1623620916c34a2f613b43d39bdf015a4d35571caba357295"),
    "nonoriented-n26": (0, "354e79ce06ef73f5de8a927f39a86cbea3cf8a2dabc1126f182d734c431eab6a"),
    "topology-theta": (0, "553a7e18fb2accc6d632e34885b2a694a16559b3bb262cdd74641c43fb9776b7"),
    "topology-nested:3": (0, "6cda2a9ae330f8c01f172b5bc32110ff7ce2b06159944567010c8ca734ee7b18"),
    "topology-random:5": (0, "737a9d99c8e949876cc95d311d1a21d1907917508bab54415a5425d6fb4a825a"),
    "topology-ring:5": (0, "50e056a829fcdc4dc04b393285ef0b333762ea7a41f6cedc34f5eec6a0581f6b"),
}
BRIDGE_PIN = (1, "79669b3acf9c92feabc4b7f64d07bdaf7c9807a6f999421495c55abf6e8f2664")


def _run(argv: List[str]) -> Tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(argv)
    return status, hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_every_shape_is_pinned():
    assert sorted(PINS) == sorted(SHAPES)


@pytest.mark.parametrize("scheduler", SCHEDULERS, ids=lambda name: name or "default")
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_elect_output_is_pinned(shape, scheduler):
    tail = [] if scheduler is None else ["--scheduler", scheduler]
    assert _run(SHAPES[shape] + tail) == PINS[shape]


def test_bridge_refusal_is_pinned():
    assert _run(["elect", "--topology", "bridge"]) == BRIDGE_PIN
