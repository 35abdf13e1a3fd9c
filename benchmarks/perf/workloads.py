"""The benchmark workloads: four repro verbs, one workload each.

Every workload is a closed loop with one client: the next op starts when
the previous one returns.  A workload has a fixed number of input slots;
op ``i`` runs slot ``i mod SLOTS``, and a slot's input is a pure function
of ``(seed, slot)``.  So every slot repeats many times over a run, which
lets the benchmark time each input by its fastest repeat, and a run is
replayable.  Sizes are constants, and each workload pins what sets its
cost (the largest ID, the ID range, the set of permutations), so the
seed changes the inputs but not the work: every run of a workload
measures the same thing.

Importing this module imports nothing from ``repro``; :meth:`setup`
does, so the set-up probe times exactly the workload's own imports.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

PERF = Path(__file__).resolve().parent
ROOT = PERF.parents[1]
SRC = ROOT / "src"

#: Environment of every child process: the source tree, one thread per
#: numeric library (the box has two cores and one client), a fixed hash
#: seed so children are replayable.
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": str(SRC),
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def _rng(name: str, seed: int, *key: Any) -> random.Random:
    # String seeds hash with SHA-512, independent of PYTHONHASHSEED.
    return random.Random(":".join(str(part) for part in (name, seed, *key)))


class Workload:
    """One benchmark workload: seeded inputs, a timed op, a check."""

    name = ""
    #: Distinct inputs per run.  Few enough that each repeats ten times or
    #: more in a run, so its fastest repeat misses the host's brief stalls.
    SLOTS = 4

    def setup(self) -> None:
        """Import what the op needs and make one tiny warm-up call."""

    def make_input(self, seed: int, slot: int) -> Any:
        """The input of ``slot`` (``0 <= slot < SLOTS``)."""
        raise NotImplementedError

    def run(self, inp: Any) -> Any:
        """The timed op."""
        raise NotImplementedError

    def check(self, inp: Any, out: Any) -> Optional[str]:
        """None when the op's output is correct, else what is wrong."""
        raise NotImplementedError

    def instances(self, inp: Any, out: Any) -> int:
        """Ring instances whose result the op delivered."""
        raise NotImplementedError

    def close(self) -> None:
        """Release what the run created."""


class CliElect(Workload):
    """``repro elect`` through ``repro.cli.main``, the function behind
    ``python -m repro``.  The op runs in this process: interpreter start
    and ``import repro.cli`` are what ``setup_s`` times, in a fresh
    process, and a fresh process per op would make every op too long for
    its fastest repeat to be steady."""

    name = "cli_elect"
    #: Ring size per slot.  The seed picks the other IDs and where ID_MAX
    #: sits, not the size or ID_MAX, which set the n(2*IDmax+1) pulses the
    #: engine simulates.  The engine's time still moves 3-4% with the
    #: ID order, so ten slots average it out.
    SIZES = [8, 10, 12, 14, 16, 18, 20, 22, 24, 26]
    SLOTS = len(SIZES)
    ID_MAX = 48
    NONORIENTED_EVERY = 5

    def setup(self) -> None:
        import repro.cli

        self.cli = repro.cli
        self.run(([1, 3, 2], None))

    def make_input(self, seed: int, slot: int) -> Tuple[List[int], Optional[List[int]]]:
        n = self.SIZES[slot]
        rng = _rng(self.name, seed, slot)
        ids = rng.sample(range(1, self.ID_MAX), n - 1) + [self.ID_MAX]
        rng.shuffle(ids)
        flips = None
        if slot % self.NONORIENTED_EVERY == self.NONORIENTED_EVERY - 1:
            flips = [rng.randrange(2) for _ in range(n)]
        return ids, flips

    @staticmethod
    def argv(inp: Tuple[List[int], Optional[List[int]]]) -> List[str]:
        ids, flips = inp
        argv = ["elect", "--ids", ",".join(map(str, ids))]
        if flips is not None:
            argv += ["--setting", "nonoriented", "--flips", ",".join(map(str, flips))]
        return argv

    def run(self, inp: Any) -> Tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = self.cli.main(self.argv(inp))
        return status, out.getvalue()

    def check(self, inp: Any, out: Any) -> Optional[str]:
        ids, _ = inp
        status, text = out
        if status != 0:
            return f"exit status {status}: {text.strip()[-200:]}"
        fields = dict(
            (key.strip(), value.strip())
            for key, _, value in (line.partition(":") for line in text.splitlines())
        )
        bound = len(ids) * (2 * max(ids) + 1)
        leader = ids.index(max(ids))
        if fields.get("leader") != str(leader):
            return f"leader {fields.get('leader')} != {leader}"
        if fields.get("pulses") != str(bound):
            return f"pulses {fields.get('pulses')} != n(2*IDmax+1) = {bound}"
        if not fields.get("paper bound", "").startswith(f"{bound} "):
            return f"paper bound line {fields.get('paper bound')!r} != {bound}"
        return None

    def instances(self, inp: Any, out: Any) -> int:
        return 1


class FleetSweep(Workload):
    """``run_terminating_fleet`` on a block of Algorithm 2 instances."""

    name = "fleet_sweep"
    INSTANCES = 150
    #: Small enough for a ~30 ms op, short enough for its fastest repeat
    #: to miss the host's brief stalls.
    N = 16
    ID_MAX = 100_000

    def setup(self) -> None:
        import repro.simulator.fleet as fleet

        self.fleet = fleet
        fleet.run_terminating_fleet([[1, 3, 2]])

    def make_input(self, seed: int, slot: int) -> List[List[int]]:
        rng = _rng(self.name, seed, slot)
        rows = []
        for _ in range(self.INSTANCES):
            row = rng.sample(range(1, self.ID_MAX), self.N - 1) + [self.ID_MAX]
            rng.shuffle(row)
            rows.append(row)
        return rows

    def run(self, inp: Any) -> Any:
        return self.fleet.run_terminating_fleet(inp)

    def check(self, inp: Any, out: Any) -> Optional[str]:
        bound = self.N * (2 * self.ID_MAX + 1)
        for b, ids in enumerate(inp):
            if not all(out.terminated[b]):
                return f"instance {b}: not all nodes terminated"
            if out.leaders[b] != [ids.index(self.ID_MAX)]:
                return f"instance {b}: leaders {out.leaders[b]}"
            if out.total_pulses[b] != bound:
                return f"instance {b}: pulses {out.total_pulses[b]} != {bound}"
        return None

    def instances(self, inp: Any, out: Any) -> int:
        return len(inp)


class StatcheckSeeded(Workload):
    """``run_statistical_check`` under the seeded scheduler."""

    name = "statcheck_seeded"
    N = 16
    #: IDs are drawn from [1, ID_MAX]; with ID_MAX = N every instance holds
    #: the same IDs in a seeded order.  A wider range lets the seed move
    #: the block's round count, and so the op's cost, by a tenth.
    ID_MAX = 16
    SAMPLES = 32
    #: An op's time moves ~2.5% with the seed; eight slots average it out.
    SLOTS = 8

    def setup(self) -> None:
        import repro.verification.statistical as statistical

        self.statistical = statistical
        statistical.run_statistical_check(
            n=3, id_max=4, samples=2, block_size=2, scheduler="seeded", processes=1
        )

    def make_input(self, seed: int, slot: int) -> int:
        return _rng(self.name, seed, slot).getrandbits(31)

    def run(self, inp: Any) -> Any:
        return self.statistical.run_statistical_check(
            algorithm="terminating",
            n=self.N,
            id_max=self.ID_MAX,
            samples=self.SAMPLES,
            seed=inp,
            sched_seed=inp,
            scheduler="seeded",
            block_size=self.SAMPLES,
            processes=1,
        )

    def check(self, inp: Any, out: Any) -> Optional[str]:
        if out.samples != self.SAMPLES or out.violations:
            return f"{out.violations} violations in {out.samples} samples"
        return None

    def instances(self, inp: Any, out: Any) -> int:
        return out.samples


class ExploreFull(Workload):
    """``explore_reduced(reduction="full")`` on Algorithm 2."""

    name = "explore_full"
    #: n = 4 takes ~0.1 s an op, too long for a steady fastest repeat.
    N = 3
    #: Every permutation of 1..N is a slot, so each run does the same
    #: work (the permutations differ in state count); the seed orders them.
    PERMUTATIONS = [list(p) for p in itertools.permutations(range(1, N + 1))]
    SLOTS = len(PERMUTATIONS)

    def setup(self) -> None:
        import repro.verification.reduced as reduced
        from repro.core.terminating import TerminatingNode
        from repro.simulator.ring import build_oriented_ring

        self.node, self.ring, self.reduced = TerminatingNode, build_oriented_ring, reduced
        reduced.explore_reduced(self._factory([2, 1]), reduction="full")

    def _factory(self, ids: List[int]):
        return lambda: self.ring([self.node(i) for i in ids]).network

    def make_input(self, seed: int, slot: int) -> List[int]:
        order = list(self.PERMUTATIONS)
        _rng(self.name, seed).shuffle(order)
        return order[slot]

    def run(self, inp: Any) -> Any:
        return self.reduced.explore_reduced(self._factory(inp), reduction="full")

    def check(self, inp: Any, out: Any) -> Optional[str]:
        bound = len(inp) * (2 * max(inp) + 1)
        if not out.confluent:
            return f"not confluent: {len(out.terminal_node_fingerprints)} terminal states"
        if out.quiescence_violations:
            return f"{out.quiescence_violations} quiescence violations"
        if out.terminal_total_sent != [bound]:
            return f"certified pulses {out.terminal_total_sent} != [{bound}]"
        return None

    def instances(self, inp: Any, out: Any) -> int:
        return out.instances_certified


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (CliElect(), FleetSweep(), StatcheckSeeded(), ExploreFull())
}

#: What a fresh process does before its first op, per workload.
_PROBE = "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; workloads.probe(sys.argv[3])"


def probe(name: str) -> None:
    """Set-up probe body: the workload's imports plus its warm-up call."""
    workload = WORKLOADS[name]
    workload.setup()
    workload.close()


def setup_seconds(name: str) -> float:
    """Wall time of one fresh process until the workload is set up."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", _PROBE, str(SRC), str(PERF), name],
        check=True, env=CHILD_ENV, cwd=ROOT,
    )
    return time.perf_counter() - start


#: Times ``import repro.cli`` on stdout; ``-X importtime`` reports each
#: module's cumulative import time on stderr.
_IMPORT = "import time; t = time.perf_counter(); import repro.cli; print(time.perf_counter() - t)"


def import_seconds() -> Tuple[float, float]:
    """A fresh process's ``import repro.cli`` and, within it, NumPy's
    cumulative import time, in seconds."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", _IMPORT],
        capture_output=True, text=True, check=True, env=CHILD_ENV, cwd=ROOT,
    )
    numpy_us = next(
        int(fields[1])
        for fields in (line.split("|") for line in proc.stderr.splitlines())
        if len(fields) == 3 and fields[2].strip() == "numpy"
    )
    return float(proc.stdout), numpy_us / 1e6
