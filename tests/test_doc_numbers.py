"""The numbers the docs quote must be what the code computes today.

Each table below is recomputed from scratch and compared cell by cell
with the markdown, at the doc's own rounding, so a change that moves a
quoted number fails here until the doc moves with it:

* docs/VERIFICATION.md, "Measured reduction": unreduced states,
  full-stack states, orbit and orbit-adjusted factor per grid row, and
  the quoted factor of plain ``ample`` alone;
* docs/VERIFICATION.md, "Certified frontier": full-stack states,
  instances certified and the quoted pulse count per row;
* docs/PERFORMANCE.md, the intra-lap hop-skip: the rounds one fleet
  block needs at ``n = 64``, ``IDmax = 10^5``;
* docs/ROBUSTNESS.md, "Degradation curves": the drop table (recovery
  probability and 99% Clopper-Pearson interval per rate) and the quoted
  duplicate and spurious points.

A last check keeps retired instruments out of every tracked file that
a reader follows: the single-shot bench scripts and their JSON records
(their gates now live in tests, and timings in ``benchmarks/perf``),
and the pytest-benchmark plugin and its tables file (the experiment
tables print in the pytest terminal summary).
"""

from __future__ import annotations

import pathlib
import random
import re
import subprocess

import pytest

from repro.analysis.degradation import measure_degradation
from repro.core.nonoriented import NonOrientedNode
from repro.core.terminating import TerminatingNode
from repro.core.warmup import WarmupNode
from repro.simulator.fleet import run_terminating_fleet
from repro.simulator.ring import build_nonoriented_ring, build_oriented_ring
from repro.verification import explore_all_schedules, explore_reduced

REPO = pathlib.Path(__file__).resolve().parent.parent
DOCS = REPO / "docs"


def _section(doc: str, heading: str) -> str:
    """The text of ``doc`` from ``heading`` up to the next heading."""
    text = (DOCS / doc).read_text()
    start = text.index(f"\n{heading}\n")
    end = text.find("\n#", start + len(heading) + 2)
    return text[start : end if end != -1 else len(text)]


def _table_rows(section: str):
    """The body rows of the first markdown table in ``section``."""
    rows = [
        [cell.strip() for cell in line.strip().strip("|").split("|")]
        for line in section.splitlines()
        if line.startswith("|")
    ]
    return rows[2:]  # header and separator


def _close(measured: float, quoted: str) -> bool:
    """``measured`` prints as ``quoted`` at the quoted number of decimals
    (either side of an exact half, as float formatting may go)."""
    decimals = len(quoted.partition(".")[2])
    return abs(measured - float(quoted)) <= 0.5 * 10**-decimals + 1e-12


# -- docs/VERIFICATION.md: the measured reduction table ----------------------

#: The grid the table reports: (algorithm, ids, flips).
REDUCTION_GRID = [
    ("warmup", [1, 2, 3], None),
    ("warmup", [2, 3, 1, 4], None),
    ("warmup", [1, 2, 3, 4, 5, 6], None),
    ("terminating", [2, 3, 1], None),
    ("terminating", [2, 3, 1, 4], None),
    ("terminating", [1, 2, 3, 4, 5, 6], None),
    ("nonoriented", [1, 2, 3], [False, True, False]),
]


def _parse_ids(cell: str):
    """```[1,2,3]``` / ```[1..6]```, optionally followed by
    ``(flips `0,1,0`)`` or ``(`0,1,0`)``."""
    spelled = re.match(r"`\[([^\]]*)\]`", cell).group(1)
    if ".." in spelled:
        low, high = spelled.split("..")
        ids = list(range(int(low), int(high) + 1))
    else:
        ids = [int(part) for part in spelled.split(",")]
    flips = re.search(r"\((?:flips )?`([01,]+)`\)", cell)
    if flips is not None:
        return ids, [bit == "1" for bit in flips.group(1).split(",")]
    return ids, None


def _count(cell: str) -> int:
    """A count as the docs spell it: ``27 468``, ``2 000 000 (CLI default)``."""
    return int(re.match(r"\d[\d ]*", cell).group().replace(" ", ""))


def _factory(algorithm, ids, flips):
    """Builds a fresh network of ``algorithm`` on ``ids`` (and ``flips``)."""

    def build():
        if algorithm == "nonoriented":
            nodes = [NonOrientedNode(i) for i in ids]
            return build_nonoriented_ring(nodes, flips=flips).network
        node_cls = WarmupNode if algorithm == "warmup" else TerminatingNode
        return build_oriented_ring([node_cls(i) for i in ids]).network

    return build


def _key(algorithm, ids, flips):
    return (algorithm, tuple(ids), tuple(flips) if flips else None)


def _reduction_table():
    """(algorithm, ids, flips) -> (unreduced, full-stack, orbit, factor)."""
    table = {}
    for algorithm, ids_cell, unreduced, full, orbit, factor in _table_rows(
        _section("VERIFICATION.md", "## Measured reduction")
    ):
        key = _key(algorithm, *_parse_ids(ids_cell))
        table[key] = (unreduced, full, orbit, factor.strip("*").rstrip("×"))
    return table


def test_reduction_table_lists_the_grid():
    assert sorted(_reduction_table()) == sorted(
        _key(*row) for row in REDUCTION_GRID
    )


@pytest.mark.parametrize(
    "algorithm,ids,flips",
    REDUCTION_GRID,
    ids=[f"{row[0]}-{len(row[1])}" for row in REDUCTION_GRID],
)
def test_reduction_row_matches_the_explorer(algorithm, ids, flips):
    build = _factory(algorithm, ids, flips)
    unreduced = explore_all_schedules(build).states_explored
    full = explore_reduced(
        build, reduction="full", include_duals=algorithm == "nonoriented"
    )
    quoted = _reduction_table()[_key(algorithm, ids, flips)]
    assert (int(quoted[0]), int(quoted[1]), int(quoted[2])) == (
        unreduced,
        full.states_explored,
        full.orbit_factor,
    )
    assert _close(full.state_reduction_vs(unreduced), quoted[3])


def test_quoted_plain_ample_factor_matches_the_explorer():
    section = _section("VERIFICATION.md", "## Measured reduction")
    quoted = re.search(r"plain `ample` alone is ([0-9.]+)× on\s+`\[1\.\.6\]`", section)
    build = _factory("warmup", list(range(1, 7)), None)
    unreduced = explore_all_schedules(build).states_explored
    ample = explore_reduced(build, reduction="ample")
    assert ample.orbit_factor == 1
    assert _close(ample.state_reduction_vs(unreduced), quoted.group(1))


# -- docs/VERIFICATION.md: the certified frontier -----------------------------

#: The table's rows, as algorithm and ring size.
FRONTIER = ["warmup-7", "terminating-6", "nonoriented-4", "nonoriented-5"]

#: Certificate formulas the table quotes, as functions of the ids.
PULSE_FORMULAS = {
    "n·IDmax": lambda ids: len(ids) * max(ids),
    "n(2·IDmax+1)": lambda ids: len(ids) * (2 * max(ids) + 1),
}


def _frontier_rows():
    return _table_rows(_section("VERIFICATION.md", "### Certified frontier"))


def test_frontier_table_lists_its_rows():
    assert [
        f"{algorithm}-{len(_parse_ids(ids_cell)[0])}"
        for algorithm, ids_cell, *_ in _frontier_rows()
    ] == FRONTIER


@pytest.mark.parametrize("row", range(len(FRONTIER)), ids=FRONTIER)
def test_frontier_row_matches_the_explorer(row):
    algorithm, ids_cell, budget, states, instances, certificate = _frontier_rows()[row]
    ids, flips = _parse_ids(ids_cell)
    duals = algorithm == "nonoriented"
    assert instances.endswith(" (duals)") == duals
    result = explore_reduced(
        _factory(algorithm, ids, flips),
        max_states=_count(budget),
        reduction="full",
        include_duals=duals,
    )
    assert (_count(states), _count(instances)) == (
        result.states_explored,
        result.orbit_factor,
    )
    assert certificate.startswith("confluent, 0 violations")
    assert result.confluent and result.quiescence_violations == 0
    pulses = re.search(r"`(.+) = (\d+)` pulses", certificate)
    if pulses is not None:
        formula, count = pulses.groups()
        assert PULSE_FORMULAS[formula](ids) == int(count)
        assert result.terminal_total_sent == [int(count)]


# -- docs/PERFORMANCE.md: the hop-skip round count ----------------------------


def test_quoted_hop_skip_rounds_match_the_fleet():
    text = (DOCS / "PERFORMANCE.md").read_text()
    quoted = re.search(
        r"`n=64`,\s+`IDmax=10⁵`,\s+a\s+block\s+of\s+Algorithm\s+2\s+instances"
        r"\s+needs\s+(\d+)\s+rounds",
        text,
    )
    # Rows shaped like the fleet_sweep workload's (which runs n = 16):
    # n - 1 distinct IDs below IDmax plus IDmax itself, shuffled.
    rng = random.Random(0)
    rows = []
    for _ in range(8):
        row = rng.sample(range(1, 100_000), 63) + [100_000]
        rng.shuffle(row)
        rows.append(row)
    assert run_terminating_fleet(rows).rounds == int(quoted.group(1))


# -- docs/ROBUSTNESS.md: the degradation numbers -----------------------------

#: The table's sweep: Algorithm 3, n = 6, IDmax = 64, 400 samples per
#: rate, fault seed 7, 99% bands (the ``measure_degradation`` defaults
#: otherwise).
SWEEP = dict(algorithm="nonoriented", n=6, id_max=64, samples=400, fault_seed=7)


def test_drop_table_matches_the_sweep():
    rows = _table_rows(_section("ROBUSTNESS.md", "## Degradation curves"))
    rates = [float(rate) for rate, _, _ in rows]
    assert rates == [0.0, 0.005, 0.01, 0.02, 0.05]
    curve = measure_degradation(rates, kind="drop", **SWEEP)
    for point, (_, success, interval) in zip(curve.points, rows):
        low, high = interval.strip("[]").split(", ")
        assert _close(point.success_rate, success), (point.rate, success)
        assert _close(point.low, low) and _close(point.high, high), (
            point.rate,
            interval,
        )


def test_quoted_duplicate_and_spurious_points_match_the_sweep():
    section = _section("ROBUSTNESS.md", "## Degradation curves")
    quoted = re.findall(r"(duplicate|spurious) ([0-9.]+) → ([0-9.]+)", section)
    assert [kind for kind, _, _ in quoted] == ["duplicate", "spurious"]
    for kind, rate, success in quoted:
        curve = measure_degradation([float(rate)], kind=kind, **SWEEP)
        assert _close(curve.points[0].success_rate, success), (kind, success)


# -- no tracked file points at a retired bench or substrate -------------------

#: Names of deleted instruments and substrates (the substrate census in
#: docs/ARCHITECTURE.md says which tests cover what they checked).
RETIRED = (
    "run_engine_bench.py",
    "run_faults_bench.py",
    "run_verification_bench.py",
    "BENCH_engine.json",
    "BENCH_faults.json",
    "BENCH_verification.json",
    "pytest-benchmark",
    "--benchmark-only",
    "experiment_tables.txt",
    "asyncio_runtime",
    "run_network_asyncio",
    "KernelSyncNode",
    "stop_when_quiescent",
)
#: The root-level markdown a reader follows.  The other root documents
#: (the change ledger, the roadmap, paper notes) record history, and
#: ``benchmarks/perf`` is the benchmark's own, changed only with it.
ROOT_DOCS = {"README.md", "DESIGN.md", "EXPERIMENTS.md"}


def _followed(path: str) -> bool:
    if path.startswith("benchmarks/perf/"):
        return False
    if "/" not in path and path.endswith(".md"):
        return path in ROOT_DOCS
    return path != pathlib.Path(__file__).resolve().relative_to(REPO).as_posix()


def test_no_tracked_file_names_a_retired_bench():
    try:
        listing = subprocess.run(
            ["git", "ls-files", "-z"], cwd=REPO, capture_output=True, check=True
        ).stdout.decode()
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("not a git checkout")
    offenders = [
        f"{path}: {name}"
        for path in filter(_followed, listing.split("\0"))
        if path and (REPO / path).is_file()
        for name in RETIRED
        if name.encode() in (REPO / path).read_bytes()
    ]
    assert not offenders
