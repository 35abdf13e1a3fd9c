"""Model-checking benchmark: the reduction stack vs unreduced exploration.

Runs the unreduced reference search and every reduction mode (``ample``,
``sleep``, ``symmetry``, ``full``) on a grid of small instances and
certifies, per instance and per mode, that the reduced search reproduces
the reference verdicts exactly (terminal node fingerprints, confluence,
per-terminal message counts) while visiting fewer states.  Load-bearing
rows for the acceptance criteria recorded in ``docs/VERIFICATION.md``:

* the **reference instance** (Algorithm 1 on ``[1..6]``), where plain
  ample-set reduction alone must visit at least 10x fewer states than
  the unreduced search;
* every Algorithm 2/3 grid row, where the ``full`` stack's
  orbit-adjusted state reduction must reach at least the ring size
  ``n`` (the symmetry layer's guaranteed orbit factor) — enforced by
  per-row gates plus the repeatable ``--min-reduction ALG=RATIO``
  override; and
* the **frontier instances** — one per algorithm — which the unreduced
  search cannot finish within the shared state budget but the ``full``
  stack both finishes and certifies.

A further section benchmarks the **statistical** checker
(:mod:`repro.verification.statistical`) at scales enumeration cannot
touch: sampled instances per second through the fleet with the per-round
invariant battery on, the Clopper-Pearson pass-rate interval, and the
fault-injection self-test (an injected pulse drop must be caught,
bisected to its instance, and replayed).

Results land in a machine-readable ``BENCH_verification.json`` at the
repo root::

    PYTHONPATH=src python benchmarks/run_verification_bench.py          # full grid
    PYTHONPATH=src python benchmarks/run_verification_bench.py --quick  # CI smoke
    PYTHONPATH=src python benchmarks/run_verification_bench.py --quick \\
        --min-reduction terminating=3 --min-reduction nonoriented=3
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import time
from typing import Dict, List, Optional, Sequence

from repro.core.nonoriented import NonOrientedNode
from repro.core.terminating import TerminatingNode
from repro.core.warmup import WarmupNode
from repro.simulator.ring import build_nonoriented_ring, build_oriented_ring
from repro.verification import (
    REDUCTION_MODES,
    ExplorationLimitExceeded,
    explore_all_schedules,
    explore_reduced,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

REFERENCE_IDS = [1, 2, 3, 4, 5, 6]

#: Grid rows: (algorithm, ids, flips-or-None).  Oriented algorithms get
#: rotations only; nonoriented rows add orientation-duals, so their
#: guaranteed orbit factor is 2n instead of n.
FULL_GRID = [
    ("warmup", [1, 2, 3], None),
    ("warmup", [2, 3, 1, 4], None),
    ("warmup", REFERENCE_IDS, None),
    ("terminating", [2, 3, 1], None),
    ("terminating", [2, 3, 1, 4], None),
    ("terminating", [1, 2, 3, 4, 5, 6], None),
    ("nonoriented", [1, 2, 3], [False, True, False]),
]
QUICK_GRID = [
    ("warmup", [1, 2, 3], None),
    ("warmup", REFERENCE_IDS, None),
    ("terminating", [2, 3, 1], None),
    ("nonoriented", [1, 2, 3], [False, True, False]),
]

#: Frontier rows: (algorithm, ids, flips, state budget).  Calibrated so
#: the unreduced search exceeds the budget while the full stack finishes
#: inside it — each row is one instance (orbit of instances) certified
#: beyond the unreduced explorer's reach.
FRONTIERS = [
    ("warmup", [1, 2, 3, 4, 5, 6, 7], None, 2_000),
    ("terminating", [1, 2, 3, 4, 5, 6], None, 4_000),
    ("nonoriented", [1, 2, 3, 4], [False, True, False, False], 4_000),
]


def _factory(algorithm: str, ids: List[int], flips: Optional[List[bool]]):
    def build():
        if algorithm == "warmup":
            return build_oriented_ring([WarmupNode(i) for i in ids]).network
        if algorithm == "terminating":
            return build_oriented_ring([TerminatingNode(i) for i in ids]).network
        nodes = [NonOrientedNode(i) for i in ids]
        return build_nonoriented_ring(
            nodes, flips=flips if flips is not None else [False] * len(ids)
        ).network

    return build


def _expected_pulses(algorithm: str, ids: List[int]) -> Optional[int]:
    """The paper's exact message bound, where one exists."""
    if algorithm == "warmup":
        return len(ids) * max(ids)  # Corollary 13: n * IDmax
    if algorithm == "terminating":
        return len(ids) * (2 * max(ids) + 1)  # Theorem 1: n(2*IDmax + 1)
    return None  # Algorithm 3 stabilizes; no closed-form pulse count


def bench_instance(
    algorithm: str, ids: List[int], flips: Optional[List[bool]]
) -> Dict:
    factory = _factory(algorithm, ids, flips)
    include_duals = algorithm == "nonoriented"
    t0 = time.perf_counter()
    unreduced = explore_all_schedules(factory)
    t_unreduced = time.perf_counter() - t0

    modes: Dict[str, Dict] = {}
    for mode in REDUCTION_MODES:
        t0 = time.perf_counter()
        reduced = explore_reduced(
            factory, reduction=mode, include_duals=include_duals
        )
        seconds = time.perf_counter() - t0
        agree = (
            set(unreduced.terminal_node_fingerprints)
            == set(reduced.terminal_node_fingerprints)
            and unreduced.confluent == reduced.confluent
            and sorted(unreduced.terminal_total_sent)
            == sorted(reduced.terminal_total_sent)
        )
        modes[mode] = {
            **reduced.summary(),
            "seconds": round(seconds, 4),
            "state_reduction": round(
                reduced.state_reduction_vs(unreduced.states_explored), 2
            ),
            "verdicts_agree": agree,
        }

    row = {
        "algorithm": algorithm,
        "ids": ids,
        "n": len(ids),
        "unreduced_states": unreduced.states_explored,
        "unreduced_seconds": round(t_unreduced, 4),
        "modes": modes,
        # Legacy top-level fields mirror the strongest stack.
        "reduced_states": modes["full"]["states"],
        "reduced_seconds": modes["full"]["seconds"],
        "state_reduction": modes["full"]["state_reduction"],
        "confluent": modes["full"]["confluent"],
        "quiescence_violations": modes["full"]["quiescence_violations"],
        "verdicts_agree": all(m["verdicts_agree"] for m in modes.values()),
    }
    if flips is not None:
        row["flips"] = flips
    return row


def bench_frontier(
    algorithm: str, ids: List[int], flips: Optional[List[bool]], budget: int
) -> Dict:
    """One instance only the reduced search can certify within budget."""
    factory = _factory(algorithm, ids, flips)
    include_duals = algorithm == "nonoriented"
    t0 = time.perf_counter()
    try:
        explore_all_schedules(factory, max_states=budget)
        unreduced_exhausted_budget = False
    except ExplorationLimitExceeded:
        unreduced_exhausted_budget = True
    t_unreduced = time.perf_counter() - t0
    t0 = time.perf_counter()
    reduced = explore_reduced(
        factory, max_states=budget, reduction="full", include_duals=include_duals
    )
    t_reduced = time.perf_counter() - t0
    expected = _expected_pulses(algorithm, ids)
    certified = reduced.confluent and reduced.quiescence_violations == 0
    if expected is not None:
        certified = certified and reduced.terminal_total_sent == [expected]
    row = {
        "algorithm": algorithm,
        "ids": ids,
        "n": len(ids),
        "state_budget": budget,
        "unreduced_exceeded_budget": unreduced_exhausted_budget,
        "unreduced_seconds": round(t_unreduced, 4),
        "reduced_states": reduced.states_explored,
        "reduced_seconds": round(t_reduced, 4),
        "orbit_factor": reduced.orbit_factor,
        "instances_certified": reduced.instances_certified,
        "visited_bytes": reduced.visited_bytes,
        "expected_pulses": expected,
        "reduced_certified_bound": certified,
        # A lower bound: the unreduced search was cut off at the budget,
        # so the true per-instance state count is at least ``budget``.
        "min_state_reduction": round(reduced.state_reduction_vs(budget), 2),
    }
    if flips is not None:
        row["flips"] = flips
    return row


def parse_min_reductions(specs: Optional[Sequence[str]]) -> Dict[str, float]:
    """Parse repeatable ``--min-reduction ALG=RATIO`` gate overrides."""
    gates: Dict[str, float] = {}
    for spec in specs or ():
        try:
            algorithm, _, value = spec.partition("=")
            gates[algorithm.strip()] = float(value)
        except ValueError:
            raise SystemExit(
                f"bad --min-reduction {spec!r}; expected ALG=RATIO"
            )
    return gates


def check_reduction_gates(
    rows: List[Dict], overrides: Dict[str, float]
) -> List[Dict]:
    """Evaluate the per-row and per-algorithm reduction gates.

    Every row's ``full``-stack orbit-adjusted reduction must reach the
    row's ring size (the symmetry layer's guaranteed orbit factor;
    doubled would be too strict for rows where ample finds little).  An
    override additionally requires the algorithm's *best* row to reach
    the given ratio.
    """
    checks: List[Dict] = []
    for row in rows:
        ratio = row["modes"]["full"]["state_reduction"]
        required = float(row["n"])
        checks.append(
            {
                "scope": f"{row['algorithm']} {row['ids']}",
                "required": required,
                "achieved": ratio,
                "ok": ratio >= required,
            }
        )
    for algorithm, required in overrides.items():
        achieved = max(
            (
                row["modes"]["full"]["state_reduction"]
                for row in rows
                if row["algorithm"] == algorithm
            ),
            default=0.0,
        )
        checks.append(
            {
                "scope": f"{algorithm} (best row, --min-reduction)",
                "required": required,
                "achieved": achieved,
                "ok": achieved >= required,
            }
        )
    return checks


STATISTICAL_FULL = {"samples": 100_000, "n": 32, "id_max": 100_000}
STATISTICAL_QUICK = {"samples": 5_000, "n": 16, "id_max": 10_000}


def bench_statistical(quick: bool) -> Dict:
    """Sampled-schedule checking throughput + the fault self-test."""
    from repro.faults.model import PulseDrop
    from repro.verification.statistical import run_statistical_check

    params = STATISTICAL_QUICK if quick else STATISTICAL_FULL
    t0 = time.perf_counter()
    clean = run_statistical_check(
        n=params["n"],
        id_max=params["id_max"],
        samples=params["samples"],
        block_size=4096,
    )
    t_clean = time.perf_counter() - t0

    fault = PulseDrop(round_index=3, node=1, direction="cw", instance=17)
    t0 = time.perf_counter()
    faulted = run_statistical_check(
        n=8, id_max=100, samples=64, block_size=64, fault=fault
    )
    t_fault = time.perf_counter() - t0
    replayed = bool(
        faulted.counterexamples
        and faulted.counterexamples[0].instance == 17
        and faulted.counterexamples[0].replay() is not None
    )
    return {
        "workload": "run_statistical_check (per-round invariant battery "
        "+ end-state Theorem 1 contract)",
        **params,
        "backend": clean.check.backend,
        "scheduler": clean.check.scheduler,
        "violations": clean.violations,
        "pass_rate": clean.pass_rate,
        "cp_interval_99": [round(clean.rate_low, 6), round(clean.rate_high, 6)],
        "seconds": round(t_clean, 4),
        "samples_per_second": round(params["samples"] / t_clean, 1),
        "fault_self_test": {
            "injected": "drop 1 CW pulse, round 3, instance 17",
            "caught": not faulted.clean,
            "localized_to_instance": replayed,
            "seconds": round(t_fault, 4),
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small grid for smoke runs"
    )
    parser.add_argument(
        "--min-reduction",
        action="append",
        metavar="ALG=RATIO",
        help="require the algorithm's best full-stack orbit-adjusted "
        "reduction to reach RATIO (repeatable); per-row >= ring-size "
        "gates always apply",
    )
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=REPO_ROOT / "BENCH_verification.json",
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)
    overrides = parse_min_reductions(args.min_reduction)

    grid = QUICK_GRID if args.quick else FULL_GRID
    rows = []
    for algorithm, ids, flips in grid:
        print(f"benchmarking {algorithm} {ids} ...", flush=True)
        row = bench_instance(algorithm, ids, flips)
        full = row["modes"]["full"]
        print(
            f"  unreduced {row['unreduced_states']:>6} states | full stack "
            f"{full['states']:>6} states, orbit {full['orbit_factor']}x | "
            f"{full['state_reduction']}x orbit-adjusted | "
            f"agree={row['verdicts_agree']}",
            flush=True,
        )
        rows.append(row)

    frontier_rows = []
    for algorithm, ids, flips, budget in FRONTIERS:
        print(f"frontier: {algorithm} {ids} @ budget {budget} ...", flush=True)
        frontier = bench_frontier(algorithm, ids, flips, budget)
        print(
            f"  unreduced exceeded budget: "
            f"{frontier['unreduced_exceeded_budget']} | full stack "
            f"{frontier['reduced_states']} states certifying "
            f"{frontier['instances_certified']} instances, certified: "
            f"{frontier['reduced_certified_bound']}",
            flush=True,
        )
        frontier_rows.append(frontier)

    print("statistical: sampled-schedule checking ...", flush=True)
    statistical = bench_statistical(args.quick)
    print(
        f"  {statistical['samples']} samples @ n={statistical['n']}, "
        f"IDmax={statistical['id_max']}: pass rate "
        f"{statistical['pass_rate']} in {statistical['seconds']}s "
        f"({statistical['samples_per_second']}/s) | fault self-test "
        f"caught={statistical['fault_self_test']['caught']}",
        flush=True,
    )

    reference = next(
        (
            row
            for row in rows
            if row["algorithm"] == "warmup" and row["ids"] == REFERENCE_IDS
        ),
        None,
    )
    # The original ample-only criterion, unchanged: plain persistent-set
    # reduction must carry the reference instance on its own.
    reference_ok = (
        reference is not None
        and reference["unreduced_states"]
        >= 10 * reference["modes"]["ample"]["states"]
        and reference["verdicts_agree"]
    )
    all_agree = all(row["verdicts_agree"] for row in rows)
    frontiers_ok = all(
        row["unreduced_exceeded_budget"] and row["reduced_certified_bound"]
        for row in frontier_rows
    )
    reduction_gates = check_reduction_gates(rows, overrides)
    gates_ok = all(gate["ok"] for gate in reduction_gates)
    statistical_ok = (
        statistical["violations"] == 0
        and statistical["fault_self_test"]["caught"]
        and statistical["fault_self_test"]["localized_to_instance"]
    )

    report = {
        "generated_by": "benchmarks/run_verification_bench.py"
        + (" --quick" if args.quick else ""),
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "workload": "explore_all_schedules vs explore_reduced "
        "(ample/sleep/symmetry/full reduction stack + counting states)",
        "grid": rows,
        "frontier": frontier_rows,
        "reduction_gates": reduction_gates,
        "statistical": statistical,
        "summary": {
            "reference_instance": {
                "algorithm": "warmup",
                "ids": REFERENCE_IDS,
                "ample_state_reduction": round(
                    reference["unreduced_states"]
                    / reference["modes"]["ample"]["states"],
                    2,
                )
                if reference
                else None,
                "meets_10x": reference_ok,
            },
            "all_verdicts_agree": all_agree,
            "reduction_gates_met": gates_ok,
            "frontiers_certified_beyond_unreduced": frontiers_ok,
            "statistical_clean_and_self_test_caught": statistical_ok,
        },
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    for gate in reduction_gates:
        status = "ok" if gate["ok"] else "FAIL"
        print(
            f"  gate [{status}] {gate['scope']}: {gate['achieved']}x "
            f"(required {gate['required']}x)"
        )
    if not (
        reference_ok and all_agree and gates_ok and frontiers_ok and statistical_ok
    ):
        print("ACCEPTANCE CRITERIA NOT MET — see summary in the JSON report")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
