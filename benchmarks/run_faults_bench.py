"""Graceful-degradation benchmark: success probability vs fault rate.

Sweeps the unified fault model (:mod:`repro.faults`) over a grid of
per-pulse fault rates and, per grid point, runs the recovery harness
(:func:`repro.verification.statistical.run_recovery_check`) on a fresh
sample of Algorithm 3 instances.  Each point records the recovered /
wrong-stable / stuck split and an exact Clopper-Pearson band on the
recovery probability.  Two properties are load-bearing for the
robustness contract recorded in ``docs/ROBUSTNESS.md``:

* **clean at zero** — the rate-0 control arm must recover every sampled
  instance (the fault harness itself must not perturb a fault-free
  run); and
* **monotone within bands** — success must not *improve* significantly
  as faults get worse: no later point's estimate may exceed an earlier
  point's upper confidence bound.

A second section exercises the recovery classifier end to end: a node
crash is injected mid-run, every sampled run must land in exactly one
of the three classes, and the first counterexample must replay from its
seeds alone.  A third section runs the adversarial worst-plan search
(:mod:`repro.adversary`) against an equal-evaluation-budget random
baseline and records both, so the bench tracks how much damage a
budgeted *correlated* adversary does beyond independent noise.

Results land in a machine-readable ``BENCH_faults.json`` at the repo
root::

    PYTHONPATH=src python benchmarks/run_faults_bench.py          # full grid
    PYTHONPATH=src python benchmarks/run_faults_bench.py --quick  # CI smoke
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import time
from typing import Dict, List, Optional

from repro.analysis.degradation import measure_degradation
from repro.faults.model import FaultModel, NodeCrash
from repro.verification.statistical import run_recovery_check

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

DROP_RATES_FULL = [0.0, 0.005, 0.01, 0.02, 0.05]
DROP_RATES_QUICK = [0.0, 0.01, 0.05]
#: Duplication and spurious injection add pulses instead of removing
#: them, so the curves degrade much more slowly — probe further out.
NOISE_RATES_FULL = [0.0, 0.01, 0.05, 0.1]
NOISE_RATES_QUICK = [0.0, 0.05]
#: Per-(node, round) crash probabilities: a crash silences a whole node,
#: so the curve collapses far faster than the per-send channel kinds.
CRASH_RATES_FULL = [0.0, 0.005, 0.01, 0.02]
CRASH_RATES_QUICK = [0.0, 0.02]

SWEEP_FULL = {"samples": 400, "n": 6, "id_max": 64}
SWEEP_QUICK = {"samples": 64, "n": 5, "id_max": 40}


def bench_curve(
    kind: str,
    rates: List[float],
    quick: bool,
    farm_root: Optional[pathlib.Path] = None,
) -> Dict:
    """One degradation curve: recovery probability over the rate grid.

    With ``farm_root`` the sweep routes through the sweep farm
    (:mod:`repro.farm`), so re-running the bench against a warm root
    collects from cached shards instead of recomputing; the curve is
    bit-identical either way.
    """
    params = SWEEP_QUICK if quick else SWEEP_FULL
    t0 = time.perf_counter()
    curve = measure_degradation(
        rates,
        kind=kind,
        algorithm="nonoriented",
        n=params["n"],
        id_max=params["id_max"],
        samples=params["samples"],
        fault_seed=7,
        farm_root=farm_root,
    )
    seconds = time.perf_counter() - t0
    payload = curve.to_dict()
    payload["seconds"] = round(seconds, 4)
    if farm_root is not None:
        payload["farm_root"] = str(farm_root)
    return payload


CRASH_FULL = {"samples": 128, "n": 6, "id_max": 64}
CRASH_QUICK = {"samples": 32, "n": 5, "id_max": 40}


def bench_recovery_self_test(quick: bool) -> Dict:
    """Classifier end-to-end: a mid-run crash must be classified and
    the first counterexample must replay from its seeds alone."""
    params = CRASH_QUICK if quick else CRASH_FULL
    faults = FaultModel(crashes=(NodeCrash(node=1, at_round=3),))
    t0 = time.perf_counter()
    report = run_recovery_check(
        algorithm="nonoriented",
        n=params["n"],
        id_max=params["id_max"],
        samples=params["samples"],
        faults=faults,
        max_counterexamples=1,
    )
    seconds = time.perf_counter() - t0
    classified = sum(report.counts.values()) == report.samples
    replayed = True
    first_invariant = None
    if report.counterexamples:
        first = report.counterexamples[0]
        first_invariant = first.first_invariant
        replayed = first.replay() is not None
    return {
        "injected": "crash node 1 at round 3 (no restart)",
        **params,
        "backend": report.check.backend,
        **report.counts,
        "fault_events": dict(report.fault_events),
        "every_run_classified": classified,
        "counterexample_replayed": replayed,
        "first_violated_invariant": first_invariant,
        "seconds": round(seconds, 4),
    }


#: Adversarial worst-plan search coordinates.  The quick row pins the
#: CI smoke configuration (seeds included): cross-entropy over a tight
#: crash-restart/burst space where the 0-recovered floor is sparse, so
#: the found plan is information, not a trivial tie.
ADVERSARY_QUICK = {
    "budget": 3, "n": 6, "id_max": 48, "samples": 48,
    "iterations": 3, "population": 8,
}
ADVERSARY_FULL = {
    "budget": 4, "n": 6, "id_max": 64, "samples": 96,
    "iterations": 4, "population": 10,
}


def bench_worst_plan(
    quick: bool, farm_root: Optional[pathlib.Path] = None
) -> Dict:
    """Adversarial search: the worst budgeted correlated-fault plan.

    Runs the cross-entropy optimizer over the smoke plan space and an
    equal-evaluation-budget random baseline, and records both — the
    found plan is seed-replayable via ``repro faults replay`` from the
    equivalent CLI artifact.
    """
    from repro.adversary import (
        EvalSettings,
        PlanSpace,
        random_baseline,
        search_worst_plan,
    )

    params = ADVERSARY_QUICK if quick else ADVERSARY_FULL
    space = PlanSpace(
        n=params["n"],
        budget=params["budget"],
        restarts=(1, 2),
        drop_rates=(0.25,),
        max_drops=1,
        max_burst=1,
    )
    settings = EvalSettings(
        n=params["n"], id_max=params["id_max"], samples=params["samples"]
    )
    t0 = time.perf_counter()
    result = search_worst_plan(
        space,
        settings,
        strategy="cross-entropy",
        iterations=params["iterations"],
        population=params["population"],
        search_seed=1,
        farm_root=farm_root,
    )
    baseline = random_baseline(
        space,
        settings,
        count=result.evaluations,
        search_seed=101,
        farm_root=farm_root,
    )
    seconds = time.perf_counter() - t0
    return {
        **params,
        "strategy": result.strategy,
        "search_seed": result.search_seed,
        "baseline_seed": 101,
        "evaluations": result.evaluations,
        "worst": result.best.to_dict(),
        "baseline_best": baseline.to_dict(),
        "search_beats_or_ties_baseline": (
            result.best.rate_high <= baseline.rate_high
        ),
        "seconds": round(seconds, 4),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small grid for smoke runs"
    )
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=REPO_ROOT / "BENCH_faults.json",
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--farm",
        type=pathlib.Path,
        default=None,
        metavar="ROOT",
        help="route the degradation sweeps through the sweep farm at "
        "ROOT (warm roots collect from cache; results are identical)",
    )
    args = parser.parse_args(argv)

    drop_rates = DROP_RATES_QUICK if args.quick else DROP_RATES_FULL
    noise_rates = NOISE_RATES_QUICK if args.quick else NOISE_RATES_FULL
    crash_rates = CRASH_RATES_QUICK if args.quick else CRASH_RATES_FULL

    curves = {}
    for kind, rates in (
        ("drop", drop_rates),
        ("duplicate", noise_rates),
        ("spurious", noise_rates),
        ("crash", crash_rates),
    ):
        print(f"sweeping {kind} over {rates} ...", flush=True)
        curve = bench_curve(kind, rates, args.quick, farm_root=args.farm)
        for point in curve["points"]:
            print(
                f"  rate {point['rate']:<6} success "
                f"{point['success_rate']:.4f} "
                f"[{point['low']:.4f}, {point['high']:.4f}] "
                f"r/w/s {point['recovered']}/{point['wrong_stable']}/"
                f"{point['stuck']}",
                flush=True,
            )
        curves[kind] = curve

    print("recovery self-test: mid-run node crash ...", flush=True)
    self_test = bench_recovery_self_test(args.quick)
    print(
        f"  classified r/w/s {self_test['recovered']}/"
        f"{self_test['wrong_stable']}/{self_test['stuck']} | "
        f"counterexample replayed: {self_test['counterexample_replayed']}",
        flush=True,
    )

    print("adversarial worst-plan search ...", flush=True)
    worst_plan = bench_worst_plan(args.quick, farm_root=args.farm)
    print(
        f"  worst plan CP high {worst_plan['worst']['rate_high']:.4f} vs "
        f"baseline {worst_plan['baseline_best']['rate_high']:.4f} "
        f"({worst_plan['evaluations']} evaluations each)",
        flush=True,
    )

    curves_ok = all(
        curve["clean_at_zero"] and curve["monotone_within_bands"]
        for curve in curves.values()
    )
    self_test_ok = (
        self_test["every_run_classified"]
        and self_test["counterexample_replayed"]
    )

    report = {
        "generated_by": "benchmarks/run_faults_bench.py"
        + (" --quick" if args.quick else ""),
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "workload": "measure_degradation + run_recovery_check "
        "(unified fault model over the fleet)",
        "curves": curves,
        "recovery_self_test": self_test,
        "worst_plan": worst_plan,
        "summary": {
            "clean_at_zero": {
                kind: curve["clean_at_zero"] for kind, curve in curves.items()
            },
            "monotone_within_bands": {
                kind: curve["monotone_within_bands"]
                for kind, curve in curves.items()
            },
            "all_curves_degrade_gracefully": curves_ok,
            "crash_runs_classified_and_replayable": self_test_ok,
            "worst_plan_beats_or_ties_random": worst_plan[
                "search_beats_or_ties_baseline"
            ],
        },
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    if not (curves_ok and self_test_ok):
        print("ACCEPTANCE CRITERIA NOT MET — see summary in the JSON report")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
