"""One repeatable benchmark for the repro verbs.

Run one workload (the form every measurement uses)::

    python3 benchmarks/perf/run.py --workload fleet_sweep --seed 0 --seconds 28 --trace 0

Omit ``--workload`` to run every workload, each in a fresh child process,
one after another.  ``--trace 1`` makes a traced run that reports the
per-layer metrics instead of the end-to-end ones.  ``--out PATH``
appends the run's full record (provenance, per-op samples, spans) to a
JSON file; ``--compare A B`` judges record B against record A with the
bounds in ``BENCHMARK.json``; ``--smoke`` runs a few ops of each
workload as a self-check of the harness.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (``{name: {value, unit}}``).
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import tracing
import workloads

PERF = Path(__file__).resolve().parent
ROOT = PERF.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"

THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: A tail percentile needs this many samples beyond it.
TAIL = 10
#: Set-up probes per run, spread evenly over it.
SETUP_SPAWNS = 7
#: Every input slot runs at least this often in a full run.
MIN_REPEATS = 3
SMOKE_OPS = 5
TRACE_MIN_OPS = 3
#: Fresh processes a traced run times ``import repro.cli`` in.
IMPORT_PROBES = 5
#: Printed and recorded but not declared in BENCHMARK.json, so no gate
#: applies: the wall-clock readings the gated timings are scaled from,
#: and the run's median and tail op latency, which follow the host's
#: slow spells.  ``op_tail_s`` is at ``tail_percentile(ops)``.
UNGATED = {
    "op_best_wall_s": "s",
    "setup_wall_s": "s",
    "reference_p50_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
}
#: Raw spans kept in a record: the earliest-starting ones of the sample op.
SPAN_CAP = 500
#: Passes of the host-speed reference loop, 7-14 ms on the VM below.
REFERENCE_LOOPS = 28_000
#: About the fastest reference pass seen on a 2-vCPU x86_64 VM under
#: Python 3.11.7.  Gated timings are scaled to this host speed.
REFERENCE_S = 0.007


def tail_percentile(count: int) -> Optional[int]:
    """The highest whole percentile with at least ``TAIL`` of ``count``
    samples beyond it; None when there are too few samples for a tail."""
    if count <= TAIL:
        return None
    return math.floor(100 * (count - TAIL) / count)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def reference() -> float:
    """Wall time of one pass of the host-speed reference loop.

    Integer arithmetic on a growing big integer: interpreter and
    allocator work, no garbage-collected objects, nothing from ``repro``,
    so no change to the program moves it; only the host does.
    """
    began = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOPS):
        total += (i * i) ^ (total >> 3)
    return time.perf_counter() - began


@dataclass
class Ops:
    """What one closed loop of ops did."""

    times: List[float] = field(default_factory=list)
    failed: int = 0
    #: Per op, the input slot it ran.
    slots: List[int] = field(default_factory=list)
    #: Per op, the instances it delivered (0 for a failed op).
    instances: List[int] = field(default_factory=list)
    generate_s: float = 0.0
    #: One reference pass after every op.
    reference: List[float] = field(default_factory=list)
    #: Set-up probe wall times taken between ops, and the index of the
    #: op each probe ran before.
    setup: List[float] = field(default_factory=list)
    setup_before: List[int] = field(default_factory=list)

    def scaled(self, index: int, elapsed: float) -> float:
        """``elapsed``, timed after op ``index - 1``'s reference pass and
        before op ``index``'s, scaled to the reference speed by the mean
        of those two passes."""
        around = self.reference[max(index - 1, 0) : index + 1]
        return elapsed * REFERENCE_S * len(around) / sum(around)

    def per_slot(self, values: Sequence[float]) -> Dict[int, List[float]]:
        """``values``, one per op, of the successful ops, by slot."""
        grouped: Dict[int, List[float]] = {}
        for slot, value, count in zip(self.slots, values, self.instances):
            if count:
                grouped.setdefault(slot, []).append(value)
        return grouped


def run_op(
    workload: workloads.Workload,
    seed: int,
    index: int,
    ops: Ops,
    tracer: Optional[tracing.Tracer] = None,
) -> None:
    """Run op ``index`` and add it to ``ops``.  Input generation and the
    output check stay outside the timed region."""
    slot = index % workload.SLOTS
    began = time.perf_counter()
    inp = workload.make_input(seed, slot)
    ops.generate_s += time.perf_counter() - began
    out, problem = None, None
    if tracer is not None:
        tracer.op = index
    began = time.perf_counter()
    if tracer is not None:
        tracer.enter(tracing.OP, start=began)
    try:
        out = workload.run(inp)
    except Exception:  # noqa: BLE001 - an op that raises is a failed op
        problem = traceback.format_exc()
    finally:
        ended = time.perf_counter()
        if tracer is not None:
            tracer.exit(end=ended)
    ops.times.append(ended - began)
    ops.slots.append(slot)
    if problem is None:
        try:
            problem = workload.check(inp, out)
        except Exception:  # noqa: BLE001 - a malformed output fails the op
            problem = traceback.format_exc()
    if problem is None:
        ops.instances.append(workload.instances(inp, out))
    else:
        ops.instances.append(0)
        ops.failed += 1
        print(f"{workload.name} op {index} FAILED: {problem}", file=sys.stderr)


def run_ops(
    workload: workloads.Workload, seed: int, seconds: float, min_ops: int, spawns: int = 0
) -> Ops:
    """Closed loop, one client: as many ops as fit in ``seconds``, but at
    least ``min_ops``, each followed by a reference pass.  Between ops,
    ``spawns`` set-up probes run at even intervals, so their median
    samples the host over the whole run."""
    ops = Ops()
    start = time.perf_counter()
    index = 0
    while index < min_ops or time.perf_counter() - start < seconds:
        if len(ops.setup) < spawns and (
            time.perf_counter() - start >= len(ops.setup) * seconds / spawns
        ):
            ops.setup.append(workloads.setup_seconds(workload.name))
            ops.setup_before.append(index)
        run_op(workload, seed, index, ops)
        ops.reference.append(reference())
        index += 1
    while len(ops.setup) < spawns:
        ops.setup.append(workloads.setup_seconds(workload.name))
        ops.setup_before.append(index)
    return ops


def end_to_end(ops: Ops) -> Dict[str, float]:
    """The timing metrics of an untraced run, gated and ungated.

    A shared host flips between a fast and a slow state, for seconds to
    minutes at a time, and even an op's fastest repeat follows it.  So
    each gated time is scaled to one host speed by the reference passes
    on either side of it.  Per slot, op latency is the lower quartile of
    its scaled repeats, clear of the brief stalls that hit single ops;
    every slot runs in every run, so the slots together are the same
    work whatever the seed.
    """
    scaled = ops.per_slot([ops.scaled(i, elapsed) for i, elapsed in enumerate(ops.times)])
    latency = {slot: percentile(values, 25) for slot, values in scaled.items()}
    counts = {slot: values[0] for slot, values in ops.per_slot(ops.instances).items()}
    fastest = [min(values) for values in ops.per_slot(ops.times).values()]
    metrics = {
        "setup_s": statistics.median(
            ops.scaled(index, elapsed) for index, elapsed in zip(ops.setup_before, ops.setup)
        ),
        "op_latency_s": statistics.fmean(latency.values()),
        "instances_per_s": sum(counts[slot] for slot in latency) / sum(latency.values()),
        "op_best_wall_s": statistics.fmean(fastest),
        "setup_wall_s": statistics.median(ops.setup),
        "reference_p50_s": statistics.median(ops.reference),
        "op_p50_s": percentile(ops.times, 50),
    }
    tail = tail_percentile(len(ops.times))
    if tail is not None:
        metrics["op_tail_s"] = percentile(ops.times, tail)
    return metrics


def measure(
    workload: workloads.Workload, seed: int, seconds: float, smoke: bool
) -> Dict[str, Any]:
    """An untraced run: the end-to-end metrics."""
    min_ops = SMOKE_OPS if smoke else max(TAIL + 1, MIN_REPEATS * workload.SLOTS)
    workload.setup()
    warmup = Ops()
    try:
        # Untimed: the first op of a process pays for allocator and cache
        # warm-up that every later op skips.
        run_op(workload, seed, 0, warmup)
        ops = run_ops(workload, seed, seconds, min_ops, 1 if smoke else SETUP_SPAWNS)
    finally:
        workload.close()
    ops.failed += warmup.failed
    metrics = end_to_end(ops)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "ops": ops,
        "metrics": metrics,
        "tail_percentile": tail_percentile(len(ops.times)),
        "samples": {
            "op_s": ops.times,
            "op_slot": ops.slots,
            "reference_s": ops.reference,
            "setup_s": ops.setup,
            "setup_before_op": ops.setup_before,
        },
    }


def measure_traced(
    workload: workloads.Workload, seed: int, seconds: float, smoke: bool
) -> Dict[str, Any]:
    """A traced run: each op untraced, then traced on the same input, so
    the host's slow spells hit both alike; per-layer metrics."""
    workload.setup()
    tracer, patcher = tracing.Tracer(), tracing.Patcher()
    warmup, untraced, traced = Ops(), Ops(), Ops()
    min_ops = SMOKE_OPS if smoke else TRACE_MIN_OPS
    try:
        run_op(workload, seed, 0, warmup)
        start = time.perf_counter()
        index = 0
        while index < min_ops or time.perf_counter() - start < seconds:
            run_op(workload, seed, index, untraced)
            tracing.install_layers(tracer, patcher)
            try:
                run_op(workload, seed, index, traced, tracer)
            finally:
                patcher.restore()
            index += 1
    finally:
        workload.close()
    metrics = tracing.layer_metrics(
        tracer, len(traced.times), sum(traced.times), sum(untraced.times)
    )
    metrics["bench.generate_s"] = untraced.generate_s + traced.generate_s
    # Start-up happens once per process, outside any op: time it in fresh
    # processes, as setup_s does.
    imports = [workloads.import_seconds() for _ in range(1 if smoke else IMPORT_PROBES)]
    metrics["cli.import_s"] = statistics.median(total for total, _ in imports)
    metrics["cli.import_numpy_s"] = statistics.median(numpy for _, numpy in imports)
    ops = Ops(
        times=untraced.times + traced.times,
        failed=warmup.failed + untraced.failed + traced.failed,
    )
    return {
        "ops": ops,
        "metrics": metrics,
        "samples": {"untraced_op_s": untraced.times, "traced_op_s": traced.times},
        "layers": {
            "calls": dict(tracer.calls),
            "total_s": dict(tracer.total),
            "self_s": dict(tracer.self_time),
            "counters": dict(tracer.counters),
        },
        "spans": sample_spans(tracer.spans),
    }


def sample_spans(spans: List[tuple]) -> Dict[str, Any]:
    """The sample op's spans, earliest first, times from the op's start."""
    ordered = sorted(spans, key=lambda span: span[2])
    origin = ordered[0][2] if ordered else 0.0
    return {
        "fields": ["id", "name", "start_s", "end_s", "parent", "op"],
        "count": len(ordered),
        "spans": [
            [span_id, name, round(start - origin, 9), round(end - origin, 9), parent, op]
            for span_id, name, start, end, parent, op in ordered[:SPAN_CAP]
        ],
    }


def provenance(argv: Sequence[str]) -> Dict[str, Any]:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    uname = os.uname()
    return {
        "commit": commit,
        "machine": uname.machine,
        "system": f"{uname.sysname} {uname.release}",
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "thread_pins": {name: os.environ.get(name) for name in THREAD_PINS},
        "argv": [Path(sys.executable).name, str(Path(__file__).relative_to(ROOT)), *argv],
    }


def load_spec() -> Dict[str, Any]:
    return json.loads(SPEC_PATH.read_text())


def result_line(
    ops: Ops, metrics: Dict[str, float], declared: List[Dict[str, Any]]
) -> Dict[str, Any]:
    return {
        "correct": ops.failed == 0,
        "attempted": len(ops.times),
        "failed": ops.failed,
        "metrics": {
            metric["name"]: {"value": metrics[metric["name"]], "unit": metric["unit"]}
            for metric in declared
        },
    }


def append_record(path: Path, run: Dict[str, Any]) -> None:
    record = json.loads(path.read_text()) if path.exists() else {"runs": []}
    record["runs"].append(run)
    path.write_text(json.dumps(record, separators=(",", ":")) + "\n")


def run_one(name: str, args: argparse.Namespace, argv: Sequence[str]) -> int:
    spec = load_spec()
    workload = workloads.WORKLOADS[name]
    measured = (measure_traced if args.trace else measure)(
        workload, args.seed, args.seconds, args.smoke
    )
    declared = spec["per_layer" if args.trace else "end_to_end"]
    line = result_line(measured["ops"], measured["metrics"], declared)
    units = {metric["name"]: metric["unit"] for metric in declared}
    ungated = {k: v for k, v in measured["metrics"].items() if k not in units}
    for metric, value in measured["metrics"].items():
        unit = units.get(metric) or f"{UNGATED[metric]} (not gated)"
        if metric == "op_tail_s":
            unit = f"s (p{measured['tail_percentile']}, not gated)"
        print(f"{name:<17} {metric:<32} {value:>14.6g} {unit}")
    print(f"{name:<17} {'ops':<32} {len(measured['ops'].times):>14} count")
    if args.out is not None:
        ops = measured.pop("ops")
        # A tenth of a microsecond is finer than perf_counter's jitter.
        measured["samples"] = {
            key: [round(value, 7) for value in values]
            for key, values in measured["samples"].items()
        }
        append_record(
            args.out,
            {
                "workload": name,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "smoke": args.smoke,
                **line,
                "ungated": ungated,
                "error_rate": ops.failed / len(ops.times),
                "generate_s": ops.generate_s,
                **{key: value for key, value in measured.items() if key != "metrics"},
                "provenance": provenance(argv),
            },
        )
    print(json.dumps(line))
    return 0


def run_many(names: Sequence[str], args: argparse.Namespace) -> int:
    """Each workload in a fresh child process, one after another."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        if args.out is not None:
            cmd += ["--out", str(args.out)]
        if args.smoke:
            cmd.append("--smoke")
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            print(f"{name}: benchmark child exited {child.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]), flush=True)
        line = json.loads(lines[-1])
        correct = correct and line["correct"]
        attempted += line["attempted"]
        failed += line["failed"]
        metrics.update({f"{name}/{key}": value for key, value in line["metrics"].items()})
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0


# -- compare ---------------------------------------------------------------


def relative_iqr(values: Sequence[float]) -> float:
    """Quartile distance over the median; infinite below two values."""
    if len(values) < 2:
        return math.inf
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def verdict(a: Sequence[float], b: Sequence[float], better: str, bound: float) -> str:
    """B (the change) against A (the parent) for one metric.

    ``unresolved`` when either side's run-to-run spread exceeds the bound,
    unless every B run beats every A run; ``worse`` when B's median is
    worse by more than the bound; ``better`` when B's median beats A's by
    more than A's own spread and B wins nine tenths of the runs paired in
    order; otherwise ``unchanged``.
    """
    sign = 1.0 if better == "lower" else -1.0
    median_a, median_b = statistics.median(a), statistics.median(b)
    worse_by = sign * (median_b - median_a) / abs(median_a)
    beats_all = max(sign * x for x in b) < min(sign * x for x in a)
    if max(relative_iqr(a), relative_iqr(b)) > bound:
        return "better" if beats_all else "unresolved"
    if worse_by > bound:
        return "worse"
    pairs = list(zip(a, b))
    wins = sum(sign * (y - x) < 0 for x, y in pairs)
    if -worse_by > relative_iqr(a) and wins >= 0.9 * len(pairs):
        return "better"
    return "unchanged"


def quartiles(values: Sequence[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.4g}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}]"


def compare(path_a: Path, path_b: Path) -> int:
    spec = load_spec()

    def runs(path: Path) -> Dict[str, List[Dict[str, Any]]]:
        grouped: Dict[str, List[Dict[str, Any]]] = {}
        for run in json.loads(path.read_text())["runs"]:
            if not run["trace"] and not run["smoke"]:
                grouped.setdefault(run["workload"], []).append(run)
        return grouped

    parent, change = runs(path_a), runs(path_b)
    print(f"{'workload':<17} {'metric':<16} {'parent median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} verdict")
    for name in workloads.WORKLOADS:
        if name not in parent or name not in change:
            continue
        for metric in spec["end_to_end"]:
            a = [run["metrics"][metric["name"]]["value"] for run in parent[name]]
            b = [run["metrics"][metric["name"]]["value"] for run in change[name]]
            print(f"{name:<17} {metric['name']:<16} {quartiles(a):<34} {quartiles(b):<34} "
                  f"{verdict(a, b, metric['better'], metric['bound'])}")
        for metric in UNGATED:
            a = [run["ungated"][metric] for run in parent[name]]
            b = [run["ungated"][metric] for run in change[name]]
            print(f"{name:<17} {metric:<16} {quartiles(a):<34} {quartiles(b):<34} not gated")
        rate_a, rate_b = (
            sum(run["failed"] for run in side) / sum(run["attempted"] for run in side)
            for side in (parent[name], change[name])
        )
        error_verdict = "worse" if rate_b > rate_a else "better" if rate_b < rate_a else "unchanged"
        print(f"{name:<17} {'error_rate':<16} {rate_a:<34.4g} {rate_b:<34.4g} {error_verdict}")
    return 0


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="measured time per run "
                        "(default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="append the run record to this JSON file")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("PARENT", "CHANGE"))
    parser.add_argument("--smoke", action="store_true", help="a few ops per workload")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (workloads.SRC / "repro" / "__init__.py").is_file():
        print(f"no repro package under {workloads.SRC}: run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else float(load_spec()["run_seconds"])
    for name in THREAD_PINS:
        os.environ[name] = "1"  # before anything in this process loads NumPy
    sys.path.insert(0, str(workloads.SRC))
    names = args.workload or list(workloads.WORKLOADS)
    if len(names) == 1:
        return run_one(names[0], args, argv)
    return run_many(names, args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
