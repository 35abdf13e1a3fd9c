"""Tests of the benchmark harness itself: ``pytest benchmarks/perf``."""

from __future__ import annotations

import inspect
import json
import subprocess
import sys
import time

import pytest
import run
import tracing
import workloads

if str(workloads.SRC) not in sys.path:
    sys.path.insert(0, str(workloads.SRC))


def _spec_names(section: str) -> set:
    return {metric["name"] for metric in run.load_spec()[section]}


# -- tail percentile -------------------------------------------------------


def test_tail_percentile_is_p80_at_fifty_samples() -> None:
    assert run.tail_percentile(50) == 80
    assert run.tail_percentile(49) < 80
    assert run.tail_percentile(100) == 90


def test_no_tail_below_eleven_samples() -> None:
    assert run.tail_percentile(10) is None
    assert run.tail_percentile(1) is None
    assert run.tail_percentile(11) is not None


def test_percentile_leaves_ten_samples_beyond_p80_at_fifty() -> None:
    values = [float(v) for v in range(50)]
    p80 = run.percentile(values, 80)
    assert sum(v > p80 for v in values) == 10
    assert run.percentile(values, 50) == 24.5


# -- per-slot latency ------------------------------------------------------


def test_per_slot_keeps_only_successful_ops() -> None:
    ops = run.Ops(
        times=[0.5, 0.2, 0.4, 0.1, 0.3],
        slots=[0, 1, 0, 1, 0],
        instances=[10, 5, 10, 0, 10],
    )
    # Slot 1's 0.1 s op failed (no instances).
    assert ops.per_slot(ops.times) == {0: [0.5, 0.4, 0.3], 1: [0.2]}


@pytest.mark.parametrize("name", ["cli_elect", "fleet_sweep", "statcheck_seeded", "explore_full"])
def test_inputs_are_a_function_of_seed_and_slot(name) -> None:
    workload = workloads.WORKLOADS[name]
    first = [workload.make_input(0, slot) for slot in range(workload.SLOTS)]
    assert first == [workload.make_input(0, slot) for slot in range(workload.SLOTS)]
    assert first != [workload.make_input(1, slot) for slot in range(workload.SLOTS)]
    assert all(a != b for a, b in zip(first, first[1:]))


# -- self time -------------------------------------------------------------


def test_self_time_subtracts_nested_children() -> None:
    tracer = tracing.Tracer()
    tracer.enter("outer", start=0.0)
    tracer.enter("inner", start=1.0)
    tracer.enter("leaf", start=1.5)
    tracer.exit(end=2.0)
    tracer.exit(end=3.0)
    tracer.enter("inner", start=4.0)
    tracer.exit(end=5.0)
    tracer.exit(end=10.0)
    assert tracer.total == {"outer": 10.0, "inner": 3.0, "leaf": 0.5}
    assert tracer.self_time == {"outer": 7.0, "inner": 2.5, "leaf": 0.5}
    assert tracer.calls == {"outer": 1, "inner": 2, "leaf": 1}


def test_recursive_pack_frozen_records_only_its_outermost_call() -> None:
    from repro.core import schema

    tracer, patcher = tracing.Tracer(), tracing.Patcher()
    patcher.everywhere(
        "repro.core.schema", "pack_frozen",
        lambda fn: tracing.traced(tracer, "explore.pack", fn),
    )
    try:
        value = schema.freeze_value({"a": [1, (2, 3)], "b": {"c": 4}})
        with tracer.span("caller"):
            packed = schema.pack_frozen(value)
    finally:
        patcher.restore()
    assert packed == schema.pack_frozen(value)
    assert tracer.calls["explore.pack"] == 1
    assert tracer.self_time["caller"] == pytest.approx(
        tracer.total["caller"] - tracer.total["explore.pack"]
    )
    assert tracer.self_time["explore.pack"] == pytest.approx(tracer.total["explore.pack"])


# -- traced runs -----------------------------------------------------------


def _wrappers_left() -> list:
    """Every function still carrying the tracing marker, wherever bound."""
    left = []
    for name, module in list(sys.modules.items()):
        namespace = getattr(module, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        for key, value in list(namespace.items()):
            if inspect.isfunction(value) and hasattr(value, "perfbench_span"):
                left.append(f"{name}.{key}")
            elif inspect.isclass(value) and name.startswith("repro."):
                left.extend(
                    f"{name}.{key}.{attr}"
                    for attr, member in vars(value).items()
                    if inspect.isfunction(member) and hasattr(member, "perfbench_span")
                )
    from repro.core import invariants

    for battery in invariants.COLUMN_INVARIANTS.values():
        left.extend(check.__name__ for check in battery if hasattr(check, "perfbench_span"))
    return left


def test_traced_run_restores_every_wrapped_callable() -> None:
    measured = run.measure_traced(workloads.WORKLOADS["statcheck_seeded"], 0, 0.0, smoke=True)
    assert measured["ops"].failed == 0
    assert _wrappers_left() == []
    metrics = measured["metrics"]
    assert set(metrics) == _spec_names("per_layer")
    assert metrics["invariants.battery_calls"] > 0 and metrics["kernels.drain_calls"] > 0
    assert metrics["trace.coverage_frac"] > 0.9


def test_untraced_run_reports_every_end_to_end_metric() -> None:
    measured = run.measure(workloads.WORKLOADS["explore_full"], 0, 0.0, smoke=True)
    # Five smoke ops are too few for a tail with ten samples beyond it.
    assert measured["tail_percentile"] is None
    assert set(measured["metrics"]) == _spec_names("end_to_end") | set(run.UNGATED) - {
        "op_tail_s"
    }
    assert all(value > 0 for value in measured["metrics"].values())


def _timed_ops(slowdown: float) -> run.Ops:
    """Two slots run three times each, and three set-up probes, on a host
    ``slowdown`` times slower than the reference speed."""
    return run.Ops(
        times=[slowdown * t for t in (0.03, 0.02, 0.05, 0.03, 0.04, 0.02)],
        slots=[0, 1, 0, 1, 0, 1],
        instances=[10, 5, 10, 5, 10, 5],
        reference=[slowdown * run.REFERENCE_S] * 6,
        setup=[slowdown * t for t in (0.3, 0.2, 0.4)],
        setup_before=[0, 3, 6],
    )


def test_gated_timings_are_scaled_to_the_reference_speed() -> None:
    steady, slow = run.end_to_end(_timed_ops(1.0)), run.end_to_end(_timed_ops(1.7))
    # Lower quartiles: slot 0 of (0.03, 0.04, 0.05), slot 1 of (0.02, 0.02, 0.03).
    assert steady["op_latency_s"] == pytest.approx((0.035 + 0.02) / 2)
    assert steady["instances_per_s"] == pytest.approx(15 / 0.055)
    assert steady["setup_s"] == pytest.approx(0.3)
    for name in _spec_names("end_to_end") - {"peak_rss_mb"}:
        assert slow[name] == pytest.approx(steady[name])
    assert slow["op_best_wall_s"] == pytest.approx(1.7 * steady["op_best_wall_s"])


# -- compare ---------------------------------------------------------------


@pytest.mark.parametrize(
    ("parent", "change", "better", "expected"),
    [
        ([1.00, 1.01, 0.99, 1.00, 1.02], [1.01, 1.00, 1.02, 0.99, 1.00], "lower", "unchanged"),
        ([1.00, 1.01, 0.99, 1.00, 1.02], [1.20, 1.21, 1.19, 1.22, 1.20], "lower", "worse"),
        ([1.00, 1.01, 0.99, 1.00, 1.02], [0.90, 0.91, 0.89, 0.90, 0.92], "lower", "better"),
        ([1.00, 1.01, 0.99, 1.00, 1.02], [0.85, 0.86, 0.84, 0.85, 0.87], "higher", "worse"),
        ([1.0, 1.5, 0.7, 1.3, 0.8], [1.0, 1.4, 0.8, 1.2, 0.9], "lower", "unresolved"),
        ([1.0, 1.5, 0.7, 1.3, 0.8], [0.3, 0.5, 0.2, 0.4, 0.6], "lower", "better"),
        ([1.0], [1.0], "lower", "unresolved"),
    ],
)
def test_verdicts(parent, change, better, expected) -> None:
    assert run.verdict(parent, change, better, 0.1) == expected


def _record(path, workload, values, failed=0):
    runs = [
        {
            "workload": workload,
            "trace": 0,
            "smoke": False,
            "attempted": 50,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": "x"} for name in _spec_names("end_to_end")
            },
            "ungated": {name: value for name in run.UNGATED},
        }
        for value in values
    ]
    path.write_text(json.dumps({"runs": runs}))


def test_compare_prints_one_row_per_workload_and_metric(tmp_path, capsys) -> None:
    parent, change = tmp_path / "a.json", tmp_path / "b.json"
    _record(parent, "fleet_sweep", [1.0, 1.01, 0.99, 1.0])
    _record(change, "fleet_sweep", [1.0, 1.0, 1.01, 0.99], failed=1)
    assert run.compare(parent, change) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    verdicts = {row.split()[1]: " ".join(row.split()[-2:]) for row in rows}
    assert set(verdicts) == _spec_names("end_to_end") | set(run.UNGATED) | {"error_rate"}
    assert verdicts.pop("error_rate").endswith("worse")
    assert {verdicts.pop(name) for name in run.UNGATED} == {"not gated"}
    assert {verdict.split()[-1] for verdict in verdicts.values()} == {"unchanged"}


# -- correctness -----------------------------------------------------------


def test_smoke_runs_all_workloads_without_errors() -> None:
    began = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(workloads.PERF / "run.py"), "--smoke", "--seed", "1"],
        capture_output=True, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - began
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["failed"] == 0 and line["correct"]
    assert line["attempted"] == run.SMOKE_OPS * len(workloads.WORKLOADS)
    assert elapsed < 30


def test_wrong_pulse_count_is_a_failed_op(monkeypatch) -> None:
    import repro.simulator.fleet as fleet

    real = fleet.run_terminating_fleet

    def off_by_one(*args, **kwargs):
        result = real(*args, **kwargs)
        result.total_pulses[0] += 1
        return result

    workload = workloads.WORKLOADS["fleet_sweep"]
    workload.setup()
    monkeypatch.setattr(fleet, "run_terminating_fleet", off_by_one)
    ops = run.run_ops(workload, 0, seconds=0.0, min_ops=2)
    assert ops.failed == 2
    assert ops.instances == [0, 0]
