"""Command-line interface: the paper's results from a shell.

Usage (after ``pip install -e .``)::

    python -m repro elect --ids 3,7,5,2
    python -m repro elect --setting nonoriented --ids 12,31,7 --flips 1,0,1
    python -m repro elect --setting anonymous --n 12 --c 2 --seed 42
    python -m repro compute --ids 14,3,27 --inputs 18,22,19 --op sum
    python -m repro verify --ids 1,2,3
    python -m repro solitude --max-id 16
    python -m repro compare --n 16 --spread 256
    python -m repro timeline --ids 2,3
    python -m repro sweep --workload placements --n 64 --trials 1000 --fleet
    python -m repro sweep --workload whp --n 16 --trials 5000 --min-rate 0.9

Every subcommand prints a plain-text report and exits 0 on success,
1 when a guarantee failed to hold (useful in CI).
"""

from __future__ import annotations

import argparse
import shlex
import sys
from typing import List, Optional, Sequence

from repro.accel import BACKEND_CHOICES
from repro.simulator.scheduler import Scheduler, all_standard_schedulers


def _parse_int_list(text: str) -> List[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints, got {text!r}")


def _parse_bool_list(text: str) -> List[bool]:
    return [bool(value) for value in _parse_int_list(text)]


def _parse_topology(spec: str):
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
    values = _parse_int_list(params) if params and name != "edges" else []
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
                raise SystemExit(
                    f"--topology edges expects A-B,C-D,... pairs, got {params!r}"
                )
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


def _scheduler(name: Optional[str]) -> Optional[Scheduler]:
    if name is None:
        return None
    registry = all_standard_schedulers()
    if name not in registry:
        raise SystemExit(
            f"unknown scheduler {name!r}; choose from {sorted(registry)}"
        )
    return registry[name]


def _cmd_elect_topology(args: argparse.Namespace) -> int:
    from repro.core.ear_election import elect_leader_ear
    from repro.core.kernels.ear import build_routing
    from repro.exceptions import BridgeWitnessError

    graph = _parse_topology(args.topology)
    ids = args.ids if args.ids is not None else list(range(1, graph.n + 1))
    try:
        report = elect_leader_ear(graph, ids, scheduler=_scheduler(args.scheduler))
    except BridgeWitnessError as refusal:
        print(f"setting      : ear (2-edge-connected election)")
        print(f"topology     : {args.topology} (n={graph.n}, "
              f"{len(graph.edges)} edges)")
        print(f"REFUSED      : {refusal}")
        if refusal.bridge is not None:
            print(f"witness      : bridge edge {refusal.bridge}")
        return 1
    routing = build_routing(graph)
    print(f"setting      : ear (2-edge-connected election)")
    print(f"topology     : {args.topology} (n={graph.n}, "
          f"{len(graph.edges)} edges)")
    print(f"virtual ring : L={routing.length} stride C={routing.stride}")
    print(f"leader       : {report.leader}")
    print(f"states       : {[state.value for state in report.states]}")
    print(f"pulses       : {report.total_pulses}")
    exact = (
        "exact match" if report.total_pulses == report.claimed_bound
        else "MISMATCH"
    )
    print(f"bound L*IDmax*C : {report.claimed_bound}  ({exact})")
    return 0 if report.succeeded else 1


def _cmd_elect(args: argparse.Namespace) -> int:
    from repro.core.election import (
        elect_leader_anonymous,
        elect_leader_nonoriented,
        elect_leader_oriented,
    )

    if args.topology is not None:
        return _cmd_elect_topology(args)
    if args.setting == "oriented":
        report = elect_leader_oriented(args.ids, scheduler=_scheduler(args.scheduler))
    elif args.setting == "nonoriented":
        report = elect_leader_nonoriented(
            args.ids, flips=args.flips, scheduler=_scheduler(args.scheduler)
        )
    else:
        report = elect_leader_anonymous(
            args.n, c=args.c, seed=args.seed, scheduler=_scheduler(args.scheduler)
        )
    print(f"setting      : {report.setting}")
    print(f"ring size    : {report.n}")
    print(f"leader       : {report.leader}")
    print(f"states       : {[state.value for state in report.states]}")
    print(f"pulses       : {report.total_pulses}")
    if report.claimed_bound is not None:
        exact = "exact match" if report.total_pulses == report.claimed_bound else "MISMATCH"
        print(f"paper bound  : {report.claimed_bound}  ({exact})")
    print(f"terminated   : {report.terminated}")
    if report.cw_ports is not None:
        print(f"cw ports     : {report.cw_ports}")
    return 0 if report.succeeded else 1


def _cmd_compute(args: argparse.Namespace) -> int:
    if args.ids is not None:
        from repro.core.composition import run_composed
        from repro.defective.simulation import AllReduceProgram, GatherProgram, SizeProgram

        programs = {
            "sum": lambda: AllReduceProgram(lambda a, b: a + b),
            "max": lambda: AllReduceProgram(max),
            "min": lambda: AllReduceProgram(min),
            "size": SizeProgram,
            "gather": GatherProgram,
        }
        if args.op not in programs:
            raise SystemExit(f"unknown op {args.op!r}; choose from {sorted(programs)}")
        outcome = run_composed(args.ids, args.inputs, programs[args.op]())
        print(f"leader (elected): node {outcome.leader}")
        print(f"outputs         : {outcome.outputs}")
        print(f"pulses          : {outcome.total_pulses}")
        print(f"quiescent term  : {outcome.run.quiescently_terminated}")
        return 0 if outcome.run.quiescently_terminated else 1
    from repro.defective.simulation import run_defective_computation

    try:
        outcome = run_defective_computation(args.inputs, args.op, leader=args.leader)
    except ValueError as error:
        raise SystemExit(str(error)) from None
    print(f"leader (given): node {args.leader}")
    print(f"outputs       : {outcome.outputs}")
    print(f"pulses        : {outcome.total_pulses}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.core.composition import run_simulated_composed
    from repro.defective.ring_algorithms import (
        SimBroadcast,
        SimChangRoberts,
        SimConvergecastSum,
    )

    ids = args.ids
    if args.algorithm == "chang_roberts":
        sims = [SimChangRoberts(node_id) for node_id in ids]
    elif args.algorithm == "broadcast":
        sims = [SimBroadcast() for _ in ids]
        # The phase-1 winner is the max-ID node; it carries the value.
        sims[max(range(len(ids)), key=lambda i: ids[i])] = SimBroadcast(args.value)
    elif args.algorithm == "sum":
        inputs = args.inputs if args.inputs is not None else list(ids)
        if len(inputs) != len(ids):
            raise SystemExit("--inputs must match --ids in length")
        sims = [SimConvergecastSum(value) for value in inputs]
    else:  # pragma: no cover - argparse restricts choices
        raise SystemExit(f"unknown algorithm {args.algorithm!r}")
    outcome = run_simulated_composed(ids, sims)
    print(f"phase-1 leader : node {outcome.leader}")
    print(f"sim outputs    : {outcome.outputs}")
    print(f"total pulses   : {outcome.total_pulses}")
    print(f"quiescent term : {outcome.run.quiescently_terminated}")
    return 0 if outcome.run.quiescently_terminated else 1


def _expected_pulse_bound(algorithm: str, ids: List[int]) -> "tuple[str, int]":
    """The paper's exact message count for one instance of ``algorithm``."""
    n, id_max = len(ids), max(ids)
    if algorithm == "warmup":
        return ("n*IDmax (Cor 13)", n * id_max)
    if algorithm == "terminating":
        return ("n(2*IDmax+1) (Thm 1)", n * (2 * id_max + 1))
    return ("n(2*IDmax+1) (Thm 2)", n * (2 * id_max + 1))


def _fault_model_from_args(args: argparse.Namespace):
    """Compile the declarative ``--inject-*`` flags into a FaultModel.

    Returns None when no fault clause was requested (fault-free run).
    """
    from repro.exceptions import ConfigurationError
    from repro.faults.model import (
        FaultBurst,
        FaultModel,
        NodeCrash,
        StateCorruption,
    )

    burst = None
    if args.inject_burst is not None:
        if len(args.inject_burst) != 2:
            raise SystemExit("--inject-burst takes START,LENGTH")
        start, length = args.inject_burst
        burst = FaultBurst(start=start, length=length)
    crashes = []
    for spec in args.inject_crash or []:
        parts = _parse_int_list(spec)
        if len(parts) == 2:
            crashes.append(NodeCrash(node=parts[0], at_round=parts[1]))
        elif len(parts) == 3:
            crashes.append(
                NodeCrash(
                    node=parts[0], at_round=parts[1], restart_after=parts[2]
                )
            )
        else:
            raise SystemExit("--inject-crash takes NODE,ROUND[,RESTART_AFTER]")
    corruptions = []
    for spec in args.inject_corrupt or []:
        parts = spec.split(",")
        if len(parts) != 4:
            raise SystemExit("--inject-corrupt takes NODE,ROUND,FIELD,VALUE")
        try:
            corruptions.append(
                StateCorruption(
                    node=int(parts[0]),
                    at_round=int(parts[1]),
                    field=parts[2],
                    value=int(parts[3]),
                )
            )
        except ValueError:
            raise SystemExit(
                "--inject-corrupt NODE, ROUND and VALUE must be integers"
            ) from None
    try:
        model = FaultModel(
            drop_rate=args.inject_drop_rate,
            duplicate_rate=args.inject_duplicate_rate,
            spurious_rate=args.inject_spurious_rate,
            seed=args.inject_seed,
            burst=burst,
            crashes=tuple(crashes),
            corruptions=tuple(corruptions),
        )
    except ConfigurationError as error:
        raise SystemExit(str(error)) from None
    return None if model.is_noop else model


def _reject_ignored_flags(
    args: argparse.Namespace, mode: str, flags: Sequence[str]
) -> None:
    given = [f"--{flag.replace('_', '-')}" for flag in flags if getattr(args, flag)]
    if given:
        raise SystemExit(
            f"verify --statistical {mode} ignores {', '.join(given)}; drop them"
        )


def _ring_only_flags(args: argparse.Namespace) -> List[str]:
    """The fault and recovery flags, which only the ring checks read."""
    return [
        dest
        for dest in vars(args)
        if dest.startswith("inject_") or dest in ("recovery", "watchdog")
    ]


def _row(label: str, value: object) -> str:
    return f"{label:<21}: {value}"


def _rate(report) -> str:
    """The pass rate with its Clopper-Pearson interval."""
    return (
        f"{report.pass_rate:.6f} ({report.confidence * 100:g}% CP interval "
        f"[{report.rate_low:.6f}, {report.rate_high:.6f}])"
    )


def _sampled_rows(report) -> List[str]:
    check = report.check
    return [
        _row("id max", check.id_max),
        _row("samples", report.samples),
        _row("backend / scheduler", f"{check.backend} / {check.scheduler}"),
        _row("seeds (ids, sched)", f"{check.seed}, {check.sched_seed}"),
    ]


def _replay_command(argv: Sequence[str], samples: int) -> str:
    """``argv`` rerun with ``--samples samples``: the sampled prefix that
    ends at one counterexample."""
    kept: List[str] = []
    rest = iter(argv)
    for arg in rest:
        if arg == "--samples":
            next(rest, None)
        elif not arg.startswith("--samples="):
            kept.append(arg)
    return shlex.join(["repro", *kept, "--samples", str(samples)])


def _run_check_or_exit(args: argparse.Namespace, check_type, **fields):
    """Build the check and run it over ``--samples``: bad input exits, a
    refused topology prints its witness and returns None."""
    from repro.exceptions import BridgeWitnessError, ConfigurationError
    from repro.verification.statistical import run_check

    try:
        return run_check(
            check_type(**fields),
            args.samples,
            args.confidence,
            args.block_size,
            processes=args.processes,
        )
    except BridgeWitnessError as refusal:
        print(_row("REFUSED", refusal))
        if refusal.bridge is not None:
            print(_row("witness", f"bridge edge {refusal.bridge}"))
        return None
    except ConfigurationError as error:
        raise SystemExit(str(error)) from None


def _print_check_report(report, rows, counterexample_lines, passed: str) -> int:
    """The one ``verify --statistical`` renderer: the mode's rows, each
    counterexample with its replay, then the check's verdict."""
    for row in rows:
        print(row)
    all_reproduce = True
    for ce in report.counterexamples:
        for line in counterexample_lines(ce):
            print(line)
        reproduced = ce.replay() is not None
        print(_row("  replay reproduces", "yes" if reproduced else "NO"))
        all_reproduce = all_reproduce and reproduced
    ok = report.holds and all_reproduce
    print(passed if ok else "FAILED")
    return 0 if ok else 1


def _verify_ring(args: argparse.Namespace) -> int:
    """Algorithm 2/3 sampled checks: the invariant battery, or with
    ``--recovery`` the stable-end-state classification."""
    from dataclasses import replace

    from repro.faults.model import PulseDrop
    from repro.verification.statistical import RecoveryCheck, RingCheck

    if args.recovery:
        _reject_ignored_flags(args, "--recovery", ["inject_drop"])
    fault = _fault_model_from_args(args)
    if args.inject_drop is not None:
        if len(args.inject_drop) != 3:
            raise SystemExit("--inject-drop takes ROUND,NODE,INSTANCE")
        round_index, node, instance = args.inject_drop
        drop = PulseDrop(round_index, node, direction="cw", instance=instance)
        fault = drop if fault is None else replace(fault, drops=fault.drops + (drop,))
    report = _run_check_or_exit(
        args,
        RecoveryCheck if args.recovery else RingCheck,
        algorithm=args.algorithm,
        n=args.n,
        id_max=args.id_max,
        seed=args.seed,
        sched_seed=args.sched_seed,
        scheduler=args.scheduler,
        backend=args.backend,
        fault=fault,
        watchdog_rounds=args.watchdog,
    )
    check = report.check
    mode = (
        "recovery (faulted runs, stable end state)"
        if args.recovery
        else "statistical (sampled instances)"
    )
    rows = [
        _row("algorithm", check.algorithm),
        _row("mode", mode),
        _row("ring size n", check.n),
        *_sampled_rows(report),
    ]
    if args.recovery:
        rows.append(_row("fault model", check.fault))
        if report.fault_events:
            applied = {k: v for k, v in report.fault_events.items() if v}
            rows.append(_row("fault events applied", applied or "none"))
        counts = " ".join(f"{name}={n}" for name, n in report.counts.items())
        rows.append(_row("classification", counts))
        rows.append(_row("recovery rate", _rate(report)))

        def recovery_lines(ce) -> List[str]:
            ids, flips = check.sample(ce.instance)
            flips = f", flips {flips}" if flips is not None else ""
            lines = [_row("counterexample", f"[{ce.classification}] {ce.message}")]
            if ce.first_invariant is not None:
                lines.append(_row("  first invariant", ce.first_invariant))
            seeds = f"seed {check.seed}, sched-seed {check.sched_seed}"
            replay = f"instance {ce.instance}, ids {ids}{flips}, {seeds}"
            return lines + [_row("  replay", replay)]

        return _print_check_report(
            report,
            rows,
            recovery_lines,
            "CLASSIFIED (every faulted run; counterexamples replayable)",
        )
    if isinstance(fault, PulseDrop):
        fault = (
            f"drop 1 {fault.direction} pulse at round {fault.round_index} "
            f"toward node {fault.node} in instance {fault.instance}"
        )
    if fault is not None:
        rows.append(_row("injected fault", fault))
    rows.append(_row("invariant violations", report.violations))
    rows.append(_row("pass rate", _rate(report)))
    return _print_check_report(
        report,
        rows,
        lambda ce: [
            _row("counterexample", ce.message),
            _row("  replay", _replay_command(args.argv, ce.instance + 1)),
        ],
        "PASSED (sampled schedules)",
    )


def _verify_topology(args: argparse.Namespace) -> int:
    """The ear election's sampled contract on one 2-edge-connected graph."""
    from repro.verification.statistical import TopologyCheck

    _reject_ignored_flags(args, "--topology", _ring_only_flags(args))
    graph = _parse_topology(args.topology)
    print(_row("mode", "statistical topology battery (ear election)"))
    print(_row("topology", f"{args.topology} (n={graph.n}, {len(graph.edges)} edges)"))
    report = _run_check_or_exit(
        args,
        TopologyCheck,
        graph=graph,
        id_max=args.id_max,
        seed=args.seed,
        sched_seed=args.sched_seed,
        scheduler=args.scheduler,
        backend=args.backend,
    )
    if report is None:
        return 1
    routing = report.check.routing
    rows = [
        _row("virtual ring", f"L={routing.length} stride C={routing.stride}"),
        *_sampled_rows(report),
        _row("contract violations", report.violations),
        _row("pass rate", _rate(report)),
    ]
    return _print_check_report(
        report,
        rows,
        lambda ce: [_row("counterexample", f"instance {ce.instance}: {ce.message}")],
        "PASSED (sampled topology battery)",
    )


def _verify_anonymous(args: argparse.Namespace) -> int:
    """The Lemma 18 w.h.p. predicate over the anonymous pipeline."""
    from repro.verification.statistical import WhpCheck

    _reject_ignored_flags(args, "--algorithm anonymous", _ring_only_flags(args))
    report = _run_check_or_exit(
        args, WhpCheck, n=args.n, c=args.c, seed=args.seed, backend=args.backend
    )
    check = report.check
    last_seed = check.seed + report.samples - 1
    holds = report.holds
    rows = [
        _row("algorithm", "anonymous (Algorithm 4 -> Algorithm 3)"),
        _row("mode", "Lemma 18 w.h.p. predicate"),
        _row("ring size n", check.n),
        _row("sampler exponent c", check.c),
        _row("attempts", f"{report.samples} (seeds {check.seed}..{last_seed})"),
        _row("backend", check.backend),
        _row("success rate", f"{report.passes}/{report.samples} = {_rate(report)}"),
        _row("lemma 18 target", f"1 - n^-c = {check.target:.6f}"),
        _row(
            "one-sided test",
            f"CP upper bound {report.rate_high:.6f} {'>=' if holds else '<'} "
            f"target (holds: {'yes' if holds else 'NO'})",
        ),
    ]
    return _print_check_report(
        report,
        rows,
        lambda ce: [
            _row("counterexample", ce.message),
            _row(
                "  replay",
                f"repro verify --statistical --algorithm anonymous --n {check.n} "
                f"--c {check.c} --samples 1 --seed {check.sample(ce.instance)} "
                f"--backend {check.backend}",
            ),
        ],
        "PASSED (Lemma 18 w.h.p. predicate)",
    )


def _cmd_verify_statistical(args: argparse.Namespace) -> int:
    if args.topology is not None:
        return _verify_topology(args)
    if args.algorithm == "anonymous":
        return _verify_anonymous(args)
    return _verify_ring(args)


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.statistical:
        return _cmd_verify_statistical(args)
    if args.algorithm == "anonymous":
        raise SystemExit(
            "verify: --algorithm anonymous is the sampled Lemma 18 "
            "predicate; it requires --statistical"
        )
    if args.ids is None and args.topology is None:
        raise SystemExit(
            "verify: --ids is required unless --statistical or --topology"
        )

    from repro.core.invariants import InvariantViolation, hooks_for
    from repro.core.nonoriented import NonOrientedNode
    from repro.core.terminating import TerminatingNode
    from repro.core.warmup import WarmupNode
    from repro.faults.channel import apply_fault_model
    from repro.faults.model import FaultModel
    from repro.simulator.ring import build_nonoriented_ring, build_oriented_ring
    from repro.verification import (
        ExplorationLimitExceeded,
        explore_all_schedules,
        explore_reduced,
    )

    graph = None
    ear_routing = None
    if args.topology is not None:
        from repro.core.kernels.ear import build_routing
        from repro.exceptions import BridgeWitnessError
        from repro.graphs.connectivity import require_two_edge_connected

        graph = _parse_topology(args.topology)
        try:
            require_two_edge_connected(graph)
        except BridgeWitnessError as refusal:
            print(f"topology             : {args.topology} (n={graph.n}, "
                  f"{len(graph.edges)} edges)")
            print(f"REFUSED              : {refusal}")
            if refusal.bridge is not None:
                print(f"witness              : bridge edge {refusal.bridge}")
            return 1
        ear_routing = build_routing(graph)
        if args.ids is None:
            args.ids = list(range(1, graph.n + 1))
        if len(args.ids) != graph.n:
            raise SystemExit(
                f"--topology {args.topology} has {graph.n} vertices but "
                f"--ids lists {len(args.ids)}"
            )

    ids = args.ids
    fault_model = None
    if args.fault_drop or args.fault_duplicate:
        fault_model = FaultModel(
            drop_rate=args.fault_drop,
            duplicate_rate=args.fault_duplicate,
            seed=args.fault_seed,
        )
    elif args.fault_seed:
        # An all-zero plan is a valid no-op value at the library level;
        # requesting one at the CLI is almost certainly a typo, so warn
        # (but proceed fault-free) rather than reject.
        print(
            "warning: fault seed given but all fault rates are zero — "
            "running fault-free (no-op fault plan)"
        )

    def factory():
        if graph is not None:
            from repro.core.ear_election import EarElectionNode
            from repro.core.kernels.ear import virtual_ids

            vids = virtual_ids(ids, ear_routing)
            nodes = []
            for vertex in range(graph.n):
                out_ports, in_route = ear_routing.node_tables(vertex)
                node_vids = tuple(
                    vids[p] for p in ear_routing.occurrences[vertex]
                )
                nodes.append(EarElectionNode(node_vids, out_ports, in_route))
            network = ear_routing.topology.wire(nodes)
        elif args.algorithm == "nonoriented":
            flips = args.flips if args.flips is not None else [False] * len(ids)
            if len(flips) != len(ids):
                raise SystemExit("--flips must match --ids in length")
            network = build_nonoriented_ring(
                [NonOrientedNode(i) for i in ids], flips=flips
            ).network
        else:
            cls = {"warmup": WarmupNode, "terminating": TerminatingNode}[
                args.algorithm
            ]
            network = build_oriented_ring([cls(i) for i in ids]).network
        if fault_model is not None:
            apply_fault_model(network, fault_model)
        return network

    if graph is not None and args.invariants:
        print(
            "note: the positional invariant hooks are ring-lemma forms; "
            "--topology runs check the contract via terminal states only"
        )
    hooks = (
        hooks_for(args.algorithm) if args.invariants and graph is None else ()
    )
    if graph is not None:
        print(f"algorithm            : ear (2-edge-connected election)")
        print(f"topology             : {args.topology} (n={graph.n}, "
              f"{len(graph.edges)} edges; virtual ring "
              f"L={ear_routing.length}, stride C={ear_routing.stride})")
    else:
        print(f"algorithm            : {args.algorithm}")
    print(f"ids                  : {ids}")
    if fault_model is not None:
        print(
            f"faults               : drop={fault_model.drop_rate} "
            f"duplicate={fault_model.duplicate_rate} seed={fault_model.seed}"
        )
    if hooks:
        print(f"invariant hooks      : {[hook.__name__ for hook in hooks]}")

    reduction = args.reduction
    if graph is not None and reduction in ("symmetry", "full"):
        # The ring-symmetry layer validates the ring builder convention
        # (it would raise ConfigurationError on these networks): general
        # topologies use the sorted-adjacency convention and need their
        # own automorphism groups.  Downgrade to the strongest sound mode.
        downgraded = "sleep" if reduction == "full" else "ample"
        print(
            f"note: --reduction {reduction} assumes the ring builder "
            f"convention; downgrading to '{downgraded}' off-ring"
        )
        reduction = downgraded
    if fault_model is not None and reduction in ("symmetry", "full"):
        # Per-channel fault profiles break the ring automorphisms, so the
        # symmetry layer would be unsound; drop to the strongest sound mode.
        downgraded = "sleep" if reduction == "full" else "ample"
        print(
            f"note: --reduction {reduction} is unsound under faults; "
            f"downgrading to '{downgraded}'"
        )
        reduction = downgraded
    reduce_first = reduction != "none"
    include_duals = args.algorithm == "nonoriented" and graph is None
    spill_threshold = (
        args.spill_threshold_mb * 2**20 if args.spill_threshold_mb else None
    )
    try:
        if reduce_first:
            result = explore_reduced(
                factory,
                max_states=args.max_states,
                invariant_hooks=hooks,
                reduction=reduction,
                include_duals=include_duals,
                spill_threshold=spill_threshold,
            )
        else:
            result = explore_all_schedules(
                factory, max_states=args.max_states, invariant_hooks=hooks
            )
    except InvariantViolation as violation:
        print(f"INVARIANT VIOLATION  : {violation}")
        return 1
    except ExplorationLimitExceeded as limit:
        print(f"BUDGET EXCEEDED      : {limit}")
        return 1

    if reduce_first:
        layer_names = {
            "ample": "ample sets + counting states",
            "sleep": "ample + sleep sets",
            "symmetry": "ample + ring-symmetry canonicalization",
            "full": "ample + sleep sets + ring-symmetry canonicalization",
        }
        mode = f"reduced ({layer_names[reduction]})"
    else:
        mode = "unreduced"
    print(f"exploration          : {mode}")
    print(f"states explored      : {result.states_explored}")
    print(f"transitions examined : {result.transitions}")
    if reduce_first:
        print(
            f"branch reduction     : {result.branch_reduction:.2f}x "
            f"(ample at {result.ample_states} states, full expansion at "
            f"{result.full_expansion_states})"
        )
        if reduction in ("sleep", "full"):
            print(f"sleep-set skips      : {result.sleep_skipped}")
        if reduction in ("symmetry", "full"):
            dual_note = " incl. orientation-duals" if result.include_duals else ""
            print(
                f"orbit factor         : {result.orbit_factor}x "
                f"({result.instances_certified} instances certified per "
                f"run{dual_note})"
            )
            print(f"invariant spot checks: {result.spot_checks}")
        spill_note = " (spilled to disk)" if result.spilled else ""
        print(
            f"peak visited bytes   : {result.visited_bytes}{spill_note}"
        )
    print(f"terminal states      : {len(result.terminal_node_fingerprints)}")
    print(f"confluent            : {result.confluent}")
    print(f"quiescence violations: {result.quiescence_violations}")
    print(f"max pulses in flight : {result.max_in_flight}")

    ok = result.confluent and result.quiescence_violations == 0

    if fault_model is None:
        if graph is not None:
            from repro.core.kernels.ear import pulse_bound

            label, expected = ("L*IDmax*C (virtual Cor 13)",
                               pulse_bound(ids, ear_routing))
        else:
            label, expected = _expected_pulse_bound(args.algorithm, ids)
        certified = bool(result.terminal_total_sent) and all(
            sent == expected for sent in result.terminal_total_sent
        )
        verdict = "CERTIFIED (all schedules)" if certified else "MISMATCH"
        print(f"message bound        : {label} = {expected}  {verdict}")
        ok = ok and certified
    else:
        print("message bound        : n/a (faults change the pulse count)")

    if args.compare_unreduced and reduce_first:
        try:
            reference = explore_all_schedules(factory, max_states=args.max_states)
        except ExplorationLimitExceeded as limit:
            print(f"unreduced reference  : BUDGET EXCEEDED ({limit})")
            print(
                "state reduction      : >= "
                f"{result.state_reduction_vs(args.max_states):.1f}x "
                "(reference search did not finish; orbit-adjusted)"
            )
        else:
            # With symmetry, terminal representatives are a subset of the
            # unreduced terminals (one per orbit — equal when IDs are
            # unique); without it the sets must match exactly.
            reduced_terminals = set(result.terminal_node_fingerprints)
            reference_terminals = set(reference.terminal_node_fingerprints)
            if reduction in ("symmetry", "full"):
                agree = reduced_terminals <= reference_terminals
            else:
                agree = reduced_terminals == reference_terminals
            agree = agree and reference.confluent == result.confluent
            print(f"unreduced reference  : {reference.states_explored} states")
            print(
                "state reduction      : "
                f"{result.state_reduction_vs(reference.states_explored):.1f}x"
                " (orbit-adjusted)"
            )
            print(f"terminal agreement   : {agree}")
            ok = ok and agree

    print("VERIFIED (all schedules)" if ok else "FAILED")
    return 0 if ok else 1


def _cmd_solitude(args: argparse.Namespace) -> int:
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


def _cmd_compare(args: argparse.Namespace) -> int:
    import random

    from repro.baselines import ALL_BASELINES, run_baseline
    from repro.core.lower_bound import lower_bound_pulses
    from repro.core.terminating import run_terminating

    rng = random.Random(args.seed)
    spread = max(args.spread, args.n)
    ids = rng.sample(range(1, spread + 1), args.n)
    print(f"ring: n={args.n}, IDmax={max(ids)} (spread {spread}, seed {args.seed})")
    print(f"{'algorithm':>22}  messages")
    oblivious = run_terminating(ids).total_pulses
    print(f"{'content-oblivious':>22}  {oblivious}")
    print(f"{'(theorem 4 floor)':>22}  {lower_bound_pulses(args.n, max(ids))}")
    for name, cls in sorted(ALL_BASELINES.items()):
        print(f"{name:>22}  {run_baseline(cls, ids).total_messages}")
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    from repro.core.terminating import TerminatingNode
    from repro.simulator.engine import Engine
    from repro.simulator.ring import build_oriented_ring
    from repro.simulator.timeline import render_space_time, summarize_counters

    nodes = [TerminatingNode(node_id) for node_id in args.ids]
    topology = build_oriented_ring(nodes)
    result = Engine(topology.network, record_events=True).run()
    labels = [f"id{node_id}" for node_id in args.ids]
    print(render_space_time(result, len(args.ids), labels=labels, max_rows=args.rows))
    print()
    print(summarize_counters(result, len(args.ids)))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.analysis.average_case import measure_oblivious_over_placements
    from repro.analysis.whp import measure_anonymous_success
    from repro.exceptions import ConfigurationError

    engine = "fleet" if args.fleet else ("batched" if args.workload == "placements" else "scalar")
    print(
        f"sweep: workload={args.workload} n={args.n} trials={args.trials} "
        f"seed={args.seed} engine={engine} backend={args.backend}"
    )
    if args.workload == "placements":
        try:
            stats = measure_oblivious_over_placements(
                args.n,
                args.trials,
                seed=args.seed,
                processes=args.processes,
                batched=not args.fleet,
                fleet=args.fleet,
                backend=args.backend,
                farm_root=args.farm,
            )
        except ConfigurationError as error:
            raise SystemExit(str(error)) from None
        print(
            f"algorithm 2 pulses over {stats.trials} random placements of "
            f"1..{args.n}: mean={stats.mean:.1f} min={stats.minimum} "
            f"max={stats.maximum} spread={stats.spread}"
        )
        expected = args.n * (2 * args.n + 1)
        print(f"theorem 1 bound n(2*IDmax+1) = {expected}")
        if stats.spread != 0 or stats.minimum != expected:
            print("FAIL: placement variance detected (theorem 1 violated)")
            return 1
        print("OK: zero placement variance, every trial met the bound exactly")
        return 0
    try:
        estimate = measure_anonymous_success(
            args.n,
            args.trials,
            c=args.c,
            seed=args.seed,
            processes=args.processes,
            fleet=args.fleet,
            backend=args.backend,
            farm_root=args.farm,
        )
    except ConfigurationError as error:
        raise SystemExit(str(error)) from None
    print(
        f"theorem 3 success rate at n={args.n}, c={args.c}: "
        f"{estimate.successes}/{estimate.trials} = {estimate.rate:.4f} "
        f"(wilson 99% [{estimate.low:.4f}, {estimate.high:.4f}])"
    )
    floor = args.min_rate
    if args.lemma18:
        from repro.analysis.whp import whp_target

        target = whp_target(args.n, args.c)
        print(f"lemma 18 target      : 1 - n^-c = {target:.6f}")
        floor = target if floor is None else max(floor, target)
    if floor is not None and not estimate.consistent_with_at_least(floor):
        print(f"FAIL: interval excludes the required floor {floor}")
        return 1
    print("OK")
    return 0


def _parse_float_list(text: str) -> List[float]:
    try:
        return [float(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated floats, got {text!r}"
        )


def _cmd_faults_sweep(args: argparse.Namespace) -> int:
    from repro.analysis.degradation import measure_degradation
    from repro.exceptions import ConfigurationError

    try:
        curve = measure_degradation(
            args.rates,
            kind=args.kind,
            algorithm=args.algorithm,
            n=args.n,
            id_max=args.id_max,
            samples=args.samples,
            seed=args.seed,
            sched_seed=args.sched_seed,
            scheduler=args.scheduler,
            backend=args.backend,
            block_size=args.block_size,
            confidence=args.confidence,
            fault_seed=args.fault_seed,
            processes=args.processes,
            farm_root=args.farm,
        )
    except ConfigurationError as error:
        raise SystemExit(str(error)) from None

    print(
        f"degradation sweep: algorithm={curve.algorithm} kind={curve.kind} "
        f"n={curve.n} id_max={curve.id_max} samples/point={args.samples} "
        f"backend={curve.backend}"
    )
    print(
        f"{'rate':>8}  {'success':>8}  "
        f"{int(curve.confidence * 100)}% CP interval      r/w/s"
    )
    for point in curve.points:
        print(
            f"{point.rate:>8.4f}  {point.success_rate:>8.4f}  "
            f"[{point.low:.4f}, {point.high:.4f}]  "
            f"{point.recovered}/{point.wrong_stable}/{point.stuck}"
        )
    ok = True
    if not curve.clean_at_zero:
        print("FAIL: fault-free point (rate 0) did not succeed with rate 1.0")
        ok = False
    if not curve.monotone_within_bands():
        print(
            "FAIL: success rate is not monotonically degrading within the "
            "confidence bands"
        )
        ok = False
    if args.json is not None:
        import json

        with open(args.json, "w") as handle:
            json.dump(curve.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"curve written        : {args.json}")
    print("OK (graceful degradation)" if ok else "FAILED")
    return 0 if ok else 1


def _parse_restart_list(text: str) -> List[Optional[int]]:
    """Comma list of restart delays; ``none`` means a permanent crash."""
    out: List[Optional[int]] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if part.lower() == "none":
            out.append(None)
        else:
            try:
                out.append(int(part))
            except ValueError:
                raise argparse.ArgumentTypeError(
                    f"expected comma-separated ints or 'none', got {text!r}"
                ) from None
    return out


def _cmd_faults_search(args: argparse.Namespace) -> int:
    from repro.adversary import (
        EvalSettings,
        PlanSpace,
        artifact_dict,
        random_baseline,
        save_artifact,
        search_worst_plan,
    )
    from repro.exceptions import ConfigurationError
    from repro.farm.keys import canonical_json

    try:
        space = PlanSpace(
            n=args.n,
            budget=args.budget,
            rounds=tuple(args.rounds),
            thresholds=tuple(args.thresholds),
            offsets=tuple(args.offsets),
            restarts=tuple(args.restarts),
            drop_rates=tuple(args.drop_rates),
            max_drops=args.max_drops,
            max_burst=args.max_burst,
            fault_seed=args.fault_seed,
        )
        settings = EvalSettings(
            algorithm=args.algorithm,
            n=args.n,
            id_max=args.id_max,
            samples=args.samples,
            seed=args.seed,
            sched_seed=args.sched_seed,
            scheduler=args.scheduler,
            backend=args.backend,
            block_size=args.block_size,
            confidence=args.confidence,
            watchdog_rounds=args.watchdog,
        )
        result = search_worst_plan(
            space,
            settings,
            strategy=args.strategy,
            iterations=args.iterations,
            population=args.population,
            elite_frac=args.elite_frac,
            epsilon=args.epsilon,
            search_seed=args.search_seed,
            farm_root=args.farm,
        )
    except ConfigurationError as error:
        raise SystemExit(str(error)) from None
    best = result.best
    print(
        f"adversary search     : strategy={result.strategy} "
        f"budget={result.budget} iterations={result.iterations} "
        f"evaluations={result.evaluations} seed={result.search_seed}"
    )
    print(
        f"evaluation point     : algorithm={settings.algorithm} "
        f"n={settings.n} id_max={settings.id_max} "
        f"samples={settings.samples}"
    )
    if args.budget == 0:
        print(
            "budget 0             : only the trivial (no-op) plan is "
            "admissible — nothing to search"
        )
    print(f"worst plan           : {canonical_json(best.plan.to_canonical())}")
    print(f"  cost               : {best.plan.cost} of budget {args.budget}")
    print(
        f"  recovery           : {best.recovered}/{best.samples} = "
        f"{best.success_rate:.4f} ({int(settings.confidence * 100)}% CP "
        f"[{best.rate_low:.4f}, {best.rate_high:.4f}])"
    )
    baseline = None
    baseline_count = 0
    if args.baseline is not None or args.require_beats_baseline:
        spec = args.baseline if args.baseline is not None else "equal"
        if spec == "equal":
            baseline_count = result.evaluations
        else:
            try:
                baseline_count = int(spec)
            except ValueError:
                raise SystemExit(
                    f"--baseline takes an int or 'equal', got {spec!r}"
                ) from None
        try:
            baseline = random_baseline(
                space,
                settings,
                count=baseline_count,
                search_seed=args.baseline_seed,
                farm_root=args.farm,
            )
        except ConfigurationError as error:
            raise SystemExit(str(error)) from None
        print(
            f"random baseline      : best of {baseline_count} plans "
            f"(seed {args.baseline_seed}): {baseline.recovered}/"
            f"{baseline.samples} CP high {baseline.rate_high:.4f}"
        )
    payload = artifact_dict(
        result, settings, baseline=baseline, baseline_count=baseline_count
    )
    if args.out is not None:
        path = save_artifact(args.out, payload)
        print(f"artifact written     : {path}")
    if args.require_beats_baseline:
        assert baseline is not None
        if not best.rate_high < baseline.rate_high:
            print(
                f"FAIL: search CP upper bound {best.rate_high:.4f} does not "
                f"strictly beat the equal-budget random baseline "
                f"{baseline.rate_high:.4f}"
            )
            return 1
        print(
            f"search beats baseline: {best.rate_high:.4f} < "
            f"{baseline.rate_high:.4f} (strict, CP upper bounds)"
        )
    print("OK")
    return 0


def _cmd_faults_replay(args: argparse.Namespace) -> int:
    from repro.adversary import load_artifact, replay_artifact
    from repro.exceptions import ConfigurationError
    from repro.farm.keys import canonical_json

    try:
        payload = load_artifact(args.artifact)
        outcome = replay_artifact(
            payload, backend=args.backend, farm_root=args.farm
        )
    except ConfigurationError as error:
        raise SystemExit(str(error)) from None
    recorded = payload["worst_plan"]
    print(f"artifact             : {args.artifact}")
    print(f"plan                 : {canonical_json(recorded['plan'])}")
    print(
        f"recorded             : {recorded['recovered']}/"
        f"{recorded['samples']} recovered "
        f"(wrong_stable={recorded['wrong_stable']}, "
        f"stuck={recorded['stuck']})"
    )
    ev = outcome.evaluation
    print(
        f"replayed             : {ev.recovered}/{ev.samples} recovered "
        f"(wrong_stable={ev.wrong_stable}, stuck={ev.stuck})"
    )
    if not outcome.matches:
        drift = {
            key: (outcome.expected.get(key), outcome.observed.get(key))
            for key in sorted(set(outcome.expected) | set(outcome.observed))
            if outcome.expected.get(key) != outcome.observed.get(key)
        }
        print(f"FAIL: replay drifted on {drift}")
        return 1
    print("OK: replay bit-identical (classification and fault-event counts)")
    return 0


def _load_plan_spec(path: Optional[str]):
    """A canonical plan dict from a search artifact or a raw plan JSON."""
    import json

    if path is None:
        raise SystemExit(
            "farm submit --workload adversary needs --plan PATH "
            "(a `repro faults search` artifact, or a bare canonical "
            "plan JSON file)"
        )
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        raise SystemExit(f"no plan file at {path}") from None
    except json.JSONDecodeError as error:
        raise SystemExit(f"plan file {path} is not valid JSON: {error}") from None
    if isinstance(payload, dict) and "worst_plan" in payload:
        return payload["worst_plan"]["plan"]
    return payload


def _farm_campaign_from_args(args: argparse.Namespace):
    """Build the Campaign an `repro farm submit` invocation describes."""
    from repro.farm.campaign import (
        Campaign,
        degradation_params,
        placements_params,
        recovery_params,
        whp_params,
    )
    from repro.faults.model import FaultModel

    if args.workload == "recovery":
        params = recovery_params(
            algorithm=args.algorithm,
            n=args.n,
            id_max=args.id_max,
            seed=args.seed,
            sched_seed=args.sched_seed,
            scheduler=args.scheduler,
            faults=FaultModel(
                drop_rate=args.drop_rate,
                duplicate_rate=args.duplicate_rate,
                spurious_rate=args.spurious_rate,
                seed=args.fault_seed,
            ),
        )
    elif args.workload == "degradation":
        params = degradation_params(
            kind=args.kind,
            rates=tuple(args.rates),
            algorithm=args.algorithm,
            n=args.n,
            id_max=args.id_max,
            seed=args.seed,
            sched_seed=args.sched_seed,
            scheduler=args.scheduler,
            fault_seed=args.fault_seed,
        )
    elif args.workload == "adversary":
        from repro.farm.campaign import adversary_params

        params = adversary_params(
            plan=_load_plan_spec(args.plan),
            algorithm=args.algorithm,
            n=args.n,
            id_max=args.id_max,
            seed=args.seed,
            sched_seed=args.sched_seed,
            scheduler=args.scheduler,
        )
    elif args.workload == "whp":
        params = whp_params(n=args.n, c=args.c, seed=args.seed)
    elif args.workload == "ear":
        from repro.farm.campaign import ear_params

        params = ear_params(
            _parse_topology(args.topology or "theta"),
            id_max=args.id_max,
            seed=args.seed,
            sched_seed=args.sched_seed,
            scheduler=args.scheduler,
        )
    else:
        params = placements_params(n=args.n, seed=args.seed)
    return Campaign(
        args.workload,
        total=args.total,
        params=params,
        shard_size=args.shard_size,
    )


def _cmd_farm_submit(args: argparse.Namespace) -> int:
    from repro.exceptions import ConfigurationError
    from repro.farm.service import Farm

    try:
        campaign = _farm_campaign_from_args(args)
        outcome = Farm(args.root).submit(
            campaign,
            backend=args.backend,
            processes=args.processes,
            block_size=args.block_size,
        )
    except ConfigurationError as error:
        raise SystemExit(str(error)) from None
    print(
        f"farm submit: campaign={outcome.cid} workload={args.workload} "
        f"total={args.total} shards={outcome.jobs}"
    )
    print(
        f"cache hits={outcome.hits} computed={outcome.computed} "
        f"failed={len(outcome.failed)} hit_rate={outcome.hit_rate:.4f}"
    )
    for index, _key, message in outcome.failed[:5]:
        print(f"  shard {index} failed: {message}")
    if outcome.failed:
        print("FAIL: some shards failed; submit again to retry them")
        return 1
    if args.min_hit_rate is not None and outcome.hit_rate < args.min_hit_rate:
        print(
            f"FAIL: cache hit rate {outcome.hit_rate:.4f} below the "
            f"required {args.min_hit_rate}"
        )
        return 1
    print("OK: campaign complete" if outcome.complete else "incomplete")
    return 0


def _cmd_farm_status(args: argparse.Namespace) -> int:
    import json

    from repro.exceptions import ConfigurationError
    from repro.farm.service import Farm

    try:
        report = Farm(args.root).status(args.campaign)
    except ConfigurationError as error:
        raise SystemExit(str(error)) from None
    print(json.dumps(report, indent=2, sort_keys=True))
    incomplete = [
        cid
        for cid, summary in report["campaigns"].items()
        if not summary["complete"]
    ]
    return 0 if not incomplete else 1


def _cmd_farm_collect(args: argparse.Namespace) -> int:
    from repro.exceptions import ConfigurationError
    from repro.farm.service import Farm

    try:
        text = Farm(args.root).collect_text(
            args.campaign,
            confidence=args.confidence,
            z=args.z,
            interval=args.interval,
        )
    except ConfigurationError as error:
        raise SystemExit(str(error)) from None
    if args.out is not None:
        with open(args.out, "w") as handle:
            handle.write(text)
    print(text, end="")
    return 0


def _cmd_farm_gc(args: argparse.Namespace) -> int:
    from repro.farm.service import Farm

    counters = Farm(args.root).gc()
    print(
        f"farm gc: orphaned_entries={counters['orphaned_entries']} "
        f"demoted_running={counters['demoted_running']} "
        f"tmp_files={counters['tmp_files']}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Content-Oblivious Leader Election on Rings — reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    elect = sub.add_parser("elect", help="run a leader election")
    elect.add_argument("--setting", choices=["oriented", "nonoriented", "anonymous"],
                       default="oriented")
    elect.add_argument("--ids", type=_parse_int_list, default=None,
                       help="clockwise unique IDs, e.g. 3,7,5,2")
    elect.add_argument("--flips", type=_parse_bool_list, default=None,
                       help="port flips for nonoriented, e.g. 1,0,1,0")
    elect.add_argument("--n", type=int, default=8, help="ring size (anonymous)")
    elect.add_argument("--c", type=float, default=2.0, help="confidence (anonymous)")
    elect.add_argument("--seed", type=int, default=None)
    elect.add_argument("--scheduler", default=None,
                       help="global_fifo|lifo|random|round_robin|lag_ccw|lag_cw|longest_run")
    elect.add_argument("--topology", default=None, metavar="SPEC",
                       help="run the 2-edge-connected ear election on SPEC "
                            "instead of a ring: theta[:A,B,C], "
                            "nested[:DEPTH[,CYCLE]], random:SEED[,TARGET], "
                            "ring:N, bridge, or edges:A-B,C-D,...; --ids "
                            "are per-vertex (default 1..n); graphs with a "
                            "bridge are refused with the bridge as witness")
    elect.set_defaults(func=_cmd_elect)

    compute = sub.add_parser("compute", help="content-oblivious computation (Cor 5)")
    compute.add_argument("--ids", type=_parse_int_list, default=None,
                         help="elect first (omit to use --leader directly)")
    compute.add_argument("--inputs", type=_parse_int_list, required=True)
    compute.add_argument("--op", default="sum",
                         help="sum|max|min|size|gather")
    compute.add_argument("--leader", type=int, default=0,
                         help="pre-set root when --ids is omitted")
    compute.set_defaults(func=_cmd_compute)

    simulate = sub.add_parser(
        "simulate",
        help="run a content-carrying algorithm over pulses (Cor 5, universal)",
    )
    simulate.add_argument("--ids", type=_parse_int_list, required=True,
                          help="clockwise unique IDs (>= 3 nodes)")
    simulate.add_argument("--algorithm",
                          choices=["chang_roberts", "broadcast", "sum"],
                          default="chang_roberts")
    simulate.add_argument("--value", type=int, default=42,
                          help="broadcast payload")
    simulate.add_argument("--inputs", type=_parse_int_list, default=None,
                          help="per-node inputs for sum")
    simulate.set_defaults(func=_cmd_simulate)

    verify = sub.add_parser(
        "verify",
        help="model-check ALL schedules (small rings) or SAMPLED "
             "schedules at scale (--statistical)",
    )
    verify.add_argument("--ids", type=_parse_int_list, default=None,
                        help="clockwise unique IDs (required unless "
                             "--statistical)")
    verify.add_argument("--algorithm",
                        choices=["warmup", "terminating", "nonoriented",
                                 "anonymous"],
                        default="terminating",
                        help="anonymous (with --statistical) checks the "
                             "Lemma 18 w.h.p. predicate over seeded "
                             "Algorithm 4 -> Algorithm 3 attempts")
    verify.add_argument("--c", type=float, default=2.0,
                        help="sampler exponent for --algorithm anonymous "
                             "(the 1 - n^-c floor)")
    verify.add_argument("--flips", type=_parse_bool_list, default=None,
                        help="port flips for nonoriented, e.g. 1,0,1")
    verify.add_argument("--reduction",
                        choices=["full", "symmetry", "sleep", "ample", "none"],
                        default="full",
                        help="reduction stack: full = ample + sleep sets + "
                             "ring-symmetry canonicalization (default); "
                             "symmetry = ample + symmetry; sleep = ample + "
                             "sleep sets; ample = persistent sets only; "
                             "none: branch on every channel at every state")
    verify.add_argument("--topology", default=None, metavar="SPEC",
                        help="verify the ear election on a 2-edge-connected "
                             "graph (same SPEC grammar as elect --topology): "
                             "exhaustive over all schedules by default, or "
                             "the sampled contract battery with "
                             "--statistical; bridge graphs are refused with "
                             "the bridge edge as witness")
    verify.add_argument("--spill-threshold-mb", type=int, default=0,
                        help="spill the visited set to disk above this many "
                             "MiB (0 = keep in memory)")
    verify.add_argument("--compare-unreduced", action="store_true",
                        help="also run the unreduced reference search and "
                             "report the state-reduction factor + agreement")
    verify.add_argument("--invariants", action="store_true",
                        help="evaluate the executable lemmas at every "
                             "explored state")
    verify.add_argument("--fault-drop", type=float, default=0.0,
                        help="per-pulse drop probability (explore under faults)")
    verify.add_argument("--fault-duplicate", type=float, default=0.0,
                        help="per-pulse duplication probability")
    verify.add_argument("--fault-seed", type=int, default=0)
    verify.add_argument("--max-states", type=int, default=2_000_000)
    verify.add_argument("--statistical", action="store_true",
                        help="sample random instances through the fleet "
                             "engine and check the invariant battery per "
                             "round instead of enumerating schedules")
    verify.add_argument("--samples", type=int, default=1000,
                        help="sampled instances (--statistical)")
    verify.add_argument("--n", type=int, default=8,
                        help="ring size of each sampled instance")
    verify.add_argument("--id-max", type=int, default=1000,
                        help="IDs drawn uniformly from [1, id-max]")
    verify.add_argument("--scheduler", choices=["lockstep", "seeded"],
                        default="lockstep",
                        help="fleet delivery schedule (--statistical)")
    verify.add_argument("--backend", choices=list(BACKEND_CHOICES),
                        default="auto")
    verify.add_argument("--block-size", type=int, default=8192,
                        help="instances per fleet run (--statistical)")
    verify.add_argument("--seed", type=int, default=0,
                        help="ID-sampling seed (--statistical)")
    verify.add_argument("--sched-seed", type=int, default=0,
                        help="seeded-scheduler seed (--statistical)")
    verify.add_argument("--confidence", type=float, default=0.99,
                        help="Clopper-Pearson coverage for the pass rate")
    verify.add_argument("--inject-drop", type=_parse_int_list, default=None,
                        metavar="ROUND,NODE,INSTANCE",
                        help="self-test: delete one in-flight CW pulse at "
                             "ROUND toward NODE in sampled INSTANCE; the "
                             "battery must flag it")
    verify.add_argument("--inject-drop-rate", type=float, default=0.0,
                        help="per-pulse drop probability (--statistical)")
    verify.add_argument("--inject-duplicate-rate", type=float, default=0.0,
                        help="per-pulse duplication probability")
    verify.add_argument("--inject-spurious-rate", type=float, default=0.0,
                        help="per-channel-per-round spurious pulse probability")
    verify.add_argument("--inject-burst", type=_parse_int_list, default=None,
                        metavar="START,LENGTH",
                        help="confine the random fault rates to rounds "
                             "[START, START+LENGTH)")
    verify.add_argument("--inject-crash", action="append", default=None,
                        metavar="NODE,ROUND[,RESTART_AFTER]",
                        help="crash NODE at ROUND (repeatable); with "
                             "RESTART_AFTER, restart it fresh that many "
                             "rounds later")
    verify.add_argument("--inject-corrupt", action="append", default=None,
                        metavar="NODE,ROUND,FIELD,VALUE",
                        help="set a schema-validated kernel state FIELD of "
                             "NODE to VALUE at ROUND (repeatable)")
    verify.add_argument("--inject-seed", type=int, default=0,
                        help="seed of the counter-based fault streams")
    verify.add_argument("--recovery", action="store_true",
                        help="classify every faulted sampled run by its "
                             "stable end state (recovered / wrong_stable / "
                             "stuck) instead of pass/fail invariant checking")
    verify.add_argument("--watchdog", type=int, default=None,
                        help="stuck-run watchdog rounds (default: automatic "
                             "when faults are injected)")
    verify.add_argument(
        "--processes",
        type=lambda text: text if text == "auto" else int(text),
        default=None,
        help="worker processes for --statistical (int or 'auto')",
    )
    verify.set_defaults(func=_cmd_verify)

    solitude = sub.add_parser("solitude", help="solitude patterns (Definition 21)")
    solitude.add_argument("--max-id", type=int, default=16)
    solitude.set_defaults(func=_cmd_solitude)

    compare = sub.add_parser("compare", help="message counts vs classic baselines")
    compare.add_argument("--n", type=int, default=16)
    compare.add_argument("--spread", type=int, default=256)
    compare.add_argument("--seed", type=int, default=0)
    compare.set_defaults(func=_cmd_compare)

    timeline = sub.add_parser("timeline", help="ASCII space-time diagram of a run")
    timeline.add_argument("--ids", type=_parse_int_list, required=True)
    timeline.add_argument("--rows", type=int, default=60)
    timeline.set_defaults(func=_cmd_timeline)

    sweep = sub.add_parser(
        "sweep", help="Monte Carlo sweeps (vectorized fleet engine)"
    )
    sweep.add_argument(
        "--workload",
        choices=("placements", "whp"),
        default="placements",
        help="placements: Theorem 1 variance sweep; whp: Theorem 3 success rate",
    )
    sweep.add_argument("--n", type=int, default=16)
    sweep.add_argument("--trials", type=int, default=1000)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--c", type=float, default=2.0, help="sampler exponent (whp)")
    sweep.add_argument(
        "--processes",
        type=lambda text: text if text == "auto" else int(text),
        default=None,
        help="worker processes (int or 'auto')",
    )
    sweep.add_argument(
        "--fleet",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="advance all trials in lockstep via the vectorized fleet engine",
    )
    sweep.add_argument(
        "--backend",
        choices=list(BACKEND_CHOICES),
        default="auto",
        help="fleet backend (auto prefers numpy)",
    )
    sweep.add_argument(
        "--min-rate",
        type=float,
        default=None,
        help="whp only: fail unless the Wilson interval admits this rate",
    )
    sweep.add_argument(
        "--lemma18",
        action="store_true",
        help="whp only: gate on Lemma 18's 1 - n^-c floor (the --min-rate "
        "is derived from --n and --c instead of being hand-picked)",
    )
    sweep.add_argument(
        "--farm",
        default=None,
        metavar="ROOT",
        help="route through the sweep farm rooted at ROOT (cached shards "
        "are reused; new shards are cached for later campaigns)",
    )
    sweep.set_defaults(func=_cmd_sweep)

    faults = sub.add_parser(
        "faults",
        help="fault-model tooling (graceful-degradation sweeps)",
    )
    faults_sub = faults.add_subparsers(dest="faults_command", required=True)
    fsweep = faults_sub.add_parser(
        "sweep",
        help="success-probability-vs-fault-rate degradation curve",
    )
    fsweep.add_argument("--kind",
                        choices=("drop", "duplicate", "spurious", "crash"),
                        default="drop",
                        help="which fault rate to sweep (crash: per-node "
                             "fail-stop probability)")
    fsweep.add_argument("--rates", type=_parse_float_list,
                        default=[0.0, 0.005, 0.01, 0.02, 0.05],
                        help="non-decreasing fault-rate grid, e.g. "
                             "0,0.01,0.05")
    fsweep.add_argument("--algorithm",
                        choices=["terminating", "nonoriented"],
                        default="nonoriented")
    fsweep.add_argument("--n", type=int, default=6)
    fsweep.add_argument("--id-max", type=int, default=64)
    fsweep.add_argument("--samples", type=int, default=200,
                        help="sampled instances per grid point")
    fsweep.add_argument("--seed", type=int, default=0,
                        help="ID/flip sampling seed")
    fsweep.add_argument("--sched-seed", type=int, default=0)
    fsweep.add_argument("--fault-seed", type=int, default=0,
                        help="seed of the counter-based fault streams")
    fsweep.add_argument("--scheduler", choices=["lockstep", "seeded"],
                        default="lockstep")
    fsweep.add_argument("--backend", choices=list(BACKEND_CHOICES),
                        default="auto")
    fsweep.add_argument("--block-size", type=int, default=256)
    fsweep.add_argument("--confidence", type=float, default=0.99)
    fsweep.add_argument("--json", default=None, metavar="PATH",
                        help="also write the curve as JSON to PATH")
    fsweep.add_argument(
        "--processes",
        type=lambda text: text if text == "auto" else int(text),
        default=None,
        help="worker processes (int or 'auto')",
    )
    fsweep.add_argument(
        "--farm",
        default=None,
        metavar="ROOT",
        help="route through the sweep farm rooted at ROOT (cached shards "
        "are reused; new shards are cached for later campaigns)",
    )
    fsweep.set_defaults(func=_cmd_faults_sweep)

    fsearch = faults_sub.add_parser(
        "search",
        help="adversarial search: the budgeted correlated fault plan "
             "that minimizes the recovery rate (CP upper bound)",
    )
    fsearch.add_argument("--budget", type=int, default=3,
                         help="plan budget: 2*crash + drops + burst rounds "
                              "(0 exits cleanly with the trivial plan)")
    fsearch.add_argument("--strategy",
                         choices=("cross-entropy", "epsilon-greedy"),
                         default="cross-entropy")
    fsearch.add_argument("--iterations", type=int, default=8,
                         help="optimizer iterations (cross-entropy "
                              "generations or bandit steps)")
    fsearch.add_argument("--population", type=int, default=12,
                         help="cross-entropy: candidates per generation")
    fsearch.add_argument("--elite-frac", type=float, default=0.25,
                         help="cross-entropy: elite fraction refit per "
                              "generation")
    fsearch.add_argument("--epsilon", type=float, default=0.3,
                         help="epsilon-greedy: exploration probability")
    fsearch.add_argument("--search-seed", type=int, default=0,
                         help="seed of the candidate stream (same seed "
                              "walks the same candidates)")
    fsearch.add_argument("--algorithm",
                         choices=["terminating", "nonoriented"],
                         default="nonoriented")
    fsearch.add_argument("--n", type=int, default=6)
    fsearch.add_argument("--id-max", type=int, default=64)
    fsearch.add_argument("--samples", type=int, default=64,
                         help="sampled instances per candidate evaluation")
    fsearch.add_argument("--seed", type=int, default=0,
                         help="ID/flip sampling seed")
    fsearch.add_argument("--sched-seed", type=int, default=0)
    fsearch.add_argument("--fault-seed", type=int, default=0,
                         help="seed of the counter-based fault streams")
    fsearch.add_argument("--scheduler", choices=["lockstep", "seeded"],
                         default="lockstep")
    fsearch.add_argument("--backend", choices=list(BACKEND_CHOICES),
                         default="auto")
    fsearch.add_argument("--block-size", type=int, default=256)
    fsearch.add_argument("--confidence", type=float, default=0.99)
    fsearch.add_argument("--watchdog", type=int, default=None,
                         help="stuck-run watchdog rounds (default: "
                              "automatic)")
    fsearch.add_argument("--rounds", type=_parse_int_list,
                         default=[1, 2, 3, 4, 6, 8, 12, 16],
                         help="absolute trigger-round choices")
    fsearch.add_argument("--thresholds", type=_parse_int_list,
                         default=[1, 2, 3],
                         help="rho/sigma threshold-trigger choices")
    fsearch.add_argument("--offsets", type=_parse_int_list,
                         default=[0, 1, 2, 3],
                         help="drop-offset choices (rounds after the fire "
                              "round)")
    fsearch.add_argument("--restarts", type=_parse_restart_list,
                         default=[None, 1, 2, 4],
                         help="crash restart-delay choices; 'none' = "
                              "permanent crash (e.g. none,1,2)")
    fsearch.add_argument("--drop-rates", type=_parse_float_list,
                         default=[0.5, 1.0],
                         help="burst-window drop-rate choices")
    fsearch.add_argument("--max-drops", type=int, default=4,
                         help="most deterministic drops one plan may carry")
    fsearch.add_argument("--max-burst", type=int, default=6,
                         help="longest burst window one plan may carry")
    fsearch.add_argument("--baseline", default=None, metavar="N|equal",
                         help="also evaluate the best of N uniform random "
                              "plans ('equal': N = the search's evaluation "
                              "count)")
    fsearch.add_argument("--baseline-seed", type=int, default=101,
                         help="seed of the baseline's candidate stream")
    fsearch.add_argument("--require-beats-baseline", action="store_true",
                         help="exit 1 unless the found plan's CP upper "
                              "bound is strictly below the baseline's "
                              "(implies --baseline equal when no "
                              "--baseline is given)")
    fsearch.add_argument("--out", default=None, metavar="PATH",
                         help="write the seed-replayable plan artifact "
                              "(canonical JSON) to PATH")
    fsearch.add_argument(
        "--farm",
        default=None,
        metavar="ROOT",
        help="route candidate evaluations through the sweep farm rooted "
        "at ROOT (revisited plans and overlapping recovery campaigns "
        "hit the cache)",
    )
    fsearch.set_defaults(func=_cmd_faults_search)

    freplay = faults_sub.add_parser(
        "replay",
        help="re-run a `faults search` artifact and demand bit-identical "
             "classification counts",
    )
    freplay.add_argument("artifact", help="path to the plan artifact JSON")
    freplay.add_argument("--backend", choices=list(BACKEND_CHOICES),
                         default="auto")
    freplay.add_argument(
        "--farm",
        default=None,
        metavar="ROOT",
        help="evaluate through the sweep farm rooted at ROOT",
    )
    freplay.set_defaults(func=_cmd_faults_replay)

    farm = sub.add_parser(
        "farm",
        help="persistent sweep farm: resumable campaigns with a "
        "content-addressed result cache",
    )
    farm_sub = farm.add_subparsers(dest="farm_command", required=True)

    fsubmit = farm_sub.add_parser(
        "submit",
        help="run (or resume) a campaign; kill and re-run freely — "
        "completed shards are never recomputed",
    )
    fsubmit.add_argument("--root", required=True, help="farm root directory")
    fsubmit.add_argument(
        "--workload",
        choices=("recovery", "degradation", "whp", "placements", "ear",
                 "adversary"),
        default="recovery",
    )
    fsubmit.add_argument(
        "--plan", default=None, metavar="PATH",
        help="adversary workload: a `repro faults search` artifact (its "
             "worst plan is evaluated) or a bare canonical plan JSON file",
    )
    fsubmit.add_argument(
        "--topology", default=None, metavar="SPEC",
        help="ear workload: the 2-edge-connected graph to sweep "
             "(same SPEC grammar as elect --topology; default theta)",
    )
    fsubmit.add_argument("--total", type=int, default=1000,
                         help="instances per grid point")
    fsubmit.add_argument("--shard-size", type=int, default=250,
                         help="instances per resumable shard")
    fsubmit.add_argument("--n", type=int, default=6)
    fsubmit.add_argument("--id-max", type=int, default=64,
                         help="recovery/degradation: ID universe bound")
    fsubmit.add_argument("--seed", type=int, default=0)
    fsubmit.add_argument("--sched-seed", type=int, default=0)
    fsubmit.add_argument("--scheduler", choices=["lockstep", "seeded"],
                         default="lockstep")
    fsubmit.add_argument("--algorithm",
                         choices=["terminating", "nonoriented"],
                         default="nonoriented")
    fsubmit.add_argument("--c", type=float, default=2.0,
                         help="whp: sampler exponent")
    fsubmit.add_argument("--kind",
                         choices=("drop", "duplicate", "spurious", "crash"),
                         default="drop",
                         help="degradation: fault kind to sweep")
    fsubmit.add_argument("--rates", type=_parse_float_list,
                         default=[0.0, 0.005, 0.01, 0.02, 0.05],
                         help="degradation: non-decreasing rate grid")
    fsubmit.add_argument("--drop-rate", type=float, default=0.0,
                         help="recovery: per-pulse drop probability")
    fsubmit.add_argument("--duplicate-rate", type=float, default=0.0,
                         help="recovery: per-pulse duplication probability")
    fsubmit.add_argument("--spurious-rate", type=float, default=0.0,
                         help="recovery: per-slot spurious-pulse probability")
    fsubmit.add_argument("--fault-seed", type=int, default=0,
                         help="seed of the counter-based fault streams")
    fsubmit.add_argument("--backend", choices=list(BACKEND_CHOICES),
                         default="auto")
    fsubmit.add_argument("--block-size", type=int, default=256)
    fsubmit.add_argument(
        "--processes",
        type=lambda text: text if text == "auto" else int(text),
        default=None,
        help="worker processes (int or 'auto')",
    )
    fsubmit.add_argument(
        "--min-hit-rate",
        type=float,
        default=None,
        help="fail unless at least this fraction of shards came from "
        "the cache (1.0 gates an immediate re-submit on all-hits)",
    )
    fsubmit.set_defaults(func=_cmd_farm_submit)

    fstatus = farm_sub.add_parser(
        "status", help="shard-state summary per campaign"
    )
    fstatus.add_argument("--root", required=True, help="farm root directory")
    fstatus.add_argument(
        "--campaign",
        default=None,
        help="campaign id (or 'last'); default: every campaign",
    )
    fstatus.set_defaults(func=_cmd_farm_status)

    fcollect = farm_sub.add_parser(
        "collect",
        help="aggregate a complete campaign's cached shards into its "
        "stats object (canonical JSON on stdout)",
    )
    fcollect.add_argument("--root", required=True, help="farm root directory")
    fcollect.add_argument("--campaign", default="last",
                          help="campaign id (default: 'last')")
    fcollect.add_argument("--confidence", type=float, default=0.99,
                          help="recovery/degradation: CP interval level")
    fcollect.add_argument("--z", type=float, default=2.576,
                          help="whp: normal quantile for the interval")
    fcollect.add_argument("--interval",
                          choices=["wilson", "clopper-pearson"],
                          default="wilson", help="whp: interval method")
    fcollect.add_argument("--out", default=None, metavar="PATH",
                          help="also write the canonical JSON to PATH")
    fcollect.set_defaults(func=_cmd_farm_collect)

    fgc = farm_sub.add_parser(
        "gc",
        help="reap crash leftovers: compact the ledger (orphaned "
        "campaigns, dead-pid running shards) and sweep temp files",
    )
    fgc.add_argument("--root", required=True, help="farm root directory")
    fgc.set_defaults(func=_cmd_farm_gc)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    args.argv = list(sys.argv[1:] if argv is None else argv)
    if (
        args.command == "elect"
        and args.setting != "anonymous"
        and args.topology is None
        and args.ids is None
    ):
        parser.error("--ids is required for oriented/nonoriented elections")
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
