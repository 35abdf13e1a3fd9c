"""``repro verify``: exhaustive model checking over ALL schedules of a small
ring or graph, or with ``--statistical`` sampled schedules at scale."""

from __future__ import annotations

import argparse
import shlex
from typing import List, Sequence

from repro.cli.common import (
    add_options,
    bool_list,
    int_list,
    parse_topology,
    print_refusal,
)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ids", type=int_list, default=None,
                        help="clockwise unique IDs (required unless "
                             "--statistical)")
    parser.add_argument("--algorithm",
                        choices=["warmup", "terminating", "nonoriented", "anonymous"],
                        default="terminating",
                        help="anonymous (with --statistical) checks the "
                             "Lemma 18 w.h.p. predicate over seeded "
                             "Algorithm 4 -> Algorithm 3 attempts")
    parser.add_argument("--c", type=float, default=2.0,
                        help="sampler exponent for --algorithm anonymous "
                             "(the 1 - n^-c floor)")
    parser.add_argument("--flips", type=bool_list, default=None,
                        help="port flips for nonoriented, e.g. 1,0,1")
    parser.add_argument("--reduction",
                        choices=["full", "symmetry", "sleep", "ample", "none"],
                        default="full",
                        help="reduction stack: full = ample + sleep sets + "
                             "ring-symmetry canonicalization (default); "
                             "symmetry = ample + symmetry; sleep = ample + "
                             "sleep sets; ample = persistent sets only; "
                             "none: branch on every channel at every state")
    parser.add_argument("--topology", default=None, metavar="SPEC",
                        help="verify the ear election on a 2-edge-connected "
                             "graph (same SPEC grammar as elect --topology): "
                             "exhaustive over all schedules by default, or "
                             "the sampled contract battery with "
                             "--statistical; bridge graphs are refused with "
                             "the bridge edge as witness")
    parser.add_argument("--spill-threshold-mb", type=int, default=0,
                        help="spill the visited set to disk above this many "
                             "MiB (0 = keep in memory)")
    parser.add_argument("--compare-unreduced", action="store_true",
                        help="also run the unreduced reference search and "
                             "report the state-reduction factor + agreement")
    parser.add_argument("--invariants", action="store_true",
                        help="evaluate the executable lemmas at every "
                             "explored state")
    parser.add_argument("--fault-drop", type=float, default=0.0,
                        help="per-pulse drop probability (explore under faults)")
    parser.add_argument("--fault-duplicate", type=float, default=0.0,
                        help="per-pulse duplication probability")
    parser.add_argument("--fault-seed", type=int, default=0)
    parser.add_argument("--max-states", type=int, default=2_000_000)
    parser.add_argument("--statistical", action="store_true",
                        help="sample random instances through the fleet "
                             "engine and check the invariant battery per "
                             "round instead of enumerating schedules")
    parser.add_argument("--samples", type=int, default=1000,
                        help="sampled instances (--statistical)")
    parser.add_argument("--n", type=int, default=8,
                        help="ring size of each sampled instance")
    parser.add_argument("--id-max", type=int, default=1000,
                        help="IDs drawn uniformly from [1, id-max]")
    parser.add_argument("--scheduler", choices=["lockstep", "seeded"],
                        default="lockstep",
                        help="fleet delivery schedule (--statistical)")
    add_options(parser, "--backend")
    parser.add_argument("--block-size", type=int, default=8192,
                        help="instances per fleet run (--statistical)")
    parser.add_argument("--seed", type=int, default=0,
                        help="ID-sampling seed (--statistical)")
    parser.add_argument("--sched-seed", type=int, default=0,
                        help="seeded-scheduler seed (--statistical)")
    parser.add_argument("--confidence", type=float, default=0.99,
                        help="Clopper-Pearson coverage for the pass rate")
    parser.add_argument("--inject-drop", type=int_list, default=None,
                        metavar="ROUND,NODE,INSTANCE",
                        help="self-test: delete one in-flight CW pulse at "
                             "ROUND toward NODE in sampled INSTANCE; the "
                             "battery must flag it")
    parser.add_argument("--inject-drop-rate", type=float, default=0.0,
                        help="per-pulse drop probability (--statistical)")
    parser.add_argument("--inject-duplicate-rate", type=float, default=0.0,
                        help="per-pulse duplication probability")
    parser.add_argument("--inject-spurious-rate", type=float, default=0.0,
                        help="per-channel-per-round spurious pulse probability")
    parser.add_argument("--inject-burst", type=int_list, default=None,
                        metavar="START,LENGTH",
                        help="confine the random fault rates to rounds "
                             "[START, START+LENGTH)")
    parser.add_argument("--inject-crash", action="append", default=None,
                        metavar="NODE,ROUND[,RESTART_AFTER]",
                        help="crash NODE at ROUND (repeatable); with "
                             "RESTART_AFTER, restart it fresh that many "
                             "rounds later")
    parser.add_argument("--inject-corrupt", action="append", default=None,
                        metavar="NODE,ROUND,FIELD,VALUE",
                        help="set a schema-validated kernel state FIELD of "
                             "NODE to VALUE at ROUND (repeatable)")
    parser.add_argument("--inject-seed", type=int, default=0,
                        help="seed of the counter-based fault streams")
    parser.add_argument("--recovery", action="store_true",
                        help="classify every faulted sampled run by its "
                             "stable end state (recovered / wrong_stable / "
                             "stuck) instead of pass/fail invariant checking")
    parser.add_argument("--watchdog", type=int, default=None,
                        help="stuck-run watchdog rounds (default: automatic "
                             "when faults are injected)")
    add_options(
        parser, "--processes",
        processes="worker processes for --statistical (int or 'auto')",
    )


_EXPLORE = {
    "ids", "algorithm", "reduction", "spill_threshold_mb", "compare_unreduced",
    "invariants", "fault_drop", "fault_duplicate", "fault_seed", "max_states",
}
_SAMPLED = {
    "statistical", "samples", "seed", "backend", "block_size", "confidence",
    "processes",
}
_FLEET = _SAMPLED | {"id_max", "scheduler", "sched_seed"}
_RING = _FLEET | {
    "algorithm", "n", "inject_drop_rate", "inject_duplicate_rate",
    "inject_spurious_rate", "inject_burst", "inject_crash", "inject_corrupt",
    "inject_seed", "watchdog",
}

#: mode label -> the dests its path reads.
MODES = {
    "": _EXPLORE,
    "--algorithm nonoriented": _EXPLORE | {"flips"},
    "--topology": _EXPLORE - {"algorithm"} | {"topology"},
    "--statistical": _RING | {"inject_drop"},
    "--statistical --recovery": _RING | {"recovery"},
    "--statistical --topology": _FLEET | {"topology"},
    "--statistical --algorithm anonymous": _SAMPLED | {"algorithm", "n", "c"},
}


def mode(args: argparse.Namespace) -> str:
    """The MODES label of ``args``, in :func:`run`'s precedence: ``--topology``
    wins over ``--algorithm anonymous``, which wins over ``--recovery``."""
    if args.statistical:
        if args.topology is not None:
            return "--statistical --topology"
        if args.algorithm == "anonymous":
            return "--statistical --algorithm anonymous"
        return "--statistical --recovery" if args.recovery else "--statistical"
    if args.topology is not None:
        return "--topology"
    return "--algorithm nonoriented" if args.algorithm == "nonoriented" else ""


def run(args: argparse.Namespace) -> int:
    if args.statistical:
        if args.topology is not None:
            return _verify_topology(args)
        if args.algorithm == "anonymous":
            return _verify_anonymous(args)
        return _verify_ring(args)
    if args.algorithm == "anonymous":
        raise SystemExit(
            "verify: --algorithm anonymous is the sampled Lemma 18 "
            "predicate; it requires --statistical"
        )
    if args.ids is None and args.topology is None:
        raise SystemExit(
            "verify: --ids is required unless --statistical or --topology"
        )
    return _explore(args)


# -- exhaustive: every schedule of one instance --------------------------


def _expected_pulse_bound(algorithm: str, ids: List[int]) -> tuple[str, int]:
    """The paper's exact message count for one instance of ``algorithm``,
    with the label ``repro verify`` prints for it."""
    from repro.core.kernels import get_kernel

    label = {
        "warmup": "n*IDmax (Cor 13)",
        "terminating": "n(2*IDmax+1) (Thm 1)",
        "nonoriented": "n(2*IDmax+1) (Thm 2)",
    }[algorithm]
    return label, get_kernel(algorithm).module.pulse_bound(ids)


def _explore(args: argparse.Namespace) -> int:
    from repro.core.common import validate_positive_ids, validate_unique_ids
    from repro.core.invariants import InvariantViolation, hooks_for
    from repro.core.nonoriented import NonOrientedNode
    from repro.core.terminating import TerminatingNode
    from repro.core.warmup import WarmupNode
    from repro.exceptions import ConfigurationError
    from repro.faults.channel import apply_fault_model
    from repro.faults.model import FaultModel
    from repro.simulator.ring import build_nonoriented_ring, build_oriented_ring
    from repro.verification import (
        ExplorationLimitExceeded,
        explore_all_schedules,
        explore_reduced,
    )

    if args.spill_threshold_mb < 0:
        raise ConfigurationError(
            f"--spill-threshold-mb must be >= 0, got {args.spill_threshold_mb}"
        )
    graph = None
    ear_routing = None
    if args.topology is not None:
        from repro.core.kernels.ear import build_routing
        from repro.exceptions import BridgeWitnessError
        from repro.graphs.connectivity import require_two_edge_connected

        graph = parse_topology(args.topology)
        try:
            require_two_edge_connected(graph)
        except BridgeWitnessError as refusal:
            print(f"topology             : {args.topology} (n={graph.n}, "
                  f"{len(graph.edges)} edges)")
            return print_refusal(refusal, 21)
        ear_routing = build_routing(graph)
        if args.ids is None:
            args.ids = list(range(1, graph.n + 1))
        if len(args.ids) != graph.n:
            raise SystemExit(
                f"--topology {args.topology} has {graph.n} vertices but "
                f"--ids lists {len(args.ids)}"
            )

    ids = args.ids
    # The runners' rule: Algorithm 1 takes duplicate IDs (Lemma 16).
    if args.algorithm == "warmup" and graph is None:
        validate_positive_ids(ids)
    else:
        validate_unique_ids(ids)
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
        print("algorithm            : ear (2-edge-connected election)")
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

    # The ring-symmetry layer is sound only on the ring builder's channel
    # convention (general topologies use sorted adjacency and need their
    # own automorphism groups) and without faults (per-channel fault
    # profiles break the ring automorphisms): otherwise drop to the
    # strongest sound mode.
    reduction = args.reduction
    asymmetric = graph is not None or fault_model is not None
    if asymmetric and reduction in ("symmetry", "full"):
        downgraded = "sleep" if reduction == "full" else "ample"
        why = (
            "assumes the ring builder convention; downgrading to '{}' off-ring"
            if graph is not None
            else "is unsound under faults; downgrading to '{}'"
        )
        print(f"note: --reduction {reduction} {why.format(downgraded)}")
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


# -- statistical: sampled instances through the fleet engine -------------


def _fault_model_from_args(args: argparse.Namespace):
    """Compile the declarative ``--inject-*`` flags into a FaultModel.

    Returns None when no fault clause was requested (fault-free run).
    """
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
        parts = int_list(spec)
        if len(parts) not in (2, 3):
            raise SystemExit("--inject-crash takes NODE,ROUND[,RESTART_AFTER]")
        crashes.append(NodeCrash(*parts))
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
    model = FaultModel(
        drop_rate=args.inject_drop_rate,
        duplicate_rate=args.inject_duplicate_rate,
        spurious_rate=args.inject_spurious_rate,
        seed=args.inject_seed,
        burst=burst,
        crashes=tuple(crashes),
        corruptions=tuple(corruptions),
    )
    return None if model.is_noop else model


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


def _run_check(args: argparse.Namespace, check_type, **fields):
    """Build the check and run it over ``--samples``."""
    from repro.verification.statistical import run_check

    return run_check(
        check_type(**fields),
        args.samples,
        args.confidence,
        args.block_size,
        processes=args.processes,
    )


def _print_check_report(report, rows, counterexample_lines, passed: str) -> int:
    """The one ``verify --statistical`` renderer: the mode's rows, each
    counterexample with its replay, then the check's verdict."""
    for row in rows:
        print(row)
    all_reproduce = True
    for ce in report.counterexamples:
        for line in counterexample_lines(ce):
            print(line)
        reproduced = ce.reproduces()
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

    fault = _fault_model_from_args(args)
    if args.inject_drop is not None:
        if len(args.inject_drop) != 3:
            raise SystemExit("--inject-drop takes ROUND,NODE,INSTANCE")
        round_index, node, instance = args.inject_drop
        drop = PulseDrop(round_index, node, direction="cw", instance=instance)
        fault = drop if fault is None else replace(fault, drops=fault.drops + (drop,))
    report = _run_check(
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
    from repro.exceptions import BridgeWitnessError
    from repro.verification.statistical import TopologyCheck

    graph = parse_topology(args.topology)
    print(_row("mode", "statistical topology battery (ear election)"))
    print(_row("topology", f"{args.topology} (n={graph.n}, {len(graph.edges)} edges)"))
    try:
        report = _run_check(
            args,
            TopologyCheck,
            graph=graph,
            id_max=args.id_max,
            seed=args.seed,
            sched_seed=args.sched_seed,
            scheduler=args.scheduler,
            backend=args.backend,
        )
    except BridgeWitnessError as refusal:
        return print_refusal(refusal, 21)
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

    report = _run_check(
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
