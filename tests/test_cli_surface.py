"""Pins of the ``repro`` command-line surface: every flag and every parse.

For each verb path the pin holds the per-action table of the parser that
``main([*path, "--help"])`` prints (run with ``COLUMNS=80``): per action,
its kind, option strings, dest, default, choices, metavar, nargs,
required flag and help string, plus the parser's prog and description.
The help text is a pure function of that table, and pinning the table
rather than the formatted bytes keeps the pins valid on every supported
Python: argparse's formatting changes between releases, and Python 3.10's
``BooleanOptionalAction`` appends ``" (default: %(default)s)"`` to its
help string, which the table strips.

For each verb path the pins also hold the namespace the handler receives
for a minimal valid argv, captured by spying on
``argparse.ArgumentParser.parse_args`` (callables and ``argv`` dropped).
A flag added, removed, renamed or re-defaulted fails one of these pins.
"""

from __future__ import annotations

import argparse

import pytest

from repro.cli import main

PRINT_HELP = argparse.ArgumentParser.print_help
PARSE_ARGS = argparse.ArgumentParser.parse_args
BOOLEAN_DEFAULT_SUFFIX = " (default: %(default)s)"


def action_table(parser: argparse.ArgumentParser) -> dict:
    """The parser's prog, description and one row per action."""
    rows = []
    for action in parser._actions:
        help_text = action.help
        if isinstance(action, argparse.BooleanOptionalAction) and help_text:
            help_text = help_text.removesuffix(BOOLEAN_DEFAULT_SUFFIX)
        if isinstance(action, argparse._SubParsersAction):
            choices = [(c.dest, c.help) for c in action._choices_actions]
        elif action.choices is not None:
            choices = list(action.choices)
        else:
            choices = None
        rows.append((
            type(action).__name__,
            list(action.option_strings),
            action.dest,
            action.default,
            choices,
            action.metavar,
            action.nargs,
            action.required,
            help_text,
        ))
    return {"prog": parser.prog, "description": parser.description, "actions": rows}


def help_table(monkeypatch, path) -> dict:
    """The action table of the parser ``main([*path, "--help"])`` prints."""
    printed = []

    def spy(self, file=None):
        printed.append(self)
        PRINT_HELP(self, file)

    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(argparse.ArgumentParser, "print_help", spy)
    with pytest.raises(SystemExit) as exit_info:
        main([*path, "--help"])
    assert exit_info.value.code in (0, None)
    (parser,) = printed
    return action_table(parser)


class Parsed(Exception):
    """Raised by the ``parse_args`` spy so the handler never runs."""


def parsed_namespace(monkeypatch, argv) -> dict:
    """The namespace ``main(argv)`` hands its handler."""
    seen = []

    def spy(self, *args, **kwargs):
        seen.append(PARSE_ARGS(self, *args, **kwargs))
        raise Parsed

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
    with pytest.raises(Parsed):
        main(list(argv))
    (namespace,) = seen
    return {
        dest: value
        for dest, value in sorted(vars(namespace).items())
        if dest != "argv" and not callable(value)
    }


#: verb path (space-joined, "" for the bare ``repro``) -> action table.
HELP_PINS: dict = {
    '': {
        'prog': 'repro',
        'description': 'Content-Oblivious Leader Election on Rings — reproduction CLI',
        'actions': [
            ('_HelpAction', ['-h', '--help'], 'help', '==SUPPRESS==', None, None, 0, False, 'show this help message and exit'),
            ('_SubParsersAction', [], 'command', None, [('elect', 'run a leader election'), ('compute', 'content-oblivious computation (Cor 5)'), ('simulate', 'run a content-carrying algorithm over pulses (Cor 5, universal)'), ('verify', 'model-check ALL schedules (small rings) or SAMPLED schedules at scale (--statistical)'), ('solitude', 'solitude patterns (Definition 21)'), ('compare', 'message counts vs classic baselines'), ('timeline', 'ASCII space-time diagram of a run'), ('sweep', 'Monte Carlo sweeps (vectorized fleet engine)'), ('faults', 'fault-model tooling (graceful-degradation sweeps)'), ('farm', 'persistent sweep farm: resumable campaigns with a content-addressed result cache')], None, 'A...', True, None),
        ],
    },
    'elect': {
        'prog': 'repro elect',
        'description': None,
        'actions': [
            ('_HelpAction', ['-h', '--help'], 'help', '==SUPPRESS==', None, None, 0, False, 'show this help message and exit'),
            ('_StoreAction', ['--setting'], 'setting', 'oriented', ['oriented', 'nonoriented', 'anonymous'], None, None, False, None),
            ('_StoreAction', ['--ids'], 'ids', None, None, None, None, False, 'clockwise unique IDs, e.g. 3,7,5,2'),
            ('_StoreAction', ['--flips'], 'flips', None, None, None, None, False, 'port flips for nonoriented, e.g. 1,0,1,0'),
            ('_StoreAction', ['--n'], 'n', 8, None, None, None, False, 'ring size (anonymous)'),
            ('_StoreAction', ['--c'], 'c', 2.0, None, None, None, False, 'confidence (anonymous)'),
            ('_StoreAction', ['--seed'], 'seed', None, None, None, None, False, None),
            ('_StoreAction', ['--scheduler'], 'scheduler', None, None, None, None, False, 'global_fifo|lifo|random|round_robin|lag_ccw|lag_cw|longest_run'),
            ('_StoreAction', ['--topology'], 'topology', None, None, 'SPEC', None, False, 'run the 2-edge-connected ear election on SPEC instead of a ring: theta[:A,B,C], nested[:DEPTH[,CYCLE]], random:SEED[,TARGET], ring:N, bridge, or edges:A-B,C-D,...; --ids are per-vertex (default 1..n); graphs with a bridge are refused with the bridge as witness'),
        ],
    },
    'compute': {
        'prog': 'repro compute',
        'description': None,
        'actions': [
            ('_HelpAction', ['-h', '--help'], 'help', '==SUPPRESS==', None, None, 0, False, 'show this help message and exit'),
            ('_StoreAction', ['--ids'], 'ids', None, None, None, None, False, 'elect first (omit to use --leader directly)'),
            ('_StoreAction', ['--inputs'], 'inputs', None, None, None, None, True, None),
            ('_StoreAction', ['--op'], 'op', 'sum', None, None, None, False, 'sum|max|min|size|gather'),
            ('_StoreAction', ['--leader'], 'leader', 0, None, None, None, False, 'pre-set root when --ids is omitted'),
        ],
    },
    'simulate': {
        'prog': 'repro simulate',
        'description': None,
        'actions': [
            ('_HelpAction', ['-h', '--help'], 'help', '==SUPPRESS==', None, None, 0, False, 'show this help message and exit'),
            ('_StoreAction', ['--ids'], 'ids', None, None, None, None, True, 'clockwise unique IDs (>= 3 nodes)'),
            ('_StoreAction', ['--algorithm'], 'algorithm', 'chang_roberts', ['chang_roberts', 'broadcast', 'sum'], None, None, False, None),
            ('_StoreAction', ['--value'], 'value', 42, None, None, None, False, 'broadcast payload'),
            ('_StoreAction', ['--inputs'], 'inputs', None, None, None, None, False, 'per-node inputs for sum'),
        ],
    },
    'verify': {
        'prog': 'repro verify',
        'description': None,
        'actions': [
            ('_HelpAction', ['-h', '--help'], 'help', '==SUPPRESS==', None, None, 0, False, 'show this help message and exit'),
            ('_StoreAction', ['--ids'], 'ids', None, None, None, None, False, 'clockwise unique IDs (required unless --statistical)'),
            ('_StoreAction', ['--algorithm'], 'algorithm', 'terminating', ['warmup', 'terminating', 'nonoriented', 'anonymous'], None, None, False, 'anonymous (with --statistical) checks the Lemma 18 w.h.p. predicate over seeded Algorithm 4 -> Algorithm 3 attempts'),
            ('_StoreAction', ['--c'], 'c', 2.0, None, None, None, False, 'sampler exponent for --algorithm anonymous (the 1 - n^-c floor)'),
            ('_StoreAction', ['--flips'], 'flips', None, None, None, None, False, 'port flips for nonoriented, e.g. 1,0,1'),
            ('_StoreAction', ['--reduction'], 'reduction', 'full', ['full', 'symmetry', 'sleep', 'ample', 'none'], None, None, False, 'reduction stack: full = ample + sleep sets + ring-symmetry canonicalization (default); symmetry = ample + symmetry; sleep = ample + sleep sets; ample = persistent sets only; none: branch on every channel at every state'),
            ('_StoreAction', ['--topology'], 'topology', None, None, 'SPEC', None, False, 'verify the ear election on a 2-edge-connected graph (same SPEC grammar as elect --topology): exhaustive over all schedules by default, or the sampled contract battery with --statistical; bridge graphs are refused with the bridge edge as witness'),
            ('_StoreAction', ['--spill-threshold-mb'], 'spill_threshold_mb', 0, None, None, None, False, 'spill the visited set to disk above this many MiB (0 = keep in memory)'),
            ('_StoreTrueAction', ['--compare-unreduced'], 'compare_unreduced', False, None, None, 0, False, 'also run the unreduced reference search and report the state-reduction factor + agreement'),
            ('_StoreTrueAction', ['--invariants'], 'invariants', False, None, None, 0, False, 'evaluate the executable lemmas at every explored state'),
            ('_StoreAction', ['--fault-drop'], 'fault_drop', 0.0, None, None, None, False, 'per-pulse drop probability (explore under faults)'),
            ('_StoreAction', ['--fault-duplicate'], 'fault_duplicate', 0.0, None, None, None, False, 'per-pulse duplication probability'),
            ('_StoreAction', ['--fault-seed'], 'fault_seed', 0, None, None, None, False, None),
            ('_StoreAction', ['--max-states'], 'max_states', 2000000, None, None, None, False, None),
            ('_StoreTrueAction', ['--statistical'], 'statistical', False, None, None, 0, False, 'sample random instances through the fleet engine and check the invariant battery per round instead of enumerating schedules'),
            ('_StoreAction', ['--samples'], 'samples', 1000, None, None, None, False, 'sampled instances (--statistical)'),
            ('_StoreAction', ['--n'], 'n', 8, None, None, None, False, 'ring size of each sampled instance'),
            ('_StoreAction', ['--id-max'], 'id_max', 1000, None, None, None, False, 'IDs drawn uniformly from [1, id-max]'),
            ('_StoreAction', ['--scheduler'], 'scheduler', 'lockstep', ['lockstep', 'seeded'], None, None, False, 'fleet delivery schedule (--statistical)'),
            ('_StoreAction', ['--backend'], 'backend', 'auto', ['auto', 'numpy', 'python'], None, None, False, None),
            ('_StoreAction', ['--block-size'], 'block_size', 8192, None, None, None, False, 'instances per fleet run (--statistical)'),
            ('_StoreAction', ['--seed'], 'seed', 0, None, None, None, False, 'ID-sampling seed (--statistical)'),
            ('_StoreAction', ['--sched-seed'], 'sched_seed', 0, None, None, None, False, 'seeded-scheduler seed (--statistical)'),
            ('_StoreAction', ['--confidence'], 'confidence', 0.99, None, None, None, False, 'Clopper-Pearson coverage for the pass rate'),
            ('_StoreAction', ['--inject-drop'], 'inject_drop', None, None, 'ROUND,NODE,INSTANCE', None, False, 'self-test: delete one in-flight CW pulse at ROUND toward NODE in sampled INSTANCE; the battery must flag it'),
            ('_StoreAction', ['--inject-drop-rate'], 'inject_drop_rate', 0.0, None, None, None, False, 'per-pulse drop probability (--statistical)'),
            ('_StoreAction', ['--inject-duplicate-rate'], 'inject_duplicate_rate', 0.0, None, None, None, False, 'per-pulse duplication probability'),
            ('_StoreAction', ['--inject-spurious-rate'], 'inject_spurious_rate', 0.0, None, None, None, False, 'per-channel-per-round spurious pulse probability'),
            ('_StoreAction', ['--inject-burst'], 'inject_burst', None, None, 'START,LENGTH', None, False, 'confine the random fault rates to rounds [START, START+LENGTH)'),
            ('_AppendAction', ['--inject-crash'], 'inject_crash', None, None, 'NODE,ROUND[,RESTART_AFTER]', None, False, 'crash NODE at ROUND (repeatable); with RESTART_AFTER, restart it fresh that many rounds later'),
            ('_AppendAction', ['--inject-corrupt'], 'inject_corrupt', None, None, 'NODE,ROUND,FIELD,VALUE', None, False, 'set a schema-validated kernel state FIELD of NODE to VALUE at ROUND (repeatable)'),
            ('_StoreAction', ['--inject-seed'], 'inject_seed', 0, None, None, None, False, 'seed of the counter-based fault streams'),
            ('_StoreTrueAction', ['--recovery'], 'recovery', False, None, None, 0, False, 'classify every faulted sampled run by its stable end state (recovered / wrong_stable / stuck) instead of pass/fail invariant checking'),
            ('_StoreAction', ['--watchdog'], 'watchdog', None, None, None, None, False, 'stuck-run watchdog rounds (default: automatic when faults are injected)'),
            ('_StoreAction', ['--processes'], 'processes', None, None, None, None, False, "worker processes for --statistical (int or 'auto')"),
        ],
    },
    'solitude': {
        'prog': 'repro solitude',
        'description': None,
        'actions': [
            ('_HelpAction', ['-h', '--help'], 'help', '==SUPPRESS==', None, None, 0, False, 'show this help message and exit'),
            ('_StoreAction', ['--max-id'], 'max_id', 16, None, None, None, False, None),
        ],
    },
    'compare': {
        'prog': 'repro compare',
        'description': None,
        'actions': [
            ('_HelpAction', ['-h', '--help'], 'help', '==SUPPRESS==', None, None, 0, False, 'show this help message and exit'),
            ('_StoreAction', ['--n'], 'n', 16, None, None, None, False, None),
            ('_StoreAction', ['--spread'], 'spread', 256, None, None, None, False, None),
            ('_StoreAction', ['--seed'], 'seed', 0, None, None, None, False, None),
        ],
    },
    'timeline': {
        'prog': 'repro timeline',
        'description': None,
        'actions': [
            ('_HelpAction', ['-h', '--help'], 'help', '==SUPPRESS==', None, None, 0, False, 'show this help message and exit'),
            ('_StoreAction', ['--ids'], 'ids', None, None, None, None, True, None),
            ('_StoreAction', ['--rows'], 'rows', 60, None, None, None, False, None),
        ],
    },
    'sweep': {
        'prog': 'repro sweep',
        'description': None,
        'actions': [
            ('_HelpAction', ['-h', '--help'], 'help', '==SUPPRESS==', None, None, 0, False, 'show this help message and exit'),
            ('_StoreAction', ['--workload'], 'workload', 'placements', ['placements', 'whp'], None, None, False, 'placements: Theorem 1 variance sweep; whp: Theorem 3 success rate'),
            ('_StoreAction', ['--n'], 'n', 16, None, None, None, False, None),
            ('_StoreAction', ['--trials'], 'trials', 1000, None, None, None, False, None),
            ('_StoreAction', ['--seed'], 'seed', 0, None, None, None, False, None),
            ('_StoreAction', ['--c'], 'c', 2.0, None, None, None, False, 'sampler exponent (whp)'),
            ('_StoreAction', ['--processes'], 'processes', None, None, None, None, False, "worker processes (int or 'auto')"),
            ('BooleanOptionalAction', ['--fleet', '--no-fleet'], 'fleet', True, None, None, 0, False, 'advance all trials in lockstep via the vectorized fleet engine'),
            ('_StoreAction', ['--backend'], 'backend', 'auto', ['auto', 'numpy', 'python'], None, None, False, 'fleet backend (auto prefers numpy)'),
            ('_StoreAction', ['--min-rate'], 'min_rate', None, None, None, None, False, 'whp only: fail unless the Wilson interval admits this rate'),
            ('_StoreTrueAction', ['--lemma18'], 'lemma18', False, None, None, 0, False, "whp only: gate on Lemma 18's 1 - n^-c floor (the --min-rate is derived from --n and --c instead of being hand-picked)"),
            ('_StoreAction', ['--farm'], 'farm', None, None, 'ROOT', None, False, 'route through the sweep farm rooted at ROOT (cached shards are reused; new shards are cached for later campaigns)'),
        ],
    },
    'faults': {
        'prog': 'repro faults',
        'description': None,
        'actions': [
            ('_HelpAction', ['-h', '--help'], 'help', '==SUPPRESS==', None, None, 0, False, 'show this help message and exit'),
            ('_SubParsersAction', [], 'faults_command', None, [('sweep', 'success-probability-vs-fault-rate degradation curve'), ('search', 'adversarial search: the budgeted correlated fault plan that minimizes the recovery rate (CP upper bound)'), ('replay', 're-run a `faults search` artifact and demand bit-identical classification counts')], None, 'A...', True, None),
        ],
    },
    'faults sweep': {
        'prog': 'repro faults sweep',
        'description': None,
        'actions': [
            ('_HelpAction', ['-h', '--help'], 'help', '==SUPPRESS==', None, None, 0, False, 'show this help message and exit'),
            ('_StoreAction', ['--kind'], 'kind', 'drop', ['drop', 'duplicate', 'spurious', 'crash'], None, None, False, 'which fault rate to sweep (crash: per-node fail-stop probability)'),
            ('_StoreAction', ['--rates'], 'rates', [0.0, 0.005, 0.01, 0.02, 0.05], None, None, None, False, 'non-decreasing fault-rate grid, e.g. 0,0.01,0.05'),
            ('_StoreAction', ['--algorithm'], 'algorithm', 'nonoriented', ['terminating', 'nonoriented'], None, None, False, None),
            ('_StoreAction', ['--n'], 'n', 6, None, None, None, False, None),
            ('_StoreAction', ['--id-max'], 'id_max', 64, None, None, None, False, None),
            ('_StoreAction', ['--samples'], 'samples', 200, None, None, None, False, 'sampled instances per grid point'),
            ('_StoreAction', ['--seed'], 'seed', 0, None, None, None, False, 'ID/flip sampling seed'),
            ('_StoreAction', ['--sched-seed'], 'sched_seed', 0, None, None, None, False, None),
            ('_StoreAction', ['--fault-seed'], 'fault_seed', 0, None, None, None, False, 'seed of the counter-based fault streams'),
            ('_StoreAction', ['--scheduler'], 'scheduler', 'lockstep', ['lockstep', 'seeded'], None, None, False, None),
            ('_StoreAction', ['--backend'], 'backend', 'auto', ['auto', 'numpy', 'python'], None, None, False, None),
            ('_StoreAction', ['--block-size'], 'block_size', 256, None, None, None, False, None),
            ('_StoreAction', ['--confidence'], 'confidence', 0.99, None, None, None, False, None),
            ('_StoreAction', ['--json'], 'json', None, None, 'PATH', None, False, 'also write the curve as JSON to PATH'),
            ('_StoreAction', ['--processes'], 'processes', None, None, None, None, False, "worker processes (int or 'auto')"),
            ('_StoreAction', ['--farm'], 'farm', None, None, 'ROOT', None, False, 'route through the sweep farm rooted at ROOT (cached shards are reused; new shards are cached for later campaigns)'),
        ],
    },
    'faults search': {
        'prog': 'repro faults search',
        'description': None,
        'actions': [
            ('_HelpAction', ['-h', '--help'], 'help', '==SUPPRESS==', None, None, 0, False, 'show this help message and exit'),
            ('_StoreAction', ['--budget'], 'budget', 3, None, None, None, False, 'plan budget: 2*crash + drops + burst rounds (0 exits cleanly with the trivial plan)'),
            ('_StoreAction', ['--strategy'], 'strategy', 'cross-entropy', ['cross-entropy', 'epsilon-greedy'], None, None, False, None),
            ('_StoreAction', ['--iterations'], 'iterations', 8, None, None, None, False, 'optimizer iterations (cross-entropy generations or bandit steps)'),
            ('_StoreAction', ['--population'], 'population', 12, None, None, None, False, 'cross-entropy: candidates per generation'),
            ('_StoreAction', ['--elite-frac'], 'elite_frac', 0.25, None, None, None, False, 'cross-entropy: elite fraction refit per generation'),
            ('_StoreAction', ['--epsilon'], 'epsilon', 0.3, None, None, None, False, 'epsilon-greedy: exploration probability'),
            ('_StoreAction', ['--search-seed'], 'search_seed', 0, None, None, None, False, 'seed of the candidate stream (same seed walks the same candidates)'),
            ('_StoreAction', ['--algorithm'], 'algorithm', 'nonoriented', ['terminating', 'nonoriented'], None, None, False, None),
            ('_StoreAction', ['--n'], 'n', 6, None, None, None, False, None),
            ('_StoreAction', ['--id-max'], 'id_max', 64, None, None, None, False, None),
            ('_StoreAction', ['--samples'], 'samples', 64, None, None, None, False, 'sampled instances per candidate evaluation'),
            ('_StoreAction', ['--seed'], 'seed', 0, None, None, None, False, 'ID/flip sampling seed'),
            ('_StoreAction', ['--sched-seed'], 'sched_seed', 0, None, None, None, False, None),
            ('_StoreAction', ['--fault-seed'], 'fault_seed', 0, None, None, None, False, 'seed of the counter-based fault streams'),
            ('_StoreAction', ['--scheduler'], 'scheduler', 'lockstep', ['lockstep', 'seeded'], None, None, False, None),
            ('_StoreAction', ['--backend'], 'backend', 'auto', ['auto', 'numpy', 'python'], None, None, False, None),
            ('_StoreAction', ['--block-size'], 'block_size', 256, None, None, None, False, None),
            ('_StoreAction', ['--confidence'], 'confidence', 0.99, None, None, None, False, None),
            ('_StoreAction', ['--watchdog'], 'watchdog', None, None, None, None, False, 'stuck-run watchdog rounds (default: automatic)'),
            ('_StoreAction', ['--rounds'], 'rounds', [1, 2, 3, 4, 6, 8, 12, 16], None, None, None, False, 'absolute trigger-round choices'),
            ('_StoreAction', ['--thresholds'], 'thresholds', [1, 2, 3], None, None, None, False, 'rho/sigma threshold-trigger choices'),
            ('_StoreAction', ['--offsets'], 'offsets', [0, 1, 2, 3], None, None, None, False, 'drop-offset choices (rounds after the fire round)'),
            ('_StoreAction', ['--restarts'], 'restarts', [None, 1, 2, 4], None, None, None, False, "crash restart-delay choices; 'none' = permanent crash (e.g. none,1,2)"),
            ('_StoreAction', ['--drop-rates'], 'drop_rates', [0.5, 1.0], None, None, None, False, 'burst-window drop-rate choices'),
            ('_StoreAction', ['--max-drops'], 'max_drops', 4, None, None, None, False, 'most deterministic drops one plan may carry'),
            ('_StoreAction', ['--max-burst'], 'max_burst', 6, None, None, None, False, 'longest burst window one plan may carry'),
            ('_StoreAction', ['--baseline'], 'baseline', None, None, 'N|equal', None, False, "also evaluate the best of N uniform random plans ('equal': N = the search's evaluation count)"),
            ('_StoreAction', ['--baseline-seed'], 'baseline_seed', 101, None, None, None, False, "seed of the baseline's candidate stream"),
            ('_StoreTrueAction', ['--require-beats-baseline'], 'require_beats_baseline', False, None, None, 0, False, "exit 1 unless the found plan's CP upper bound is strictly below the baseline's (implies --baseline equal when no --baseline is given)"),
            ('_StoreAction', ['--out'], 'out', None, None, 'PATH', None, False, 'write the seed-replayable plan artifact (canonical JSON) to PATH'),
            ('_StoreAction', ['--farm'], 'farm', None, None, 'ROOT', None, False, 'route candidate evaluations through the sweep farm rooted at ROOT (revisited plans and overlapping recovery campaigns hit the cache)'),
        ],
    },
    'faults replay': {
        'prog': 'repro faults replay',
        'description': None,
        'actions': [
            ('_HelpAction', ['-h', '--help'], 'help', '==SUPPRESS==', None, None, 0, False, 'show this help message and exit'),
            ('_StoreAction', [], 'artifact', None, None, None, None, True, 'path to the plan artifact JSON'),
            ('_StoreAction', ['--backend'], 'backend', 'auto', ['auto', 'numpy', 'python'], None, None, False, None),
            ('_StoreAction', ['--farm'], 'farm', None, None, 'ROOT', None, False, 'evaluate through the sweep farm rooted at ROOT'),
        ],
    },
    'farm': {
        'prog': 'repro farm',
        'description': None,
        'actions': [
            ('_HelpAction', ['-h', '--help'], 'help', '==SUPPRESS==', None, None, 0, False, 'show this help message and exit'),
            ('_SubParsersAction', [], 'farm_command', None, [('submit', 'run (or resume) a campaign; kill and re-run freely — completed shards are never recomputed'), ('status', 'shard-state summary per campaign'), ('collect', "aggregate a complete campaign's cached shards into its stats object (canonical JSON on stdout)"), ('gc', 'reap crash leftovers: compact the ledger (orphaned campaigns, dead-pid running shards) and sweep temp files')], None, 'A...', True, None),
        ],
    },
    'farm submit': {
        'prog': 'repro farm submit',
        'description': None,
        'actions': [
            ('_HelpAction', ['-h', '--help'], 'help', '==SUPPRESS==', None, None, 0, False, 'show this help message and exit'),
            ('_StoreAction', ['--root'], 'root', None, None, None, None, True, 'farm root directory'),
            ('_StoreAction', ['--workload'], 'workload', 'recovery', ['recovery', 'degradation', 'whp', 'placements', 'ear', 'adversary'], None, None, False, None),
            ('_StoreAction', ['--plan'], 'plan', None, None, 'PATH', None, False, 'adversary workload: a `repro faults search` artifact (its worst plan is evaluated) or a bare canonical plan JSON file'),
            ('_StoreAction', ['--topology'], 'topology', None, None, 'SPEC', None, False, 'ear workload: the 2-edge-connected graph to sweep (same SPEC grammar as elect --topology; default theta)'),
            ('_StoreAction', ['--total'], 'total', 1000, None, None, None, False, 'instances per grid point'),
            ('_StoreAction', ['--shard-size'], 'shard_size', 250, None, None, None, False, 'instances per resumable shard'),
            ('_StoreAction', ['--n'], 'n', 6, None, None, None, False, None),
            ('_StoreAction', ['--id-max'], 'id_max', 64, None, None, None, False, 'recovery/degradation: ID universe bound'),
            ('_StoreAction', ['--seed'], 'seed', 0, None, None, None, False, None),
            ('_StoreAction', ['--sched-seed'], 'sched_seed', 0, None, None, None, False, None),
            ('_StoreAction', ['--scheduler'], 'scheduler', 'lockstep', ['lockstep', 'seeded'], None, None, False, None),
            ('_StoreAction', ['--algorithm'], 'algorithm', 'nonoriented', ['terminating', 'nonoriented'], None, None, False, None),
            ('_StoreAction', ['--c'], 'c', 2.0, None, None, None, False, 'whp: sampler exponent'),
            ('_StoreAction', ['--kind'], 'kind', 'drop', ['drop', 'duplicate', 'spurious', 'crash'], None, None, False, 'degradation: fault kind to sweep'),
            ('_StoreAction', ['--rates'], 'rates', [0.0, 0.005, 0.01, 0.02, 0.05], None, None, None, False, 'degradation: non-decreasing rate grid'),
            ('_StoreAction', ['--drop-rate'], 'drop_rate', 0.0, None, None, None, False, 'recovery: per-pulse drop probability'),
            ('_StoreAction', ['--duplicate-rate'], 'duplicate_rate', 0.0, None, None, None, False, 'recovery: per-pulse duplication probability'),
            ('_StoreAction', ['--spurious-rate'], 'spurious_rate', 0.0, None, None, None, False, 'recovery: per-slot spurious-pulse probability'),
            ('_StoreAction', ['--fault-seed'], 'fault_seed', 0, None, None, None, False, 'seed of the counter-based fault streams'),
            ('_StoreAction', ['--backend'], 'backend', 'auto', ['auto', 'numpy', 'python'], None, None, False, None),
            ('_StoreAction', ['--block-size'], 'block_size', 256, None, None, None, False, None),
            ('_StoreAction', ['--processes'], 'processes', None, None, None, None, False, "worker processes (int or 'auto')"),
            ('_StoreAction', ['--min-hit-rate'], 'min_hit_rate', None, None, None, None, False, 'fail unless at least this fraction of shards came from the cache (1.0 gates an immediate re-submit on all-hits)'),
        ],
    },
    'farm status': {
        'prog': 'repro farm status',
        'description': None,
        'actions': [
            ('_HelpAction', ['-h', '--help'], 'help', '==SUPPRESS==', None, None, 0, False, 'show this help message and exit'),
            ('_StoreAction', ['--root'], 'root', None, None, None, None, True, 'farm root directory'),
            ('_StoreAction', ['--campaign'], 'campaign', None, None, None, None, False, "campaign id (or 'last'); default: every campaign"),
        ],
    },
    'farm collect': {
        'prog': 'repro farm collect',
        'description': None,
        'actions': [
            ('_HelpAction', ['-h', '--help'], 'help', '==SUPPRESS==', None, None, 0, False, 'show this help message and exit'),
            ('_StoreAction', ['--root'], 'root', None, None, None, None, True, 'farm root directory'),
            ('_StoreAction', ['--campaign'], 'campaign', 'last', None, None, None, False, "campaign id (default: 'last')"),
            ('_StoreAction', ['--confidence'], 'confidence', 0.99, None, None, None, False, 'recovery/degradation: CP interval level'),
            ('_StoreAction', ['--z'], 'z', 2.576, None, None, None, False, 'whp: normal quantile for the interval'),
            ('_StoreAction', ['--interval'], 'interval', 'wilson', ['wilson', 'clopper-pearson'], None, None, False, 'whp: interval method'),
            ('_StoreAction', ['--out'], 'out', None, None, 'PATH', None, False, 'also write the canonical JSON to PATH'),
        ],
    },
    'farm gc': {
        'prog': 'repro farm gc',
        'description': None,
        'actions': [
            ('_HelpAction', ['-h', '--help'], 'help', '==SUPPRESS==', None, None, 0, False, 'show this help message and exit'),
            ('_StoreAction', ['--root'], 'root', None, None, None, None, True, 'farm root directory'),
        ],
    },
}

#: argv (space-joined) -> namespace the handler receives.
PARSE_PINS: dict = {
    'elect --ids 3,7,5,2': {
        'c': 2.0,
        'command': 'elect',
        'flips': None,
        'ids': [3, 7, 5, 2],
        'n': 8,
        'scheduler': None,
        'seed': None,
        'setting': 'oriented',
        'topology': None,
    },
    'elect --setting nonoriented --ids 12,31,7 --flips 1,0,1': {
        'c': 2.0,
        'command': 'elect',
        'flips': [True, False, True],
        'ids': [12, 31, 7],
        'n': 8,
        'scheduler': None,
        'seed': None,
        'setting': 'nonoriented',
        'topology': None,
    },
    'compute --inputs 1,2,3': {
        'command': 'compute',
        'ids': None,
        'inputs': [1, 2, 3],
        'leader': 0,
        'op': 'sum',
    },
    'simulate --ids 3,1,2': {
        'algorithm': 'chang_roberts',
        'command': 'simulate',
        'ids': [3, 1, 2],
        'inputs': None,
        'value': 42,
    },
    'verify --ids 1,2,3': {
        'algorithm': 'terminating',
        'backend': 'auto',
        'block_size': 8192,
        'c': 2.0,
        'command': 'verify',
        'compare_unreduced': False,
        'confidence': 0.99,
        'fault_drop': 0.0,
        'fault_duplicate': 0.0,
        'fault_seed': 0,
        'flips': None,
        'id_max': 1000,
        'ids': [1, 2, 3],
        'inject_burst': None,
        'inject_corrupt': None,
        'inject_crash': None,
        'inject_drop': None,
        'inject_drop_rate': 0.0,
        'inject_duplicate_rate': 0.0,
        'inject_seed': 0,
        'inject_spurious_rate': 0.0,
        'invariants': False,
        'max_states': 2000000,
        'n': 8,
        'processes': None,
        'recovery': False,
        'reduction': 'full',
        'samples': 1000,
        'sched_seed': 0,
        'scheduler': 'lockstep',
        'seed': 0,
        'spill_threshold_mb': 0,
        'statistical': False,
        'topology': None,
        'watchdog': None,
    },
    'verify --statistical --processes auto --inject-crash 1,3,4 --inject-crash 2,5': {
        'algorithm': 'terminating',
        'backend': 'auto',
        'block_size': 8192,
        'c': 2.0,
        'command': 'verify',
        'compare_unreduced': False,
        'confidence': 0.99,
        'fault_drop': 0.0,
        'fault_duplicate': 0.0,
        'fault_seed': 0,
        'flips': None,
        'id_max': 1000,
        'ids': None,
        'inject_burst': None,
        'inject_corrupt': None,
        'inject_crash': ['1,3,4', '2,5'],
        'inject_drop': None,
        'inject_drop_rate': 0.0,
        'inject_duplicate_rate': 0.0,
        'inject_seed': 0,
        'inject_spurious_rate': 0.0,
        'invariants': False,
        'max_states': 2000000,
        'n': 8,
        'processes': 'auto',
        'recovery': False,
        'reduction': 'full',
        'samples': 1000,
        'sched_seed': 0,
        'scheduler': 'lockstep',
        'seed': 0,
        'spill_threshold_mb': 0,
        'statistical': True,
        'topology': None,
        'watchdog': None,
    },
    'solitude': {
        'command': 'solitude',
        'max_id': 16,
    },
    'compare': {
        'command': 'compare',
        'n': 16,
        'seed': 0,
        'spread': 256,
    },
    'timeline --ids 2,3': {
        'command': 'timeline',
        'ids': [2, 3],
        'rows': 60,
    },
    'sweep': {
        'backend': 'auto',
        'c': 2.0,
        'command': 'sweep',
        'farm': None,
        'fleet': True,
        'lemma18': False,
        'min_rate': None,
        'n': 16,
        'processes': None,
        'seed': 0,
        'trials': 1000,
        'workload': 'placements',
    },
    'sweep --no-fleet --processes 2 --farm farmroot': {
        'backend': 'auto',
        'c': 2.0,
        'command': 'sweep',
        'farm': 'farmroot',
        'fleet': False,
        'lemma18': False,
        'min_rate': None,
        'n': 16,
        'processes': 2,
        'seed': 0,
        'trials': 1000,
        'workload': 'placements',
    },
    'faults sweep': {
        'algorithm': 'nonoriented',
        'backend': 'auto',
        'block_size': 256,
        'command': 'faults',
        'confidence': 0.99,
        'farm': None,
        'fault_seed': 0,
        'faults_command': 'sweep',
        'id_max': 64,
        'json': None,
        'kind': 'drop',
        'n': 6,
        'processes': None,
        'rates': [0.0, 0.005, 0.01, 0.02, 0.05],
        'samples': 200,
        'sched_seed': 0,
        'scheduler': 'lockstep',
        'seed': 0,
    },
    'faults sweep --rates 0,0.5 --processes auto': {
        'algorithm': 'nonoriented',
        'backend': 'auto',
        'block_size': 256,
        'command': 'faults',
        'confidence': 0.99,
        'farm': None,
        'fault_seed': 0,
        'faults_command': 'sweep',
        'id_max': 64,
        'json': None,
        'kind': 'drop',
        'n': 6,
        'processes': 'auto',
        'rates': [0.0, 0.5],
        'samples': 200,
        'sched_seed': 0,
        'scheduler': 'lockstep',
        'seed': 0,
    },
    'faults search': {
        'algorithm': 'nonoriented',
        'backend': 'auto',
        'baseline': None,
        'baseline_seed': 101,
        'block_size': 256,
        'budget': 3,
        'command': 'faults',
        'confidence': 0.99,
        'drop_rates': [0.5, 1.0],
        'elite_frac': 0.25,
        'epsilon': 0.3,
        'farm': None,
        'fault_seed': 0,
        'faults_command': 'search',
        'id_max': 64,
        'iterations': 8,
        'max_burst': 6,
        'max_drops': 4,
        'n': 6,
        'offsets': [0, 1, 2, 3],
        'out': None,
        'population': 12,
        'require_beats_baseline': False,
        'restarts': [None, 1, 2, 4],
        'rounds': [1, 2, 3, 4, 6, 8, 12, 16],
        'samples': 64,
        'sched_seed': 0,
        'scheduler': 'lockstep',
        'search_seed': 0,
        'seed': 0,
        'strategy': 'cross-entropy',
        'thresholds': [1, 2, 3],
        'watchdog': None,
    },
    'faults search --restarts none,1 --drop-rates 0.25 --rounds 1,2': {
        'algorithm': 'nonoriented',
        'backend': 'auto',
        'baseline': None,
        'baseline_seed': 101,
        'block_size': 256,
        'budget': 3,
        'command': 'faults',
        'confidence': 0.99,
        'drop_rates': [0.25],
        'elite_frac': 0.25,
        'epsilon': 0.3,
        'farm': None,
        'fault_seed': 0,
        'faults_command': 'search',
        'id_max': 64,
        'iterations': 8,
        'max_burst': 6,
        'max_drops': 4,
        'n': 6,
        'offsets': [0, 1, 2, 3],
        'out': None,
        'population': 12,
        'require_beats_baseline': False,
        'restarts': [None, 1],
        'rounds': [1, 2],
        'samples': 64,
        'sched_seed': 0,
        'scheduler': 'lockstep',
        'search_seed': 0,
        'seed': 0,
        'strategy': 'cross-entropy',
        'thresholds': [1, 2, 3],
        'watchdog': None,
    },
    'faults replay artifact.json': {
        'artifact': 'artifact.json',
        'backend': 'auto',
        'command': 'faults',
        'farm': None,
        'faults_command': 'replay',
    },
    'farm submit --root farmroot': {
        'algorithm': 'nonoriented',
        'backend': 'auto',
        'block_size': 256,
        'c': 2.0,
        'command': 'farm',
        'drop_rate': 0.0,
        'duplicate_rate': 0.0,
        'farm_command': 'submit',
        'fault_seed': 0,
        'id_max': 64,
        'kind': 'drop',
        'min_hit_rate': None,
        'n': 6,
        'plan': None,
        'processes': None,
        'rates': [0.0, 0.005, 0.01, 0.02, 0.05],
        'root': 'farmroot',
        'sched_seed': 0,
        'scheduler': 'lockstep',
        'seed': 0,
        'shard_size': 250,
        'spurious_rate': 0.0,
        'topology': None,
        'total': 1000,
        'workload': 'recovery',
    },
    'farm submit --root farmroot --processes 3 --rates 0,0.1': {
        'algorithm': 'nonoriented',
        'backend': 'auto',
        'block_size': 256,
        'c': 2.0,
        'command': 'farm',
        'drop_rate': 0.0,
        'duplicate_rate': 0.0,
        'farm_command': 'submit',
        'fault_seed': 0,
        'id_max': 64,
        'kind': 'drop',
        'min_hit_rate': None,
        'n': 6,
        'plan': None,
        'processes': 3,
        'rates': [0.0, 0.1],
        'root': 'farmroot',
        'sched_seed': 0,
        'scheduler': 'lockstep',
        'seed': 0,
        'shard_size': 250,
        'spurious_rate': 0.0,
        'topology': None,
        'total': 1000,
        'workload': 'recovery',
    },
    'farm status --root farmroot': {
        'campaign': None,
        'command': 'farm',
        'farm_command': 'status',
        'root': 'farmroot',
    },
    'farm collect --root farmroot': {
        'campaign': 'last',
        'command': 'farm',
        'confidence': 0.99,
        'farm_command': 'collect',
        'interval': 'wilson',
        'out': None,
        'root': 'farmroot',
        'z': 2.576,
    },
    'farm gc --root farmroot': {
        'command': 'farm',
        'farm_command': 'gc',
        'root': 'farmroot',
    },
}


@pytest.mark.parametrize("path", sorted(HELP_PINS))
def test_help_surface(monkeypatch, capsys, path):
    argv = path.split()
    assert help_table(monkeypatch, argv) == HELP_PINS[path]
    assert capsys.readouterr().out.startswith(f"usage: repro {path}".rstrip())


@pytest.mark.parametrize("argv", sorted(PARSE_PINS))
def test_parsed_namespace(monkeypatch, argv):
    assert parsed_namespace(monkeypatch, argv.split()) == PARSE_PINS[argv]
