"""Pins of the ``repro`` command-line surface: every flag, parse and mode.

``docs/CLI.md`` must equal ``repro.cli.reference``'s rendering of the
parsers byte for byte, and the parser ``main([*path, "--help"])`` prints
must render to that file's section.  For each verb path the pins also
hold the namespace the handler receives for a minimal valid argv,
captured by spying on ``argparse.ArgumentParser.parse_args`` (callables
and ``argv`` dropped).  A flag added, removed, renamed or re-defaulted
fails one of these.  Every mode reaches its handler with every option it
reads, and an option its mode ignores is refused.
"""

from __future__ import annotations

import argparse
import importlib
from pathlib import Path

import pytest

from repro.cli import VERBS, build_parser, main, parsers
from repro.cli.reference import render, section

PRINT_HELP = argparse.ArgumentParser.print_help
PARSE_ARGS = argparse.ArgumentParser.parse_args
REFERENCE = Path(__file__).resolve().parent.parent / "docs" / "CLI.md"


class Parsed(Exception):
    """Raised by a ``parse_args`` or ``run`` spy, so the handler never runs."""


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


def test_cli_reference_is_current():
    """Regenerate with ``PYTHONPATH=src python -m repro.cli.reference >
    docs/CLI.md``."""
    assert REFERENCE.read_bytes() == render().encode("utf-8")


@pytest.mark.parametrize(
    "path", [p.prog.removeprefix("repro").strip() for p in parsers(build_parser(VERBS))]
)
def test_help_surface(monkeypatch, capsys, path):
    printed = []

    def spy(self, file=None):
        printed.append(self)
        PRINT_HELP(self, file)

    monkeypatch.setattr(argparse.ArgumentParser, "print_help", spy)
    with pytest.raises(SystemExit) as exit_info:
        main([*path.split(), "--help"])
    assert exit_info.value.code in (0, None)
    (parser,) = printed
    assert "\n".join(section(parser)) in REFERENCE.read_text(encoding="utf-8")
    assert capsys.readouterr().out.startswith(f"usage: repro {path}".rstrip())


@pytest.mark.parametrize(
    "verb, label",
    [(verb, label) for verb in VERBS
     for label in getattr(importlib.import_module(f"repro.cli.{verb}"), "MODES", ())],
)
def test_each_mode_accepts_every_option_it_reads(monkeypatch, verb, label):
    """The label's sub-verb and every option the mode reads (a label flag takes
    the label's spelling and word, another choice its default, the rest ``1``)
    reach ``run``."""
    module = importlib.import_module(f"repro.cli.{verb}")
    words = label.split()
    argv = [verb, *(word for word in words[:1] if word[:2] != "--")]  # a sub-verb
    chosen = dict(zip(words, words[1:]))
    reads = {}
    for parser in parsers(build_parser([verb])):
        for action in parser._actions:
            if action.dest in module.MODES[label] and action.option_strings:
                reads.setdefault(action.dest, action)
    assert set(reads) == module.MODES[label]
    for action in reads.values():
        spelled = [flag for flag in action.option_strings if flag in words]
        flag = (spelled or action.option_strings)[0]
        argv.append(flag)
        if action.nargs != 0:
            argv.append(chosen.get(flag, action.default if action.choices else "1"))
    labels = []

    def spy(args):
        labels.append(module.mode(args))
        raise Parsed

    monkeypatch.setattr(module, "run", spy)
    with pytest.raises(Parsed):
        main(argv)
    assert labels == [label]


#: (argv, the one line ``main`` exits 1 with).
REFUSALS = [
    ("verify --statistical --samples 16 --n 4 --id-max 20 --reduction none --max-states 5",
     "verify --statistical ignores --reduction, --max-states; drop them"),
    ("verify --statistical --samples 8 --n 4 --id-max 20 --ids 1,2,3 --flips 1,0,1 --c 7",
     "verify --statistical ignores --ids, --c, --flips; drop them"),
    ("verify --statistical --algorithm anonymous --n 4 --samples 4 --scheduler seeded --sched-seed 3",
     "verify --statistical --algorithm anonymous ignores --scheduler, --sched-seed; drop them"),
    ("verify --ids 1,2,3 --flips 1,0,1", "verify ignores --flips; drop them"),
    ("verify --ids 1,2,3 --samples 5 --inject-drop-rate 0.5 --recovery --block-size 3",
     "verify ignores --samples, --block-size, --inject-drop-rate, --recovery; drop them"),
    ("elect --ids 3,7,5 --flips 1,0,1 --n 99 --c 7",
     "elect --setting oriented ignores --flips, --n, --c; drop them"),
    ("elect --topology theta --setting nonoriented --flips 1",
     "elect --topology ignores --setting, --flips; drop them"),
    ("elect --setting anonymous --n 4 --seed 1 --ids 9,9,9",
     "elect --setting anonymous ignores --ids; drop them"),
    ("sweep --workload placements --n 4 --trials 8 --min-rate 0.99 --lemma18 --c 9",
     "sweep --workload placements ignores --c, --min-rate, --lemma18; drop them"),
    ("sweep --workload placements --n 4 --trials 8 --no-fleet --backend numpy",
     "sweep --workload placements --no-fleet ignores --backend; drop them"),
    ("sweep --workload whp --n 4 --trials 8 --no-fleet --backend numpy",
     "sweep --workload whp --no-fleet ignores --backend; drop them"),
    ("sweep --workload whp --n 4 --trials 8 --no-fleet --processes 2",
     "sweep --workload whp --no-fleet ignores --processes; drop them"),
    ("compute --ids 14,3,27 --inputs 18,22,19 --leader 2",
     "compute --ids ignores --leader; drop them"),
    ("simulate --ids 4,9,2 --value 7 --inputs 1,2,3",
     "simulate --algorithm chang_roberts ignores --value, --inputs; drop them"),
    ("farm submit --root R --workload placements --n 4 --total 8 --shard-size 8 --drop-rate 0.5 "
     "--kind crash --plan nowhere.json --topology bridge --c 9", "farm submit --workload "
     "placements ignores --plan, --topology, --c, --kind, --drop-rate; drop them"),
    ("verify --statistical --samples 16 --n 4 --id-max 20 --fault-dr 0.5",
     "verify --statistical ignores --fault-drop; drop them"),
    ("verify --statistical --samples 16 --n 4 --id-max 20 --max-states=5",
     "verify --statistical ignores --max-states; drop them"),
]


@pytest.mark.parametrize("argv, message", REFUSALS)
def test_refuses_the_options_its_mode_ignores(monkeypatch, tmp_path, argv, message):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        main(argv.split())
    assert excinfo.value.code == message
    assert not any(tmp_path.iterdir())  # refused before the farm root exists


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


@pytest.mark.parametrize("argv", sorted(PARSE_PINS))
def test_parsed_namespace(monkeypatch, argv):
    assert parsed_namespace(monkeypatch, argv.split()) == PARSE_PINS[argv]
