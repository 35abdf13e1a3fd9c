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

Each verb is the module ``repro.cli.<verb>``, with an
``add_arguments(parser)`` and a ``run(args)``.  :func:`main` names every
verb in the parser but imports and fills in only the one on the command
line.  A verb whose run path branches on a flag's value also has
``MODES`` (mode label -> the dests that path reads) and ``mode(args)``;
:func:`main` refuses a given option the chosen mode does not read.
``docs/CLI.md`` is rendered from both by ``repro.cli.reference``.

:func:`main` is also the one error boundary: a
:class:`~repro.exceptions.ConfigurationError` exits 1 with its message, a
:class:`~repro.exceptions.SimulationLimitExceeded` (a run that hit its
step budget) exits 1 with one line naming it, and an
:class:`argparse.ArgumentError` a verb raises exits 2 with the usage.  A
:class:`~repro.exceptions.ProtocolViolation` is a bug, not a bad input,
and keeps its traceback.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import Dict, Iterable, Iterator, Optional, Sequence

from repro.exceptions import ConfigurationError, SimulationLimitExceeded

#: verb -> its one-line ``--help``.
VERBS = {
    "elect": "run a leader election",
    "compute": "content-oblivious computation (Cor 5)",
    "simulate": "run a content-carrying algorithm over pulses (Cor 5, universal)",
    "verify": "model-check ALL schedules (small rings) or SAMPLED "
    "schedules at scale (--statistical)",
    "solitude": "solitude patterns (Definition 21)",
    "compare": "message counts vs classic baselines",
    "timeline": "ASCII space-time diagram of a run",
    "sweep": "Monte Carlo sweeps (vectorized fleet engine)",
    "faults": "fault-model tooling (graceful-degradation sweeps)",
    "farm": "persistent sweep farm: resumable campaigns with a "
    "content-addressed result cache",
}


def build_parser(names: Iterable[str]) -> argparse.ArgumentParser:
    """The ``repro`` parser: every verb is named, and only the verbs in
    ``names`` are imported and filled in."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Content-Oblivious Leader Election on Rings — reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in VERBS.items():
        verb_parser = sub.add_parser(name, help=help_text)
        if name in names:
            verb = importlib.import_module(f"{__name__}.{name}")
            verb.add_arguments(verb_parser)
            verb_parser.set_defaults(run=verb.run)
    return parser


def parsers(parser: argparse.ArgumentParser) -> Iterator[argparse.ArgumentParser]:
    """``parser`` and every sub-parser below it, each before its own."""
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for child in action.choices.values():
                yield from parsers(child)


def option_flags(parser: argparse.ArgumentParser) -> Dict[str, str]:
    """dest -> first option string, in declaration order."""
    flags: Dict[str, str] = {}
    for node in parsers(parser):
        for action in node._actions:
            if action.option_strings:
                flags.setdefault(action.dest, action.option_strings[0])
    return flags


def refuse_unread(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Raise :class:`ConfigurationError` naming each option on the command
    line that the verb's chosen mode does not read, in declaration order."""
    module = sys.modules[f"{__name__}.{args.command}"]
    label = module.mode(args) if hasattr(module, "MODES") else None
    if label is None:
        return
    # Re-parsed with every default suppressed, the namespace holds exactly
    # the given dests, abbreviated flags and --flag=value included.
    saved = [
        (action, action.default) for node in parsers(parser) for action in node._actions
    ]
    try:
        for action, _ in saved:
            action.default = argparse.SUPPRESS
        ignored = set(vars(parser.parse_args(args.argv))) - module.MODES[label]
    finally:
        for action, default in saved:
            action.default = default
    unread = [flag for dest, flag in option_flags(parser).items() if dest in ignored]
    if unread:
        chosen = " ".join(filter(None, [args.command, label]))
        raise ConfigurationError(f"{chosen} ignores {', '.join(unread)}; drop them")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser(argv[:1])
    args = parser.parse_args(argv)
    args.argv = argv
    try:
        refuse_unread(parser, args)
        return args.run(args)
    except argparse.ArgumentError as error:
        parser.error(str(error))
    except ConfigurationError as error:
        raise SystemExit(str(error)) from None
    except SimulationLimitExceeded as error:
        raise SystemExit(f"{type(error).__name__}: {error}") from None
