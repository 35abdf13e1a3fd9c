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
line.  It is also the one error boundary: a
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
from typing import Optional, Sequence

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


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Content-Oblivious Leader Election on Rings — reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in VERBS.items():
        verb_parser = sub.add_parser(name, help=help_text)
        if argv[:1] == [name]:
            verb = importlib.import_module(f"{__name__}.{name}")
            verb.add_arguments(verb_parser)
            verb_parser.set_defaults(run=verb.run)
    args = parser.parse_args(argv)
    args.argv = argv
    try:
        return args.run(args)
    except argparse.ArgumentError as error:
        parser.error(str(error))
    except ConfigurationError as error:
        raise SystemExit(str(error)) from None
    except SimulationLimitExceeded as error:
        raise SystemExit(f"{type(error).__name__}: {error}") from None
