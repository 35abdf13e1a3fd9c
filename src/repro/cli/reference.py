"""Render ``docs/CLI.md``, the ``repro`` command-line reference, from the
parsers and the verbs' mode tables::

    PYTHONPATH=src python -m repro.cli.reference > docs/CLI.md
"""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import List

from repro.cli import VERBS, build_parser, option_flags, parsers

#: Python 3.10's ``BooleanOptionalAction`` appends this to its help.
BOOLEAN_DEFAULT_SUFFIX = " (default: %(default)s)"

HEADER = """\
# `repro` command-line reference

Rendered by `python -m repro.cli.reference` from the parsers in
`src/repro/cli`. A mode is labelled by the flags that select it; `repro`
exits 1 on an option given on the command line that its mode does not read.
"""


def _row(kinds: dict, action: argparse.Action) -> str:
    value = action.metavar
    if action.choices is not None:
        value = "{" + ",".join(map(str, action.choices)) + "}"
    help_text = action.help or ""
    if isinstance(action, argparse.BooleanOptionalAction):
        help_text = help_text.removesuffix(BOOLEAN_DEFAULT_SUFFIX)
    cells = [
        ", ".join(f"`{flag}`" for flag in action.option_strings) or f"`{action.dest}`",
        kinds.get(type(action), type(action).__name__),
        f"`{value}`" if value else "",
        "" if action.nargs is None else f"`{action.nargs}`",
        f"`{action.default!r}`",
        "yes" if action.required else "",
        help_text,
    ]
    return "| " + " | ".join(cell.replace("|", "\\|") for cell in cells) + " |"


def section(parser: argparse.ArgumentParser) -> List[str]:
    """One parser's heading, description, option table and sub-commands."""
    kinds = {cls: name for name, cls in parser._registries["action"].items() if name}
    lines = [f"## `{parser.prog}`", ""]
    if parser.description:
        lines += [parser.description, ""]
    lines += [
        "| option | kind | metavar or choices | nargs | default | required | help |",
        "| --- | --- | --- | --- | --- | --- | --- |",
        *(_row(kinds, action) for action in parser._actions),
        "",
    ]
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for choice in action._choices_actions:
                lines.append(f"- `{parser.prog} {choice.dest}`: {choice.help}")
            lines.append("")
    return lines


def modes(verb: str, parser: argparse.ArgumentParser) -> List[str]:
    """The verb's modes, each with the options it reads in declaration order."""
    table = getattr(importlib.import_module(f"repro.cli.{verb}"), "MODES", {})
    flags = option_flags(parser)
    lines = ["| mode | reads |", "| --- | --- |"]
    for label, dests in table.items():
        reads = ", ".join(f"`{flag}`" for dest, flag in flags.items() if dest in dests)
        lines.append(f"| `{' '.join(filter(None, [parser.prog, label]))}` | {reads} |")
    return lines + [""] if table else []


def render() -> str:
    lines = [HEADER]
    for parser in parsers(build_parser(VERBS)):
        lines += section(parser)
        verb = parser.prog.removeprefix("repro ")
        if verb in VERBS:
            lines += modes(verb, parser)
    return "\n".join(lines)


if __name__ == "__main__":
    sys.stdout.buffer.write(render().encode("utf-8"))
