"""Shared reporting machinery for the experiment tests.

Every ``bench_*.py`` file regenerates experiments from DESIGN.md's index
(the paper has no empirical tables, so the "tables" are its theorems'
claimed quantities) and emits a human-readable table: paper-claimed value
next to the measured one.  Tables are accumulated here and printed in the
terminal summary so they survive pytest's output capture; nothing is
written to disk.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import pytest

_SECTIONS: List[Tuple[str, List[str]]] = []


class ExperimentReport:
    """Collects one experiment's table for the terminal summary."""

    def __init__(self, title: str) -> None:
        self.title = title
        self.lines: List[str] = []
        _SECTIONS.append((title, self.lines))

    def line(self, text: str = "") -> None:
        self.lines.append(text)

    def table(self, headers: Sequence[str], rows: Sequence[Sequence[object]]) -> None:
        """Append an aligned text table."""
        cells = [[str(cell) for cell in row] for row in rows]
        widths = [
            max(len(headers[col]), *(len(row[col]) for row in cells)) if cells else len(headers[col])
            for col in range(len(headers))
        ]
        def fmt(row):
            return "  ".join(str(cell).rjust(widths[i]) for i, cell in enumerate(row))

        self.line(fmt(headers))
        self.line(fmt(["-" * w for w in widths]))
        for row in cells:
            self.line(fmt(row))


@pytest.fixture
def report(request) -> ExperimentReport:
    """Per-test experiment report, keyed by the test's id."""
    return ExperimentReport(request.node.nodeid)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _SECTIONS:
        return
    terminalreporter.section("experiment reproduction tables")
    for title, lines in _SECTIONS:
        terminalreporter.write_line("")
        terminalreporter.write_line(f"== {title}")
        for line in lines:
            terminalreporter.write_line(line)
