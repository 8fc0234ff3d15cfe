"""Shared fixtures and the experiment-report channel for benchmarks.

Each benchmark regenerates one of the paper's tables/figures (see
DESIGN.md §4).  Besides timing, every experiment emits its reproduced
rows/series through :func:`emit_report`; the collected reports are printed
after the pytest-benchmark table and written to
``benchmarks/reports/<slug>.latest.txt``, which git ignores.  The tracked
``<slug>.txt`` files are the committed record: a run never rewrites them,
so timing churn stays out of the working tree.
"""

from __future__ import annotations

import os
from typing import Iterable, Mapping

import pytest

from repro.clinical import build_world

_REPORTS: list[tuple[str, str]] = []
_REPORT_DIR = os.path.join(os.path.dirname(__file__), "reports")


def _format_rows(rows: Iterable[Mapping[str, object]]) -> str:
    rows = list(rows)
    if not rows:
        return "(no rows)"
    columns: list[str] = []
    for row in rows:
        for column in row:
            if column not in columns:
                columns.append(column)
    widths = {
        column: max(len(str(column)), *(len(str(r.get(column))) for r in rows))
        for column in columns
    }
    header = "  ".join(str(c).ljust(widths[c]) for c in columns)
    divider = "  ".join("-" * widths[c] for c in columns)
    body = [
        "  ".join(str(r.get(c)).ljust(widths[c]) for c in columns) for r in rows
    ]
    return "\n".join([header, divider] + body)


def emit_report(
    title: str, rows: Iterable[Mapping[str, object]], notes: str = ""
) -> None:
    """Record one experiment's reproduced table for the session summary."""
    text = _format_rows(rows)
    if notes:
        text += f"\n  note: {notes}"
    _REPORTS.append((title, text))
    os.makedirs(_REPORT_DIR, exist_ok=True)
    slug = "".join(ch if ch.isalnum() else "_" for ch in title.lower())[:60]
    with open(os.path.join(_REPORT_DIR, f"{slug}.latest.txt"), "w") as handle:
        handle.write(f"{title}\n{'=' * len(title)}\n{text}\n")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _REPORTS:
        return
    terminalreporter.write_sep("=", "reproduced paper artifacts")
    for title, text in _REPORTS:
        terminalreporter.write_line("")
        terminalreporter.write_line(title)
        terminalreporter.write_line("-" * len(title))
        for line in text.splitlines():
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def world():
    """The shared clinical world for all experiments (fixed seed)."""
    return build_world(300, seed=7)


@pytest.fixture(scope="session")
def small_world():
    """A smaller world for per-iteration rebuild benchmarks."""
    return build_world(60, seed=7)
