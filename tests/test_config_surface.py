"""The option surface is frozen: what ``src/`` reads is what README documents.

Every ``REPRO_*`` environment variable named anywhere under ``src/`` must
appear in README's "Environment variables" table and vice versa, so a new
knob cannot land undocumented and a retired one cannot linger in the docs.
The retired ``Interpreter(tune=...)`` argument must fail loudly rather than
be silently accepted.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.apps import ALL_APPS
from repro.runtime import Interpreter

REPO_ROOT = Path(__file__).resolve().parents[1]
_NAME = re.compile(r"REPRO_[A-Z_]+")

DOCUMENTED = {
    "REPRO_CODEGEN_CACHE",
    "REPRO_OBS_DIR",
    "REPRO_OBS_PUBLISH_S",
    "REPRO_METRICS",
    "REPRO_WATCHDOG",
    "REPRO_WATCHDOG_S",
    "REPRO_FLIGHT_CAP",
    "REPRO_TRACE_CAP",
    "REPRO_RING_SLACK",
    "REPRO_RING_STALL_S",
}


def _names_in_src() -> set:
    names = set()
    for path in (REPO_ROOT / "src").rglob("*.py"):
        names.update(_NAME.findall(path.read_text()))
    return names


def _names_in_readme_table() -> set:
    """First-column names of the README table whose rows start with a
    backquoted ``REPRO_*`` variable."""
    names = set()
    for line in (REPO_ROOT / "README.md").read_text().splitlines():
        match = re.match(r"\|\s*`(REPRO_[A-Z_]+)`\s*\|", line)
        if match:
            names.add(match.group(1))
    return names


def test_src_reads_exactly_the_documented_variables():
    assert _names_in_src() == DOCUMENTED


def test_readme_table_lists_exactly_the_documented_variables():
    assert _names_in_readme_table() == DOCUMENTED


def test_retired_tune_argument_is_rejected():
    with pytest.raises(TypeError):
        Interpreter(ALL_APPS["FIR"](), tune=True)
