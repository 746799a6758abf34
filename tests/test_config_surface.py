"""The option surface is frozen: what ``src/`` reads is what README documents.

Every ``REPRO_*`` environment variable named anywhere under ``src/`` must
appear in README's "Environment variables" table and vice versa, so a new
knob cannot land undocumented and a retired one cannot linger in the docs.
The retired ``Interpreter(tune=...)`` argument must fail loudly rather than
be silently accepted, and the ``engine=`` names are pinned.  The docs and the CI workflow may only name bench and
test files that exist, and CI runs nothing a local command does not.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.apps import ALL_APPS
from repro.runtime import ENGINES, ExecutionPlan, Interpreter

REPO_ROOT = Path(__file__).resolve().parents[1]
_NAME = re.compile(r"REPRO_[A-Z_]+")

DOCUMENTED = {"REPRO_CODEGEN_CACHE", "REPRO_OBS_DIR", "REPRO_METRICS"}


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


_FILE = re.compile(
    r"\b(?:benchmarks/[\w/]+\.py|tests/\w+\.py|bench_e\w+\.py|BENCH\w*\.json)\b"
)
_CI = REPO_ROOT / ".github" / "workflows" / "ci.yml"


def _live_design_text() -> str:
    """DESIGN.md without what is allowed to name deleted files: the
    "Retired mechanisms" section and the experiment index's retired rows."""
    text = (REPO_ROOT / "DESIGN.md").read_text()
    text = re.sub(r"^## Retired mechanisms\n.*?(?=^## )", "", text, flags=re.S | re.M)
    return "\n".join(
        line
        for line in text.splitlines()
        if not (line.startswith("| E") and "retired" in line)
    )


def test_docs_name_only_files_that_exist():
    texts = {
        "README.md": (REPO_ROOT / "README.md").read_text(),
        "DESIGN.md": _live_design_text(),
        "ci.yml": _CI.read_text(),
        "SKILL.md": (REPO_ROOT / ".claude/skills/verify/SKILL.md").read_text(),
    }
    missing = []
    for doc, text in texts.items():
        for name in sorted(set(_FILE.findall(text))):
            if "/" in name:
                homes = [REPO_ROOT / name]
            else:  # a bare file name: wherever such files live
                homes = [REPO_ROOT / d / name for d in (".", "benchmarks", "tests")]
            if not any(home.exists() for home in homes):
                missing.append(f"{doc}: {name}")
    assert missing == []


def test_ci_has_no_inline_scripts(pytestconfig):
    text = _CI.read_text()
    assert "<<" not in text  # no heredoc: every step is a command anyone can run
    assert len(re.findall(r"^  \w[\w-]*:\n    runs-on:", text, flags=re.M)) == 1
    testpaths = pytestconfig.getini("testpaths")
    for line in text.splitlines():
        if "pytest" not in line or "pip install" in line:
            continue
        for path in re.findall(r"(?:tests|benchmarks)/\S*", line):
            assert any(
                path == root or path.startswith(root.rstrip("/") + "/")
                for root in testpaths
            ), path


def test_retired_tune_argument_is_rejected():
    with pytest.raises(TypeError):
        Interpreter(ALL_APPS["FIR"](), tune=True)


def test_the_engine_names_are_pinned():
    """Three engines, four names: ``"batched"`` is the compiled engine's
    older name, kept because scripts and the frozen ledger say it."""
    assert ENGINES == ("scalar", "batched", "parallel", "codegen")


def test_batched_and_codegen_name_one_engine():
    sessions = [Interpreter(ALL_APPS["DToA"](), engine=name) for name in ("batched", "codegen")]
    assert {type(s.plan) for s in sessions} == {ExecutionPlan}
    assert [s.engine_used for s in sessions] == ["codegen", "codegen"]
