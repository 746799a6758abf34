"""The cost ledger's contract with the program, checked without running it.

``benchmarks/ledger/`` is frozen: a change to the program never edits it.
So a refactor that renames a name the ledger imports, or makes an app run
on an engine the ledger ranks below the one it pins, would break the
benchmark without failing anything else.  These tests read the ledger's
own files: every ``repro`` name they import must resolve, and every app
must run on an engine of ``ENGINE_RANK`` at or above its expectation.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import warnings
from pathlib import Path

import pytest

from repro.apps import ALL_APPS
from repro.errors import EngineDowngradeWarning
from repro.graph import CollectSink
from repro.runtime import Interpreter, codegen_cache_stats

LEDGER = Path(__file__).resolve().parents[1] / "benchmarks" / "ledger"


def _ledger_module(name: str):
    """One ledger file, loaded under a private name (the ledger puts its own
    directory on ``sys.path``; a test must not)."""
    spec = importlib.util.spec_from_file_location(f"_ledger_{name}", LEDGER / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _ledger_module("workloads")


def _repro_imports():
    """``(module, name)`` for every ``repro`` import in the ledger's files;
    ``name`` is None for a plain ``import repro...``."""
    found = set()
    for path in sorted(LEDGER.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
                found.update((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                found.update(
                    (alias.name, None)
                    for alias in node.names
                    if alias.name.split(".")[0] == "repro"
                )
    return sorted(found, key=lambda pair: (pair[0], pair[1] or ""))


IMPORTS = _repro_imports()


def test_the_ledger_imports_what_it_measures():
    # Not vacuous: the per-layer probe reaches into the emitter and the plan.
    assert ("repro.runtime.codegen_emit", "emit_module") in IMPORTS
    assert ("repro.runtime.plan", "_plan_signature") in IMPORTS
    assert len(IMPORTS) > 20


@pytest.mark.parametrize(
    "module, name", IMPORTS, ids=[f"{m}:{n}" if n else m for m, n in IMPORTS]
)
def test_every_repro_name_the_ledger_imports_resolves(module, name):
    owner = importlib.import_module(module)
    if name is not None and not hasattr(owner, name):
        importlib.import_module(f"{module}.{name}")  # a submodule


def test_the_cache_counters_the_ledger_reads_exist():
    assert {"disk_hits", "disk_misses"} <= set(codegen_cache_stats)


@pytest.mark.parametrize("app_name", sorted(ALL_APPS), ids=str)
def test_every_app_runs_on_an_engine_the_ledger_accepts(app_name, tmp_path, monkeypatch):
    """What one ledger job does (``harness.run_job``): a checked codegen
    session over two one-period calls."""
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path / "cgc"))
    rank = WORKLOADS.ENGINE_RANK
    expected = WORKLOADS.EXPECTED_ENGINE.get(app_name, WORKLOADS.DEFAULT_ENGINE)
    app = ALL_APPS[app_name]()
    sink = next(f for f in app.filters() if isinstance(f, CollectSink))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EngineDowngradeWarning)
        with Interpreter(app, check=True, engine="codegen") as interp:
            interp.run_init()
            for _ in range(2):
                interp.run_steady(1)
            assert interp.plan.vectorization_report()
    assert len(sink.collected) > 0
    assert interp.engine_used in rank
    assert rank[interp.engine_used] >= rank[expected]
