"""A run imports what it runs: the parallel engine, the trace readers and
the verification passes load on first use, and every exported name still
resolves."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

_FIR_RUN = """
import sys
from repro.apps import ALL_APPS
from repro.runtime import Interpreter

Interpreter(ALL_APPS["FIR"](), check=True, engine="codegen").run(2)
print(" ".join(sorted(sys.modules)))
"""

NOT_RUN = {
    "repro.runtime.parallel",
    "repro.runtime.ring",
    "repro.obs.watchdog",
    "repro.obs.report",
    "repro.obs.chrome",
    "repro.scheduling.verification",
}


def test_a_codegen_run_leaves_the_unused_subsystems_unimported(tmp_path):
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(
        os.environ,
        REPRO_CODEGEN_CACHE=str(tmp_path / "cgc"),
        PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    )
    done = subprocess.run(
        [sys.executable, "-c", _FIR_RUN], env=env, capture_output=True, text=True, check=True
    )
    loaded = set(done.stdout.split())
    assert "repro.runtime.codegen" in loaded
    assert loaded & NOT_RUN == set()


@pytest.mark.parametrize("package", ["repro.runtime", "repro.obs", "repro.scheduling"])
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        assert hasattr(module, name), name
    namespace = {}
    exec(f"from {package} import *", namespace)
    assert set(module.__all__) <= set(namespace)
    with pytest.raises(AttributeError):
        getattr(module, "no_such_name")
