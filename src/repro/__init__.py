"""repro — a Python reproduction of the StreamIt language and compiler.

Reproduces "Language and Compiler Design for Streaming Applications"
(Thies et al., IPDPS 2004) and the StreamIt results the supplied paper text
reports: linear analysis and optimization of stream programs, information-
wavefront (`sdep`) scheduling semantics with teleport messaging, and the
coarse-grained task/data/software-pipeline parallelism study on a simulated
16-core Raw-like machine.

Quick start::

    from repro.graph import Pipeline, ArraySource, CollectSink
    from repro.apps.fir import FIRFilter
    from repro.runtime import Interpreter

    sink = CollectSink()
    app = Pipeline(ArraySource([1.0, 2.0, 3.0, 4.0]), FIRFilter([0.5, 0.5]), sink)
    Interpreter(app).run(periods=8)
    print(sink.collected)
"""

__version__ = "1.0.0"

import importlib
import sys

from repro import errors

__all__ = ["errors", "__version__"]


def lazy_getattr(package: str, modules: dict):
    """A module ``__getattr__`` (PEP 562) for ``package`` that imports the
    names of ``modules`` (module -> the names it defines) on first use."""
    home = {name: module for module, names in modules.items() for name in names}

    def __getattr__(name: str):
        if name not in home:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(home[name]), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
