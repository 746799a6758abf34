"""The ``math`` functions a lifted ``work()`` may apply to stream data.

One table for both sides of lifting: the symbolic executor
(:mod:`repro.analysis.executor`) certifies a filter only when every
``math`` call on stream data names a function listed here, and the lifted
namespace (:data:`repro.runtime.vectorize.VEC_MATH`) rebinds exactly these
names.  A leaf module, so that neither side imports the other.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

#: numpy ufuncs bit-identical to ``math.*`` on every element and raising a
#: floating-point flag exactly where ``math`` raises
#: (``tests/test_batched_engine.py`` checks both).
EXACT_UFUNCS: Dict[str, Any] = {
    "sqrt": np.sqrt,
    "sin": np.sin,
    "cos": np.cos,
    "fabs": np.fabs,
    "copysign": np.copysign,
}

#: name -> arity for functions applied element-wise through ``math`` itself:
#: those whose ufuncs are not known to match ``math`` bit for bit here, and
#: the roundings, whose ufuncs return ``inf`` where ``math`` raises and
#: ``-0.0`` where it returns ``0``.
WRAPPED_FUNCS: Dict[str, int] = {
    **dict.fromkeys(("floor", "ceil", "trunc"), 1),
    **dict.fromkeys(("atan2", "hypot", "fmod", "pow"), 2),
    **dict.fromkeys(
        ("atan", "asin", "acos", "tan", "exp", "expm1", "log", "log1p", "log2",
         "log10", "sinh", "cosh", "tanh"),
        1,
    ),
}

VECTOR_SAFE_MATH = frozenset(EXACT_UFUNCS) | frozenset(WRAPPED_FUNCS)
