"""Who may write a tape's history: the channels and the interpreter's settle.

A tape's history is two counters, ``pushed_count`` (the paper's n(t)) and
``popped_count`` (p(t)).  A channel counts the items it moves itself; an
edge some block keeps off its channel (a feedback core's, the small-call
form's, a lowered region's inner edges, a parallel worker's private ones)
is settled from the schedule by ``Interpreter._settle`` when somebody reads.
No block keeps counters of its own: this scans every module under
``src/repro`` and fails on any other assignment to either counter.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

COUNTERS = {"pushed_count", "popped_count"}

#: Modules whose classes are channels: they count what they move.
CHANNEL_MODULES = {"runtime/channel.py", "runtime/array_channel.py", "runtime/ring.py"}

#: The one writer outside them, as ``(module, class, function)``.
SETTLE = ("runtime/interpreter.py", "Interpreter", "_settle")


def _writes(tree: ast.AST):
    """``(class, function, line)`` of every store to a history counter:
    an assignment (plain, augmented or annotated) to ``x.pushed_count`` /
    ``x.popped_count``, or a ``setattr`` naming one."""
    found = []

    def visit(node, cls, fn):
        if isinstance(node, ast.ClassDef):
            cls, fn = node.name, None
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Attribute) and sub.attr in COUNTERS:
                    found.append((cls, fn, node.lineno))
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "setattr"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value in COUNTERS
        ):
            found.append((cls, fn, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, cls, fn)

    visit(tree, None, None)
    return found


def test_only_channels_and_the_settle_write_history_counters():
    offenders = []
    settled = False
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        for cls, fn, line in _writes(ast.parse(path.read_text(), str(path))):
            if module in CHANNEL_MODULES and cls is not None:
                continue
            if (module, cls, fn) == SETTLE:
                settled = True
                continue
            offenders.append(f"{module}:{line} ({cls}.{fn})")
    assert offenders == [], "history counters written outside a channel: " + ", ".join(
        offenders
    )
    assert settled, "Interpreter._settle no longer writes the counters it settles"


def test_the_scan_sees_every_kind_of_store():
    source = (
        "class Block:\n"
        "    def run(self, chan):\n"
        "        chan.pushed_count += 1\n"
        "        chan.popped_count = 2\n"
        "        self.out.pushed_count: int = 3\n"
        "        setattr(chan, 'popped_count', 4)\n"
        "        chan.pushed_count_seen = 5\n"
    )
    assert _writes(ast.parse(source)) == [
        ("Block", "run", 3),
        ("Block", "run", 4),
        ("Block", "run", 5),
        ("Block", "run", 6),
    ]
