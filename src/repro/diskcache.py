"""The on-disk cache directory a second process reads instead of recomputing.

One directory — ``.repro_codegen/``, ``REPRO_CODEGEN_CACHE`` overrides —
holds one ``<key>.rates`` entry per filter class: that class's rate
reports (:mod:`repro.analysis.rates`).

An entry's first line is ``# <tag> sha256=<digest of the rest>``; one that
does not verify (truncated, flipped, written under another tag) reads as
absent, and the next writer replaces it.  A write goes to a per-process
temporary file first and lands with ``os.replace``, so a reader racing a
writer sees the old entry or the new one, never a mix.
"""

from __future__ import annotations

import hashlib
import os
import re
from contextlib import suppress
from pathlib import Path
from typing import Dict, Optional

from repro.obs.metrics import METRICS, MeteredStats

DEFAULT_CACHE_DIR = ".repro_codegen"

#: The one kind of entry the directory holds.
SUFFIX = ".rates"

#: A write that never landed: ``<entry>.tmp<pid>``.
_TEMPORARY = re.compile(r"\.tmp\d+$")


def cache_dir() -> Path:
    """The cache directory (``REPRO_CODEGEN_CACHE`` overrides)."""
    return Path(os.environ.get("REPRO_CODEGEN_CACHE") or DEFAULT_CACHE_DIR)


def _cache_labels(key: str) -> Dict[str, str]:
    level, _, event = key.partition("_")
    return {"level": level, "event": event}


#: Cumulative store counters (process lifetime): entry lookups that found
#: a verified entry or not, and entries evicted.  Increments mirror into
#: the always-on metrics registry as repro_codegen_cache_total, the key
#: split into {level=..., event=...} labels.
codegen_cache_stats: Dict[str, int] = MeteredStats(
    METRICS.counter(
        "repro_codegen_cache_total",
        "Rate-report store lookups and evictions",
    ),
    _cache_labels,
    {"disk_hits": 0, "disk_misses": 0, "disk_evictions": 0},
)


def _digest_line(tag: str, body: bytes) -> bytes:
    return f"# {tag} sha256={hashlib.sha256(body).hexdigest()}".encode()


def read_entry(path: Path, tag: str) -> Optional[bytes]:
    """The bytes stored at ``path`` under ``tag``; None if there is no such
    file or its first line is not ``tag`` and the digest of the rest."""
    try:
        header, _, body = path.read_bytes().partition(b"\n")
    except OSError:
        return None
    return body if header == _digest_line(tag, body) else None


def write_entry(path: Path, tag: str, body: bytes) -> bool:
    """Store ``body`` at ``path`` under ``tag``, atomically; False when the
    directory is not writable (the cache is an optimisation, never an
    error).  A write that fails takes its temporary file with it."""
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        try:
            out = open(tmp, "wb")
        except FileNotFoundError:  # the first entry creates the directory
            os.makedirs(path.parent, exist_ok=True)
            out = open(tmp, "wb")
        with out:
            out.write(_digest_line(tag, body) + b"\n" + body)
        os.replace(tmp, path)
    except OSError:
        with suppress(OSError):
            os.unlink(tmp)
        return False
    return True


def evict(directory: Path, suffix: str, keep: int) -> None:
    """Delete the oldest ``*<suffix>`` entries (by mtime) beyond ``keep``,
    counting each under ``disk_evictions``; a directory another process is
    pruning at the same time is left for the next writer."""
    try:
        names = [name for name in os.listdir(directory) if name.endswith(suffix)]
        if len(names) <= keep:
            return
        entries = sorted((directory / name for name in names), key=lambda p: p.stat().st_mtime)
        for path in entries[: len(entries) - keep]:
            path.unlink(missing_ok=True)
            codegen_cache_stats["disk_evictions"] += 1
    except OSError:
        pass


def clear_disk() -> None:
    """Delete every entry and every temporary file a write left behind (a
    process killed mid-write); one that cannot be deleted is skipped."""
    try:
        paths = list(cache_dir().iterdir())
    except OSError:
        return
    for path in paths:
        if path.name.endswith(SUFFIX) or _TEMPORARY.search(path.name):
            with suppress(OSError):
                path.unlink()
