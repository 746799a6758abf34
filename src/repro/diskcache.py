"""The on-disk cache directory a second process reads instead of recomputing.

One directory — ``.repro_codegen/``, ``REPRO_CODEGEN_CACHE`` overrides —
holds one file per entry:

* ``<fingerprint>.py``: the text of a feedback core's generated module
  (:mod:`repro.runtime.codegen`);
* ``<fingerprint>.code``: that text compiled, as a marshalled code object;
* ``<key>.rates``: the rate reports of one filter class
  (:mod:`repro.analysis.rates`).

An entry's first line is ``# <tag> sha256=<digest of the rest>``; one that
does not verify (truncated, flipped, written under another tag) reads as
absent, and the next writer replaces it.  A write goes to a per-process
temporary file first and lands with ``os.replace``, so a reader racing a
writer sees the old entry or the new one, never a mix.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Dict, List, Optional

from repro.obs.metrics import METRICS, MeteredStats

DEFAULT_CACHE_DIR = ".repro_codegen"

#: Every kind of entry the directory holds.
SUFFIXES = (".py", ".code", ".rates")


def cache_dir() -> Path:
    """The cache directory (``REPRO_CODEGEN_CACHE`` overrides)."""
    return Path(os.environ.get("REPRO_CODEGEN_CACHE") or DEFAULT_CACHE_DIR)


def _cache_labels(key: str) -> Dict[str, str]:
    level, _, event = key.partition("_")
    return {"level": level, "event": event}


#: Cumulative cache counters (process lifetime): the generated-module levels
#: (``mem``, ``disk``), the code objects beside the disk entries (``code``)
#: and the stored rate reports (``analysis``).  Increments mirror into the
#: always-on metrics registry as repro_codegen_cache_total, the key split
#: into {level=..., event=...} labels.
codegen_cache_stats: Dict[str, int] = MeteredStats(
    METRICS.counter(
        "repro_codegen_cache_total",
        "Generated-module, code-object and rate-report cache events by level",
    ),
    _cache_labels,
    {
        "mem_hits": 0,
        "mem_misses": 0,
        "disk_hits": 0,
        "disk_misses": 0,
        "mem_evictions": 0,
        "disk_evictions": 0,
        "code_hits": 0,
        "code_misses": 0,
        "analysis_hits": 0,
        "analysis_misses": 0,
    },
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
    error)."""
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
        return False
    return True


def evict(directory: Path, suffix: str, keep: int) -> List[Path]:
    """Delete the oldest ``*<suffix>`` entries (by mtime) beyond ``keep``
    and return them; a directory another process is pruning at the same
    time is left for the next writer."""
    try:
        names = [name for name in os.listdir(directory) if name.endswith(suffix)]
        if len(names) <= keep:
            return []
        entries = sorted((directory / name for name in names), key=lambda p: p.stat().st_mtime)
        victims = entries[: len(entries) - keep]
        for path in victims:
            path.unlink(missing_ok=True)
    except OSError:
        return []
    return victims


def clear_disk() -> None:
    """Delete every entry of every kind."""
    directory = cache_dir()
    try:
        for path in directory.iterdir():
            if path.name.endswith(SUFFIXES):
                path.unlink(missing_ok=True)
    except OSError:
        pass
