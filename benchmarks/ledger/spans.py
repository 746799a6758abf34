"""The benchmark's own span recorder for the traced run.

Spans wrap calls into the program's public functions *from outside* — the
program carries no ledger instrumentation.  Each span records name, start,
end, its parent span and the id of the app-job it belongs to; everything
stays in memory until :meth:`SpanRecorder.write` dumps a Chrome trace.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional


class SpanRecorder:
    def __init__(self) -> None:
        #: [name, start_s, end_s, parent index or -1, job id]
        self.spans: List[list] = []
        #: job id -> calibrated/raw seconds while that job ran (calib.py);
        #: spans keep raw times, totals may be asked for in calibrated ones.
        self.scales: Dict[str, float] = {}
        self._stack: List[int] = []
        self._job: Optional[str] = None

    @contextmanager
    def job(self, job_id: str):
        """Spans opened inside share ``job_id`` (one id per app-job)."""
        previous, self._job = self._job, job_id
        try:
            yield
        finally:
            self._job = previous

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), None, parent, self._job]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def ingest(self, spans: Iterable[list], scales: Dict[str, float]) -> None:
        """Append spans recorded in another process (parents re-based)."""
        self.scales.update(scales)
        base = len(self.spans)
        for name, start, end, parent, job in spans:
            self.spans.append(
                [name, start, end, parent + base if parent >= 0 else -1, job]
            )

    # -- queries ---------------------------------------------------------------

    def total(self, name: str, calibrated: bool = True) -> float:
        """Summed duration of every closed span called ``name``, each scaled
        by its job's calibration factor unless raw seconds are asked for."""
        return sum(
            (s[2] - s[1]) * (self.scales.get(s[4], 1.0) if calibrated else 1.0)
            for s in self.spans
            if s[0] == name and s[2] is not None
        )

    def self_times(self) -> Dict[str, float]:
        """Per name: span duration minus the part its children cover."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0 and s[2] is not None:
                child_time[s[3]] += s[2] - s[1]
        out: Dict[str, float] = {}
        for s, covered in zip(self.spans, child_time):
            if s[2] is not None:
                out[s[0]] = out.get(s[0], 0.0) + (s[2] - s[1]) - covered
        return out

    # -- export ----------------------------------------------------------------

    def chrome(self) -> dict:
        """Chrome trace-event JSON (load in Perfetto or chrome://tracing):
        one track per app-job, ``args`` carrying parent and job id."""
        closed = [s for s in self.spans if s[2] is not None]
        base = min((s[1] for s in closed), default=0.0)
        tids: Dict[str, int] = {}
        events = []
        for index, (name, start, end, parent, job) in enumerate(self.spans):
            if end is None:
                continue
            tid = tids.setdefault(job or "bench", len(tids))
            events.append(
                {
                    "name": name,
                    "cat": "ledger",
                    "ph": "X",
                    "pid": 1,
                    "tid": tid,
                    "ts": (start - base) * 1e6,
                    "dur": (end - start) * 1e6,
                    "args": {
                        "id": index,
                        "parent": parent,
                        "job": job,
                        "calibration": self.scales.get(job, 1.0),
                    },
                }
            )
        meta = [
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid, "args": {"name": job}}
            for job, tid in tids.items()
        ]
        return {"traceEvents": meta + events, "displayTimeUnit": "ms"}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome(), fh)
            fh.write("\n")
