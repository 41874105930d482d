"""In-memory span tracer used by the traced benchmark run.

A span is (name, start, end, parent index, record id).  Spans are appended to
a list while the benchmark runs and written out once at the end; nothing is
formatted or flushed on the hot path.  Self time is a span's duration minus
the time its direct children cover (children never overlap: one thread).
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.records: list[int] = []
        self._stack: list[int] = []
        self.record_id = -1

    def enter(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.records.append(self.record_id)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def exit(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        """`fn` with every call recorded as a span called `name`."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit(idx)

        return traced

    def self_times(self) -> list[float]:
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[i] - self.starts[i]
        return own

    def per_record(self, records, inclusive: bool = False) -> dict[str, list[float]]:
        """Summed self time (or whole duration) per span name, one value per record id.

        A name absent from a record contributes 0.0 for that record.
        """
        index = {r: i for i, r in enumerate(records)}
        sums: dict[str, list[float]] = defaultdict(lambda: [0.0] * len(index))
        times = ([e - s for s, e in zip(self.starts, self.ends)] if inclusive
                 else self.self_times())
        for name, rec, own in zip(self.names, self.records, times):
            if rec in index:
                sums[name][index[rec]] += own
        return dict(sums)

    @staticmethod
    def span_cost_s(samples: int = 20000) -> float:
        """Measured cost of recording one span, on a scratch tracer."""
        probe = Tracer()
        start = time.perf_counter()
        for _ in range(samples):
            probe.exit(probe.enter("probe"))
        return (time.perf_counter() - start) / samples

    def dump(self, path: Path) -> None:
        rows = [
            {"name": n, "start": s, "end": e, "parent": p, "record": r}
            for n, s, e, p, r in zip(self.names, self.starts, self.ends,
                                     self.parents, self.records)
        ]
        path.write_text(json.dumps(rows) + "\n")
