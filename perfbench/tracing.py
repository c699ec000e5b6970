"""In-memory spans and counters recorded around the benchmark's calls into
the jumpbsde modules.

A span carries its name, start and end (perf_counter seconds), the index of
the enclosing span and the operation id shared by every span of one
operation. `NullTracer` has the same interface and records nothing, so the
untraced passes execute the same code.
"""

from __future__ import annotations

import contextlib
import time
import tracemalloc
from collections import defaultdict

MB = 1024.0 * 1024.0


class NullTracer:
    enabled = False

    def __init__(self):
        self._null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null

    def count(self, name: str, value: float = 1) -> None:
        pass

    def gauge_max(self, name: str, value: float) -> None:
        pass

    def begin_operation(self, op_id: int) -> None:
        pass


class Span:
    __slots__ = ("name", "start", "end", "parent", "op_id", "peak_mb")

    def __init__(self, name, start, parent, op_id):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op_id = op_id
        self.peak_mb = None

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class Tracer:
    """Records spans and counters in memory.

    With `memory_spans`, each span of those names runs under tracemalloc and
    records its peak traced allocation. tracemalloc slows Python-level code
    several times over, so a memory tracer's times are not used.
    """

    enabled = True

    def __init__(self, memory_spans=frozenset()):
        self.memory_spans = frozenset(memory_spans)
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.gauges: dict[str, float] = {}
        self._stack: list[int] = []
        self._op_id = -1

    def begin_operation(self, op_id: int) -> None:
        self._op_id = op_id

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        span = Span(name, None, parent, self._op_id)
        self.spans.append(span)
        self._stack.append(idx)
        traced = name in self.memory_spans
        if traced:
            tracemalloc.start()
        span.start = time.perf_counter()
        try:
            yield
        finally:
            span.end = time.perf_counter()
            if traced:
                span.peak_mb = tracemalloc.get_traced_memory()[1] / MB
                tracemalloc.stop()
            self._stack.pop()

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    def gauge_max(self, name: str, value: float) -> None:
        self.gauges[name] = max(self.gauges.get(name, value), value)

    # -- summaries ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the part of it covered by its child spans."""
        children = defaultdict(list)
        for i, s in enumerate(self.spans):
            if s.parent is not None:
                children[s.parent].append(i)
        out = []
        for i, s in enumerate(self.spans):
            covered = 0.0
            reach = s.start
            for c in sorted(children[i], key=lambda k: self.spans[k].start):
                cs = self.spans[c]
                lo, hi = max(cs.start, reach), min(cs.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append((s.end - s.start) - covered)
        return out

    def totals_by_name(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, largest traced peak (MB)."""
        selfs = self.self_times()
        out: dict[str, dict] = {}
        for s, st in zip(self.spans, selfs):
            row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "peak_mb": 0.0})
            row["calls"] += 1
            row["total_s"] += s.end - s.start
            row["self_s"] += st
            if s.peak_mb is not None:
                row["peak_mb"] = max(row["peak_mb"], s.peak_mb)
        return out
