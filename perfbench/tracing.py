"""In-memory spans around the calls the benchmark makes into resgames.

A span records its name, start, end and the span that caused it.  Spans with
no parent are units (or pass-level calls such as an export) and act as trace
identifiers: every span of one unit shares its root.  Spans stay in memory
and are written out by :meth:`Tracer.dump` once the pass has ended.
"""
from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter

_NULL = nullcontext()


class NullTracer:
    """Tracing off: a span is a shared no-op context manager, counts are dropped.

    It is falsy, so ``if tr:`` skips work done only to feed counters.
    """

    def __bool__(self) -> bool:
        return False

    def span(self, name: str):
        return _NULL

    def count(self, name: str, n: float = 1) -> None:
        pass


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def __bool__(self) -> bool:
        return True

    @contextmanager
    def span(self, name: str):
        rec = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._open.pop()

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    def self_times(self) -> tuple[dict[str, float], Counter]:
        """Per span name: summed self time (duration minus children) and span count."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for (name, start, end, _), child in zip(self.spans, covered):
            total[name] += end - start - child
            calls[name] += 1
        return dict(total), calls

    def dump(self, fh, pass_index: int) -> None:
        """Append one JSON line per span; ``trace`` is the index of its root span."""
        root: list[int] = []
        for i, (name, start, end, parent) in enumerate(self.spans):
            root.append(i if parent < 0 else root[parent])
            fh.write(json.dumps({
                "pass": pass_index, "id": i, "name": name, "parent": parent,
                "trace": root[i], "start": start, "end": end,
            }) + "\n")
