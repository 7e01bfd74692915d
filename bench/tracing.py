"""In-memory span tracing around the benchmark's calls into skillpipe.

A span is ``[name, start, end, parent]`` with times from
``time.perf_counter`` and ``parent`` the index of the enclosing span (-1 for
a root).  Spans are recorded only by wrappers the benchmark puts around the
package's public functions, so nothing inside the package is traced.
"""

from __future__ import annotations

import statistics
import time


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one call stack, so siblings never overlap and the covered
    time is the sum of the children's durations.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _) in enumerate(spans)]


def layer_stats(*span_lists) -> dict[str, dict[str, float]]:
    """Per span name, over one or more traces: ``calls``, ``total_s``,
    ``self_s`` and ``p50_us``."""
    durations: dict[str, list[float]] = {}
    own: dict[str, float] = {}
    for spans in span_lists:
        for (name, start, end, _), self_s in zip(spans, self_times(spans)):
            durations.setdefault(name, []).append(end - start)
            own[name] = own.get(name, 0.0) + self_s
    return {
        name: {
            "calls": len(d),
            "total_s": sum(d),
            "self_s": own[name],
            "p50_us": statistics.median(d) * 1e6,
        }
        for name, d in durations.items()
    }
