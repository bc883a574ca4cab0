"""Wall-clock span tracing with Chrome ``trace_event`` export.

The tracing half of :mod:`repro.obs` records *spans* — named wall-clock
intervals around engine runs, hybrid residual epochs, parallel-DES
windows and barriers, and sweep cells — and exports them as Chrome
``trace_event`` JSON that https://ui.perfetto.dev opens directly.

Spans are plain picklable records stamped with the recording process's
pid, and timestamps come from :func:`time.perf_counter`, which on Linux
is ``CLOCK_MONOTONIC`` and therefore consistent across forked and
spawned workers: a worker can :meth:`Tracer.drain` its spans, ship them
through a pool result, and the coordinator's :meth:`Tracer.ingest`
places them on the same timeline.  The Chrome export maps pid -> trace
process and the caller-chosen ``tid`` -> trace thread (parallel shards
use their shard index), so Perfetto shows one swimlane per worker.

Like the metrics registry, the tracer only observes: simulation results
are identical with tracing armed or disarmed.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

__all__ = ["MAX_SPANS", "Span", "Tracer", "export_chrome"]

#: Soft cap on retained spans; further spans are counted, not stored.
#: Generous for any run this repo performs (the biggest bench records a
#: few thousand), but bounds memory if a pathological loop arms tracing.
MAX_SPANS = 500_000


@dataclass(frozen=True)
class Span:
    """One completed wall-clock interval.

    ``start`` and ``duration`` are :func:`time.perf_counter` seconds;
    the Chrome exporter converts to microseconds.  ``args`` carries
    small JSON-able details (event counts, window index) shown in the
    Perfetto side panel.
    """

    name: str
    start: float
    duration: float
    pid: int
    tid: int = 0
    args: dict = field(default_factory=dict)


class Tracer:
    """Accumulates :class:`Span` records for one process."""

    __slots__ = ("spans", "dropped", "max_spans")

    def __init__(self, max_spans: int = MAX_SPANS) -> None:
        self.spans: list[Span] = []
        #: Spans discarded after hitting ``max_spans``.
        self.dropped = 0
        self.max_spans = max_spans

    def add(
        self,
        name: str,
        start: float,
        duration: float,
        *,
        tid: int = 0,
        **args: object,
    ) -> None:
        """Record a completed interval (``perf_counter`` seconds)."""
        if len(self.spans) >= self.max_spans:
            self.dropped += 1
            return
        self.spans.append(
            Span(name, start, duration, os.getpid(), tid, dict(args))
        )

    @contextmanager
    def span(self, name: str, *, tid: int = 0, **args: object) -> Iterator[None]:
        """Record the enclosed block as a span named ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, start, time.perf_counter() - start, tid=tid, **args)

    def ingest(self, spans: Iterable[Span]) -> None:
        """Adopt spans drained from another tracer (worker -> parent)."""
        for span in spans:
            if len(self.spans) >= self.max_spans:
                self.dropped += 1
            else:
                self.spans.append(span)

    def drain(self, since: int = 0) -> list[Span]:
        """Return and forget every span recorded after the first ``since``.

        A caller sharing the tracer (an inline shard) notes ``len(tracer)``
        before its work and drains from that mark, leaving everyone
        else's spans in place.
        """
        spans = self.spans[since:]
        del self.spans[since:]
        return spans

    def __len__(self) -> int:
        return len(self.spans)


def export_chrome(
    spans: Iterable[Span],
    process_labels: "Mapping[int, str] | None" = None,
) -> dict:
    """Render spans as a Chrome ``trace_event`` JSON document.

    Each span becomes a complete event (``"ph": "X"``) with microsecond
    ``ts``/``dur``; every distinct pid additionally gets a
    ``process_name`` metadata event so Perfetto labels the swimlane.
    ``process_labels`` overrides the default ``worker-<pid>`` label —
    the ``repro trace`` CLI marks its own pid ``coordinator``.

    The returned dict is the JSON Object Format (``{"traceEvents":
    [...]}``), the variant Perfetto and ``chrome://tracing`` both read.
    """
    spans = list(spans)
    labels = dict(process_labels or {})
    events: list[dict] = []
    for pid in sorted({span.pid for span in spans}):
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": labels.get(pid, f"worker-{pid}")},
            }
        )
    for span in spans:
        events.append(
            {
                "name": span.name,
                "ph": "X",
                "ts": span.start * 1e6,
                "dur": span.duration * 1e6,
                "pid": span.pid,
                "tid": span.tid,
                "args": span.args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
