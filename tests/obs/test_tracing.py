"""Tracer spans and the Chrome trace_event export."""

import json
import os

from repro.obs.tracing import Span, Tracer, export_chrome


class TestTracer:
    def test_add_stamps_pid_and_args(self):
        tracer = Tracer()
        tracer.add("engine.run", 1.0, 0.5, kind="heap", events=42)
        (span,) = tracer.spans
        assert span.name == "engine.run"
        assert span.pid == os.getpid()
        assert span.tid == 0
        assert span.args == {"kind": "heap", "events": 42}

    def test_span_context_manager_times_block(self):
        tracer = Tracer()
        with tracer.span("work", tid=3, label="cell"):
            sum(range(1000))
        (span,) = tracer.spans
        assert span.duration > 0.0
        assert span.tid == 3
        assert span.args == {"label": "cell"}

    def test_span_records_on_exception(self):
        tracer = Tracer()
        try:
            with tracer.span("work"):
                raise ValueError("boom")
        except ValueError:
            pass
        assert len(tracer) == 1

    def test_drain_empties_and_ingest_adopts(self):
        worker = Tracer()
        worker.add("a", 0.0, 1.0)
        worker.add("b", 1.0, 1.0)
        shipped = worker.drain()
        assert len(worker) == 0
        parent = Tracer()
        parent.add("own", 0.0, 0.1)
        parent.ingest(shipped)
        assert [s.name for s in parent.spans] == ["own", "a", "b"]
        # From a mark: only what was recorded after it leaves.
        mark = len(parent) - 1
        assert [s.name for s in parent.drain(mark)] == ["b"]
        assert [s.name for s in parent.spans] == ["own", "a"]

    def test_max_spans_counts_drops(self):
        tracer = Tracer(max_spans=2)
        for i in range(5):
            tracer.add(f"s{i}", float(i), 0.1)
        assert len(tracer) == 2
        assert tracer.dropped == 3
        tracer.ingest([Span("x", 0.0, 0.1, pid=1)])
        assert tracer.dropped == 4

    def test_spans_are_picklable(self):
        import pickle

        span = Span("a", 0.0, 1.0, pid=7, tid=2, args={"k": 1})
        assert pickle.loads(pickle.dumps(span)) == span


class TestChromeExport:
    def test_complete_events_in_microseconds(self):
        doc = export_chrome([Span("run", 2.0, 0.25, pid=10, tid=1)])
        (event,) = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert event == {
            "name": "run", "ph": "X", "ts": 2e6, "dur": 0.25e6,
            "pid": 10, "tid": 1, "args": {},
        }

    def test_process_metadata_per_pid_with_labels(self):
        spans = [
            Span("a", 0.0, 1.0, pid=10),
            Span("b", 0.0, 1.0, pid=20),
            Span("c", 1.0, 1.0, pid=10),
        ]
        doc = export_chrome(spans, process_labels={10: "coordinator"})
        meta = {
            e["pid"]: e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M"
        }
        assert meta == {10: "coordinator", 20: "worker-20"}

    def test_document_shape_is_json_object_format(self):
        doc = export_chrome([])
        assert doc == {"traceEvents": [], "displayTimeUnit": "ms"}
        json.dumps(doc)  # must not raise
