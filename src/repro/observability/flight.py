"""Flight recorder: a bounded ring buffer of recent trace spans.

The serving layer needs to answer "what did request X do?" *after* the
fact, without logging every request.  The recorder keeps the last N span
records (plain dicts, cheap to snapshot and JSON-serialize), a separate
ring of slow spans that outlive the main ring, and a small event ring for
discrete incidents (queue-full, crash-recovery, …).  ``GET /debug/trace``
and the ``doctor`` bundle read it; :func:`trace_span` writes it.

Recording follows the probe idiom (:mod:`repro.observability.probe`): a
module-global recorder installed by the service, and call sites that take
a ``recorder is None`` fast path — plus a second fast path when the
thread has no active :mod:`trace context <repro.observability.tracectx>`,
so engine code running outside any request (CLI, tests, benchmarks) pays
two attribute reads and nothing else.  That is what keeps tracing-on and
tracing-off work counters byte-identical: tracing only *reads* the
engine, never changes what it executes.

Span records are flat dicts linked by ids::

    {"trace_id": .., "span_id": .., "parent_id": .., "name": ..,
     "start": <epoch s>, "duration": <s>, "attrs": {..}, "links": [..]}

``links`` appears on batch-cycle spans only: the coalescer serves many
requests in one cycle, so the cycle span runs under its *own* trace id
and links the contributing request trace ids.  :meth:`FlightRecorder.
trace_tree` follows those links, which is how one request's trace
resolves to the whole cycle → WAL append → maintenance (→ shard) tree.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence

from repro.observability import tracectx
from repro.observability.tracectx import TraceContext


class FlightRecorder:
    """Bounded rings of recent spans, slow spans, and events."""

    def __init__(
        self,
        max_spans: int = 2048,
        slow_threshold_s: float = 1.0,
        max_events: int = 256,
    ):
        self.max_spans = max_spans
        self.slow_threshold_s = slow_threshold_s
        self._spans: deque = deque(maxlen=max_spans)
        self._slow: deque = deque(maxlen=max(32, max_spans // 8))
        self._events: deque = deque(maxlen=max_events)
        self._lock = threading.Lock()

    # -- writing -----------------------------------------------------------

    def record_span(self, record: dict) -> None:
        with self._lock:
            self._spans.append(record)
            if record.get("duration", 0.0) >= self.slow_threshold_s:
                self._slow.append(record)

    def record_event(self, name: str, **attrs) -> None:
        record = {"name": name, "time": time.time(), "attrs": attrs}
        with self._lock:
            self._events.append(record)

    # -- reading -----------------------------------------------------------

    def spans(self, limit: Optional[int] = None) -> List[dict]:
        """Most-recent-last snapshot of the span ring."""
        with self._lock:
            records = list(self._spans)
        return records[-limit:] if limit else records

    def slow_spans(self, limit: Optional[int] = None) -> List[dict]:
        with self._lock:
            records = list(self._slow)
        return records[-limit:] if limit else records

    def events(self, limit: Optional[int] = None) -> List[dict]:
        with self._lock:
            records = list(self._events)
        return records[-limit:] if limit else records

    def trace(self, trace_id: str) -> List[dict]:
        """Spans recorded directly under ``trace_id``."""
        return [
            record for record in self.spans()
            if record.get("trace_id") == trace_id
        ]

    def trace_tree(self, trace_id: str) -> dict:
        """Resolve one trace including link-connected traces.

        A request's own spans carry its trace id; the batch cycle that
        served it runs under a separate trace id whose cycle span *links*
        the request.  The tree therefore contains both: the direct spans,
        plus every span of every trace that links this one.
        """
        records = self.spans()
        direct = [r for r in records if r.get("trace_id") == trace_id]
        linked_ids = sorted({
            r["trace_id"] for r in records
            if trace_id in (r.get("links") or ())
        })
        linked = [r for r in records if r.get("trace_id") in linked_ids]
        return {
            "trace_id": trace_id,
            "spans": build_span_tree(direct),
            "linked_trace_ids": linked_ids,
            "linked_spans": build_span_tree(linked),
        }

    def to_dict(self, limit: Optional[int] = None) -> dict:
        return {
            "max_spans": self.max_spans,
            "slow_threshold_s": self.slow_threshold_s,
            "spans": self.spans(limit),
            "slow": self.slow_spans(limit),
            "events": self.events(limit),
        }


def build_span_tree(records: Sequence[dict]) -> List[dict]:
    """Nest flat span records by ``parent_id`` (roots first, start order).

    A record whose parent is not in ``records`` becomes a root — the
    parent is usually the request's HTTP span living in another trace.
    """
    by_id = {record["span_id"]: dict(record) for record in records}
    for copy in by_id.values():
        copy["children"] = []
    roots = []
    for record in sorted(records, key=lambda r: r.get("start", 0.0)):
        copy = by_id[record["span_id"]]
        parent = by_id.get(record.get("parent_id"))
        if parent is not None and parent is not copy:
            parent["children"].append(copy)
        else:
            roots.append(copy)
    return roots


# -- module-global recorder ----------------------------------------------------

_RECORDER: Optional[FlightRecorder] = None


def get_recorder() -> Optional[FlightRecorder]:
    """The active flight recorder, or None when tracing is off."""
    return _RECORDER


def set_recorder(recorder: Optional[FlightRecorder]) -> Optional[FlightRecorder]:
    """Install (or clear, with None) the process-wide recorder.

    Returns the previous recorder so callers can restore it on shutdown.
    """
    global _RECORDER
    previous = _RECORDER
    _RECORDER = recorder
    return previous


@contextmanager
def trace_span(name: str, attrs: Optional[dict] = None,
               links: Optional[Sequence[str]] = None):
    """Record one span under the thread's current trace context.

    No-op (yields None) when no recorder is installed *or* the thread has
    no active context — the double fast path that keeps untraced runs
    untouched.  Yields the mutable span record so the body can attach
    attributes discovered mid-flight; nested ``trace_span`` calls parent
    under this span via a derived thread-local context.
    """
    recorder = _RECORDER
    context = tracectx.current()
    if recorder is None or context is None:
        yield None
        return
    record = {
        "trace_id": context.trace_id,
        "span_id": tracectx.new_span_id(),
        "parent_id": context.span_id,
        "name": name,
        "start": time.time(),
        "duration": 0.0,
        "attrs": dict(attrs or {}),
    }
    if links:
        record["links"] = list(links)
    child = TraceContext(context.trace_id, record["span_id"], context.baggage)
    started = time.perf_counter()
    with tracectx.activate(child):
        try:
            yield record
        finally:
            record["duration"] = time.perf_counter() - started
            recorder.record_span(record)


def record_report_spans(report) -> None:
    """Mirror a :class:`~repro.observability.report.RunReport` span tree
    into the recorder under the current trace context.

    The discoverer's tracer keeps ``perf_counter`` times; anchor them to
    the epoch by the offset measured now (both clocks advance at the same
    rate, so relative positions within the tree are exact).
    """
    recorder = _RECORDER
    context = tracectx.current()
    if recorder is None or context is None or report is None:
        return
    offset = time.time() - time.perf_counter()

    def emit(span, parent_id: str) -> None:
        record = {
            "trace_id": context.trace_id,
            "span_id": tracectx.new_span_id(),
            "parent_id": parent_id,
            "name": span.name,
            "start": span.start + offset,
            "duration": span.duration,
            "attrs": dict(span.attrs),
        }
        recorder.record_span(record)
        for child in span.children:
            emit(child, record["span_id"])

    emit(report.root, context.span_id)


def record_shard_spans(results, backend: str) -> None:
    """Record one span per pooled evidence stripe under the current
    context, at the epoch start and duration the stripe's own process
    measured."""
    recorder = _RECORDER
    context = tracectx.current()
    if recorder is None or context is None:
        return
    for index, shard in enumerate(results):
        recorder.record_span({
            "trace_id": context.trace_id,
            "span_id": tracectx.new_span_id(),
            "parent_id": context.span_id,
            "name": f"evidence.shard[{index}]",
            "start": shard.start,
            "duration": shard.duration,
            "attrs": {
                "pairs": shard.stats.pairs,
                "pipelines": shard.stats.pipelines,
                "backend": backend,
            },
        })


def split_counters(
    totals: Dict[str, int], weights: Sequence[float]
) -> List[Dict[str, int]]:
    """Split integer counter totals across requests, exactly.

    Largest-remainder apportionment per counter: integer shares always
    sum back to the total, so per-request work counters reconcile with
    the batch's probe counters to the unit.  Zero/empty weights fall back
    to an even split.
    """
    n_parts = len(weights)
    if n_parts == 0:
        return []
    weight_sum = float(sum(weights))
    if weight_sum <= 0:
        weights = [1.0] * n_parts
        weight_sum = float(n_parts)
    shares: List[Dict[str, int]] = [{} for _ in range(n_parts)]
    for name, total in totals.items():
        quotas = [total * weight / weight_sum for weight in weights]
        floors = [int(quota) for quota in quotas]
        leftover = total - sum(floors)
        remainders = sorted(
            range(n_parts),
            key=lambda i: (quotas[i] - floors[i], -i),
            reverse=True,
        )
        for i in remainders[:leftover]:
            floors[i] += 1
        for i in range(n_parts):
            shares[i][name] = floors[i]
    return shares
