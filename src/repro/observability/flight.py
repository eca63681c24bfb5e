"""Flight recorder: a bounded ring buffer of recent trace spans.

The serving layer needs to answer "what did request X do?" *after* the
fact, without logging every request.  The recorder keeps the last N span
records (plain dicts, cheap to snapshot and JSON-serialize), a separate
ring of slow spans that outlive the main ring, and a small event ring for
discrete incidents (queue-full, crash-recovery, …).  ``GET /debug/trace``
and the ``doctor`` bundle read it.

Spans (:mod:`repro.observability.tracer`) write it: a closed span hands
its record to the recorder bound to the
:mod:`trace context <repro.observability.tracectx>` it ran under, so each
service owns its ring and engine code running outside any request (CLI,
tests, benchmarks) records nothing.  Tracing only *reads* the engine,
never changes what it executes, which keeps tracing-on and tracing-off
work counters byte-identical.

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
from typing import Dict, List, Optional, Sequence


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
