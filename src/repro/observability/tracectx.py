"""Trace contexts: the request-scoped identity that crosses layers.

A :class:`TraceContext` is the (trace id, span id, baggage) triple one
request carries from the moment it enters the system — minted by
:class:`~repro.service.client.ServiceClient` (or by the HTTP handler for
clients that send none) — through the write queue, the coalesced batch
cycle, the WAL frame header, incremental maintenance, and the parallel
worker shards.  It answers "which request caused this work?" across
every thread and process boundary the serving layer has.

The wire encoding is the W3C ``traceparent`` header
(``00-<trace id:32 hex>-<span id:16 hex>-01``) so external tooling can
join our traces; the in-process propagation is a thread-local *current
context* that deep modules read without signature changes — the same
shape as the metrics probe (:mod:`repro.observability.probe`):

    ctx = TraceContext.mint(recorder=flight_recorder)
    with activate(ctx):
        ...            # current() returns ctx on this thread

A context may be bound to the
:class:`~repro.observability.flight.FlightRecorder` that spans opened
under it (:mod:`repro.observability.tracer`) write to; derived contexts
keep the binding and the wire format never carries it, so two services
in one process each record only their own requests.
"""

from __future__ import annotations

import os
import re
import threading
from typing import Dict, Optional

TRACE_ID_HEX_LEN = 32
SPAN_ID_HEX_LEN = 16

_TRACEPARENT = re.compile(
    r"^(?P<version>[0-9a-f]{2})-(?P<trace>[0-9a-f]{32})-"
    r"(?P<span>[0-9a-f]{16})-(?P<flags>[0-9a-f]{2})$"
)


def new_trace_id() -> str:
    """A fresh 128-bit trace id (32 lowercase hex chars)."""
    return os.urandom(TRACE_ID_HEX_LEN // 2).hex()


def new_span_id() -> str:
    """A fresh 64-bit span id (16 lowercase hex chars)."""
    return os.urandom(SPAN_ID_HEX_LEN // 2).hex()


class TraceContext:
    """One request's identity: trace id + current span id + baggage.

    Immutable by convention: derive with :meth:`child` instead of
    mutating, so a context held by one layer never changes under it.
    """

    __slots__ = ("trace_id", "span_id", "baggage", "recorder")

    def __init__(
        self,
        trace_id: str,
        span_id: Optional[str] = None,
        baggage: Optional[Dict[str, str]] = None,
        recorder=None,
    ):
        self.trace_id = trace_id
        self.span_id = span_id or new_span_id()
        self.baggage: Dict[str, str] = dict(baggage or {})
        #: The flight recorder spans opened under this context write to.
        self.recorder = recorder

    @classmethod
    def mint(
        cls, baggage: Optional[Dict[str, str]] = None, recorder=None
    ) -> "TraceContext":
        """A brand-new root context (fresh trace id and span id)."""
        return cls(new_trace_id(), new_span_id(), baggage, recorder)

    def child(self) -> "TraceContext":
        """Same trace and recorder, fresh span id (the parent is
        ``self.span_id``)."""
        return TraceContext(
            self.trace_id, new_span_id(), self.baggage, self.recorder
        )

    # -- wire format ------------------------------------------------------

    def traceparent(self) -> str:
        """W3C ``traceparent`` header value for this context."""
        return f"00-{self.trace_id}-{self.span_id}-01"

    @classmethod
    def from_traceparent(cls, header, recorder=None) -> Optional["TraceContext"]:
        """Parse a ``traceparent`` header; None when absent/malformed."""
        if not header:
            return None
        match = _TRACEPARENT.match(header.strip().lower())
        if match is None:
            return None
        return cls(match.group("trace"), match.group("span"), recorder=recorder)

    def to_dict(self) -> dict:
        payload = {"trace_id": self.trace_id, "span_id": self.span_id}
        if self.baggage:
            payload["baggage"] = dict(self.baggage)
        return payload

    def __repr__(self) -> str:
        return f"TraceContext({self.trace_id[:8]}…/{self.span_id[:8]}…)"


# -- thread-local propagation -------------------------------------------------

class _Local(threading.local):
    context: Optional[TraceContext] = None


_LOCAL = _Local()


def current() -> Optional[TraceContext]:
    """The thread's active trace context, or None outside any request."""
    return _LOCAL.context


def swap(context: Optional[TraceContext]) -> Optional[TraceContext]:
    """Make ``context`` the thread's active context; returns the one it
    replaced (the primitive under :class:`activate` and open spans)."""
    previous = _LOCAL.context
    _LOCAL.context = context
    return previous


class activate:
    """Context manager installing one trace context on this thread.

    Re-entrant: nesting saves and restores the previous context, so a
    writer thread can switch from "no context" to a batch context and
    back without bookkeeping at the call sites.
    """

    __slots__ = ("_context", "_previous")

    def __init__(self, context: Optional[TraceContext]):
        self._context = context
        self._previous = None

    def __enter__(self) -> Optional[TraceContext]:
        self._previous = swap(self._context)
        return self._context

    def __exit__(self, exc_type, exc, tb) -> None:
        swap(self._previous)
