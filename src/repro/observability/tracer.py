"""One span model for the 3DC pipeline and the serving stack.

A *span* is one named, timed section of work.  :class:`span` opens a
child of the thread's current span on a thread-local stack, so nested
blocks build a tree mirroring the pipeline's phase structure (the
paper's Figure 13 breakdown is exactly the first level of a discoverer
operation's tree)::

    with span("insert") as root:
        with span("evidence"):
            ...
        with span("enumeration"):
            ...

The same spans feed the flight recorder.  While a
:class:`~repro.observability.tracectx.TraceContext` is active on the
thread, a span carries trace, span and parent ids (and ``links``), is
the thread's current context for its body, and on close hands its flat
record (:meth:`Span.record`) to the
:class:`~repro.observability.flight.FlightRecorder` bound to that
context.  With no active context a span allocates no id and writes no
record.  A closed span stays alive only through its parent and whoever
holds it: a discoverer's :class:`~repro.observability.report.RunReport`
holds its operation's root, and nothing else does.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Sequence

from repro.observability import tracectx
from repro.observability.tracectx import TraceContext


class Span:
    """One timed section of work; a node of the span tree.

    ``start``/``end`` are :func:`time.perf_counter` readings; the ids
    stay ``None`` unless the span ran under an active trace context.
    """

    __slots__ = (
        "name", "start", "end", "children", "attrs",
        "trace_id", "span_id", "parent_id", "links",
    )

    def __init__(self, name: str, attrs: Optional[dict] = None):
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.children: List[Span] = []
        self.attrs: Dict[str, object] = dict(attrs) if attrs else {}
        self.trace_id: Optional[str] = None
        self.span_id: Optional[str] = None
        self.parent_id: Optional[str] = None
        self.links: Optional[List[str]] = None

    @property
    def duration(self) -> float:
        """Wall-clock seconds between enter and exit (0 while open)."""
        if not self.end:
            return 0.0
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Duration not attributed to any child span."""
        return self.duration - sum(child.duration for child in self.children)

    def child(self, name: str) -> Optional["Span"]:
        """First direct child with the given name (None when absent)."""
        for child in self.children:
            if child.name == name:
                return child
        return None

    def to_dict(self) -> dict:
        """JSON-compatible representation of the subtree."""
        payload = {
            "name": self.name,
            "duration": self.duration,
            "attrs": dict(self.attrs),
            "children": [child.to_dict() for child in self.children],
        }
        return payload

    def record(self) -> dict:
        """The flat flight-recorder record of this closed, traced span.

        ``start`` is epoch seconds, anchored from the monotonic clock at
        the moment of the call.
        """
        record = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": time.time() - (time.perf_counter() - self.start),
            "duration": self.duration,
            "attrs": dict(self.attrs),
        }
        if self.links:
            record["links"] = list(self.links)
        return record

    def format_tree(self, indent: int = 0) -> str:
        """Render the subtree as an indented text outline."""
        attrs = ""
        if self.attrs:
            rendered = ", ".join(
                f"{key}={value}" for key, value in sorted(self.attrs.items())
            )
            attrs = f"  [{rendered}]"
        lines = [f"{'  ' * indent}{self.name:<{max(1, 32 - 2 * indent)}s} "
                 f"{self.duration * 1000:10.3f} ms{attrs}"]
        for child in self.children:
            lines.append(child.format_tree(indent + 1))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, {self.duration:.6f}s, "
            f"{len(self.children)} children)"
        )


class _Local(threading.local):
    def __init__(self):
        #: The thread's open spans, innermost last.
        self.stack: List[Span] = []


_LOCAL = _Local()


def _adopt(child: Span, stack: List[Span], links=None):
    """Attach ``child`` under the innermost span of ``stack`` and, under
    an active trace context, give it ids; returns that context (or None)."""
    if stack:
        stack[-1].children.append(child)
    context = tracectx.current()
    if context is not None:
        child.trace_id = context.trace_id
        child.span_id = tracectx.new_span_id()
        child.parent_id = context.span_id
        if links:
            child.links = list(links)
    return context


class span:
    """Open ``name`` as a child of the thread's current span for a
    ``with`` block; yields the :class:`Span` so the body can set attrs.

    ``links`` (trace ids of other traces this span serves) are kept only
    on traced spans.
    """

    __slots__ = ("_span", "_links", "_context", "_stack")

    def __init__(
        self,
        name: str,
        attrs: Optional[dict] = None,
        links: Optional[Sequence[str]] = None,
    ):
        self._span = Span(name, attrs)
        self._links = links
        self._context: Optional[TraceContext] = None

    def __enter__(self) -> Span:
        opened = self._span
        stack = self._stack = _LOCAL.stack
        context = _adopt(opened, stack, self._links)
        stack.append(opened)
        if context is not None:
            self._context = context
            tracectx.swap(TraceContext(
                context.trace_id, opened.span_id, context.baggage,
                recorder=context.recorder,
            ))
        opened.start = time.perf_counter()
        return opened

    def __exit__(self, exc_type, exc, tb) -> None:
        closed = self._span
        closed.end = time.perf_counter()
        self._stack.pop()
        context = self._context
        if context is not None:
            tracectx.swap(context)
            if context.recorder is not None:
                context.recorder.record_span(closed.record())


def add_finished_span(
    name: str, start: float, duration: float, attrs: Optional[dict] = None
) -> Span:
    """Attach an already-measured span as a closed child of the thread's
    current span, recorded like any other.

    ``start`` is a :func:`time.perf_counter` reading.  That clock is
    system-wide, so a forked pool worker's measurement (one evidence
    stripe) lands at the instant the stripe really ran.
    """
    finished = Span(name, attrs)
    finished.start = start
    finished.end = start + duration
    context = _adopt(finished, _LOCAL.stack)
    if context is not None and context.recorder is not None:
        context.recorder.record_span(finished.record())
    return finished


def current_span() -> Optional[Span]:
    """The thread's innermost open span, or None outside any span."""
    stack = _LOCAL.stack
    return stack[-1] if stack else None


def annotate(key: str, value) -> None:
    """Attach an attribute to the innermost open span (no-op outside)."""
    stack = _LOCAL.stack
    if stack:
        stack[-1].attrs[key] = value
