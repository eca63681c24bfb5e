"""Structured run reports and the pipeline-facing Instrumentation bundle.

A :class:`RunReport` packages everything one pipeline operation (``fit``,
``insert``, ``delete``) produced: the operation's span tree and the
per-call counter deltas plus gauge values.  It is the structured
replacement for the discoverer's historical ``timings`` dicts, which are
now *derived* from the report's first span level
(:meth:`RunReport.phase_timings`).  The root is the operation's own
:class:`~repro.observability.tracer.Span`; the report is the only thing
that holds it once the call returns.

:class:`Instrumentation` is the metrics registry one discoverer owns,
and knows how to install itself as the pipeline probe (see
:mod:`repro.observability.probe`).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.observability.exporters import (
    snapshot_to_json,
    snapshot_to_prometheus,
)
from repro.observability.metrics import MetricsRegistry
from repro.observability.probe import install
from repro.observability.tracer import Span


class RunReport:
    """Span tree + metric snapshot of one pipeline operation."""

    __slots__ = ("operation", "root", "metrics", "cumulative")

    def __init__(
        self,
        operation: str,
        root: Span,
        metrics: dict,
        cumulative: Optional[dict] = None,
    ):
        self.operation = operation
        self.root = root
        #: Per-call view: counter deltas and current gauges.
        self.metrics = metrics
        #: Full registry snapshot at the end of the call (optional).
        self.cumulative = cumulative

    def phase_timings(self) -> Dict[str, float]:
        """First-level child durations — the legacy ``timings`` dict."""
        return {child.name: child.duration for child in self.root.children}

    def metric(self, name: str, default=0):
        """Per-call value of one metric (counter delta or gauge)."""
        counters = self.metrics.get("counters", {})
        if name in counters:
            return counters[name]
        return self.metrics.get("gauges", {}).get(name, default)

    def to_dict(self) -> dict:
        payload = {
            "operation": self.operation,
            "spans": self.root.to_dict(),
            "metrics": self.metrics,
        }
        if self.cumulative is not None:
            payload["cumulative"] = self.cumulative
        return payload

    def to_json(self, indent: int = 2) -> str:
        """Deterministically ordered JSON rendering of the report."""
        return snapshot_to_json(self.to_dict(), indent=indent)

    def to_prometheus(self) -> str:
        """Prometheus text rendering of the per-call metrics."""
        return snapshot_to_prometheus(self.metrics)

    def format(self) -> str:
        """Human-readable span tree followed by the per-call metrics."""
        lines = [self.root.format_tree()]
        counters = self.metrics.get("counters", {})
        gauges = self.metrics.get("gauges", {})
        if counters or gauges:
            lines.append("metrics:")
            for name, value in sorted(counters.items()):
                lines.append(f"  {name:<40s} {value}")
            for name, value in sorted(gauges.items()):
                lines.append(f"  {name:<40s} {value}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"RunReport({self.operation!r}, {self.root.duration:.6f}s, "
            f"{len(self.metrics.get('counters', {}))} counter deltas)"
        )


class Instrumentation:
    """The metrics registry owned by one discoverer."""

    __slots__ = ("metrics",)

    def __init__(self):
        self.metrics = MetricsRegistry()

    def activate(self):
        """Install this instrumentation as the pipeline probe for a
        ``with`` block."""
        return install(self)

    def inc(self, name: str, amount: int = 1) -> None:
        """Counter shorthand used by probe call sites."""
        counters = self.metrics.counters
        counters[name] = counters.get(name, 0) + amount

    def observe(self, name: str, value: float, **kwargs) -> None:
        self.metrics.observe(name, value, **kwargs)

    def set_gauge(self, name: str, value: float) -> None:
        self.metrics.set_gauge(name, value)

    def begin_operation(self) -> dict:
        """Counter snapshot taken before an operation (for deltas)."""
        return dict(self.metrics.counters)

    def finish_operation(self, operation: str, root: Span, before: dict) -> RunReport:
        """Build the operation's report from its root span and the
        counter snapshot taken at the start."""
        return RunReport(
            operation,
            root,
            {
                "counters": self.metrics.counter_delta(before),
                "gauges": dict(sorted(self.metrics.gauges.items())),
            },
            cumulative=self.metrics.snapshot(),
        )
