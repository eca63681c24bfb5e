"""Observability subsystem: spans, pipeline metrics, run reports.

Three layers (see docs/observability.md for the naming scheme and how the
paper's Figure 9/10/13 numbers map onto emitted metrics):

- :mod:`~repro.observability.tracer` — the one span model: ``with
  span(name):`` opens a child of the thread's current span; under an
  active :class:`TraceContext` the span also carries W3C ids and, on
  close, writes its record to the :class:`FlightRecorder` bound to that
  context;
- :mod:`~repro.observability.metrics` — counters / gauges / histograms,
  exportable as JSON and Prometheus text
  (:mod:`~repro.observability.exporters`);
- :mod:`~repro.observability.report` — per-operation
  :class:`RunReport` objects combining an operation's root span with
  its metric deltas, produced by the discoverer and consumed by the CLI
  (``--trace``, ``--metrics-out``, ``repro-dc stats``) and the
  benchmark harness.

Deep modules reach the active instrumentation through the probe
(:mod:`~repro.observability.probe`) so their signatures stay clean.
"""

from repro.observability.exporters import (
    PROMETHEUS_CONTENT_TYPE,
    escape_label_value,
    parse_prometheus,
    snapshot_to_json,
    snapshot_to_prometheus,
)
from repro.observability.flight import (
    FlightRecorder,
    build_span_tree,
    split_counters,
)
from repro.observability.logging import configure_logging, get_logger
from repro.observability.metrics import (
    LATENCY_BOUNDS_S,
    Histogram,
    MetricsRegistry,
)
from repro.observability.probe import get_probe, install
from repro.observability.report import Instrumentation, RunReport
from repro.observability.tracectx import TraceContext
from repro.observability.tracer import (
    Span,
    add_finished_span,
    annotate,
    current_span,
    span,
)

__all__ = [
    "FlightRecorder",
    "Histogram",
    "Instrumentation",
    "LATENCY_BOUNDS_S",
    "MetricsRegistry",
    "PROMETHEUS_CONTENT_TYPE",
    "RunReport",
    "Span",
    "TraceContext",
    "add_finished_span",
    "annotate",
    "build_span_tree",
    "configure_logging",
    "current_span",
    "escape_label_value",
    "get_logger",
    "get_probe",
    "install",
    "parse_prometheus",
    "snapshot_to_json",
    "snapshot_to_prometheus",
    "span",
    "split_counters",
]
