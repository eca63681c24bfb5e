"""In-memory span tracing around calls into the program's layers.

The traced run wraps public functions of each layer at the name their
caller looks up (a module global such as
``repro.core.discoverer.incremental_evidence_for_insert`` or a class
attribute such as ``DynEIBackend.insert``), so nothing under ``src/``
changes.  Spans stay in memory and are written out once, at the end.

Two kinds of wrapper:

- a *span* records name, start, end, parent and the time its child spans
  covered, so ``self = duration - child time``;
- a *hot* call (``Verifier.is_minimal`` runs tens of thousands of times
  per window run) only adds to an aggregate count and time; nested hot
  calls are counted but their time belongs to the outermost one.  The
  enclosing span still sees that time as covered by a child.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
from time import perf_counter

#: ``(module, attribute path, span name, hot)`` for every wrapped call.
#: Functions are patched in the module their caller reads them from.
LAYER_CALLS = (
    ("repro.core.discoverer", "build_predicate_space", "predicates.build_space", False),
    ("repro.core.discoverer", "build_evidence_state", "evidence.build", False),
    ("repro.core.backends", "DynEIBackend.bootstrap", "enumeration.bootstrap", False),
    ("repro.core.discoverer", "DCDiscoverer.insert", "core.insert", False),
    ("repro.core.discoverer", "DCDiscoverer.delete", "core.delete", False),
    ("repro.relational.relation", "Relation.insert", "relational", False),
    ("repro.relational.relation", "Relation.delete", "relational", False),
    ("repro.evidence.indexes", "ColumnIndexes.add_rows", "evidence.indexes.update", False),
    ("repro.evidence.indexes", "ColumnIndexes.remove_rows", "evidence.indexes.update", False),
    ("repro.evidence.indexes", "ColumnIndexes.snapshot_clone", "evidence.indexes.clone", False),
    ("repro.core.discoverer", "incremental_evidence_for_insert", "evidence.incremental", False),
    ("repro.core.discoverer", "apply_insert_evidence", "evidence.incremental", False),
    ("repro.core.discoverer", "delete_evidence_with_index", "evidence.deletes", False),
    ("repro.core.discoverer", "apply_delete_evidence", "evidence.deletes", False),
    ("repro.evidence.kernels.pure", "PythonKernel.reconcile", "evidence.kernels", False),
    ("repro.evidence.kernels.vectorized", "VectorizedKernel.reconcile", "evidence.kernels", False),
    ("repro.core.backends", "DynEIBackend.insert", "enumeration.insert", False),
    ("repro.core.backends", "DynEIBackend.delete", "enumeration.delete", False),
    ("repro.verification.kernel", "Verifier.is_minimal", "verification", True),
    ("repro.verification.kernel", "Verifier.has_violation", "verification", True),
    ("repro.durability.session", "DurableSession.insert", "durability.session", False),
    ("repro.durability.wal", "WriteAheadLog.append", "durability.wal_append", False),
    ("repro.durability.session", "DurableSession.checkpoint", "durability.checkpoint", False),
    ("repro.service.server", "DCService._apply_cycle", "service.cycle", False),
    ("repro.service.server", "coalesce", "service.coalesce", False),
    ("repro.service.server", "build_snapshot", "service.snapshot.build", False),
    ("repro.service.snapshot", "canonicalize_masks", "dcs.canonical", False),
    ("repro.service.coalescer", "WriteRequest.resolve", "service.respond", False),
    ("repro.service.snapshot", "Snapshot.check", "service.check", False),
    ("repro.service.snapshot", "violating_partners_for_row", "dcs.violations", True),
)


class _Span:
    __slots__ = ("name", "parent", "start", "end", "child")

    def __init__(self, name, parent, start):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.child = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child


class Tracer:
    """Records spans and hot-call aggregates; one per traced process."""

    def __init__(self):
        self.spans = []
        #: span name -> [calls, seconds] for hot calls.
        self.hot = {}
        self._local = threading.local()
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, func, args, kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = _Span(name, parent, perf_counter())
        stack.append(span)
        try:
            return func(*args, **kwargs)
        finally:
            span.end = perf_counter()
            stack.pop()
            if parent is not None:
                parent.child += span.end - span.start
            self.spans.append(span)

    def call_hot(self, name, func, args, kwargs):
        local = self._local
        aggregate = self.hot.setdefault(name, [0, 0.0])
        aggregate[0] += 1
        if getattr(local, "in_hot", False):
            return func(*args, **kwargs)
        local.in_hot = True
        started = perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            elapsed = perf_counter() - started
            local.in_hot = False
            aggregate[1] += elapsed
            stack = self._stack()
            if stack:
                stack[-1].child += elapsed

    # -- patching ----------------------------------------------------------

    def patch(self, module_name: str, path: str, name: str, hot: bool) -> None:
        owner = importlib.import_module(module_name)
        *owner_path, attr = path.split(".")
        for part in owner_path:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        own = attr in vars(owner)
        tracer = self
        if hot:
            def wrapper(*args, **kwargs):
                return tracer.call_hot(name, original, args, kwargs)
        else:
            def wrapper(*args, **kwargs):
                return tracer.call(name, original, args, kwargs)
        functools.update_wrapper(wrapper, original)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, own))

    def install(self, calls=LAYER_CALLS) -> "Tracer":
        for module_name, path, name, hot in calls:
            self.patch(module_name, path, name, hot)
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- results -----------------------------------------------------------

    def totals(self, since: float = 0.0) -> dict:
        """span name -> ``{"calls", "total_s", "self_s"}`` over spans that
        started at or after ``since``, hot aggregates included."""
        totals = {}
        for span in self.spans:
            if span.start < since:
                continue
            entry = totals.setdefault(
                span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            entry["calls"] += 1
            entry["total_s"] += span.duration
            entry["self_s"] += span.self_time
        for name, (calls, seconds) in self.hot.items():
            entry = totals.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            entry["calls"] += calls
            entry["total_s"] += seconds
            entry["self_s"] += seconds
        return totals

    def write(self, path) -> None:
        """Write every span (with self time and parent index) as JSON."""
        index = {id(span): position for position, span in enumerate(self.spans)}
        records = [
            {
                "name": span.name,
                "parent": index.get(id(span.parent)),
                "start": span.start,
                "duration_s": span.duration,
                "self_s": span.self_time,
            }
            for span in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": records, "hot": self.hot}, handle)
