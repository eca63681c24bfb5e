"""The pipeline probe — how deep modules reach the active instrumentation.

Threading a metrics registry through every signature of the evidence and
enumeration layers would contaminate APIs whose whole value is their
algorithmic transparency.  Instead the discoverer *installs* its
:class:`~repro.observability.Instrumentation` here for the duration of one
pipeline operation; instrumented modules fetch it with :func:`get_probe`
(one module-dict lookup) and skip all accounting when it is ``None``.

The contract for hot code::

    probe = get_probe()
    ...
    if probe is not None:
        probe.inc("evidence.pairs_compared", n)   # aggregated, not per pair

Counters must be incremented with *aggregated* quantities (per context
pipeline, per batch) — never inside per-pair loops — so the enabled
overhead stays in the low single-digit percent range.  Sub-spans need no
probe: :class:`~repro.observability.tracer.span` nests under whatever
span is open on the thread.

The slot is **thread-local**: an installation and every ``get_probe``
that observes it share one synchronous call stack, so each thread's
installs nest LIFO and co-located pipelines on other threads (a
replicated fleet in one process: the serving writer, follower apply
loops, a fleet monitor) can never clobber — or leak through — each
other's save/restore.
"""

from __future__ import annotations

import threading

_SLOT = threading.local()


def get_probe():
    """The installed instrumentation, or ``None`` when accounting is off."""
    return getattr(_SLOT, "active", None)


class _ProbeInstallation:
    """Context manager installing one instrumentation as the probe."""

    __slots__ = ("_instrumentation", "_previous")

    def __init__(self, instrumentation):
        self._instrumentation = instrumentation
        self._previous = None

    def __enter__(self):
        self._previous = getattr(_SLOT, "active", None)
        _SLOT.active = self._instrumentation
        return self._instrumentation

    def __exit__(self, exc_type, exc, tb) -> None:
        _SLOT.active = self._previous


def install(instrumentation) -> _ProbeInstallation:
    """Install ``instrumentation`` as the active probe for a ``with`` block."""
    return _ProbeInstallation(instrumentation)
