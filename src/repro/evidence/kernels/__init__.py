"""Pluggable evidence-construction backends.

Two kernels implement the same :class:`~repro.evidence.kernels.base.\
EvidenceKernel` interface:

- ``python`` — the dependency-free bigint context pipeline (the reference
  semantics, always available);
- ``numpy`` — columnar, batched vectorized comparison folding clue
  bitsets into evidence-context partitions (requires NumPy).

``auto`` (the default everywhere) picks ``numpy`` when NumPy is importable
and the relation is exactly representable in float64, and falls back to
``python`` otherwise.  Both backends are required to produce byte-identical
canonical state and identical deterministic work counters; the
differential suite (``tests/test_kernels.py``) and the CI bench gate
enforce that.

Backend choice — like the ``workers`` knob — is an execution setting of
one process, never part of the persisted data state.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.evidence.kernels.base import (
    CounterSink,
    EvidenceKernel,
    KernelStats,
    KernelUnsupported,
    ListRecorder,
    ReconcileTask,
)
from repro.evidence.kernels.pure import PythonKernel
from repro.evidence.kernels.vectorized import VectorizedKernel, numpy_available
from repro.observability import get_logger
from repro.observability.probe import get_probe

logger = get_logger(__name__)

#: Accepted values for every ``backend`` knob (drivers, discoverer, CLI).
BACKENDS: Tuple[str, ...] = ("auto", "python", "numpy")
DEFAULT_BACKEND = "auto"


def validate_backend(name: Optional[str]) -> str:
    """Normalize and validate a backend name (``None`` → the default)."""
    resolved = name or DEFAULT_BACKEND
    if resolved not in BACKENDS:
        raise ValueError(
            f"unknown evidence backend {name!r}; expected one of "
            f"{', '.join(BACKENDS)}"
        )
    return resolved


def make_kernel(
    backend: Optional[str], relation, space, indexes
) -> EvidenceKernel:
    """Resolve a backend name to a kernel bound to the given snapshot.

    ``auto`` selects the vectorized kernel when it can run, the Python one
    otherwise.  An explicit ``numpy`` raises when NumPy is not installed,
    but still degrades (with a warning and a ``kernel.fallbacks`` counter
    tick) when the *data* is unrepresentable — representability can change
    from batch to batch, and failing mid-maintenance would help nobody.
    """
    name = validate_backend(backend)
    if name == "python":
        return PythonKernel(relation, space, indexes)
    if name == "numpy" and not numpy_available():
        raise RuntimeError(
            "backend 'numpy' requested but NumPy is not installed; "
            "use backend='auto' or backend='python'"
        )
    if not numpy_available():
        return PythonKernel(relation, space, indexes)
    try:
        return VectorizedKernel(relation, space, indexes)
    except KernelUnsupported as exc:
        probe = get_probe()
        if probe is not None:
            probe.inc("kernel.fallbacks")
        log = logger.warning if name == "numpy" else logger.debug
        log("vectorized kernel unavailable (%s); using the python backend", exc)
        return PythonKernel(relation, space, indexes)


__all__ = [
    "BACKENDS",
    "CounterSink",
    "DEFAULT_BACKEND",
    "EvidenceKernel",
    "KernelStats",
    "KernelUnsupported",
    "ListRecorder",
    "PythonKernel",
    "ReconcileTask",
    "VectorizedKernel",
    "make_kernel",
    "numpy_available",
    "validate_backend",
]
