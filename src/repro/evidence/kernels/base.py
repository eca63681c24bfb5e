"""Shared vocabulary of the pluggable evidence kernels.

A *kernel* executes a batch of reconciliation tasks — one per lhs tuple,
each against a partner bitmap — and folds the resulting evidence contexts
into an evidence sink, optionally recording per-tuple ownership for the
delete index.  Both backends (pure Python and NumPy-vectorized) implement
the same :class:`EvidenceKernel` interface and must produce *identical*
sink contents, ownership records, and work counters for any task batch;
that invariant is what the differential suite and the CI bench gate check.

The sink is anything with ``add(mask, count)`` — an
:class:`~repro.evidence.evidence_set.EvidenceSet` in the serial drivers, a
plain signed-counter wrapper in the pooled stripes.  The recorder is
anything with ``record(rid, owned_counter, partner_bits)``, called in
task order — the
:class:`~repro.evidence.tuple_index.TupleEvidenceIndex` itself in the
serial drivers, a :class:`ListRecorder` buffer in the pooled stripes.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.observability.probe import get_probe


class KernelUnsupported(RuntimeError):
    """The backend cannot run this relation exactly (e.g. the vectorized
    kernel facing integers beyond float64's exact range).  The registry
    catches this and falls back to the pure-Python backend."""


@dataclass(frozen=True)
class ReconcileTask:
    """One lhs tuple's reconciliation work item.

    ``record_bits`` selects the partners whose pairs this tuple *owns* in
    the per-tuple evidence index (``None`` disables recording; ``0`` still
    records an empty entry, which the serial insert paths do for tuples
    without partners).
    """

    rid: int
    partner_bits: int
    record_bits: Optional[int] = None


@dataclass
class KernelStats:
    """Deterministic work counters of one kernel batch.

    All four are pure functions of the task batch and the data — never of
    wall time, backend, worker count, or machine — which is what lets the
    CI bench gate compare them against committed baselines.
    """

    pipelines: int = 0  # tasks with a non-empty partner set
    pairs: int = 0  # ordered pairs compared (Σ partner popcounts)
    contexts_out: int = 0  # evidence-context partitions produced
    pairs_inferred: int = 0  # symmetric evidences obtained by inference

    def add(self, other: "KernelStats") -> None:
        """Accumulate another batch's counters (all four are additive
        per task, so a split batch sums to the unsplit one)."""
        self.pipelines += other.pipelines
        self.pairs += other.pairs
        self.contexts_out += other.contexts_out
        self.pairs_inferred += other.pairs_inferred


class CounterSink:
    """Evidence sink folding into a plain signed counter dict (the pooled
    stripes' accumulation format)."""

    __slots__ = ("counts",)

    def __init__(self, counts: Optional[dict] = None):
        self.counts = counts if counts is not None else {}

    def add(self, mask: int, count: int) -> None:
        self.counts[mask] = self.counts.get(mask, 0) + count

    def subtract(self, mask: int, count: int) -> None:
        self.counts[mask] = self.counts.get(mask, 0) - count


class ListRecorder:
    """Ownership recorder buffering ``(rid, counter, partner_bits)`` triples
    (the pooled stripes' :attr:`ShardResult.records` format)."""

    __slots__ = ("records",)

    def __init__(self, records: Optional[list] = None):
        self.records = records if records is not None else []

    def record(self, rid: int, owned_counter: dict, partner_bits: int) -> None:
        self.records.append((rid, owned_counter, partner_bits))


class EvidenceKernel(ABC):
    """One evidence-construction backend bound to a relation snapshot.

    A kernel instance is built per maintenance operation (the vectorized
    backend materializes column arrays at construction time) and then runs
    one or more task batches via :meth:`reconcile`.
    """

    #: Registry name of the backend ("python" / "numpy").
    name: str = ""
    #: Whether :meth:`_emit_probe` re-emits the ``evidence.*`` counters.
    #: The pure-Python backend runs through ``build_contexts``, which
    #: emits them itself, so it opts out here.
    _probe_evidence_counters: bool = True

    def __init__(self, relation, space, indexes):
        self.relation = relation
        self.space = space
        self.indexes = indexes

    @abstractmethod
    def reconcile(
        self,
        tasks: Sequence[ReconcileTask],
        sink,
        recorder=None,
        symmetric_bits: Optional[int] = None,
    ) -> KernelStats:
        """Run the task batch, folding evidence into ``sink``.

        For every task the evidence of each (lhs, partner) ordered pair is
        added to ``sink`` once, plus the inferred symmetric evidence of the
        swapped pair for partners selected by ``symmetric_bits`` (``None``
        → all partners).  Tasks with ``record_bits`` set additionally emit
        one ownership record restricted to ``partner_bits & record_bits``.
        Returns the batch's work counters (also emitted to the active
        probe, if any).
        """

    def _emit_probe(self, stats: KernelStats) -> None:
        """Re-emit batch counters through the active probe using the same
        counter names the serial context pipeline increments, so backend
        choice never changes observable counted work."""
        probe = get_probe()
        if probe is None:
            return
        emit_kernel_stats(
            probe,
            self.name,
            stats,
            len(self.space.groups),
            evidence_counters=self._probe_evidence_counters,
        )


def emit_kernel_stats(
    probe,
    backend: str,
    stats: KernelStats,
    n_groups: int,
    evidence_counters: bool = True,
) -> None:
    """Emit one batch's ``kernel.*`` and (optionally) ``evidence.*``
    counters; each pipeline probes the indexes once per predicate group."""
    probe.inc("kernel.batches")
    probe.inc(f"kernel.batches.{backend}")
    if not evidence_counters:
        return
    if stats.pipelines:
        probe.inc("evidence.context_pipelines", stats.pipelines)
        probe.inc("evidence.pairs_compared", stats.pairs)
        probe.inc("evidence.contexts_out", stats.contexts_out)
        probe.inc("evidence.index_probes", stats.pipelines * n_groups)
    if stats.pairs_inferred:
        probe.inc("evidence.pairs_inferred", stats.pairs_inferred)


def ownership_counter(contexts: dict, record_bits: int) -> dict:
    """Aggregate reconciled contexts into an ownership counter restricted
    to ``record_bits`` partners (multiplicity per evidence mask)."""
    counter: dict = {}
    for evidence, bits in contexts.items():
        owned = bits & record_bits
        if owned:
            counter[evidence] = counter.get(evidence, 0) + owned.bit_count()
    return counter


def record_task(recorder, task: ReconcileTask, contexts: dict) -> None:
    """Emit one task's ownership record (no-op when recording is off)."""
    if recorder is None or task.record_bits is None:
        return
    owned_bits = task.partner_bits & task.record_bits
    recorder.record(
        task.rid, ownership_counter(contexts, task.record_bits), owned_bits
    )


__all__: List[str] = [
    "CounterSink",
    "EvidenceKernel",
    "KernelStats",
    "KernelUnsupported",
    "ListRecorder",
    "ReconcileTask",
    "emit_kernel_stats",
    "ownership_counter",
    "record_task",
]
