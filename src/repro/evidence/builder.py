"""Static evidence-set building (the ECP analog, Section IV).

Processes alive tuples in ascending rid order; tuple ``t`` reconciles one
context pipeline against the partners *after* it and the symmetric
evidences ``e(t', t)`` are inferred (Section V-B3), so each unordered pair
is reconciled exactly once.  Optionally maintains the per-tuple evidence
index that accelerates later deletes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.evidence.evidence_set import EvidenceSet
from repro.evidence.indexes import ColumnIndexes
from repro.evidence.tuple_index import TupleEvidenceIndex
from repro.observability.probe import get_probe
from repro.observability.tracer import span
from repro.predicates.space import PredicateSpace
from repro.relational.relation import Relation


@dataclass
class EvidenceEngineState:
    """Everything the evidence engine carries between update batches."""

    space: PredicateSpace
    indexes: ColumnIndexes
    evidence: EvidenceSet
    tuple_index: Optional[TupleEvidenceIndex] = None
    stats: dict = field(default_factory=dict)


def collect_contexts(
    space: PredicateSpace,
    contexts: dict,
    evidence_set: EvidenceSet,
    symmetric_bits: Optional[int] = None,
) -> None:
    """Fold reconciled contexts into ``evidence_set``.

    Each context contributes its evidence once per partner; the symmetric
    evidence of the swapped pairs is inferred and added for the partners
    selected by ``symmetric_bits`` (default: all partners).
    """
    symmetrize = space.symmetrize
    total_inferred = 0
    for evidence, bits in contexts.items():
        count = bits.bit_count()
        if count:
            evidence_set.add(evidence, count)
        if symmetric_bits is None:
            sym_count = count
        else:
            sym_count = (bits & symmetric_bits).bit_count()
        if sym_count:
            evidence_set.add(symmetrize(evidence), sym_count)
            total_inferred += sym_count
    if total_inferred:
        probe = get_probe()
        if probe is not None:
            # Each inferred symmetric evidence is one ordered pair whose
            # reconciliation was skipped (the Figure 9 saving).
            probe.inc("evidence.pairs_inferred", total_inferred)


def build_evidence_state(
    relation: Relation,
    space: PredicateSpace,
    maintain_tuple_index: bool = False,
    checkpoint_step: int = 32,
    workers: int = 1,
    backend: Optional[str] = None,
) -> EvidenceEngineState:
    """Build the full evidence set of ``relation`` from scratch.

    :param maintain_tuple_index: also populate the per-tuple evidence index
        that the ``"index"`` delete strategy reads (Section V-C); the paper
        reports only a slight build-time overhead for it.
    :param workers: stripe the scan over a fork pool when > 1 (0 = one
        worker per CPU); the merged evidence set is identical to the
        serial result for any worker count.
    :param backend: evidence-kernel backend (``"auto"``/``"python"``/
        ``"numpy"``, ``None`` = auto); results are identical for any
        backend.
    """
    from repro.evidence import parallel
    from repro.evidence.kernels import make_kernel
    from repro.evidence.kernels.base import ReconcileTask

    with span("indexes"):
        indexes = ColumnIndexes(relation, step=checkpoint_step)
    evidence_set = EvidenceSet()
    tuple_index = TupleEvidenceIndex() if maintain_tuple_index else None

    n_workers = parallel.resolve_workers(workers)
    with span("scan"):
        # Tuple t reconciles against the partners after it; the last
        # alive rid has none left and gets no task (and no index
        # entry), exactly like the historical serial scan.
        tasks = []
        remaining = relation.alive_bits
        for rid in relation.rids():
            remaining &= ~(1 << rid)
            if not remaining:
                break
            tasks.append(
                ReconcileTask(
                    rid,
                    remaining,
                    remaining if maintain_tuple_index else None,
                )
            )
        kernel = make_kernel(backend, relation, space, indexes)
        if parallel.should_parallelize(n_workers, len(tasks)):
            evidence_set = parallel.reconcile_striped(
                kernel, tasks, n_workers, tuple_index
            )
        else:
            kernel.reconcile(tasks, evidence_set, tuple_index)

    return EvidenceEngineState(
        space=space,
        indexes=indexes,
        evidence=evidence_set,
        tuple_index=tuple_index,
    )
