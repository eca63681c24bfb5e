"""Evidence-set maintenance for deletes (Section V-C).

Two strategies compute the evidence ``E_Δr`` of all ordered pairs touching
the delete batch:

- :func:`delete_evidence_by_recompute` re-runs one context pipeline per
  deleted tuple against the not-yet-processed alive tuples (the direct
  approach);
- :func:`delete_evidence_with_index` retrieves each dying tuple's *owned*
  pairs from the per-tuple evidence index, corrects them lazily for
  partners that died before, and reconciles only the non-owned pairs
  (the faster approach, Figure 10).

Both must run *before* the rows are removed from the column indexes — the
dying tuples still need to be probed as partners.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Tuple

from repro.bitmaps.bitutils import iter_bits
from repro.evidence.builder import EvidenceEngineState
from repro.evidence.evidence_set import EvidenceSet
from repro.observability.probe import get_probe
from repro.relational.relation import Relation


def delete_evidence_by_recompute(
    relation: Relation,
    state: EvidenceEngineState,
    delete_rids: Iterable[int],
    workers: int = 1,
    backend: Optional[str] = None,
) -> EvidenceSet:
    """Recompute the evidence produced by the delete batch from scratch.

    Precondition: the batch rows are still alive in ``relation`` and still
    present in ``state.indexes``.

    :param workers: stripe the batch over a fork pool when > 1 (0 = one
        worker per CPU); results are identical for any worker count.
    :param backend: evidence-kernel backend (``None`` = auto); results
        are identical for any backend.
    """
    from repro.evidence import parallel
    from repro.evidence.kernels import make_kernel
    from repro.evidence.kernels.base import ReconcileTask

    delete_list = sorted(delete_rids)
    evidence_delta = EvidenceSet()
    remaining = relation.alive_bits
    tasks = []
    for rid in delete_list:
        remaining &= ~(1 << rid)
        tasks.append(ReconcileTask(rid, remaining))
    kernel = make_kernel(backend, relation, state.space, state.indexes)
    n_workers = parallel.resolve_workers(workers)
    if parallel.should_parallelize(n_workers, len(tasks)):
        return parallel.reconcile_striped(kernel, tasks, n_workers)
    kernel.reconcile(tasks, evidence_delta)
    return evidence_delta


def _processed_prefixes(delete_list: List[int]) -> Iterator[Tuple[int, int]]:
    """``(rid, processed_bits)`` for each rid of the sorted batch, where
    ``processed_bits`` holds the batch rids before it."""
    processed_bits = 0
    for rid in delete_list:
        yield rid, processed_bits
        processed_bits |= 1 << rid


def _index_delete_items(
    relation: Relation, state: EvidenceEngineState, items, sink
) -> Tuple[list, int, int]:
    """The index strategy's per-rid body over ``(rid, processed_bits)``
    items: owned pairs and stale corrections go straight into ``sink``;
    the non-owned pairs come back as reconcile tasks.

    Each item depends only on its own ``processed_bits``, so any subset
    of the batch (a pool stripe) runs through here unchanged.  Returns
    ``(tasks, owned_pairs, stale_corrections)``.
    """
    from repro.evidence.kernels.base import ReconcileTask

    tuple_index = state.tuple_index
    space = state.space
    symmetrize = space.symmetrize
    alive_bits = relation.alive_bits  # batch rows are still alive here
    owned_pairs = 0
    stale_corrections = 0
    tasks = []
    for rid, processed_bits in items:
        rid_bit = 1 << rid
        partners = tuple_index.partners(rid)
        # (1) Owned pairs, corrected for partners that are already gone
        # (died in an earlier batch, or processed earlier in this one).
        for evidence, count in tuple_index.owned_evidence(rid).items():
            sink.add(evidence, count)
            sink.add(symmetrize(evidence), count)
            owned_pairs += count
        stale = partners & (~alive_bits | processed_bits)
        if stale:
            stale_corrections += stale.bit_count()
            row = relation.row(rid)
            evidence_of_pair = space.evidence_of_pair
            for partner in iter_bits(stale):
                evidence = evidence_of_pair(row, relation.row(partner))
                sink.subtract(evidence, 1)
                sink.subtract(symmetrize(evidence), 1)
        # (2) Non-owned pairs with surviving, unprocessed tuples — run as
        # one kernel batch after the loop.
        others = alive_bits & ~processed_bits & ~partners & ~rid_bit
        if others:
            tasks.append(ReconcileTask(rid, others))
    return tasks, owned_pairs, stale_corrections


def delete_evidence_with_index(
    relation: Relation,
    state: EvidenceEngineState,
    delete_rids: Iterable[int],
    workers: int = 1,
    backend: Optional[str] = None,
) -> EvidenceSet:
    """Compute the delete batch's evidence using the per-tuple index.

    For each dying tuple ``t``:

    1. Its *owned* pairs come from the index.  The stored aggregate may
       include partners that died earlier (staleness is lazy); the
       evidence of those few both-dead pairs is recomputed directly from
       the retained row values and subtracted.
    2. Its *non-owned* pairs — partners that are alive, not yet processed
       in this batch, and not covered by the index entry — are reconciled
       with one context pipeline.

    Each unordered pair is thereby counted exactly once: pairs owned by a
    batch member are counted at the owner's step (1); pairs between ``t``
    and a surviving non-partner at ``t``'s step (2).

    :param workers: stripe the batch over a fork pool when > 1 (0 = one
        worker per CPU); results are identical for any worker count.
    :param backend: evidence-kernel backend (``None`` = auto); results
        are identical for any backend.
    :raises RuntimeError: when the engine state has no tuple index.
    """
    from repro.evidence import parallel
    from repro.evidence.kernels import make_kernel
    from repro.evidence.kernels.base import CounterSink

    tuple_index = state.tuple_index
    if tuple_index is None:
        raise RuntimeError(
            "delete_evidence_with_index requires a tuple evidence index, "
            "which a discoverer keeps only under delete_strategy='index'"
        )
    delete_list = sorted(delete_rids)
    n_workers = parallel.resolve_workers(workers)
    if parallel.should_parallelize(n_workers, len(delete_list)):
        kernel = make_kernel(backend, relation, state.space, state.indexes)

        def run_stripe(items: list) -> parallel.ShardResult:
            result = parallel.ShardResult()
            sink = CounterSink(result.counts)
            tasks, owned, stale = _index_delete_items(
                relation, state, items, sink
            )
            result.stats = kernel.reconcile(tasks, sink)
            result.counters = {
                "evidence.index_owned_pairs": owned,
                "evidence.stale_pair_corrections": stale,
            }
            return result

        evidence_delta = parallel.run_striped(
            kernel,
            list(_processed_prefixes(delete_list)),
            run_stripe,
            n_workers,
        )
        for rid in delete_list:
            tuple_index.drop_tuple(rid)
        return evidence_delta

    evidence_delta = EvidenceSet()
    tasks, owned_pairs, stale_corrections = _index_delete_items(
        relation, state, _processed_prefixes(delete_list), evidence_delta
    )
    if tasks:
        kernel = make_kernel(backend, relation, state.space, state.indexes)
        kernel.reconcile(tasks, evidence_delta)
    for rid in delete_list:
        tuple_index.drop_tuple(rid)

    probe = get_probe()
    if probe is not None:
        # Owned pairs come straight from the tuple index — each is one
        # reconciliation the Figure 10 "index" strategy avoided.
        probe.inc("evidence.index_owned_pairs", owned_pairs)
        probe.inc("evidence.stale_pair_corrections", stale_corrections)
    return evidence_delta


def apply_delete_evidence(
    state: EvidenceEngineState, evidence_delta: EvidenceSet
) -> list:
    """Subtract ``E_Δr`` from the running evidence set; return the masks
    whose multiplicity dropped to zero (the delete-case ``E^inc``)."""
    return state.evidence.subtract_all(evidence_delta)
