"""Incremental evidence-set building for inserts (Algorithm 1).

Given a batch ``Δr`` of freshly inserted tuples, compute the incremental
evidence set ``E_Δr`` covering all ordered pairs with at least one tuple in
``Δr``.  Two collection strategies are provided (Figure 9 ablation):

- **Opt** (default): the *i*-th incremental tuple reconciles against the
  static tuples plus only the incremental tuples after it; evidence of the
  swapped pairs is inferred for every partner.  Each unordered pair is
  reconciled once.
- **Base**: every incremental tuple reconciles against the static tuples
  plus *all* other incremental tuples; inference is applied only to the
  pairs with static partners, so pairs inside ``Δr`` are reconciled twice
  (once per direction).
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.bitmaps.bitutils import bits_from
from repro.evidence.builder import EvidenceEngineState
from repro.evidence.evidence_set import EvidenceSet
from repro.observability.probe import get_probe
from repro.relational.relation import Relation


def incremental_evidence_for_insert(
    relation: Relation,
    state: EvidenceEngineState,
    delta_rids: Iterable[int],
    infer_within_delta: bool = True,
    workers: int = 1,
    backend: Optional[str] = None,
) -> EvidenceSet:
    """Compute ``E_Δr`` for an insert batch.

    Preconditions: the batch rows are already inserted into ``relation``
    and indexed in ``state.indexes`` (they must be probed as partners of
    each other).  The per-tuple evidence index, when enabled, is extended
    with the contexts of each new tuple.

    :param infer_within_delta: choose the Opt (True) or Base (False)
        strategy described above.
    :param workers: stripe ``Δr`` over a fork pool when > 1 (0 = one
        worker per CPU); the merged delta is identical to the serial
        result for any worker count.
    :param backend: evidence-kernel backend (``None`` = auto); results
        are identical for any backend.
    """
    from repro.evidence import parallel
    from repro.evidence.kernels import make_kernel
    from repro.evidence.kernels.base import ReconcileTask

    delta_list = sorted(delta_rids)
    delta_bits = bits_from(delta_list)
    static_bits = relation.alive_bits & ~delta_bits
    evidence_delta = EvidenceSet()
    probe = get_probe()
    if probe is not None:
        probe.inc("evidence.delta_tuples", len(delta_list))

    record = state.tuple_index is not None
    tasks = []
    symmetric_bits = None
    if infer_within_delta:
        remaining_delta = delta_bits
        for rid in delta_list:
            remaining_delta &= ~(1 << rid)
            partners = static_bits | remaining_delta
            # Incremental tuples always get an index entry, even with no
            # partners (a batch into an empty relation).
            tasks.append(
                ReconcileTask(rid, partners, partners if record else None)
            )
    else:
        # Pairs with static partners: direct + inferred swap.  Pairs
        # inside the delta: direct only — the partner's own pipeline
        # produces the other direction.  Recording keeps single-owner-
        # per-pair bookkeeping: the static pairs plus the delta partners
        # *after* this tuple.
        symmetric_bits = static_bits
        for rid in delta_list:
            partners = (static_bits | delta_bits) & ~(1 << rid)
            later_delta = delta_bits & ~((1 << (rid + 1)) - 1)
            tasks.append(
                ReconcileTask(
                    rid,
                    partners,
                    (static_bits | later_delta) if record else None,
                )
            )
    kernel = make_kernel(backend, relation, state.space, state.indexes)
    n_workers = parallel.resolve_workers(workers)
    if parallel.should_parallelize(n_workers, len(tasks)):
        return parallel.reconcile_striped(
            kernel, tasks, n_workers, state.tuple_index, symmetric_bits
        )
    kernel.reconcile(
        tasks, evidence_delta, state.tuple_index, symmetric_bits=symmetric_bits
    )
    return evidence_delta


def apply_insert_evidence(
    state: EvidenceEngineState, evidence_delta: EvidenceSet
) -> list:
    """Merge ``E_Δr`` into the running evidence set; return the genuinely
    new evidence masks (``E^inc = E_Δr \\ E_r``, Algorithm 2 line 2)."""
    return state.evidence.merge(evidence_delta)
