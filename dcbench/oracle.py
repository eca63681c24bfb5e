"""Output checks: a static re-discovery on the live rows.

The oracle rebuilds a relation from the rows alone, builds its evidence
set from scratch under a given (frozen) predicate space and enumerates Σ
statically.  Incremental maintenance is correct when its evidence counts
and DC masks equal the oracle's.
"""

from __future__ import annotations

from typing import List, Optional, Sequence


def static_oracle(header: Sequence[str], rows: List[tuple], space):
    """``(evidence counts, set of non-empty DC masks)`` of ``rows``."""
    from repro.core.backends import make_backend
    from repro.evidence.builder import build_evidence_state
    from repro.relational.loader import relation_from_rows

    relation = relation_from_rows(list(header), list(rows))
    state = build_evidence_state(relation, space)
    backend = make_backend("dynei", space)
    backend.bootstrap(list(state.evidence))
    return state.evidence.counts, {mask for mask in backend.masks if mask}


def check_discoverer(discoverer) -> Optional[str]:
    """None when the discoverer's evidence and Σ match the oracle on its
    live rows, else what differs."""
    counts, sigma = static_oracle(
        discoverer.relation.schema.names,
        list(discoverer.relation.rows()),
        discoverer.space,
    )
    if discoverer.evidence_set.counts != counts:
        return "evidence counts differ from the static re-discovery"
    masks = set(discoverer.dc_masks)
    if masks != sigma:
        return (
            f"Σ differs from the static re-discovery: "
            f"{len(masks - sigma)} extra, {len(sigma - masks)} missing"
        )
    return None


def static_space(header: Sequence[str], static_rows: List[tuple]):
    """The predicate space ``fit()`` freezes for these static rows."""
    from repro.predicates.space import build_predicate_space
    from repro.relational.loader import relation_from_rows

    return build_predicate_space(relation_from_rows(list(header), list(static_rows)))
