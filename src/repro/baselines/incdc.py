"""IncDC — the prior dynamic DC discovery algorithm (Qian et al. [15]).

Re-implemented from the paper's description for the baseline comparison
(the original is closed Java code).  Its defining design decisions — and
the source of its scaling pathology — are preserved:

- it builds *eager, dense* per-predicate indexes that cover **every DC in
  Σ**: per column an equality map plus a fully materialized
  greater-than map (one rid bitmap per distinct value), instead of 3DC's
  shared lazy/checkpointed indexes;
- for every inserted tuple it probes the retrieval plan of **every DC in
  Σ** (one probe + intersection per predicate, in both pair directions) to
  find violating pairs, so insert cost grows with ``|Σ| · |Δr| · |φ|``
  while 3DC's grows with ``|Δr| · |P|`` and ``|R| < |P| ≪ |Σ|``
  (Section VII-B2);
- it derives incremental evidence **only from violating pairs**, which is
  sufficient for maintaining exact DCs (a refinement can only be contained
  in an evidence that also contained its violated ancestor) but yields no
  evidence multiplicity — hence no ranking or approximate DCs;
- it supports **inserts only**; ``delete`` raises, as in the original.
"""

from __future__ import annotations

from bisect import insort
from typing import Iterable, List, Sequence

from repro.bitmaps.bitutils import iter_bits
from repro.enumeration.incidence import IncidenceSet
from repro.enumeration.inversion import refine_sigma
from repro.predicates.operator import Operator
from repro.predicates.space import PredicateSpace
from repro.relational.relation import Relation


class DensePredicateIndexes:
    """Eager per-column equality and cumulative greater-than maps.

    ``gt[value]`` holds the full rid bitmap of rows with a strictly
    greater column value, materialized for *every* distinct value — the
    all-DCs index coverage that dominates IncDC's memory footprint.
    """

    def __init__(self, relation: Relation):
        self.relation = relation
        self.eq = [dict() for _ in relation.schema]
        self.gt = [
            dict() if column.is_numeric else None for column in relation.schema
        ]
        self._sorted_values = [
            [] if column.is_numeric else None for column in relation.schema
        ]
        self.indexed_bits = 0
        self.add_rows(relation.rids())

    def add_rows(self, rids: Iterable[int]) -> None:
        for rid in rids:
            bit = 1 << rid
            self.indexed_bits |= bit
            for position in range(len(self.relation.schema)):
                value = self.relation.value(rid, position)
                eq_map = self.eq[position]
                gt_map = self.gt[position]
                if value not in eq_map:
                    eq_map[value] = bit
                    if gt_map is not None:
                        values = self._sorted_values[position]
                        insort(values, value)
                        # New distinct value: its gt set is the union of
                        # the eq sets of all larger values.
                        union = 0
                        index = values.index(value)
                        for larger in values[index + 1 :]:
                            union |= eq_map[larger]
                        gt_map[value] = union
                else:
                    eq_map[value] |= bit
                if gt_map is not None:
                    # Every smaller value now has one more greater row.
                    for smaller in self._sorted_values[position]:
                        if smaller >= value:
                            break
                        gt_map[smaller] |= bit

    def probe(self, position: int, op: Operator, value) -> int:
        """Rid bits of rows whose column ``position`` satisfies
        ``row.column op value``."""
        eq_bits = self.eq[position].get(value, 0)
        if op is Operator.EQ:
            return eq_bits
        if op is Operator.NE:
            return self.indexed_bits & ~eq_bits
        gt_map = self.gt[position]
        if gt_map is None:
            raise ValueError("range probe on a categorical column")
        gt_bits = gt_map.get(value)
        if gt_bits is None:
            # Value absent from the index: derive from the nearest entry.
            gt_bits = 0
            for known in reversed(self._sorted_values[position]):
                if known <= value:
                    break
                gt_bits |= self.eq[position][known]
        if op is Operator.GT:
            return gt_bits
        if op is Operator.GE:
            return gt_bits | eq_bits
        if op is Operator.LT:
            return self.indexed_bits & ~gt_bits & ~eq_bits
        return self.indexed_bits & ~gt_bits  # LE


class IncDC:
    """Insert-only dynamic DC discovery via per-DC index probing."""

    def __init__(
        self,
        relation: Relation,
        space: PredicateSpace,
        sigma_masks: Sequence[int],
    ):
        self.relation = relation
        self.space = space
        self.sigma_masks = sorted(sigma_masks)
        self.indexes = DensePredicateIndexes(relation)
        # Per-DC retrieval plans: the ordered predicate list of each DC.
        self._plans = [
            (mask, space.predicates_of(mask)) for mask in self.sigma_masks
        ]

    @property
    def dc_masks(self) -> List[int]:
        return list(self.sigma_masks)

    def _violating_partners(self, plan, rid: int, partner_bits: int):
        """Partners among ``partner_bits`` forming violating pairs with
        ``rid`` under the plan's DC — ``(as_first, as_second)``."""
        row = self.relation.row(rid)
        as_first = partner_bits
        as_second = partner_bits
        for predicate in plan:
            if not as_first and not as_second:
                break
            if as_first:
                as_first &= self.indexes.probe(
                    predicate.rhs_position,
                    predicate.op.converse,
                    row[predicate.lhs_position],
                )
            if as_second:
                as_second &= self.indexes.probe(
                    predicate.lhs_position,
                    predicate.op,
                    row[predicate.rhs_position],
                )
        return as_first, as_second

    def insert(self, rows: Iterable[Sequence]) -> List[int]:
        """Insert rows, update Σ, and return the new DC masks."""
        new_rids = self.relation.insert(rows)
        self.indexes.add_rows(new_rids)
        if not new_rids:
            return self.dc_masks

        # Phase 1 — find every pair violating any current DC.  Probing is
        # per DC per new tuple: the |Σ|-proportional cost.
        violating_pairs = set()
        for rid in new_rids:
            partner_bits = self.indexes.indexed_bits & ~(1 << rid)
            for _, plan in self._plans:
                as_first, as_second = self._violating_partners(
                    plan, rid, partner_bits
                )
                for partner in iter_bits(as_first):
                    violating_pairs.add((rid, partner))
                for partner in iter_bits(as_second):
                    violating_pairs.add((partner, rid))

        # Phase 2 — evidence of the violating pairs only, then refinement.
        # Any refinement's future violations are contained in evidences
        # that also violated its ancestor, so this evidence subset is
        # complete for maintaining exact DCs.
        evidence_masks = set()
        for rid_t, rid_u in violating_pairs:
            evidence_masks.add(
                self.space.evidence_of_pair(
                    self.relation.row(rid_t), self.relation.row(rid_u)
                )
            )
        sigma = IncidenceSet(self.sigma_masks)
        refine_sigma(self.space, sigma, evidence_masks)
        self.sigma_masks = sorted(sigma)
        self._plans = [
            (mask, self.space.predicates_of(mask)) for mask in self.sigma_masks
        ]
        return self.dc_masks

    def delete(self, rids) -> None:
        """IncDC does not support deletions [15]."""
        raise NotImplementedError(
            "IncDC targets tuple insertions only; deletions are unsupported "
            "(this is one of the limitations 3DC addresses)"
        )
