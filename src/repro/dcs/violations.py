"""Violation detection: find the tuple pairs that violate a DC.

Two strategies:

- :func:`find_violations` — naive ordered-pair scan, the oracle;
- :func:`partners_satisfying` / :func:`violating_partners` — index-driven
  refinement: for a fixed tuple, probe the column indexes per predicate
  and intersect the candidate rid sets.  This is the retrieval primitive
  the IncDC baseline [15] builds its per-DC plans from, and it also powers
  fast "which existing rows clash with this row" checks in applications.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from repro.evidence.indexes import ColumnIndexes
from repro.observability.probe import get_probe
from repro.predicates.operator import Operator
from repro.relational.relation import Relation


def find_violations(
    dc, relation: Relation, limit: Optional[int] = None
) -> List[Tuple[int, int]]:
    """All ordered rid pairs ``(t, t')`` violating ``dc`` by direct scan.

    :param limit: stop early after this many violations (None = all).
    """
    violations = []
    rows = [(rid, relation.row(rid)) for rid in relation.rids()]
    for rid_t, row_t in rows:
        for rid_u, row_u in rows:
            if rid_t == rid_u:
                continue
            if not dc.holds_on_pair(row_t, row_u):
                violations.append((rid_t, rid_u))
                if limit is not None and len(violations) >= limit:
                    return violations
    return violations


def partners_satisfying(
    indexes: ColumnIndexes, position: int, op: Operator, value
) -> int:
    """Rid bits of indexed rows whose column ``position`` stands in
    relation ``row.column op value``."""
    range_index = indexes.ranges[position]
    if range_index is None:
        eq_bits = indexes.equality[position].probe(value)
        if op is Operator.EQ:
            return eq_bits
        if op is Operator.NE:
            return indexes.indexed_bits & ~eq_bits
        raise ValueError(f"operator {op} is not defined on a categorical column")
    eq_bits, gt_bits = range_index.eq_gt(value)
    if op is Operator.EQ:
        return eq_bits
    if op is Operator.NE:
        return indexes.indexed_bits & ~eq_bits
    if op is Operator.GT:
        return gt_bits
    if op is Operator.GE:
        return gt_bits | eq_bits
    if op is Operator.LT:
        return indexes.indexed_bits & ~gt_bits & ~eq_bits
    return indexes.indexed_bits & ~gt_bits  # LE


def violating_partners_for_row(
    dc,
    row: Sequence,
    indexes: ColumnIndexes,
    exclude_bits: int = 0,
    probes: Optional[Callable[[int, Operator, object], int]] = None,
) -> Tuple[int, int]:
    """Partners forming a violating pair with a *candidate* row.

    ``row`` need not be present in any relation ("would this row violate
    the constraint against the live table?").  Returns ``(as_first,
    as_second)``: rid bits of indexed partners ``u`` such that ``(row, u)``
    respectively ``(u, row)`` violates the DC.  ``exclude_bits`` removes
    rids from consideration (a row already in the relation excludes
    itself).  Every predicate contributes one index probe and one
    intersection — the IncDC retrieval plan, one DC at a time.  It is the
    test oracle of the service's evidence-first ``POST /check``
    (:meth:`~repro.service.snapshot.Snapshot.check`), which answers all
    DCs at once.  ``probes`` replaces the probe primitive (same signature
    as :func:`partners_satisfying` minus the indexes argument), e.g. to
    count the probes.
    """
    if probes is None:
        def probes(position, op, value):
            return partners_satisfying(indexes, position, op, value)

    as_first = indexes.indexed_bits & ~exclude_bits
    as_second = indexes.indexed_bits & ~exclude_bits
    n_probes = 0
    for predicate in dc.predicates:
        if not as_first and not as_second:
            break
        if as_first:
            # (rid, u): rid.lhs op u.rhs  <=>  u.rhs op.converse rid.lhs
            as_first &= probes(
                predicate.rhs_position,
                predicate.op.converse,
                row[predicate.lhs_position],
            )
            n_probes += 1
        if as_second:
            # (u, rid): u.lhs op rid.rhs
            as_second &= probes(
                predicate.lhs_position,
                predicate.op,
                row[predicate.rhs_position],
            )
            n_probes += 1
    probe = get_probe()
    if probe is not None:
        probe.inc("violations.index_probes", n_probes)
    return as_first, as_second


def violating_partners(
    dc, relation: Relation, indexes: ColumnIndexes, rid: int
) -> Tuple[int, int]:
    """Partners forming a violating pair with tuple ``rid``.

    Returns ``(as_first, as_second)``: rid bits of partners ``u`` such that
    ``(rid, u)`` respectively ``(u, rid)`` violates the DC.  The tuple
    itself is excluded.
    """
    return violating_partners_for_row(
        dc, relation.row(rid), indexes, exclude_bits=1 << rid
    )


def iter_violating_pairs(
    dc, relation: Relation, indexes: ColumnIndexes
) -> Iterator[Tuple[int, int]]:
    """Ordered violating pairs via index refinement (each pair once)."""
    from repro.bitmaps.bitutils import iter_bits

    seen_bits = 0
    for rid in relation.rids():
        as_first, as_second = violating_partners(dc, relation, indexes, rid)
        for partner in iter_bits(as_first & ~seen_bits):
            yield (rid, partner)
        for partner in iter_bits(as_second & ~seen_bits):
            yield (partner, rid)
        seen_bits |= 1 << rid
