"""Predicate spaces: bit layout, groups, symmetry, satisfiability.

The space assigns each predicate a bit; an *evidence* (the set of
predicates a tuple pair satisfies) and a DC's predicate set are then plain
``int`` masks.  Three pieces of precomputed structure make the algorithms
fast:

- **Groups** (one per ordered column pair): the pipeline stages of
  Algorithm 1.  Each group knows the bit patterns produced by the three
  outcomes of comparing ``t.A`` with ``t'.B`` (equal / partner greater /
  partner smaller), which is all a reconciliation stage needs.
- **Symmetry tables**: the permutation ``sym`` with
  ``(t, t') ⊨ p  ⇔  (t', t) ⊨ sym(p)`` realizes the paper's evidence
  inference (Section V-B3) as a bit permutation, applied bytewise through
  lookup tables.
- **Satisfiable patterns**: per group, the operator subsets a real tuple
  pair can satisfy (Trichotomy Law); candidates whose bits violate them
  are trivial DCs and are pruned at generation time.  Per predicate they
  are precomputed as *conflict sets* (:attr:`PredicateSpace.conflicts`).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.bitmaps.bitutils import iter_bits
from repro.predicates.operator import (
    CATEGORICAL_OPERATORS,
    CATEGORICAL_PATTERNS,
    NUMERIC_OPERATORS,
    NUMERIC_PATTERNS,
    Operator,
)
from repro.predicates.predicate import Predicate
from repro.relational.relation import Relation
from repro.relational.schema import Schema

#: Default minimum ratio of shared distinct values for cross-column
#: predicates; 30 % "has been shown to work well in practice" [4].
DEFAULT_CROSS_COLUMN_RATIO = 0.3


class PredicateGroup:
    """All predicates over one ordered column pair ``(t.A, t'.B)``.

    A group is one reconciliation stage: given the comparison outcome
    between ``t.A`` and the partner's ``B`` value, the satisfied bits
    within the group are fixed.
    """

    __slots__ = (
        "lhs_position",
        "rhs_position",
        "numeric",
        "predicates",
        "mask",
        "bit_of_op",
        "eq_bits",
        "gt_bits",
        "lt_bits",
        "ahead_bits",
        "patterns",
    )

    def __init__(self, lhs_position, rhs_position, numeric, predicates, first_bit):
        self.lhs_position = lhs_position
        self.rhs_position = rhs_position
        self.numeric = numeric
        self.predicates = tuple(predicates)
        self.bit_of_op = {
            predicate.op: first_bit + offset
            for offset, predicate in enumerate(self.predicates)
        }
        self.mask = 0
        for bit in self.bit_of_op.values():
            self.mask |= 1 << bit

        def bits(operators) -> int:
            value = 0
            for op in operators:
                bit = self.bit_of_op.get(op)
                if bit is not None:
                    value |= 1 << bit
            return value

        if numeric:
            # Outcomes of comparing t.A against partner value t'.B.
            self.eq_bits = bits({Operator.EQ, Operator.LE, Operator.GE})
            self.gt_bits = bits({Operator.NE, Operator.LT, Operator.LE})
            self.lt_bits = bits({Operator.NE, Operator.GT, Operator.GE})
            patterns = NUMERIC_PATTERNS
        else:
            self.eq_bits = bits({Operator.EQ})
            self.gt_bits = 0
            self.lt_bits = bits({Operator.NE})
            patterns = CATEGORICAL_PATTERNS
        # 'ahead' presumes the partner value is smaller (operators ≠, >, ≥),
        # i.e. the lowest-selectivity outcome (Section V-A).
        self.ahead_bits = self.lt_bits
        self.patterns = tuple(bits(pattern) for pattern in patterns)

    @property
    def is_single_column(self) -> bool:
        return self.lhs_position == self.rhs_position

    def __repr__(self) -> str:
        first = self.predicates[0]
        return (
            f"PredicateGroup(t.{first.lhs} ? t'.{first.rhs}, "
            f"{len(self.predicates)} predicates)"
        )


class PredicateSpace:
    """An immutable predicate space with bit-level helpers."""

    def __init__(self, schema: Schema, groups: Sequence[PredicateGroup]):
        self.schema = schema
        self.groups = tuple(groups)
        self.predicates = tuple(
            predicate for group in self.groups for predicate in group.predicates
        )
        self.n_bits = len(self.predicates)
        self.full_mask = (1 << self.n_bits) - 1
        self._bit_of = {}
        self.group_of_bit = [None] * self.n_bits
        bit = 0
        for group in self.groups:
            for predicate in group.predicates:
                self._bit_of[(predicate.lhs, predicate.op, predicate.rhs)] = bit
                self.group_of_bit[bit] = group
                bit += 1
        self.ahead_mask = 0
        self.range_mask = 0
        for group in self.groups:
            self.ahead_mask |= group.ahead_bits
            for predicate in group.predicates:
                if predicate.op.is_order:
                    self.range_mask |= 1 << self._bit_of[
                        (predicate.lhs, predicate.op, predicate.rhs)
                    ]
        self.sym = self._build_symmetry_permutation()
        self._sym_tables = self._build_symmetry_tables()
        #: ``conflicts[p]``: the minimal masks ``C`` of predicates of
        #: ``p``'s group such that ``C ∪ {p}`` is unsatisfiable.  A
        #: satisfiable mask stays satisfiable with ``p`` added iff it
        #: contains none of them (see :meth:`satisfiable_with`).
        self.conflicts = self._build_conflicts()

    # -- construction helpers -------------------------------------------------

    def _build_symmetry_permutation(self) -> list:
        permutation = []
        for predicate in self.predicates:
            key = predicate.symmetric_key
            if key not in self._bit_of:
                raise ValueError(
                    f"predicate space is not symmetry-closed: no counterpart "
                    f"for {predicate}"
                )
            permutation.append(self._bit_of[key])
        return permutation

    def _build_symmetry_tables(self) -> list:
        n_bytes = (self.n_bits + 7) // 8
        tables = []
        for byte_index in range(n_bytes):
            table = [0] * 256
            base = byte_index * 8
            for byte_value in range(256):
                mask = 0
                bits = byte_value
                while bits:
                    low = bits & -bits
                    bit = base + low.bit_length() - 1
                    if bit < self.n_bits:
                        mask |= 1 << self.sym[bit]
                    bits ^= low
                table[byte_value] = mask
            tables.append(table)
        return tables

    def _build_conflicts(self) -> list:
        conflicts = [()] * self.n_bits
        for group in self.groups:
            # Enumerate the group's 2^|group| subsets (|group| <= 6).
            unsatisfiable = []
            subset = group.mask
            while subset:
                if not any(subset & ~pattern == 0 for pattern in group.patterns):
                    unsatisfiable.append(subset)
                subset = (subset - 1) & group.mask
            minimal = [
                mask
                for mask in unsatisfiable
                if not any(
                    other != mask and other & mask == other
                    for other in unsatisfiable
                )
            ]
            for bit in iter_bits(group.mask):
                conflicts[bit] = tuple(
                    sorted(mask ^ (1 << bit) for mask in minimal if (mask >> bit) & 1)
                )
        return conflicts

    # -- bit-level API ----------------------------------------------------------

    def bit(self, lhs: str, op: Operator, rhs: str) -> int:
        """Bit position of the predicate ``t.lhs op t'.rhs``."""
        return self._bit_of[(lhs, op, rhs)]

    def bit_of_predicate(self, predicate: Predicate) -> int:
        return self._bit_of[(predicate.lhs, predicate.op, predicate.rhs)]

    def mask_of(self, predicates: Iterable[Predicate]) -> int:
        """Bitmask of a collection of predicates."""
        mask = 0
        for predicate in predicates:
            mask |= 1 << self.bit_of_predicate(predicate)
        return mask

    def predicates_of(self, mask: int) -> list:
        """Predicates whose bits are set in ``mask``, ascending by bit."""
        result = []
        while mask:
            low = mask & -mask
            result.append(self.predicates[low.bit_length() - 1])
            mask ^= low
        return result

    def symmetrize(self, mask: int) -> int:
        """Evidence of the swapped pair: ``e(t', t)`` from ``e(t, t')``.

        Implemented as a bytewise permutation lookup; the general form of
        the copy/XOR inference of Section V-B3.
        """
        out = 0
        index = 0
        tables = self._sym_tables
        while mask:
            byte = mask & 0xFF
            if byte:
                out |= tables[index][byte]
            mask >>= 8
            index += 1
        return out

    # -- satisfiability (trivial-DC pruning) ------------------------------------

    def satisfiable_with(self, mask: int, bit: int) -> bool:
        """Whether ``mask | (1 << bit)`` stays satisfiable, given that
        ``mask`` already is: it must contain none of ``bit``'s conflict
        sets, since satisfiability is per group and any unsatisfiable
        subset of the result contains ``bit``."""
        for conflict in self.conflicts[bit]:
            if mask & conflict == conflict:
                return False
        return True

    def satisfiable(self, mask: int) -> bool:
        """Whether some tuple-pair valuation can satisfy all predicates in
        ``mask`` simultaneously (per-group Trichotomy check)."""
        for group in self.groups:
            bits = mask & group.mask
            if bits and not any(bits & ~pattern == 0 for pattern in group.patterns):
                return False
        return True

    # -- direct evaluation (oracle path) ------------------------------------------

    def evidence_of_pair(self, row_t, row_u) -> int:
        """Evidence mask of the ordered tuple pair ``(t, t')`` computed by
        direct comparison — the correctness oracle for the bitmap pipeline.

        NaN follows the engine-wide total order: NaN equals NaN and is
        greater than every number (see
        :class:`repro.evidence.indexes.RangeIndex`).
        """
        mask = 0
        for group in self.groups:
            a = row_t[group.lhs_position]
            b = row_u[group.rhs_position]
            if a == b:
                mask |= group.eq_bits
            elif group.numeric:
                if b != b:  # partner NaN: greater unless both are NaN
                    mask |= group.eq_bits if a != a else group.gt_bits
                elif a != a:  # own NaN against a number: partner smaller
                    mask |= group.lt_bits
                else:
                    mask |= group.gt_bits if a < b else group.lt_bits
            else:
                mask |= group.lt_bits  # categorical 'different' bits
        return mask

    def __len__(self) -> int:
        return self.n_bits

    def __repr__(self) -> str:
        return (
            f"PredicateSpace({self.n_bits} predicates, {len(self.groups)} groups)"
        )


def _distinct_values(relation: Relation, position: int) -> set:
    values = relation.column_values(position)
    return {values[rid] for rid in relation.rids()}


def _share_ratio(left: set, right: set) -> float:
    if not left or not right:
        return 0.0
    return len(left & right) / min(len(left), len(right))


def build_space_from_pairs(schema: Schema, pairs: Sequence) -> PredicateSpace:
    """Rebuild a predicate space from an explicit ordered list of column
    pairs ``(lhs_name, rhs_name)`` — used by state deserialization, where
    the original space must be reproduced exactly even though the data
    (and hence the shared-value ratios) may have changed since ``fit()``.
    """
    groups = []
    bit = 0
    for lhs_name, rhs_name in pairs:
        lhs_position = schema.position(lhs_name)
        rhs_position = schema.position(rhs_name)
        lhs_column = schema[lhs_position]
        rhs_column = schema[rhs_position]
        numeric = lhs_column.is_numeric and rhs_column.is_numeric
        operators = NUMERIC_OPERATORS if numeric else CATEGORICAL_OPERATORS
        predicates = [
            Predicate(lhs_name, op, rhs_name, lhs_position, rhs_position)
            for op in operators
        ]
        groups.append(
            PredicateGroup(lhs_position, rhs_position, numeric, predicates, bit)
        )
        bit += len(predicates)
    return PredicateSpace(schema, groups)


def build_predicate_space(
    relation: Relation,
    cross_column_ratio: float = DEFAULT_CROSS_COLUMN_RATIO,
    allow_cross_columns: bool = True,
    column_names: Optional[Sequence[str]] = None,
) -> PredicateSpace:
    """Build the predicate space of a relation with the restrictions of [4].

    - categorical (string) columns: operators ``{=, ≠}``;
    - numeric columns: all six operators;
    - cross-column predicates only between same-type-class columns sharing
      at least ``cross_column_ratio`` of their distinct values (ratio over
      the smaller distinct set); both directions ``(A, B)`` and ``(B, A)``
      are added together, keeping the space symmetry-closed.

    :param column_names: restrict the space to a subset of columns (used by
        the column-scaling experiments).
    """
    schema = relation.schema
    if column_names is None:
        positions = list(range(len(schema)))
    else:
        positions = [schema.position(name) for name in column_names]

    groups = []
    bit = 0

    def add_group(lhs_position: int, rhs_position: int) -> None:
        nonlocal bit
        lhs_column = schema[lhs_position]
        rhs_column = schema[rhs_position]
        numeric = lhs_column.is_numeric and rhs_column.is_numeric
        operators = NUMERIC_OPERATORS if numeric else CATEGORICAL_OPERATORS
        predicates = [
            Predicate(lhs_column.name, op, rhs_column.name, lhs_position, rhs_position)
            for op in operators
        ]
        group = PredicateGroup(lhs_position, rhs_position, numeric, predicates, bit)
        groups.append(group)
        bit += len(predicates)

    for position in positions:
        add_group(position, position)

    if allow_cross_columns:
        distinct = {position: _distinct_values(relation, position) for position in positions}
        for i, left in enumerate(positions):
            for right in positions[i + 1 :]:
                if not schema[left].ctype.comparable_with(schema[right].ctype):
                    continue
                if _share_ratio(distinct[left], distinct[right]) < cross_column_ratio:
                    continue
                add_group(left, right)
                add_group(right, left)

    return PredicateSpace(schema, groups)
