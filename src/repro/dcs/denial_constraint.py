"""First-class denial constraint objects.

Internally every algorithm works on predicate bitmasks; this module wraps
a mask together with its predicate space into a hashable, printable object
for the public API.
"""

from __future__ import annotations

from functools import total_ordering

from repro.bitmaps.bitutils import iter_bits
from repro.predicates.parser import format_dc
from repro.predicates.space import PredicateSpace


@total_ordering
class DenialConstraint:
    """A DC ``¬(p₁ ∧ … ∧ pₘ)`` over a predicate space.

    ``bits`` holds the predicates' bit positions, ascending, computed once
    here: admission checks AND one incidence bitset per predicate, and a
    canonical DC is shared by every snapshot that publishes it.
    """

    __slots__ = ("mask", "space", "bits")

    def __init__(self, mask: int, space: PredicateSpace):
        self.mask = mask
        self.space = space
        self.bits = tuple(iter_bits(mask))

    @property
    def predicates(self) -> tuple:
        """The predicates of the DC, ascending by bit position."""
        return tuple(self.space.predicates_of(self.mask))

    def __len__(self) -> int:
        """Number of predicates."""
        return self.mask.bit_count()

    @property
    def is_trivial(self) -> bool:
        """Whether no tuple pair can satisfy all predicates (the DC holds
        on every instance and carries no information)."""
        return not self.space.satisfiable(self.mask)

    def implies(self, other: "DenialConstraint") -> bool:
        """Set-implication: this DC implies ``other`` when its predicate
        set is a subset of the other's (fewer constraints to violate)."""
        return self.mask & other.mask == self.mask

    def is_violated_by_evidence(self, evidence_mask: int) -> bool:
        """Whether a tuple pair with this evidence violates the DC
        (satisfies every predicate of it)."""
        return self.mask & evidence_mask == self.mask

    def holds_on_pair(self, row_t, row_u) -> bool:
        """Evaluate the DC directly on an ordered pair of tuples."""
        return any(not p.eval(row_t, row_u) for p in self.predicates)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DenialConstraint):
            return self.mask == other.mask and self.space is other.space
        return NotImplemented

    def __lt__(self, other: "DenialConstraint"):
        if isinstance(other, DenialConstraint):
            return self.mask < other.mask
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.mask)

    def __str__(self) -> str:
        return format_dc(self.mask, self.space)

    def __repr__(self) -> str:
        return f"DenialConstraint({self})"
