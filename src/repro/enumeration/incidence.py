"""DC-mask antichains as per-predicate incidence bitsets over slots.

Every stored mask owns a *slot*, and ``columns[p]`` is an int whose bit
``s`` says that the mask in slot ``s`` contains predicate ``p``.  The two
questions Algorithm 2 asks of Σ for an evidence ``e`` (Section VI-C) are
then a bit-sliced count over the columns of the predicates outside ``e``
(:meth:`IncidenceSet.count_outside`), about two big-int operations per
predicate instead of a walk over Σ:

- line 4, the DCs *violated* by ``e``: the slots in no column outside ``e``;
- line 8, the DCs that can make a refinement non-minimal: the slots in
  exactly one column outside ``e``.  A DC ``σ ⊆ v ∪ {p}`` with ``v ⊆ e``
  has ``σ ∖ e ⊆ {p}``, and ``σ ∖ e = ∅`` would make ``σ`` violated.

Removal frees a slot and the next insert reuses it, so the columns stay
about |Σ| bits wide.  The masks are also keyed by slot in a dict, whose
key view is the unsorted Σ the discoverer reads.

The same structure holds the canonical cover's minimal forms
(:class:`~repro.dcs.canonical.CanonicalCover`) and the antichain of
:func:`~repro.enumeration.inversion.minimize_masks`, which ask one mask
at a time: :meth:`IncidenceSet.subsets_of` is one OR over the columns
outside the mask, :meth:`IncidenceSet.supersets_of` one AND over its
columns.
"""

from __future__ import annotations

from typing import AbstractSet, Iterable, Iterator, List, NamedTuple, Optional

from repro.bitmaps.bitutils import iter_bits


class SigmaDelta(NamedTuple):
    """The net change one maintenance operation made to Σ."""

    added: AbstractSet[int]
    removed: AbstractSet[int]

    def __bool__(self) -> bool:
        return bool(self.added or self.removed)


#: The delta of an operation that left Σ as it was.
NO_DELTA = SigmaDelta(frozenset(), frozenset())


def iter_slots(bits: int) -> Iterator[int]:
    """Positions of the set bits of a wide, sparse int, highest first.

    :func:`~repro.bitmaps.bitutils.iter_bits` rewrites the whole int once
    per set bit; this scans its binary text once, in C.
    """
    text = bin(bits)
    top = len(text) - 1
    position = text.find("1", 2)
    while position >= 0:
        yield top - position
        position = text.find("1", position + 1)


def _bulk_columns(masks: List[int]) -> List[int]:
    """The incidence columns of ``masks`` in slot order, set bit by bit
    in one bytearray per predicate (one big-int OR per slot would copy a
    column each time)."""
    n_bits = max(masks, default=0).bit_length()
    n_bytes = (len(masks) + 7) >> 3
    columns = [bytearray(n_bytes) for _ in range(n_bits)]
    for slot, mask in enumerate(masks):
        byte = slot >> 3
        bit = 1 << (slot & 7)
        while mask:
            low = mask & -mask
            columns[low.bit_length() - 1][byte] |= bit
            mask ^= low
    return [int.from_bytes(column, "little") for column in columns]


class IncidenceSet:
    """A set of predicate masks with per-predicate slot columns."""

    __slots__ = ("columns", "occupied", "_masks", "_slot_of", "_free")

    def __init__(self, masks: Iterable[int] = ()):
        stored = list(dict.fromkeys(masks))
        #: ``columns[p]``: the slots whose mask contains predicate ``p``
        #: (read-only outside this class; grows as wider masks arrive).
        self.columns = _bulk_columns(stored)
        #: The slots in use.
        self.occupied = (1 << len(stored)) - 1
        self._masks: List[Optional[int]] = stored
        self._slot_of = {mask: slot for slot, mask in enumerate(stored)}
        self._free: List[int] = []

    def __len__(self) -> int:
        return len(self._slot_of)

    def __contains__(self, mask: int) -> bool:
        return mask in self._slot_of

    def __iter__(self) -> Iterator[int]:
        return iter(self._slot_of)

    @property
    def mask_set(self) -> AbstractSet[int]:
        """The stored masks as a read-only set view."""
        return self._slot_of.keys()

    def mask_at(self, slot: int) -> int:
        """The mask stored in an occupied ``slot``."""
        return self._masks[slot]

    def insert(self, mask: int) -> bool:
        """Insert ``mask``; return ``False`` when it was already present."""
        if mask in self._slot_of:
            return False
        if self._free:
            slot = self._free.pop()
            self._masks[slot] = mask
        else:
            slot = len(self._masks)
            self._masks.append(mask)
        self._slot_of[mask] = slot
        bit = 1 << slot
        self.occupied |= bit
        columns = self.columns
        if mask.bit_length() > len(columns):
            columns.extend([0] * (mask.bit_length() - len(columns)))
        for predicate in iter_bits(mask):
            columns[predicate] |= bit
        return True

    def remove(self, mask: int) -> None:
        """Remove ``mask``; raises ``KeyError`` when absent."""
        slot = self._slot_of.pop(mask)
        self._masks[slot] = None
        self._free.append(slot)
        bit = 1 << slot
        self.occupied ^= bit
        columns = self.columns
        for predicate in iter_bits(mask):
            columns[predicate] ^= bit

    def subsets_of(self, mask: int) -> int:
        """The slots whose mask is a subset of ``mask`` (or equal to it):
        those in no column of a predicate outside ``mask``."""
        hit = 0
        for predicate, column in enumerate(self.columns):
            if not (mask >> predicate) & 1:
                hit |= column
        return self.occupied & ~hit

    def supersets_of(self, mask: int) -> int:
        """The slots whose mask is a superset of ``mask`` (or equal to
        it): those in every column of ``mask``."""
        columns = self.columns
        if mask.bit_length() > len(columns):
            return 0
        slots = self.occupied
        for predicate in iter_bits(mask):
            slots &= columns[predicate]
        return slots

    def count_outside(self, outside: int) -> tuple:
        """``(none, one)``: the slots whose mask has no predicate in
        ``outside``, and those with exactly one.

        A bit-sliced count: ``once`` collects the slots seen in at least
        one column so far, ``twice`` those seen in two or more.
        """
        columns = self.columns
        once = twice = 0
        for predicate in iter_bits(outside):
            if predicate >= len(columns):
                break
            column = columns[predicate]
            twice |= once & column
            once |= column
        return self.occupied & ~once, once & ~twice
