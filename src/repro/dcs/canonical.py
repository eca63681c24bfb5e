"""Operator-implication canonicalization of DC masks.

Set-minimal enumeration can report pairs of *semantically equivalent* DCs
whose predicate sets are incomparable, because operator combinations imply
each other within a group:

- ``{≤, ≥}``  ≡  ``{=}``
- ``{≠, ≤}``  ≡  ``{<}``
- ``{≠, ≥}``  ≡  ``{>}``

(e.g. ``¬(t.A ≤ t'.A ∧ t.A ≥ t'.A)`` is ``¬(t.A = t'.A)``).  The paper's
minimality notion is implication-based (Section I); enumeration-layer
results are set-minimal, as in the FastDC/Hydra implementations, and this
module optionally rewrites them to the canonical single-operator form and
drops the duplicates that emerge.

The result, the *canonical cover*, is maintained incrementally by
:class:`CanonicalCover`: it takes a diff of the raw masks and does work
proportional to the diff, so a served write that changes a few DCs of a
large Σ re-canonicalizes only those.  :func:`canonicalize_masks` is the
one-shot use of the same structure.
"""

from __future__ import annotations

from typing import Iterable, List, NamedTuple, Tuple

from repro.enumeration.incidence import IncidenceSet, iter_slots
from repro.predicates.operator import Operator
from repro.predicates.space import PredicateSpace

#: (pair of operators) -> equivalent single operator, within one group.
_REWRITES = (
    ((Operator.LE, Operator.GE), Operator.EQ),
    ((Operator.NE, Operator.LE), Operator.LT),
    ((Operator.NE, Operator.GE), Operator.GT),
)


def _rewrite_rules(space: PredicateSpace) -> Tuple[Tuple[int, int], ...]:
    """``(pair mask, replacement bit mask)`` per applicable rewrite, in
    application order (group by group, then ``_REWRITES`` order)."""
    rules = []
    for group in space.groups:
        if not group.numeric:
            continue
        for (first, second), replacement in _REWRITES:
            first_bit = group.bit_of_op.get(first)
            second_bit = group.bit_of_op.get(second)
            replacement_bit = group.bit_of_op.get(replacement)
            if first_bit is None or second_bit is None or replacement_bit is None:
                continue
            rules.append(((1 << first_bit) | (1 << second_bit), 1 << replacement_bit))
    return tuple(rules)


def _rewrite(mask: int, rules: Tuple[Tuple[int, int], ...]) -> int:
    for pair, replacement in rules:
        if mask & pair == pair:
            mask = (mask & ~pair) | replacement
    return mask


def canonicalize_mask(mask: int, space: PredicateSpace) -> int:
    """Rewrite implied operator pairs to their canonical single operator."""
    return _rewrite(mask, _rewrite_rules(space))


class CoverDelta(NamedTuple):
    """What one :meth:`CanonicalCover.apply` changed."""

    #: Forms that joined the cover.
    entered: List[int]
    #: Forms that left the cover.
    left: List[int]
    #: Forms whose membership in the cover was decided or revised.
    examined: int


class CanonicalCover:
    """The canonical cover of a multiset of raw DC masks, under diffs.

    After every :meth:`apply`, :meth:`masks` equals
    ``canonicalize_masks`` of the raw masks added and not removed so far.
    The structure keeps

    - how many raw masks rewrite to each canonical *form*;
    - the *minimal* forms (no other form is a proper subset) in an
      :class:`~repro.enumeration.incidence.IncidenceSet` — they are the
      cover;
    - for every non-minimal form one minimal *witness*, a proper subset
      of it, and per minimal form the forms it witnesses.

    A diff then touches only the forms it adds or removes, the forms a
    removed witness leaves *orphaned*, and the minimal forms a new form
    evicts.  Fed into an empty cover, a diff is the one-shot pass: the
    rewritten forms are subset-filtered in popcount order and no
    eviction can occur.
    """

    def __init__(self, space: PredicateSpace, masks: Iterable[int] = ()):
        self._rules = _rewrite_rules(space)
        self._count = {}
        self._minimal = IncidenceSet()
        self._witness = {}
        self._witnessed = {}
        self.apply(masks, ())

    def __len__(self) -> int:
        return len(self._minimal)

    def masks(self) -> List[int]:
        """The cover, sorted."""
        return sorted(self._minimal)

    def apply(self, added: Iterable[int], removed: Iterable[int]) -> CoverDelta:
        """Add and remove raw masks; ``removed`` must have been added."""
        rules = self._rules
        count = self._count
        gone = []
        for raw in removed:
            form = _rewrite(raw, rules)
            remaining = count[form] - 1
            if remaining:
                count[form] = remaining
            else:
                del count[form]
                gone.append(form)
        new = []
        for raw in added:
            form = _rewrite(raw, rules)
            seen = count.get(form, 0)
            count[form] = seen + 1
            if not seen:
                new.append(form)
        if gone and new:
            # A form that lost its last raw mask and gained another in the
            # same diff never left.
            kept = set(gone).intersection(new)
            if kept:
                gone = [form for form in gone if form not in kept]
                new = [form for form in new if form not in kept]

        minimal = self._minimal
        witness = self._witness
        witnessed = self._witnessed
        entered, left = [], []
        # Unlink the departing non-minimal forms first, so that a departing
        # witness orphans only forms that stay.
        for form in gone:
            supporter = witness.pop(form, None)
            if supporter is None:
                left.append(form)
                continue
            dependents = witnessed[supporter]
            dependents.discard(form)
            if not dependents:
                del witnessed[supporter]
        orphans = []
        for form in left:
            minimal.remove(form)
            orphans.extend(witnessed.pop(form, ()))
        for orphan in orphans:
            del witness[orphan]
        # Only a new form can be a proper subset of a minimal form already
        # present (an orphan's supersets were never minimal), and only
        # against forms present before this diff: candidates go in
        # ascending popcount, so none is a proper subset of an earlier one.
        evicting = set(new) if len(minimal) else ()
        candidates = orphans + new
        candidates.sort(key=int.bit_count)
        examined = len(gone) + len(candidates)
        for form in candidates:
            below = minimal.subsets_of(form)
            if below:
                # Any minimal subset will do as the witness.
                supporter = minimal.mask_at(below.bit_length() - 1)
                witness[form] = supporter
                witnessed.setdefault(supporter, set()).add(form)
                continue
            if form in evicting:
                for slot in iter_slots(minimal.supersets_of(form)):
                    superset = minimal.mask_at(slot)
                    examined += 1
                    minimal.remove(superset)
                    left.append(superset)
                    # Everything the evicted form witnessed is a superset
                    # of it, hence of the new form too.
                    moved = witnessed.pop(superset, set())
                    moved.add(superset)
                    for dependent in moved:
                        witness[dependent] = form
                    witnessed.setdefault(form, set()).update(moved)
            minimal.insert(form)
            entered.append(form)
        return CoverDelta(entered, left, examined)


def canonicalize_masks(masks: Iterable[int], space: PredicateSpace) -> List[int]:
    """Canonicalize a DC collection, dropping duplicates and any DC that
    became a superset of another after rewriting."""
    return CanonicalCover(space, masks).masks()
