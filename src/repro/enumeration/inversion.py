"""Static evidence inversion (the EI algorithm of Hydra [3]).

DC validity reduces to hitting sets: ``φ`` is valid iff no evidence
contains all of its predicates, i.e. ``φ`` hits every *complement*
``P \\ e``.  Evidence inversion maintains the antichain of minimal valid
DCs while folding in one evidence at a time: DCs contained in the new
evidence are violated and get *refined* by extending them with predicates
outside the evidence; refinements dominated by current DCs are dropped,
and unsatisfiable (trivial-DC) refinements are pruned at generation time —
every subset of a satisfiable predicate set is satisfiable, so this loses
no minimal non-trivial DC.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.bitmaps.bitutils import iter_bits
from repro.enumeration.incidence import IncidenceSet, SigmaDelta, iter_slots
from repro.observability.probe import get_probe
from repro.predicates.space import PredicateSpace


def refine_sigma(
    space: PredicateSpace,
    sigma: IncidenceSet,
    evidence_masks: Iterable[int],
) -> SigmaDelta:
    """Fold ``evidence_masks`` into the DC antichain ``sigma`` (in place).

    This is the core loop shared by the static EI pass, DynEI's insert
    and IncDC (Algorithm 2 lines 3-9).  Returns the net change to Σ.

    Per evidence ``e``, one bit-sliced count over the columns outside
    ``e`` gives the violated DCs and the *blockers*, the DCs with exactly
    one predicate ``p`` outside ``e``.  A refinement ``v ∪ {p}`` of a
    violated ``v`` is dominated (line 8) exactly when some blocker with
    outside predicate ``p`` has its inside part within ``v``.  Both that
    test and the trivial-DC pruning run column-wise over the violated
    DCs: bit ``j`` of ``within[q]`` says that the ``j``-th violated DC
    contains ``q``, so the violated DCs containing a mask are one AND
    per predicate of the mask.
    """
    full_mask = space.full_mask
    conflicts = space.conflicts
    columns = sigma.columns
    mask_at = sigma.mask_at
    probe = get_probe()
    evidences_folded = 0
    dcs_refined = 0
    candidates_inserted = 0
    added = set()
    removed = set()
    for evidence in evidence_masks:
        evidences_folded += 1
        outside = full_mask & ~evidence
        violated_slots, blocker_slots = sigma.count_outside(outside)
        if not violated_slots:
            continue
        violated = [mask_at(slot) for slot in iter_slots(violated_slots)]
        dcs_refined += len(violated)
        within = [0] * space.n_bits
        in_some = 0
        for position, dc_mask in enumerate(violated):
            member = 1 << position
            in_some |= dc_mask
            for bit in iter_bits(dc_mask):
                within[bit] |= member
        in_none = full_mask & ~in_some

        def containing(mask: int, among: int) -> int:
            """The violated DCs of ``among`` that contain ``mask``."""
            while mask and among:
                low = mask & -mask
                among &= within[low.bit_length() - 1]
                mask ^= low
            return among

        candidates = []
        for bit in iter_bits(outside):
            refinable = (1 << len(violated)) - 1
            for conflict in conflicts[bit]:
                refinable &= ~containing(conflict, refinable)
            if refinable and bit < len(columns):
                for slot in iter_slots(columns[bit] & blocker_slots):
                    inside = mask_at(slot) & evidence
                    if inside & in_none:
                        continue  # no violated DC holds all of it
                    refinable &= ~containing(inside, refinable)
                    if not refinable:
                        break
            extension = 1 << bit
            for position in iter_bits(refinable):
                candidates.append(violated[position] | extension)
        candidates_inserted += len(candidates)
        for dc_mask in violated:
            sigma.remove(dc_mask)
            # A DC an earlier evidence of the batch added leaves no trace.
            if dc_mask in added:
                added.discard(dc_mask)
            else:
                removed.add(dc_mask)
        for candidate in candidates:
            # Never stored already: an equal stored mask would block it.
            sigma.insert(candidate)
            added.add(candidate)
    if probe is not None:
        probe.inc("enumeration.evidence_folded", evidences_folded)
        probe.inc("enumeration.dcs_refined", dcs_refined)
        probe.inc("enumeration.candidates_inserted", candidates_inserted)
    return SigmaDelta(added, removed)


def maximal_masks(masks: Iterable[int]) -> List[int]:
    """Deduplicate evidence masks and order them largest-first.

    In principle only set-maximal evidences can violate DCs.  For the
    evidences this engine produces, however, distinct masks are *never*
    comparable: every predicate group contributes exactly one of its
    satisfiable patterns (``{=,≤,≥}`` / ``{≠,<,≤}`` / ``{≠,>,≥}``, or
    ``{=}`` / ``{≠}``), and the patterns of a group are pairwise
    incomparable — so ``e₁ ⊆ e₂`` forces equality group by group.  Subset
    filtering would be an O(|E|²) no-op; this function therefore only
    dedupes and sorts by descending popcount (large evidences have small
    complements and spawn few refinements, which keeps the DC antichain
    small through most of an inversion pass).
    """
    return sorted(set(masks), key=lambda mask: -mask.bit_count())


def minimize_masks(masks: Iterable[int]) -> List[int]:
    """Keep only the set-minimal masks (drop supersets of other masks),
    in ascending popcount order."""
    minimal = IncidenceSet()
    for mask in sorted(masks, key=int.bit_count):
        if not minimal.subsets_of(mask):
            minimal.insert(mask)
    return list(minimal)


def invert_evidence(
    space: PredicateSpace, evidence_masks: Iterable[int]
) -> List[int]:
    """Enumerate all minimal, non-trivial DC masks valid for the evidence:
    the static EI algorithm, refining the empty predicate set."""
    sigma = IncidenceSet([0])
    # Only maximal evidences can violate anything; maximal_masks also
    # returns them largest-first, which keeps the antichain small through
    # most of the pass (small complements spawn few refinements).
    refine_sigma(space, sigma, maximal_masks(evidence_masks))
    # The empty mask survives only when there is no evidence at all (fewer
    # than two alive tuples).  It is kept here — the antichain invariant of
    # the dynamic passes needs it — and filtered at the presentation layer.
    return sorted(sigma)
