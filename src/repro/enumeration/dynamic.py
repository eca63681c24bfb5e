"""DynEI — dynamic DC enumeration (Section VI).

Operates on evidence-set *changes*, not tuples:

- **Inserts** (Algorithm 2): inserts can only add evidence, so previously
  valid DCs can only become violated.  Starting from the previous
  antichain ``Σ``, only the genuinely new evidence masks
  ``E^inc = E_Δr \\ E_r`` are folded in.
- **Deletes**: removed evidence can only make DCs *non-minimal*.  A valid
  DC ``φ`` is minimal iff every predicate ``p ∈ φ`` has a *critical*
  evidence — one containing ``φ ∖ {p}`` (it then lacks ``p``, since
  ``φ`` is valid) [7], [8], [19].  DCs for which a removed evidence was
  critical are dropped, exactly as in the paper.

Both work on Σ held as per-predicate incidence bitsets
(:class:`~repro.enumeration.incidence.IncidenceSet`) and return the net
Σ delta they applied.

The delete answers every question from the evidence set, never from the
relation, in four steps:

1. **Flag.**  Each DC's *flagged* predicates are the ``p`` for which
   some removed evidence contained ``φ ∖ {p}``: per removed evidence, the
   DCs that meet its complement in exactly one predicate, read off the
   bitsets with one bit-sliced count.  A DC with a flagged predicate is
   dropped.
2. **Re-check flagged predicates only.**  A dropped DC is re-added iff,
   for every flagged ``p``, some *remaining* evidence still contains
   ``φ ∖ {p}`` (:func:`lost_critical_predicate`; the scan stops at the
   first hit).  An unflagged predicate lost no critical evidence, so its
   critical evidence is still in ``E_left`` by construction.
3. **Targeted re-grow.**  The paper re-runs an EI pass over the entire
   remaining evidence, seeded with single-predicate DCs and pruned by the
   surviving DCs (Section VI-B).  A sharper structural fact makes the
   re-grow targeted while producing the same output:

       Every DC that is minimal for ``E_left`` but was not in the previous
       ``Σ`` is contained in some **removed** evidence.

   Proof: let ``m`` be minimal-valid for ``E_left`` with ``m ∉ Σ``.  Were
   ``m`` valid for the old ``E`` too, each proper subset of ``m`` would be
   invalid for ``E_left`` (else ``m`` is non-minimal) and hence invalid
   for ``E ⊇ E_left`` — making ``m`` minimal-valid for ``E``, i.e.
   ``m ∈ Σ``, a contradiction.  So ``m`` was *invalid* for ``E``: some old
   evidence contains it, and that evidence cannot remain (it would still
   invalidate ``m``) — it is one of the removed ones.  ∎

   So each removed evidence ``r`` gets one tiny MMCS run: the minimal
   hitting sets of the remaining-evidence complements restricted to
   subsets of ``r`` (:func:`regrow`).
4. **Apply the delta in place.**  The dropped DCs that failed the
   re-check leave Σ and the re-grown masks enter it; nothing else of
   ``Σ`` is touched.

No final minimization is needed, because every mask in the result is
minimal for ``E_left``:

- a survivor or re-added DC is valid for ``E ⊇ E_left``, and each of its
  predicates has a critical evidence in ``E_left`` (steps 1–2);
- a re-grown mask ``m ⊆ r`` hits every remaining complement, so it is
  valid for ``E_left``; it is a *minimal* hitting set inside ``r``, so
  each proper subset ``m'`` misses some restricted edge ``(P ∖ e) ∩ r``
  — with ``m' ⊆ r`` that means ``m' ⊆ e`` for a remaining ``e``, and
  ``m'`` is invalid.

Distinct masks that are all minimal-valid for the same evidence set are
pairwise incomparable, so the updated Σ is already the antichain.  It
is also complete: a DC minimal for ``E_left`` was either in ``Σ`` (then
it survived or passed the re-check) or lies inside a removed evidence
(then the re-grow found it).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from repro.bitmaps.bitutils import iter_bits
from repro.enumeration.incidence import (
    NO_DELTA,
    IncidenceSet,
    SigmaDelta,
    iter_slots,
)
from repro.enumeration.inversion import maximal_masks, refine_sigma
from repro.enumeration.mmcs import mmcs_hitting_sets
from repro.observability.probe import get_probe
from repro.predicates.space import PredicateSpace


def dynei_insert(
    space: PredicateSpace,
    sigma_masks: Sequence[int],
    new_evidence_masks: Iterable[int],
) -> List[int]:
    """Update the DC antichain after an insert batch.

    :param sigma_masks: minimal DC masks valid before the insert.
    :param new_evidence_masks: ``E^inc`` — evidence masks present after the
        insert that did not exist before (from
        :func:`repro.evidence.incremental.apply_insert_evidence`).
    """
    sigma = IncidenceSet(sigma_masks)
    refine_sigma(space, sigma, maximal_masks(new_evidence_masks))
    return sorted(sigma)


def lost_critical_predicate(
    dc_mask: int, flagged: int, remaining_masks: Sequence[int]
) -> int:
    """The lowest flagged predicate of ``dc_mask`` that has no critical
    evidence left, as a one-bit mask, or ``0`` when every flagged
    predicate still has one (the DC stays minimal).

    ``dc_mask`` must be valid for ``remaining_masks``, so a remaining
    evidence containing ``dc ∖ {p}`` lacks ``p`` and is critical for it.
    A nonzero result ``p`` means ``dc ∖ {p}`` is itself valid.
    """
    while flagged:
        bit = flagged & -flagged
        rest = dc_mask ^ bit
        for evidence in remaining_masks:
            if rest & evidence == rest:
                break
        else:
            return bit
        flagged ^= bit
    return 0


def _minimize_edges(edges: List[int]) -> List[int]:
    """Keep only the minimal restricted edges (supersets are implied)."""
    unique = sorted(set(edges), key=lambda edge: edge.bit_count())
    kept: List[int] = []
    for edge in unique:
        if any(small & edge == small for small in kept):
            continue
        kept.append(edge)
    return kept


def regrow(
    space: PredicateSpace,
    removed_evidence_masks: Sequence[int],
    remaining_masks: Sequence[int],
) -> List[int]:
    """The minimal DCs of ``remaining_masks`` inside each removed
    evidence — one universe-restricted MMCS run per removed evidence (a
    mask inside two removed evidences is listed twice)."""
    full_mask = space.full_mask
    remaining_complements = [full_mask & ~evidence for evidence in remaining_masks]
    found: List[int] = []
    for removed in removed_evidence_masks:
        restricted = _minimize_edges(
            [complement & removed for complement in remaining_complements]
        )
        found.extend(mmcs_hitting_sets(space, restricted, universe_mask=removed))
    return found


def dynei_delete(
    space: PredicateSpace,
    sigma: IncidenceSet,
    removed_evidence_masks: Sequence[int],
    remaining_evidence_masks: Iterable[int],
) -> SigmaDelta:
    """Update the DC antichain ``sigma`` after a delete batch (in place).

    Returns the net change to Σ.

    :param sigma: the minimal DC masks valid before the delete.
    :param removed_evidence_masks: evidence masks whose multiplicity
        dropped to zero (from
        :func:`repro.evidence.deletes.apply_delete_evidence`).
    :param remaining_evidence_masks: all distinct evidence masks still in
        the evidence set (``E^left``).
    """
    if not removed_evidence_masks:
        return NO_DELTA

    # (1) Flag: a removed evidence was critical for predicate p of a DC
    # iff it contained every other predicate, i.e. the DC meets its
    # complement in exactly p.
    full_mask = space.full_mask
    columns = sigma.columns
    flagged_at = {}
    for evidence in removed_evidence_masks:
        complement = full_mask & ~evidence
        _, single = sigma.count_outside(complement)
        for bit in iter_bits(complement):
            if bit >= len(columns):
                break
            for slot in iter_slots(columns[bit] & single):
                flagged_at[slot] = flagged_at.get(slot, 0) | (1 << bit)
    dropped = [
        (sigma.mask_at(slot), flagged) for slot, flagged in flagged_at.items()
    ]

    # (2) Re-check the flagged predicates against the remaining
    # evidence; a DC that lost a critical evidence leaves Σ.
    remaining = list(remaining_evidence_masks)
    rechecks = 0
    readded = 0
    removed = set()
    for dc_mask, flagged in dropped:
        lost = lost_critical_predicate(dc_mask, flagged, remaining)
        if lost:
            # Predicates are checked in ascending order up to the lost one.
            rechecks += (flagged & ((lost << 1) - 1)).bit_count()
            sigma.remove(dc_mask)
            removed.add(dc_mask)
        else:
            rechecks += flagged.bit_count()
            readded += 1

    # (3) Targeted re-grow; the new minimal DCs enter Σ (a mask inside
    # two removed evidences is found twice).
    new_masks = regrow(space, removed_evidence_masks, remaining)
    added = {mask for mask in new_masks if sigma.insert(mask)}

    probe = get_probe()
    if probe is not None:
        probe.inc("enumeration.dcs_dropped", len(dropped))
        probe.inc("enumeration.dcs_readded", readded)
        probe.inc("enumeration.dcs_regrown", len(new_masks))
        probe.inc("enumeration.critical_rechecks", rechecks)
    return SigmaDelta(added, removed)
