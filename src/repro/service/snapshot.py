"""Immutable published state: what readers see between write cycles.

After every applied batch the writer thread builds one :class:`Snapshot`
and publishes it with a single reference assignment (atomic under the
GIL).  Read endpoints grab the current reference and work on that object
alone, so reads never block on — and are never blocked by — the writer:

- the relation is a view over the live relation's append-only columns
  (:meth:`~repro.relational.relation.Relation.snapshot`): it shares
  the column lists, which the writer only appends to past the view's
  ``next_rid``, and owns a copy of the alive bitmap;
- the cloned column indexes share no mutable structure with the live
  engine (see
  :meth:`~repro.evidence.indexes.ColumnIndexes.snapshot_clone`);
- the evidence multiset is copied (counts dict), so rankings computed
  from a snapshot are rankings *of that seq*, not of whatever the writer
  is mid-way through;
- the predicate space is shared by reference — it is frozen at fit()
  time by design (the DC search space is a property of the schema and
  the initial distributions, Section III), so sharing is safe;
- Σ (``dc_masks``, sorted) and its canonical cover (``canonical``) are
  lists nobody mutates, so a snapshot whose Σ did not change shares
  them with its predecessor (the discoverer's ``sigma_version`` tells
  in O(1)); the writer's
  :class:`~repro.dcs.canonical.CanonicalCover` that derives them is
  never reachable from a snapshot.

A snapshot also answers the serving-time question of the companion
detection line of work: :meth:`Snapshot.check` is an admission check
*before* the row is committed.  It computes the candidate row's evidence
against every partner once (the one-row Δr of Section V) and reads every
DC's violating partners off that evidence: a pair violates a DC iff the
DC's mask is a subset of the pair's evidence.
"""

from __future__ import annotations

import time
from operator import attrgetter
from typing import List, Optional, Sequence

from repro.bitmaps.bitutils import iter_bits
from repro.dcs.canonical import CanonicalCover, canonicalize_masks
from repro.dcs.denial_constraint import DenialConstraint
from repro.dcs.ranking import rank_dcs

# Not called here: dcbench/tracing.py patches this name in this module
# (its ``dcs.violations`` layer), and a traced server cannot start without it.
from repro.dcs.violations import violating_partners_for_row  # noqa: F401
from repro.evidence.evidence_set import EvidenceSet
from repro.observability.probe import get_probe
from repro.relational.relation import Relation
from repro.verification import Verifier


class Snapshot:
    """One immutable published state of the served session."""

    __slots__ = (
        "seq",
        "created_at",
        "relation",
        "indexes",
        "space",
        "dc_masks",
        "canonical",
        "evidence",
        "status",
        "sigma_version",
        "_rank_cache",
        "_verify_cache",
    )

    def __init__(
        self,
        seq: int,
        relation: Relation,
        indexes,
        space,
        dc_masks: List[int],
        canonical: List[DenialConstraint],
        evidence: EvidenceSet,
        status: dict,
        sigma_version: Optional[int] = None,
    ):
        self.seq = seq
        self.created_at = time.time()
        self.relation = relation
        self.indexes = indexes
        self.space = space
        self.dc_masks = dc_masks
        self.canonical = canonical
        self.evidence = evidence
        self.status = status
        #: The discoverer's ``sigma_version`` that ``dc_masks`` reflect.
        self.sigma_version = sigma_version
        self._rank_cache = {}
        self._verify_cache = {}

    # -- read endpoints ---------------------------------------------------

    def dcs_payload(self) -> dict:
        """Body of ``GET /dcs``."""
        return {
            "seq": self.seq,
            "n_rows": len(self.relation),
            "n_minimal": len(self.dc_masks),
            "dcs": [str(dc) for dc in self.canonical],
            "masks": [format(mask, "x") for mask in sorted(self.dc_masks)],
        }

    def rank_payload(self, top: int) -> dict:
        """Body of ``GET /rank?top=K`` (per-snapshot memoized)."""
        cached = self._rank_cache.get(top)
        if cached is None:
            entries = rank_dcs(self.canonical, self.evidence, top_k=top or None)
            cached = {
                "seq": self.seq,
                "top": top,
                "ranking": [
                    {
                        "dc": str(entry.dc),
                        "score": round(entry.score, 6),
                        "succinctness": round(entry.succinctness, 6),
                        "coverage": round(entry.coverage, 6),
                    }
                    for entry in entries
                ],
            }
            # Benign race: two readers may compute the same entry; the
            # dict assignment is atomic and both results are identical.
            self._rank_cache[top] = cached
        return cached

    def check(
        self,
        row: Sequence,
        dcs: Optional[List[DenialConstraint]] = None,
        limit: Optional[int] = None,
    ) -> dict:
        """Violation-check a candidate row against this snapshot.

        ``dcs`` defaults to the snapshot's canonical DC set; pass parsed
        constraints to check business rules instead.  ``limit`` caps the
        partners listed per direction (the bit counts stay exact).
        Returns the body of ``POST /check``.

        Evidence first: the row is compared once with every indexed
        partner (``e(row, u)``), partners are grouped by evidence mask,
        and each distinct mask is symmetrized once for the reverse order
        (``e(u, row)``).  Bit ``j`` of ``incidence[p]`` says that distinct
        mask ``j`` contains predicate ``p``; bit ``k + j`` says the same of
        its symmetrized twin.  A DC's violating masks are then the AND of
        its predicates' incidence bitsets, starting from all of them, so
        the empty DC is violated by every partner.  ``probes`` reports
        the partners compared (``lookups``) and their distinct evidence
        masks (``unique``).
        """
        space = self.space
        evidence_of_pair = space.evidence_of_pair
        row_of = self.relation.row
        rids_by_mask = {}
        n_partners = 0
        for rid in iter_bits(self.indexes.indexed_bits):
            mask = evidence_of_pair(row, row_of(rid))
            rids_by_mask[mask] = rids_by_mask.get(mask, 0) | (1 << rid)
            n_partners += 1
        rid_groups = list(rids_by_mask.values())
        k = len(rid_groups)
        incidence = [0] * space.n_bits
        for j, mask in enumerate(rids_by_mask):
            forward, reverse = 1 << j, 1 << (k + j)
            for bit in iter_bits(mask):
                incidence[bit] |= forward
            for bit in iter_bits(space.symmetrize(mask)):
                incidence[bit] |= reverse
        all_masks = (1 << (2 * k)) - 1
        forward_masks = (1 << k) - 1

        if dcs is None:
            dcs = self.canonical
        violations = []
        for dc in dcs:
            hits = all_masks
            for bit in dc.bits:
                hits &= incidence[bit]
                if not hits:
                    break
            if not hits:
                continue
            as_first = _union(rid_groups, hits & forward_masks)
            as_second = _union(rid_groups, hits >> k)
            violations.append(
                {
                    "dc": str(dc),
                    "mask": format(dc.mask, "x"),
                    "n_partners": (as_first | as_second).bit_count(),
                    "as_first": _rid_list(as_first, limit),
                    "as_second": _rid_list(as_second, limit),
                }
            )
        probe = get_probe()
        if probe is not None:
            probe.inc("check.partners_compared", n_partners)
            probe.inc("check.evidence_masks", k)
            probe.inc("check.dcs_tested", len(dcs))
            probe.inc("check.dcs_violated", len(violations))
        return {
            "seq": self.seq,
            "ok": not violations,
            "n_violated_dcs": len(violations),
            "violations": violations,
            "probes": {"lookups": n_partners, "unique": k},
        }

    def verify_payload(self, limit: Optional[int] = None, sample: int = 5) -> dict:
        """Body of ``GET /verify`` (per-snapshot memoized).

        Runs the verification kernel over the snapshot's full Σ: per DC,
        does it hold on the published relation, and how many ordered pairs
        violate it (counted exactly, or up to ``limit``).  On a discover-
        mode session every tracked DC holds by construction — the endpoint
        is the self-audit; on a verify-mode session it reports the
        violation counts of the fixed constraint set.
        """
        key = (limit, sample)
        cached = self._verify_cache.get(key)
        if cached is None:
            verifier = Verifier(self.relation, self.indexes, self.space)
            constraints = []
            for mask in sorted(self.dc_masks):
                result = verifier.verify(
                    DenialConstraint(mask, self.space), limit=limit, sample=sample
                )
                constraints.append(
                    {
                        "dc": str(result.dc),
                        "mask": format(mask, "x"),
                        "holds": result.holds,
                        "n_violations": result.n_violations,
                        "truncated": result.truncated,
                        "sample_pairs": [list(pair) for pair in result.pairs],
                        "plan": result.plan,
                    }
                )
            cached = {
                "seq": self.seq,
                "n_rows": len(self.relation),
                "n_constraints": len(constraints),
                "n_violated": sum(
                    1 for entry in constraints if not entry["holds"]
                ),
                "total_violations": sum(
                    entry["n_violations"] for entry in constraints
                ),
                "limit": limit,
                "probe_operations": verifier.probe_operations(),
                "constraints": constraints,
            }
            # Benign race, as for rank_payload: identical results.
            self._verify_cache[key] = cached
        return cached

    def status_payload(self) -> dict:
        """Session-level portion of ``GET /status``."""
        payload = dict(self.status)
        payload["seq"] = self.seq
        payload["snapshot_age_s"] = round(time.time() - self.created_at, 3)
        return payload

    def __repr__(self) -> str:
        return (
            f"Snapshot(seq={self.seq}, {len(self.relation)} rows, "
            f"{len(self.dc_masks)} DCs)"
        )


_mask_of = attrgetter("mask")


def _union(rid_groups: List[int], selected: int) -> int:
    """OR of the rid groups whose positions are set in ``selected``."""
    bits = 0
    for position in iter_bits(selected):
        bits |= rid_groups[position]
    return bits


def _rid_list(bits: int, limit: Optional[int]) -> List[int]:
    rids = []
    for rid in iter_bits(bits):
        if limit is not None and len(rids) >= limit:
            break
        rids.append(rid)
    return rids


def build_snapshot(
    session,
    previous: Optional[Snapshot] = None,
    cover: Optional[CanonicalCover] = None,
) -> Snapshot:
    """Materialize the current session state as an immutable snapshot.

    Called by the writer thread between cycles — never concurrently with
    maintenance, so plain reads of the live structures are safe here.

    ``cover`` is the writer's :class:`~repro.dcs.canonical.CanonicalCover`
    and ``previous`` the snapshot it last published with it (``None``
    with a fresh cover).  A Σ at ``previous``'s ``sigma_version`` reuses
    the previous lists, an O(1) check.  Otherwise Σ is diffed against
    ``previous.dc_masks`` and only the diff goes through the cover, so
    publication costs O(ΔΣ) plus a linear scan.  Without a cover, Σ is
    canonicalized from scratch.
    """
    discoverer = session.discoverer
    space = discoverer.space
    relation = discoverer.relation.snapshot()
    indexes = discoverer.engine_state.indexes.snapshot_clone(relation)
    sigma_version = discoverer.sigma_version
    if cover is None:
        dc_masks = discoverer.dc_masks
        canonical = [
            DenialConstraint(mask, space)
            for mask in canonicalize_masks(dc_masks, space)
        ]
    elif previous is not None and previous.sigma_version == sigma_version:
        dc_masks, canonical = previous.dc_masks, previous.canonical
    else:
        dc_masks, canonical = _diff_into_cover(
            discoverer, previous, cover
        )
    evidence = EvidenceSet(dict(discoverer.evidence_set.counts))
    return Snapshot(
        seq=session.last_applied_seq,
        relation=relation,
        indexes=indexes,
        space=space,
        dc_masks=dc_masks,
        canonical=canonical,
        evidence=evidence,
        status=session.status(),
        sigma_version=sigma_version,
    )


def _diff_into_cover(discoverer, previous, cover):
    """The snapshot's ``(dc_masks, canonical)`` from the Σ diff since
    ``previous`` (all of Σ for a fresh cover), fed through ``cover``."""
    if previous is None:
        if len(cover):
            raise ValueError("a cover that was already fed needs its previous snapshot")
        old_masks, old_canonical = [], []
    else:
        old_masks, old_canonical = previous.dc_masks, previous.canonical
    live = discoverer.dc_mask_set
    removed = [mask for mask in old_masks if mask not in live]
    if len(live) == len(old_masks) - len(removed):
        added = ()
    else:
        added = live - set(old_masks)
    if not removed and not added:
        return old_masks, old_canonical
    delta = cover.apply(added, removed)
    instrumentation = discoverer.instrumentation
    instrumentation.inc("snapshot.sigma_delta", len(added) + len(removed))
    instrumentation.inc("snapshot.cover_forms_examined", delta.examined)
    dc_masks = _merged(old_masks, removed, added)
    if not delta.entered and not delta.left:
        return dc_masks, old_canonical
    left = set(delta.left)
    canonical = [dc for dc in old_canonical if dc.mask not in left]
    space = discoverer.space
    canonical.extend(DenialConstraint(mask, space) for mask in delta.entered)
    canonical.sort(key=_mask_of)
    return dc_masks, canonical


def _merged(ordered: List[int], removed, added) -> List[int]:
    """``ordered`` minus ``removed`` plus ``added``, sorted in linear time:
    the kept masks and the sorted additions are two runs that one
    Timsort pass merges."""
    if removed:
        removed = set(removed)
        merged = [mask for mask in ordered if mask not in removed]
    else:
        merged = list(ordered)
    merged.extend(sorted(added))
    merged.sort()
    return merged
