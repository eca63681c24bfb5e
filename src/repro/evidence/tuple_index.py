"""Per-tuple evidence index accelerating delete maintenance (Section V-C).

During evidence collection, each tuple that served as an evidence-context
*lhs* records the evidences it produced (aggregated with multiplicities)
together with the bitmap of partners those pairs involved.  When the tuple
is later deleted, its owned pairs come straight from the index; only the
pairs owned by *other* tuples still need one reconciliation pass — roughly
half the work of full recomputation.

Staleness is handled **lazily**: when a partner of an indexed tuple dies,
nothing is updated.  Instead, at the indexed tuple's own deletion, the
evidence of its pairs with already-dead partners (available from the
``partners & ~alive`` bitmap; dead rows keep their values) is recomputed
directly and subtracted from the stored aggregate.  Pairs where *both*
tuples die are rare relative to all pairs, so this trades a tiny amount of
recomputation for the removal of all per-pair cross-tuple bookkeeping —
which is what makes the strategy profitable in this substrate (see the
Figure 10 benchmark).
"""

from __future__ import annotations


class TupleEvidenceIndex:
    """Maps each lhs tuple to the evidence (with multiplicity) it owns."""

    __slots__ = ("owned", "partners_of")

    def __init__(self):
        self.owned = {}
        self.partners_of = {}

    def record(self, rid: int, owned_counter: dict, partner_bits: int) -> None:
        """Add the pairs lhs tuple ``rid`` owns: ``owned_counter`` maps
        evidence mask → multiplicity, ``partner_bits`` holds the partners
        of those pairs.  This is the evidence kernels' recorder interface
        (see :mod:`repro.evidence.kernels.base`)."""
        counter = self.owned.get(rid)
        if counter is None:
            # Fresh entry (the overwhelmingly common case): one C-level
            # dict copy instead of a per-evidence merge loop.
            self.owned[rid] = dict(owned_counter)
        else:
            for evidence, count in owned_counter.items():
                counter[evidence] = counter.get(evidence, 0) + count
        self.partners_of[rid] = self.partners_of.get(rid, 0) | partner_bits

    def owned_evidence(self, rid: int) -> dict:
        """Aggregated evidence counter of pairs owned by ``rid`` as
        recorded at build/insert time (may include dead partners — the
        caller corrects via :meth:`partners`)."""
        return self.owned.get(rid, {})

    def partners(self, rid: int) -> int:
        """Bit pattern of the partners of the pairs ``rid`` owns."""
        return self.partners_of.get(rid, 0)

    def compact(self, relation, space) -> None:
        """Apply all pending lazy corrections eagerly.

        Subtracts, from every owner's aggregate, the evidence of its pairs
        with partners that are no longer alive, and clears those partner
        bits.  Needed before serialization: the corrections require the
        dead rows' retained values, which a reloaded relation does not
        have (dead slots are placeholders).  Also usable periodically to
        bound the stale-pair backlog.
        """
        from repro.bitmaps.bitutils import iter_bits

        alive_bits = relation.alive_bits
        evidence_of_pair = space.evidence_of_pair
        for rid, partners in self.partners_of.items():
            stale = partners & ~alive_bits
            if not stale:
                continue
            counter = self.owned.get(rid, {})
            row = relation.row(rid)
            for partner in iter_bits(stale):
                evidence = evidence_of_pair(row, relation.row(partner))
                current = counter.get(evidence, 0)
                if current <= 0:
                    raise ValueError(
                        f"tuple {rid}: stale pair with {partner} not in its "
                        f"owned aggregate — index corrupted"
                    )
                if current == 1:
                    del counter[evidence]
                else:
                    counter[evidence] = current - 1
            self.partners_of[rid] = partners & alive_bits

    def stats(self) -> dict:
        """Structural statistics of the index (for ``repro-dc stats`` and
        the observability gauges): indexed tuples, total owned ordered
        pairs, and distinct evidence entries across all owners."""
        return {
            "tuples": len(self.owned),
            "owned_pairs": sum(
                sum(counter.values()) for counter in self.owned.values()
            ),
            "evidence_entries": sum(
                len(counter) for counter in self.owned.values()
            ),
        }

    def drop_tuple(self, rid: int) -> None:
        """Remove the records of ``rid`` after its deletion."""
        self.owned.pop(rid, None)
        self.partners_of.pop(rid, None)

    def __contains__(self, rid: int) -> bool:
        return rid in self.owned

    def __len__(self) -> int:
        return len(self.owned)
