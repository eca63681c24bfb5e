"""DynHS — dynamic hitting-set DC enumeration (the baseline of [19]).

Ports the dynamic hitting-set maintenance of Xiao et al. [19] (designed
for difference sets in FD discovery) to evidence complements, as the paper
does for its baseline comparison.  The structural contrast with DynEI:

- DynHS keeps, for every current DC and every of its predicates, the
  explicit list of *critical* hyperedges, and must touch **every** DC on
  **every** evidence change to keep those lists exact;
- DynEI touches only the DCs a new evidence actually violates (found via
  its per-predicate incidence bitsets) and answers minimality with
  subset queries instead of criticality bookkeeping.

That per-change Σ-wide scan is what makes DynHS slower on DC workloads
with large Σ (Figures 11 and 12).
"""

from __future__ import annotations

from typing import AbstractSet, Iterable, List

from repro.bitmaps.bitutils import iter_bits
from repro.observability.probe import get_probe
from repro.predicates.space import PredicateSpace


def _vertices_of(mask: int):
    return list(iter_bits(mask))


class DynHS:
    """Stateful dynamic hitting-set enumerator over evidence complements."""

    def __init__(
        self,
        space: PredicateSpace,
        evidence_masks: Iterable[int] = (),
        bootstrap: str = "mmcs",
    ):
        self.space = space
        self._edges = {}  # edge id -> vertex mask (complement of evidence)
        self._edge_id_of = {}  # vertex mask -> edge id
        self._next_edge_id = 0
        # DC mask -> {vertex: set of critical edge ids}; starts from the
        # empty hitting set of the empty hypergraph.
        self._sigma = {0: {}}
        new_masks = list(evidence_masks)
        if new_masks:
            if bootstrap == "mmcs":
                self._bootstrap_from_mmcs(new_masks)
            else:
                self.insert_evidence(new_masks)

    def _bootstrap_from_mmcs(self, evidence_masks) -> None:
        """Initialize from a static MMCS run plus one criticality sweep.

        Enumerating the initial hitting sets edge-by-edge (the pure
        dynamic path) is much slower than one static MMCS pass followed by
        computing the exact criticality lists with a |Σ|·|E| scan.
        """
        from repro.enumeration.mmcs import mmcs_enumerate

        full_mask = self.space.full_mask
        for evidence in evidence_masks:
            edge = full_mask & ~evidence
            if edge not in self._edge_id_of:
                self._register_edge(edge)
        masks = mmcs_enumerate(self.space, evidence_masks)
        self._sigma = {}
        for dc_mask in masks:
            crit = {vertex: set() for vertex in _vertices_of(dc_mask)}
            for edge_id, edge in self._edges.items():
                hit = dc_mask & edge
                if hit and hit.bit_count() == 1:
                    crit[hit.bit_length() - 1].add(edge_id)
            self._sigma[dc_mask] = crit

    # -- public API ----------------------------------------------------------

    @property
    def dc_masks(self) -> List[int]:
        """Current minimal DC masks, sorted."""
        return sorted(self._sigma)

    @property
    def dc_mask_set(self) -> AbstractSet[int]:
        """Current minimal DC masks as a read-only, unsorted view."""
        return self._sigma.keys()

    def insert_evidence(self, new_evidence_masks: Iterable[int]) -> None:
        """Fold in evidences that newly appeared (insert case)."""
        full_mask = self.space.full_mask
        for evidence in new_evidence_masks:
            edge = full_mask & ~evidence
            if edge in self._edge_id_of:
                continue
            self._register_and_apply_edge(edge)

    def delete_evidence(
        self,
        removed_evidence_masks: Iterable[int],
        remaining_evidence_masks: Iterable[int],
    ) -> None:
        """Fold in evidences that disappeared (delete case).

        ``remaining_evidence_masks`` must be the distinct evidences still
        present; the re-grow pass scans them all, as in DynEI's delete.
        """
        full_mask = self.space.full_mask
        removed_ids = []
        for evidence in removed_evidence_masks:
            edge = full_mask & ~evidence
            edge_id = self._edge_id_of.pop(edge, None)
            if edge_id is not None:
                del self._edges[edge_id]
                removed_ids.append(edge_id)
        if not removed_ids:
            return
        if not self._edges:
            # Every evidence is gone (fewer than two tuples remain): the
            # empty hitting set is the only minimal one.
            self._sigma = {0: {}}
            return
        removed_id_set = set(removed_ids)
        # Drop the removed edges from every criticality list; DCs whose
        # predicate starves are only *possibly* non-minimal — remove them
        # conservatively and let the re-grow pass rebuild.
        survivors = {}
        for dc_mask, crit in self._sigma.items():
            starved = False
            for vertex in list(crit):
                crit[vertex] = crit[vertex] - removed_id_set
                if not crit[vertex]:
                    starved = True
            if not starved:
                survivors[dc_mask] = crit
        self._sigma = survivors
        self._seed_singles()
        for evidence in remaining_evidence_masks:
            edge = full_mask & ~evidence
            edge_id = self._edge_id_of.get(edge)
            if edge_id is None:
                edge_id = self._register_edge(edge)
            self._apply_edge(edge_id, edge)
        # Criticality lists are exact again: keep exactly the members
        # every predicate of which has a critical edge (= the minimal ones).
        self._sigma = {
            dc_mask: crit
            for dc_mask, crit in self._sigma.items()
            if all(crit.values()) or not dc_mask
        }
        if len(self._sigma) > 1 and 0 in self._sigma and self._edges:
            del self._sigma[0]

    # -- internals ---------------------------------------------------------------

    def _register_edge(self, edge: int) -> int:
        edge_id = self._next_edge_id
        self._next_edge_id += 1
        self._edges[edge_id] = edge
        self._edge_id_of[edge] = edge_id
        return edge_id

    def _register_and_apply_edge(self, edge: int) -> None:
        self._apply_edge(self._register_edge(edge), edge)

    def _apply_edge(self, edge_id: int, edge: int) -> None:
        """Make Σ the exact minimal-hitting-set family including ``edge``."""
        probe = get_probe()
        if probe is not None:
            # DynHS scans all of Σ per edge — the cost contrast with
            # DynEI that Figures 11/12 measure.
            probe.inc("enumeration.edges_applied")
            probe.inc("enumeration.sigma_scanned", len(self._sigma))
        satisfiable_with = self.space.satisfiable_with
        violated = []
        for dc_mask, crit in self._sigma.items():
            hit = dc_mask & edge
            if not hit:
                violated.append(dc_mask)
            elif hit.bit_count() == 1:
                crit_set = crit.get(hit.bit_length() - 1)
                if crit_set is not None:
                    crit_set.add(edge_id)
        for dc_mask in violated:
            parent_crit = self._sigma.pop(dc_mask)
            for vertex in iter_bits(edge):
                if not satisfiable_with(dc_mask, vertex):
                    continue
                candidate = dc_mask | (1 << vertex)
                if candidate in self._sigma:
                    continue
                new_crit = {}
                starved = False
                for member, member_edges in parent_crit.items():
                    filtered = {
                        eid
                        for eid in member_edges
                        if not (self._edges[eid] >> vertex) & 1
                    }
                    if not filtered:
                        starved = True
                        break
                    new_crit[member] = filtered
                if starved:
                    continue
                new_crit[vertex] = {edge_id}
                self._sigma[candidate] = new_crit

    def _seed_singles(self) -> None:
        """Add every single-predicate DC with its exact criticality lists
        (the edges containing only that vertex among the DC — i.e. all
        edges containing the vertex)."""
        for vertex in range(self.space.n_bits):
            single = 1 << vertex
            if single in self._sigma:
                continue
            crit = {
                vertex: {
                    eid
                    for eid, edge in self._edges.items()
                    if (edge >> vertex) & 1
                }
            }
            self._sigma[single] = crit


def dynhs_insert(
    space: PredicateSpace,
    previous_evidence_masks: Iterable[int],
    new_evidence_masks: Iterable[int],
) -> List[int]:
    """One-shot convenience wrapper: bootstrap on the previous evidence,
    then apply the insert delta and return the DC masks."""
    enumerator = DynHS(space, previous_evidence_masks)
    enumerator.insert_evidence(new_evidence_masks)
    return enumerator.dc_masks
