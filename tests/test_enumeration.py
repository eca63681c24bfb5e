"""Tests for the four enumeration engines and their dynamic variants.

Static correctness is anchored in a brute-force minimal-hitting-set
enumerator; dynamic correctness in static re-runs on the updated data.
"""

import random
from itertools import combinations

import pytest

from repro.enumeration import (
    DynHS,
    IncidenceSet,
    dfs_enumerate,
    dynei_delete,
    dynei_insert,
    invert_evidence,
    minimize_masks,
    mmcs_enumerate,
)
from repro.enumeration.inversion import maximal_masks, refine_sigma
from repro.enumeration.mmcs import complement_edges
from repro.evidence import (
    apply_delete_evidence,
    apply_insert_evidence,
    build_evidence_state,
    delete_evidence_by_recompute,
    incremental_evidence_for_insert,
    naive_evidence_set,
)
from repro.predicates import build_predicate_space
from tests.conftest import random_rows


def brute_force_minimal_dcs(space, evidence_masks, max_size=4):
    """All satisfiable minimal hitting sets of the evidence complements,
    up to ``max_size`` predicates, by exhaustive subset enumeration."""
    complements = [space.full_mask & ~e for e in evidence_masks]
    found = []
    for size in range(0, max_size + 1):
        for bits in combinations(range(space.n_bits), size):
            mask = 0
            for bit in bits:
                mask |= 1 << bit
            if not space.satisfiable(mask):
                continue
            if any(mask & complement == 0 for complement in complements):
                continue
            if any(kept & mask == kept for kept in found):
                continue
            found.append(mask)
    return sorted(found)


class TestHelpers:
    def test_minimize_masks(self):
        assert minimize_masks([0b111, 0b011, 0b101, 0b011]) == [0b011, 0b101]

    def test_maximal_masks_dedupes_and_orders(self):
        result = maximal_masks([0b001, 0b011, 0b101, 0b011])
        assert result[0].bit_count() >= result[-1].bit_count()
        assert sorted(result) == [0b001, 0b011, 0b101]

    def test_complement_edges_minimized(self, abc_factory):
        relation = abc_factory(10, 0)
        space = build_predicate_space(relation)
        evidence = list(naive_evidence_set(relation, space))
        edges = complement_edges(space, evidence)
        for i, edge in enumerate(edges):
            for j, other in enumerate(edges):
                if i != j:
                    assert not (other & edge == other), "superset edge kept"


class TestStaticEnumerators:
    @pytest.mark.parametrize("seed", range(5))
    def test_ei_matches_bruteforce(self, abc_factory, seed):
        relation = abc_factory(random.Random(seed).randint(4, 10), seed)
        space = build_predicate_space(relation)
        evidence = list(naive_evidence_set(relation, space))
        full = invert_evidence(space, evidence)
        truncated = [m for m in full if m.bit_count() <= 4]
        assert truncated == brute_force_minimal_dcs(space, evidence)

    @pytest.mark.parametrize("seed", range(5))
    def test_all_enumerators_agree(self, abc_factory, seed):
        relation = abc_factory(random.Random(seed * 7).randint(5, 12), seed + 50)
        space = build_predicate_space(relation)
        evidence = list(naive_evidence_set(relation, space))
        ei = invert_evidence(space, evidence)
        assert mmcs_enumerate(space, evidence) == ei
        assert dfs_enumerate(space, evidence) == ei
        assert DynHS(space, evidence).dc_masks == ei

    def test_no_evidence_yields_empty_dc(self, abc_factory):
        relation = abc_factory(1, 0)
        space = build_predicate_space(relation)
        assert invert_evidence(space, []) == [0]
        assert mmcs_enumerate(space, []) == [0]
        assert dfs_enumerate(space, []) == [0]
        assert DynHS(space, []).dc_masks == [0]

    def test_results_are_antichains_and_satisfiable(self, abc_factory):
        relation = abc_factory(12, 9)
        space = build_predicate_space(relation)
        evidence = list(naive_evidence_set(relation, space))
        masks = invert_evidence(space, evidence)
        for i, mask in enumerate(masks):
            assert space.satisfiable(mask)
            for other in masks[i + 1 :]:
                assert not (mask & other == mask) and not (mask & other == other)

    def test_results_are_valid(self, abc_factory):
        relation = abc_factory(12, 10)
        space = build_predicate_space(relation)
        evidence = list(naive_evidence_set(relation, space))
        for mask in invert_evidence(space, evidence):
            assert not any(mask & e == mask for e in evidence)


class _Workbench:
    """One relation with maintained evidence state, for dynamic tests."""

    def __init__(self, seed, n_rows=12):
        self.rng = random.Random(seed)
        from repro.relational import relation_from_rows

        self.relation = relation_from_rows(
            ["A", "B", "C"], random_rows(self.rng, n_rows)
        )
        self.space = build_predicate_space(self.relation)
        self.state = build_evidence_state(self.relation, self.space)
        self.sigma = invert_evidence(self.space, list(self.state.evidence))

    def insert(self, count):
        rids = self.relation.insert(random_rows(self.rng, count))
        self.state.indexes.add_rows(rids)
        delta = incremental_evidence_for_insert(self.relation, self.state, rids)
        return apply_insert_evidence(self.state, delta)

    def delete(self, count):
        doomed = self.rng.sample(list(self.relation.rids()), count)
        delta = delete_evidence_by_recompute(self.relation, self.state, doomed)
        removed = apply_delete_evidence(self.state, delta)
        self.relation.delete(doomed)
        self.state.indexes.remove_rows(doomed)
        return removed

    def static_sigma(self):
        return invert_evidence(
            self.space, list(naive_evidence_set(self.relation, self.space))
        )


class TestDynEI:
    @pytest.mark.parametrize("seed", range(4))
    def test_insert_matches_static(self, seed):
        bench = _Workbench(seed)
        new_masks = bench.insert(5)
        dynamic = dynei_insert(bench.space, bench.sigma, new_masks)
        assert dynamic == bench.static_sigma()

    @pytest.mark.parametrize("seed", range(4))
    def test_delete_matches_static(self, seed):
        bench = _Workbench(seed + 20)
        removed = bench.delete(4)
        sigma_set = IncidenceSet(bench.sigma)
        dynei_delete(bench.space, sigma_set, removed, list(bench.state.evidence))
        assert sorted(sigma_set) == bench.static_sigma()

    def test_no_change_batches(self):
        bench = _Workbench(99)
        assert dynei_insert(bench.space, bench.sigma, []) == bench.sigma
        sigma_set = IncidenceSet(bench.sigma)
        dynei_delete(bench.space, sigma_set, [], list(bench.state.evidence))
        assert sorted(sigma_set) == bench.sigma

    def test_alternating_rounds(self):
        bench = _Workbench(7)
        sigma = bench.sigma
        for _ in range(3):
            new_masks = bench.insert(3)
            sigma = dynei_insert(bench.space, sigma, new_masks)
            removed = bench.delete(3)
            sigma_set = IncidenceSet(sigma)
            dynei_delete(bench.space, sigma_set, removed, list(bench.state.evidence))
            sigma = sorted(sigma_set)
            assert sigma == bench.static_sigma()

    @pytest.mark.parametrize("seed", range(3))
    def test_in_place_trie_stays_consistent(self, seed):
        """One Σ carried through alternating insert/delete rounds: its
        size, mask-set view and traversal agree after every round, and
        all three equal the static Σ."""
        bench = _Workbench(seed + 80, n_rows=14)
        sigma_set = IncidenceSet(bench.sigma)
        deleted = 0
        for _ in range(4):
            refine_sigma(bench.space, sigma_set, maximal_masks(bench.insert(3)))
            removed = bench.delete(3)
            deleted += bool(removed)
            dynei_delete(bench.space, sigma_set, removed, list(bench.state.evidence))
            walked = sorted(sigma_set)
            assert len(walked) == len(set(walked)) == len(sigma_set)
            assert set(walked) == sigma_set.mask_set
            assert walked == bench.static_sigma()
        assert deleted, "no delete removed evidence — widen the workload"


class TestDynHS:
    @pytest.mark.parametrize("seed", range(3))
    def test_dynamic_rounds_match_static(self, seed):
        bench = _Workbench(seed + 40)
        enumerator = DynHS(bench.space, list(bench.state.evidence))
        for _ in range(2):
            new_masks = bench.insert(3)
            enumerator.insert_evidence(new_masks)
            assert enumerator.dc_masks == bench.static_sigma()
            removed = bench.delete(3)
            enumerator.delete_evidence(removed, list(bench.state.evidence))
            assert enumerator.dc_masks == bench.static_sigma()

    def test_delete_everything(self):
        bench = _Workbench(61, n_rows=6)
        enumerator = DynHS(bench.space, list(bench.state.evidence))
        removed = bench.delete(5)  # one row left: no evidence remains
        enumerator.delete_evidence(removed, list(bench.state.evidence))
        assert enumerator.dc_masks == [0]
        assert len(bench.state.evidence) == 0
