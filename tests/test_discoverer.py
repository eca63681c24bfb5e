"""End-to-end tests of the DCDiscoverer facade."""

import random

import pytest

from repro import DCDiscoverer, DenialConstraint, relation_from_rows
from repro.enumeration import invert_evidence
from repro.evidence import naive_evidence_set
from repro.predicates import parse_dc
from tests.conftest import random_rows


def static_reference(discoverer):
    """Ground truth: static enumeration over the current relation."""
    masks = invert_evidence(
        discoverer.space,
        list(naive_evidence_set(discoverer.relation, discoverer.space)),
    )
    return sorted(mask for mask in masks if mask)


class TestLifecycle:
    def test_fit_returns_statistics(self, staff):
        discoverer = DCDiscoverer(staff)
        result = discoverer.fit()
        assert result.n_rows == 4
        assert result.n_predicates == discoverer.space.n_bits
        assert result.n_evidence == 12
        assert result.n_dcs == len(discoverer.dcs)
        assert set(result.timings) == {"space", "evidence", "enumeration"}

    def test_requires_fit_before_updates(self, staff):
        discoverer = DCDiscoverer(staff)
        with pytest.raises(RuntimeError, match="fit"):
            discoverer.insert([(9, "Zoe", 2010, 1, 1)])
        with pytest.raises(RuntimeError, match="fit"):
            _ = discoverer.dcs

    def test_invalid_config(self, staff):
        with pytest.raises(ValueError, match="delete_strategy"):
            DCDiscoverer(staff, delete_strategy="bogus")

    def test_dcs_are_denial_constraints(self, staff):
        discoverer = DCDiscoverer(staff)
        discoverer.fit()
        assert all(isinstance(dc, DenialConstraint) for dc in discoverer.dcs)
        assert all(len(dc) >= 1 for dc in discoverer.dcs)

    def test_update_result_statistics(self, staff):
        discoverer = DCDiscoverer(staff)
        discoverer.fit()
        result = discoverer.insert([(5, "Ema", 2002, 3, 1)])
        assert result.kind == "insert"
        assert result.delta_size == 1
        assert result.n_rows == 5
        assert result.rids == [4]
        assert result.n_evidence == len(discoverer.evidence_set)
        result = discoverer.delete([4])
        assert result.kind == "delete"
        assert result.n_rows == 4


class TestPaperWalkthrough:
    """The Table I narrative as an executable specification."""

    def test_initial_dcs_hold(self, staff):
        discoverer = DCDiscoverer(staff)
        discoverer.fit()
        masks = set(discoverer.dc_masks)
        for text in [
            "!(t.Id = t'.Id)",
            "!(t.Level = t'.Level & t.Mgr != t'.Mgr)",
            "!(t.Hired < t'.Hired & t.Level < t'.Level)",
            "!(t.Mgr = t'.Id & t.Level > t'.Level)",
        ]:
            mask = parse_dc(text, discoverer.space)
            implied = any(dc & mask == dc for dc in masks)
            assert implied, f"{text} should hold (minimal or implied)"

    def test_insert_t5_evolves_phi3_into_phi5(self, staff):
        discoverer = DCDiscoverer(staff)
        discoverer.fit()
        discoverer.insert([(5, "Ema", 2002, 3, 1)])
        masks = set(discoverer.dc_masks)
        phi3 = parse_dc(
            "!(t.Hired < t'.Hired & t.Level < t'.Level)", discoverer.space
        )
        phi5 = parse_dc(
            "!(t.Mgr = t'.Mgr & t.Hired < t'.Hired & t.Level < t'.Level)",
            discoverer.space,
        )
        assert phi3 not in masks, "phi3 is violated by (t3, t5)"
        assert phi5 in masks, "phi5 is the minimal evolution of phi3"

    def test_delete_t4_reveals_phi6(self, staff):
        discoverer = DCDiscoverer(staff)
        discoverer.fit()
        discoverer.insert([(5, "Ema", 2002, 3, 1)])
        discoverer.delete([3])  # rid of tuple t4
        phi6 = parse_dc("!(t.Level = t'.Level)", discoverer.space)
        assert phi6 in set(discoverer.dc_masks)


@pytest.mark.parametrize("delete_strategy", ["index", "recompute"])
@pytest.mark.parametrize("infer_within_delta", [True, False])
class TestDynamicEqualsStatic:
    def test_rounds(self, delete_strategy, infer_within_delta):
        rng = random.Random(5)
        relation = relation_from_rows(["A", "B", "C"], random_rows(rng, 14))
        discoverer = DCDiscoverer(
            relation,
            delete_strategy=delete_strategy,
            infer_within_delta=infer_within_delta,
        )
        discoverer.fit()
        for _ in range(3):
            discoverer.insert(random_rows(rng, 4))
            assert discoverer.dc_masks == static_reference(discoverer)
            alive = list(discoverer.relation.rids())
            discoverer.delete(rng.sample(alive, 4))
            assert discoverer.dc_masks == static_reference(discoverer)


class TestDynHSBackendInDiscoverer:
    def test_matches_dynei(self):
        rng = random.Random(8)
        rows = random_rows(rng, 12)
        updates = [random_rows(rng, 3) for _ in range(2)]

        results = []
        for backend in ["dynei", "dynhs"]:
            relation = relation_from_rows(["A", "B", "C"], rows)
            discoverer = DCDiscoverer(relation, enumeration_backend=backend)
            discoverer.fit()
            for batch in updates:
                discoverer.insert(batch)
            discoverer.delete(list(discoverer.relation.rids())[:4])
            results.append(discoverer.dc_masks)
        assert results[0] == results[1]


class TestMixedUpdate:
    def test_update_is_delete_then_insert(self, staff):
        discoverer = DCDiscoverer(staff)
        discoverer.fit()
        delete_result, insert_result = discoverer.update(
            [3], [(5, "Ema", 2002, 3, 1)]
        )
        assert delete_result.kind == "delete"
        assert insert_result.kind == "insert"
        assert discoverer.dc_masks == static_reference(discoverer)

    def test_row_modification_via_update(self, staff):
        discoverer = DCDiscoverer(staff)
        discoverer.fit()
        # "Modify" tuple t4: delete rid 3 and insert the changed row.
        discoverer.update([3], [(4, "Kai", 2002, 3, 2)])
        assert len(discoverer.relation) == 4
        assert discoverer.dc_masks == static_reference(discoverer)


class TestExtras:
    def test_canonical_dcs(self, staff):
        discoverer = DCDiscoverer(staff)
        discoverer.fit()
        canonical = discoverer.canonical_dcs
        assert 0 < len(canonical) <= len(discoverer.dcs)
        masks = {dc.mask for dc in canonical}
        assert len(masks) == len(canonical)
        evidence = list(discoverer.evidence_set)
        for dc in canonical:
            assert discoverer.space.satisfiable(dc.mask)
            assert not any(dc.mask & e == dc.mask for e in evidence)

    def test_rank_and_approximate_from_discoverer(self, staff):
        discoverer = DCDiscoverer(staff)
        discoverer.fit()
        ranked = discoverer.rank(top_k=5)
        assert len(ranked) == 5
        approx = discoverer.approximate(0.2)
        assert all(isinstance(dc, DenialConstraint) for dc in approx)
        # Looser constraints: every exact DC contains some approximate DC.
        approx_masks = [dc.mask for dc in approx]
        for mask in discoverer.dc_masks:
            assert any(mask & small == small for small in approx_masks)

    def test_empty_relation_fit_then_grow(self):
        relation = relation_from_rows(["A", "B"], [(1, "x")])
        relation.delete([0])
        discoverer = DCDiscoverer(relation, allow_cross_columns=False)
        discoverer.fit()
        assert discoverer.dc_masks == []
        discoverer.insert([(1, "x"), (1, "y"), (2, "x")])
        assert discoverer.dc_masks == static_reference(discoverer)
