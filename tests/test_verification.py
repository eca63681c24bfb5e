"""Differential tests of the sweep-and-probe verification kernel.

The kernel (:mod:`repro.verification`) must agree *byte-identically* with
the two pre-existing violation detectors on every relation and DC:

- :func:`repro.dcs.violations.find_violations` — the quadratic
  ordered-pair oracle;
- :func:`repro.dcs.violations.violating_partners` — the per-tuple IncDC
  probe plan, checked row by row.

The same per-DC probe plan is in turn the oracle of the service's
evidence-first admission check (``Snapshot.check``).

Hypothesis generates the relations (categorical, integer, and float
columns — NaN included, exercising the engine-wide NaN total order) and a
seeded RNG draws DC masks from the predicate space.  The heavy suites
carry the ``verification`` marker; the dedicated CI job re-runs them
under the high-budget Hypothesis profile (see ``tests/conftest.py``).
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DCDiscoverer, relation_from_rows
from repro.bitmaps.bitutils import iter_bits
from repro.core.state_io import state_from_dict, state_to_bytes, state_to_dict
from repro.dcs.canonical import canonicalize_masks
from repro.dcs.denial_constraint import DenialConstraint
from repro.dcs.violations import (
    find_violations,
    violating_partners,
    violating_partners_for_row,
)
from repro.enumeration.dynamic import dynei_delete, lost_critical_predicate
from repro.enumeration.incidence import IncidenceSet
from repro.evidence.indexes import ColumnIndexes
from repro.predicates import build_predicate_space
from repro.service.snapshot import Snapshot
from repro.verification import Verifier
from tests.test_differential import static_oracle

NAN = float("nan")

# Tight domains so ties, violations, and NaN collisions all occur.
row_strategy = st.tuples(
    st.integers(0, 3),
    st.sampled_from("ab"),
    st.sampled_from([0.0, 1.5, 2.0, 7.25, NAN]),
)
rows_strategy = st.lists(row_strategy, min_size=2, max_size=12)


def _fixture(rows):
    relation = relation_from_rows(["A", "B", "C"], rows)
    space = build_predicate_space(relation, cross_column_ratio=0.0)
    return relation, space, ColumnIndexes(relation)


def _draw_masks(rng, space, count=6, max_width=3):
    bits = list(range(space.n_bits))
    masks = set()
    for _ in range(count):
        mask = 0
        for bit in rng.sample(bits, rng.randint(1, min(max_width, len(bits)))):
            mask |= 1 << bit
        masks.add(mask)
    return sorted(masks)


def _partner_bits(oracle, rid):
    as_first = 0
    as_second = 0
    for first, second in oracle:
        if first == rid:
            as_first |= 1 << second
        if second == rid:
            as_second |= 1 << first
    return as_first, as_second


@pytest.mark.verification
@given(rows=rows_strategy, seed=st.integers(0, 10**9))
@settings(deadline=None)
def test_kernel_matches_oracle(rows, seed):
    """verify() reproduces the ordered-pair oracle exactly: same pairs,
    same count, same verdict — for every plan the selector picks."""
    relation, space, indexes = _fixture(rows)
    verifier = Verifier(relation, indexes, space)
    rng = random.Random(seed)
    for mask in _draw_masks(rng, space):
        dc = DenialConstraint(mask, space)
        oracle = sorted(find_violations(dc, relation))
        result = verifier.verify(dc, sample=None)
        assert sorted(result.pairs) == oracle, (dc, result.plan)
        assert result.n_violations == len(oracle)
        assert result.holds == (not oracle)
        assert not result.truncated
        # The capped scan is a prefix-exact lower bound.
        if oracle:
            cap = rng.randint(1, len(oracle) + 1)
            capped = verifier.verify(dc, limit=cap)
            assert capped.n_violations == min(cap, len(oracle))
            if not capped.truncated:
                assert capped.n_violations == len(oracle)
            assert not capped.holds


@pytest.mark.verification
@given(rows=rows_strategy, seed=st.integers(0, 10**9))
@settings(deadline=None)
def test_kernel_matches_per_tuple_plan(rows, seed):
    """For every generated row, the kernel's pair set projects to exactly
    the per-tuple IncDC probe plan's (as_first, as_second) bits."""
    relation, space, indexes = _fixture(rows)
    verifier = Verifier(relation, indexes, space)
    rng = random.Random(seed)
    for mask in _draw_masks(rng, space, count=4):
        dc = DenialConstraint(mask, space)
        pairs = verifier.violating_pairs(dc)
        for rid in relation.rids():
            expected = _partner_bits(pairs, rid)
            assert violating_partners(dc, relation, indexes, rid) == expected


@pytest.mark.verification
@given(rows=rows_strategy, row=row_strategy, seed=st.integers(0, 10**9))
@settings(deadline=None)
def test_admission_check_matches_pairwise_eval(rows, row, seed):
    """violating_partners_for_row on a candidate row (not in the
    relation) agrees with direct pairwise evaluation."""
    relation, space, indexes = _fixture(rows)
    rng = random.Random(seed)
    for mask in _draw_masks(rng, space, count=4):
        dc = DenialConstraint(mask, space)
        expect_first = 0
        expect_second = 0
        for rid in relation.rids():
            other = relation.row(rid)
            if not dc.holds_on_pair(row, other):
                expect_first |= 1 << rid
            if not dc.holds_on_pair(other, row):
                expect_second |= 1 << rid
        assert violating_partners_for_row(dc, row, indexes) == (
            expect_first,
            expect_second,
        )


def _probe_plan_violations(snapshot, row, dcs, limit):
    """The ``violations`` of ``POST /check`` built from the per-DC probe
    plan, one :func:`violating_partners_for_row` call per DC."""
    violations = []
    for dc in dcs:
        as_first, as_second = violating_partners_for_row(dc, row, snapshot.indexes)
        if not as_first and not as_second:
            continue
        violations.append(
            {
                "dc": str(dc),
                "mask": format(dc.mask, "x"),
                "n_partners": (as_first | as_second).bit_count(),
                "as_first": list(iter_bits(as_first))[:limit],
                "as_second": list(iter_bits(as_second))[:limit],
            }
        )
    return violations


@pytest.mark.verification
@given(
    rows=rows_strategy,
    keep=st.integers(0, 12),
    row=row_strategy,
    seed=st.integers(0, 10**9),
    limit=st.none() | st.integers(0, 3),
)
@settings(deadline=None)
def test_snapshot_check_matches_probe_plan(rows, keep, row, seed, limit):
    """The evidence-first ``Snapshot.check`` returns, DC for DC, what the
    per-DC probe plan returns on the same snapshot indexes.

    Σ is the canonical cover of a fit with cross-column groups; the
    snapshot's relation keeps a random ``keep`` of its rows (down to 0
    and 1), so partners have gaps in their rids.  Both the canonical Σ
    and a random ``dcs=`` set (always with the empty DC, violated by every
    partner) are checked, with a random ``limit``."""
    rng = random.Random(seed)
    discoverer = DCDiscoverer(
        relation_from_rows(["A", "B", "C"], rows), cross_column_ratio=0.0
    )
    discoverer.fit()
    space = discoverer.space
    relation = relation_from_rows(["A", "B", "C"], rows)
    relation.delete(rng.sample(range(len(rows)), max(0, len(rows) - keep)))
    canonical = [
        DenialConstraint(mask, space)
        for mask in canonicalize_masks(discoverer.dc_masks, space)
    ]
    snapshot = Snapshot(
        0,
        relation,
        ColumnIndexes(relation),
        space,
        discoverer.dc_masks,
        canonical,
        discoverer.evidence_set,
        {},
    )
    drawn = [
        DenialConstraint(mask, space)
        for mask in [0, *_draw_masks(rng, space, count=8, max_width=4)]
    ]
    for dcs in (None, drawn):
        payload = snapshot.check(row, dcs=dcs, limit=limit)
        expected = _probe_plan_violations(
            snapshot, row, canonical if dcs is None else dcs, limit
        )
        assert payload["violations"] == expected
        assert payload["ok"] == (not expected)
        assert payload["n_violated_dcs"] == len(expected)
        evidence = {
            space.evidence_of_pair(row, relation.row(rid))
            for rid in relation.rids()
        }
        assert payload["probes"] == {
            "lookups": len(relation),
            "unique": len(evidence),
        }


class TestPlans:
    """Every plan kind is reachable and correct on a crafted relation."""

    def _fixture(self):
        rows = [
            (1, "a", 1.0),
            (1, "b", 2.0),
            (2, "a", NAN),
            (2, "a", 2.0),
            (3, "c", 0.5),
        ]
        return _fixture(rows)

    def _dc(self, space, text):
        from repro.predicates.parser import parse_dc

        return DenialConstraint(parse_dc(text, space), space)

    def _check(self, verifier, relation, dc, expect_plan):
        result = verifier.verify(dc, sample=None)
        assert result.plan.startswith(expect_plan), result.plan
        assert sorted(result.pairs) == sorted(find_violations(dc, relation))
        return result

    def test_eq_sweep(self):
        relation, space, indexes = self._fixture()
        verifier = Verifier(relation, indexes, space)
        dc = self._dc(space, "!(t.A = t'.A & t.B != t'.B)")
        self._check(verifier, relation, dc, "eq-sweep")

    def test_order_sweep_all_operators(self):
        relation, space, indexes = self._fixture()
        verifier = Verifier(relation, indexes, space)
        for op in ("<", "<=", ">", ">="):
            dc = self._dc(space, f"!(t.C {op} t'.C)")
            self._check(verifier, relation, dc, "order-sweep")

    def test_ne_sweep(self):
        relation, space, indexes = self._fixture()
        verifier = Verifier(relation, indexes, space)
        dc = self._dc(space, "!(t.B != t'.B)")
        self._check(verifier, relation, dc, "ne-sweep")

    def test_probe_sweep_on_degraded_index(self):
        """An order predicate whose *lhs* range index is gone falls back
        to the generic probe sweep (equality entries swept, rhs probed) —
        still byte-identical to the oracle."""
        relation, space, indexes = self._fixture()
        dc = self._dc(space, "!(t.A >= t'.C)")
        indexes.ranges[relation.schema.position("A")] = None
        verifier = Verifier(relation, indexes, space)
        result = verifier.verify(dc, sample=None)
        assert result.plan.startswith("probe-sweep"), result.plan
        assert sorted(result.pairs) == sorted(find_violations(dc, relation))

    def test_trivial_empty_mask(self):
        relation, space, indexes = self._fixture()
        verifier = Verifier(relation, indexes, space)
        n = len(relation)
        result = verifier.verify(DenialConstraint(0, space), sample=None)
        assert result.plan == "trivial"
        assert result.n_violations == n * (n - 1)
        assert len(result.pairs) == n * (n - 1)
        assert verifier.has_violation(0)

    def test_counters_accumulate(self):
        relation, space, indexes = self._fixture()
        verifier = Verifier(relation, indexes, space)
        dc = self._dc(space, "!(t.A = t'.A & t.B != t'.B)")
        verifier.verify(dc)
        assert verifier.counters["verification.checks"] == 1
        assert verifier.probe_operations() > 0


class TestMinimality:
    def test_is_minimal_matches_evidence_recheck(self, abc_factory):
        """is_minimal agrees with the evidence-based definition: a valid
        DC is minimal iff no one-predicate-removed subset is valid."""
        relation = abc_factory(14, seed=3)
        discoverer = DCDiscoverer(relation)
        discoverer.fit()
        space = discoverer.space
        indexes = discoverer.engine_state.indexes
        verifier = Verifier(relation, indexes, space)
        for mask in discoverer.dc_masks:
            assert verifier.is_minimal(mask)
            # Any strict superset of a minimal valid DC is non-minimal.
            free = space.full_mask & ~mask
            if free:
                extra = free & -free
                dc = DenialConstraint(mask | extra, space)
                if not find_violations(dc, relation, limit=1):
                    assert not verifier.is_minimal(mask | extra)


def _flagged_bits(dc_mask, removed_masks):
    """Predicates ``p`` of a DC for which some removed evidence contained
    ``dc ∖ {p}`` — the definition, not the engine's complement arithmetic."""
    flagged = 0
    for bit in iter_bits(dc_mask):
        rest = dc_mask & ~(1 << bit)
        if any(rest & evidence == rest for evidence in removed_masks):
            flagged |= 1 << bit
    return flagged


@pytest.mark.verification
@given(
    rows=rows_strategy,
    batches=st.lists(st.integers(1, 3), min_size=1, max_size=3),
    seed=st.integers(0, 10**9),
)
@settings(deadline=None)
def test_delete_recheck_matches_verifier_oracle(rows, batches, seed):
    """The DynEI delete's evidence-side re-check agrees with the kernel.

    After each delete batch, every DC that lost a critical evidence
    (flagged) gets the evidence-side verdict of
    :func:`lost_critical_predicate`, which must equal
    ``Verifier.is_minimal`` over the post-delete relation — and decide
    whether the DC is still in Σ.  Σ itself must equal the static
    re-discovery oracle."""
    rng = random.Random(seed)
    relation = relation_from_rows(["A", "B", "C"], rows)
    discoverer = DCDiscoverer(relation)
    discoverer.fit()
    for size in batches:
        alive = sorted(discoverer.relation.rids())
        if len(alive) <= size:
            break
        sigma_before = set(discoverer.dc_mask_set)
        evidence_before = set(discoverer.evidence_set)
        discoverer.delete(rng.sample(alive, size))
        removed = evidence_before - set(discoverer.evidence_set)
        remaining = list(discoverer.evidence_set)
        verifier = Verifier(
            discoverer.relation, discoverer.engine_state.indexes, discoverer.space
        )
        sigma_after = discoverer.dc_mask_set
        for dc_mask in sigma_before:
            flagged = _flagged_bits(dc_mask, removed)
            if not flagged:
                assert dc_mask in sigma_after
                continue
            verdict = not lost_critical_predicate(dc_mask, flagged, remaining)
            assert verdict == verifier.is_minimal(dc_mask)
            assert verdict == (dc_mask in sigma_after)
        _, oracle_sigma = static_oracle(discoverer)
        assert set(discoverer.dc_masks) == oracle_sigma


@pytest.mark.verification
@given(
    rows=st.lists(
        st.tuples(st.integers(0, 3), st.sampled_from("ab"), st.integers(0, 2)),
        min_size=4,
        max_size=14,
    ),
    n_delete=st.integers(1, 3),
)
@settings(deadline=None)
def test_verify_pruning_identical_antichain(rows, n_delete):
    """A delete leaves the antichain that pruning with the verifier gives.

    The DCs of the old Σ that survive are exactly those
    ``Verifier.is_minimal`` accepts on the post-delete relation, and every
    DC of the new Σ is valid and minimal there.  The in-place Σ delta does
    not depend on how the trie was built: a discoverer restored from the
    pre-delete state deletes to byte-identical saved state."""
    rids = sorted(random.Random(7).sample(range(len(rows)), n_delete))
    relation = relation_from_rows(["A", "B", "C"], rows)
    discoverer = DCDiscoverer(relation)
    discoverer.fit()
    restored = state_from_dict(state_to_dict(discoverer))
    sigma_before = set(discoverer.dc_mask_set)
    discoverer.delete(rids)
    restored.delete(rids)

    verifier = Verifier(
        discoverer.relation, discoverer.engine_state.indexes, discoverer.space
    )
    sigma_after = set(discoverer.dc_mask_set)
    kept = {mask for mask in sigma_before if verifier.is_minimal(mask)}
    assert sigma_after & sigma_before == kept
    for mask in sigma_after:
        assert not verifier.has_violation(mask)
        assert verifier.is_minimal(mask)
    assert restored.dc_masks == discoverer.dc_masks
    assert state_to_bytes(restored) == state_to_bytes(discoverer)


def test_dynei_delete_with_verifier_matches_evidence_path(abc_factory):
    """Replaying ``dynei_delete`` on a fresh copy of the pre-delete Σ gives
    the discoverer's Σ at every step of a delete workload, and the verifier
    agrees with the evidence path: an old DC survives iff it is still
    minimal on the post-delete relation, and every regrown DC is valid and
    minimal."""
    relation = abc_factory(16, seed=11)
    discoverer = DCDiscoverer(relation)
    discoverer.fit()
    rng = random.Random(5)
    exercised = 0
    for _ in range(6):
        alive = list(discoverer.relation.rids())
        if len(alive) < 4:
            break
        rid = rng.choice(alive)
        sigma_before = sorted(discoverer.dc_masks)
        evidence_before = set(discoverer.evidence_set)
        discoverer.delete([rid])
        removed = sorted(evidence_before - set(discoverer.evidence_set))
        replayed = IncidenceSet(sigma_before)
        dynei_delete(
            discoverer.space,
            replayed,
            removed_evidence_masks=removed,
            remaining_evidence_masks=list(discoverer.evidence_set),
        )
        assert sorted(replayed) == sorted(discoverer.dc_masks)
        verifier = Verifier(
            discoverer.relation, discoverer.engine_state.indexes, discoverer.space
        )
        for mask in sigma_before:
            assert (mask in replayed.mask_set) == verifier.is_minimal(mask)
        for mask in replayed.mask_set - set(sigma_before):
            assert not verifier.has_violation(mask)
            assert verifier.is_minimal(mask)
        exercised += bool(removed)
    assert exercised, "workload never removed evidence — widen it"


class TestVerifyMode:
    DCS = [
        "!(t.A = t'.A & t.B != t'.B)",
        "!(t.C > t'.C & t.B = t'.B)",
    ]

    def _discoverer(self, rows):
        relation = relation_from_rows(["A", "B", "C"], rows)
        discoverer = DCDiscoverer(
            relation, mode="verify", constraints=self.DCS, cross_column_ratio=0.0
        )
        discoverer.fit()
        return discoverer

    def _assert_watcher_fresh(self, discoverer):
        """The incrementally maintained pairs equal a fresh kernel run."""
        verifier = Verifier(
            discoverer.relation, discoverer.engine_state.indexes, discoverer.space
        )
        watcher = discoverer._verify_watcher
        for dc in watcher.dcs:
            assert watcher.violations(dc) == set(verifier.violating_pairs(dc))

    def test_lifecycle_tracks_kernel(self):
        discoverer = self._discoverer(
            [(1, "a", 1.0), (1, "b", 2.0), (2, "a", 1.0)]
        )
        report = discoverer.verification_report()
        assert report["n_constraints"] == 2
        assert report["n_violated"] == 1  # the A/B rule: t0 vs t1
        self._assert_watcher_fresh(discoverer)
        discoverer.insert([(2, "a", 0.5), (1, "a", 9.0)])
        self._assert_watcher_fresh(discoverer)
        discoverer.delete([1])
        self._assert_watcher_fresh(discoverer)
        report = discoverer.verification_report()
        assert report["n_violated"] == 1  # C ordering within B='a'
        assert report["mode"] == "verify"

    def test_state_round_trip(self):
        from repro.core.state_io import state_from_dict

        discoverer = self._discoverer(
            [(1, "a", 1.0), (1, "b", 2.0), (2, "a", 3.0)]
        )
        discoverer.insert([(3, "c", NAN)])
        payload = state_to_dict(discoverer)
        assert payload["config"]["mode"] == "verify"
        restored = state_from_dict(payload)
        assert restored.mode == "verify"
        assert restored.dc_masks == discoverer.dc_masks
        assert state_to_bytes(restored) == state_to_bytes(discoverer)
        self._assert_watcher_fresh(restored)

    def test_discover_state_has_no_mode_key(self, abc_factory):
        """Discover-mode states stay byte-identical to pre-verify builds."""
        discoverer = DCDiscoverer(abc_factory(8, seed=1))
        discoverer.fit()
        assert "mode" not in state_to_dict(discoverer)["config"]

    def test_requires_constraints(self):
        relation = relation_from_rows(["A"], [(1,), (2,)])
        with pytest.raises(ValueError, match="requires constraints"):
            DCDiscoverer(relation, mode="verify").fit()

    def test_constraints_only_in_verify_mode(self):
        relation = relation_from_rows(["A"], [(1,), (2,)])
        with pytest.raises(ValueError, match="mode='verify'"):
            DCDiscoverer(relation, constraints=["!(t.A = t'.A)"])

    def test_out_of_space_constraint_rejected(self):
        relation = relation_from_rows(["A"], [(1,), (2,)])
        discoverer = DCDiscoverer(
            relation, mode="verify", constraints=[1 << 200]
        )
        with pytest.raises(ValueError, match="outside the space"):
            discoverer.fit()


def test_nan_total_order_agrees_everywhere():
    """One NaN-heavy relation, every operator: Operator.eval, the range
    index, and the kernel all implement the same NaN total order."""
    from repro.predicates.operator import Operator

    assert Operator.EQ.eval(NAN, NAN)
    assert not Operator.NE.eval(NAN, NAN)
    assert Operator.GT.eval(NAN, 5.0) and not Operator.GT.eval(5.0, NAN)
    assert Operator.GE.eval(NAN, NAN) and Operator.LE.eval(NAN, NAN)
    assert Operator.LT.eval(5.0, NAN) and not Operator.LT.eval(NAN, 5.0)

    rows = [(NAN,), (1.0,), (NAN,), (2.0,)]
    relation, space, indexes = (
        relation_from_rows(["X"], rows),
        None,
        None,
    )
    space = build_predicate_space(relation)
    indexes = ColumnIndexes(relation)
    verifier = Verifier(relation, indexes, space)
    from repro.predicates.parser import parse_dc

    for text in ("!(t.X = t'.X)", "!(t.X > t'.X)", "!(t.X <= t'.X)"):
        dc = DenialConstraint(parse_dc(text, space), space)
        assert sorted(verifier.violating_pairs(dc)) == sorted(
            find_violations(dc, relation)
        )
    assert math.isnan(relation.value(0, 0))
