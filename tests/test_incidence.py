"""DynEI's Σ on incidence bitsets: the structure, the conflict sets that
prune trivial refinements, and the Σ deltas every backend reports."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DCDiscoverer, relation_from_rows
from repro.enumeration import IncidenceSet
from repro.enumeration.incidence import iter_slots
from repro.predicates import build_predicate_space
from tests.test_differential import static_oracle
from tests.test_verification import row_strategy, rows_strategy

masks = st.integers(min_value=0, max_value=(1 << 12) - 1)
mask_lists = st.lists(masks, max_size=30)


class TestIncidenceSet:
    def test_insert_contains_remove(self):
        sigma = IncidenceSet()
        assert sigma.insert(0b101)
        assert not sigma.insert(0b101)
        assert 0b101 in sigma and 0b100 not in sigma
        assert len(sigma) == 1
        sigma.remove(0b101)
        assert 0b101 not in sigma and len(sigma) == 0
        with pytest.raises(KeyError):
            sigma.remove(0b101)

    def test_freed_slots_are_reused(self):
        sigma = IncidenceSet([0b1, 0b10, 0b100])
        sigma.remove(0b10)
        sigma.insert(0b1000)
        assert sigma.occupied == 0b111
        assert sigma.columns[3] == 0b010 and sigma.columns[1] == 0
        assert sorted(sigma) == [0b1, 0b100, 0b1000]

    def test_iter_slots(self):
        assert list(iter_slots(0)) == []
        bits = (1 << 5000) | (1 << 64) | 1
        assert sorted(iter_slots(bits)) == [0, 64, 5000]


@given(
    stored=mask_lists,
    removals=st.lists(st.integers(0, 29), max_size=10),
    added=mask_lists,
    outside=masks,
)
@settings(max_examples=80, deadline=None)
def test_counts_match_bruteforce(stored, removals, added, outside):
    """After any insert/remove sequence, the columns agree with the
    stored masks and the bit-sliced count with a per-mask popcount."""
    sigma = IncidenceSet(stored)
    reference = set(stored)
    for index in removals:
        if reference:
            victim = sorted(reference)[index % len(reference)]
            sigma.remove(victim)
            reference.discard(victim)
    for mask in added:
        assert sigma.insert(mask) == (mask not in reference)
        reference.add(mask)
    assert set(sigma.mask_set) == reference and len(sigma) == len(reference)
    none, one = sigma.count_outside(outside)
    by_count = {0: set(), 1: set()}
    for mask in reference:
        count = (mask & outside).bit_count()
        if count in by_count:
            by_count[count].add(mask)
    assert {sigma.mask_at(slot) for slot in iter_slots(none)} == by_count[0]
    assert {sigma.mask_at(slot) for slot in iter_slots(one)} == by_count[1]


def test_conflict_sets_decide_satisfiability(abc_factory):
    """A satisfiable mask stays satisfiable with ``p`` added iff it holds
    none of ``p``'s conflict sets — checked against the per-group
    pattern test on every subset of each group and on random masks."""
    space = build_predicate_space(abc_factory(10, 0))
    rng = random.Random(0)
    samples = [0, *(rng.getrandbits(space.n_bits) for _ in range(400))]
    for group in space.groups:
        subset = group.mask
        while subset:
            samples.append(subset)
            subset = (subset - 1) & group.mask
    checked = 0
    for mask in samples:
        mask &= space.full_mask
        if not space.satisfiable(mask):
            continue
        for bit in range(space.n_bits):
            expected = space.satisfiable(mask | (1 << bit))
            assert space.satisfiable_with(mask, bit) == expected
            checked += 1
    assert checked > 1000


def _record_deltas(discoverer):
    """Wrap the backend's insert and delete to keep the deltas they return."""
    backend = discoverer._backend
    deltas = []
    for name in ("insert", "delete"):
        method = getattr(backend, name)

        def spy(*args, _method=method, **kwargs):
            delta = _method(*args, **kwargs)
            deltas.append(delta)
            return delta

        setattr(backend, name, spy)
    return deltas


@pytest.mark.parametrize("backend", ["dynei", "dynhs"])
@given(
    initial=rows_strategy,
    operations=st.lists(
        st.one_of(
            st.tuples(
                st.just("insert"), st.lists(row_strategy, min_size=1, max_size=4)
            ),
            st.tuples(st.just("delete"), st.integers(0, 2**32)),
        ),
        min_size=1,
        max_size=6,
    ),
)
@settings(max_examples=30, deadline=None)
def test_reported_delta_is_the_sigma_difference(backend, initial, operations):
    """Random insert and delete batches (NaN included): after every
    operation Σ equals a static re-discovery, and the Σ delta the backend
    reported is exactly the set difference of Σ before and after."""
    discoverer = DCDiscoverer(
        relation_from_rows(["A", "B", "C"], initial), enumeration_backend=backend
    )
    discoverer.fit()
    deltas = _record_deltas(discoverer)
    for kind, argument in operations:
        before = set(discoverer._backend.mask_set)
        version = discoverer.sigma_version
        if kind == "insert":
            result = discoverer.insert(argument)
        else:
            alive = sorted(discoverer.relation.rids())
            doomed = random.Random(argument).sample(
                alive, random.Random(argument).randint(0, len(alive))
            )
            result = discoverer.delete(doomed)
        after = set(discoverer._backend.mask_set)
        delta = deltas[-1]
        assert set(delta.added) == after - before
        assert set(delta.removed) == before - after
        assert (result.n_new_dcs, result.n_removed_dcs) == (
            len(after - before),
            len(before - after),
        )
        assert (discoverer.sigma_version != version) == bool(delta)
        _, oracle_sigma = static_oracle(discoverer)
        assert set(discoverer.dc_masks) == oracle_sigma
