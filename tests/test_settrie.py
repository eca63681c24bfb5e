"""Subset and superset queries on a DC-mask antichain, the questions the
set-trie of [2] answers in the paper.  Here an
:class:`~repro.enumeration.incidence.IncidenceSet` answers them (the
canonical cover and ``minimize_masks`` ask them), checked against brute
force."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.enumeration import IncidenceSet
from repro.enumeration.incidence import iter_slots

masks = st.integers(min_value=0, max_value=(1 << 16) - 1)
mask_lists = st.lists(masks, min_size=0, max_size=30)


def masks_in(sigma, slots):
    """The sorted masks stored in ``slots``."""
    return sorted(sigma.mask_at(slot) for slot in iter_slots(slots))


class TestSetTrieBasics:
    def test_insert_contains_remove(self):
        sigma = IncidenceSet()
        assert sigma.insert(0b101)
        assert not sigma.insert(0b101)  # duplicate
        assert 0b101 in sigma
        assert 0b100 not in sigma
        assert len(sigma) == 1
        sigma.remove(0b101)
        assert 0b101 not in sigma
        assert len(sigma) == 0

    def test_remove_missing_raises(self):
        sigma = IncidenceSet([0b11])
        with pytest.raises(KeyError):
            sigma.remove(0b1)
        with pytest.raises(KeyError):
            sigma.remove(0b111)

    def test_empty_mask(self):
        sigma = IncidenceSet([0])
        assert 0 in sigma
        assert masks_in(sigma, sigma.subsets_of(0b1010)) == [0]
        assert masks_in(sigma, sigma.subsets_of(0)) == [0]
        assert masks_in(sigma, sigma.supersets_of(0)) == [0]
        assert not sigma.supersets_of(0b1)
        sigma.remove(0)
        assert 0 not in sigma
        assert not sigma.subsets_of(0)

    def test_prefix_sets_coexist(self):
        sigma = IncidenceSet([0b011, 0b111])
        assert 0b011 in sigma and 0b111 in sigma
        sigma.remove(0b011)
        assert 0b111 in sigma
        assert 0b011 not in sigma
        assert masks_in(sigma, sigma.subsets_of(0b111)) == [0b111]

    def test_masks_roundtrip(self):
        stored = [0b1, 0b110, 0b1011]
        sigma = IncidenceSet(stored)
        assert sorted(sigma.mask_set) == sorted(stored)
        assert sorted(sigma) == sorted(stored)


@given(stored=mask_lists, query=masks)
@settings(max_examples=80, deadline=None)
def test_subset_queries_match_bruteforce(stored, query):
    sigma = IncidenceSet(stored)
    expected = sorted({m for m in stored if m & query == m})
    assert masks_in(sigma, sigma.subsets_of(query)) == expected


@given(stored=mask_lists, query=masks)
@settings(max_examples=80, deadline=None)
def test_superset_queries_match_bruteforce(stored, query):
    sigma = IncidenceSet(stored)
    expected = sorted({m for m in stored if m & query == query})
    assert masks_in(sigma, sigma.supersets_of(query)) == expected


@given(
    stored=mask_lists,
    removals=st.lists(st.integers(0, 29), max_size=10),
    query=masks,
)
@settings(max_examples=50, deadline=None)
def test_insert_remove_sequence_consistency(stored, removals, query):
    sigma = IncidenceSet()
    reference = set()
    for mask in stored:
        sigma.insert(mask)
        reference.add(mask)
    for index in removals:
        if not reference:
            break
        victim = sorted(reference)[index % len(reference)]
        sigma.remove(victim)
        reference.discard(victim)
    assert sorted(sigma) == sorted(reference)
    assert len(sigma) == len(reference)
    # Freed slots must drop out of both queries.
    assert masks_in(sigma, sigma.subsets_of(query)) == sorted(
        m for m in reference if m & query == m
    )
    assert masks_in(sigma, sigma.supersets_of(query)) == sorted(
        m for m in reference if m & query == query
    )
