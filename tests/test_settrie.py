"""Tests for the set-trie, including property tests against brute force."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.enumeration import SetTrie

masks = st.integers(min_value=0, max_value=(1 << 16) - 1)
mask_lists = st.lists(masks, min_size=0, max_size=30)


class TestSetTrieBasics:
    def test_insert_contains_remove(self):
        trie = SetTrie()
        assert trie.insert(0b101)
        assert not trie.insert(0b101)  # duplicate
        assert 0b101 in trie
        assert 0b100 not in trie
        assert len(trie) == 1
        trie.remove(0b101)
        assert 0b101 not in trie
        assert len(trie) == 0

    def test_remove_missing_raises(self):
        trie = SetTrie([0b11])
        with pytest.raises(KeyError):
            trie.remove(0b1)
        with pytest.raises(KeyError):
            trie.remove(0b111)

    def test_empty_mask(self):
        trie = SetTrie([0])
        assert 0 in trie
        assert trie.has_subset_of(0b1010)
        assert trie.subsets_of(0) == [0]
        trie.remove(0)
        assert 0 not in trie

    def test_prefix_sets_coexist(self):
        trie = SetTrie([0b011, 0b111])
        assert 0b011 in trie and 0b111 in trie
        trie.remove(0b011)
        assert 0b111 in trie
        assert 0b011 not in trie

    def test_masks_roundtrip(self):
        stored = [0b1, 0b110, 0b1011]
        trie = SetTrie(stored)
        assert sorted(trie.masks()) == sorted(stored)
        assert sorted(trie) == sorted(stored)


@given(stored=mask_lists, query=masks)
@settings(max_examples=80, deadline=None)
def test_subset_queries_match_bruteforce(stored, query):
    trie = SetTrie(stored)
    expected = sorted({m for m in stored if m & query == m})
    assert sorted(trie.subsets_of(query)) == expected
    assert trie.has_subset_of(query) == bool(expected)


@given(stored=mask_lists, query=masks)
@settings(max_examples=80, deadline=None)
def test_superset_queries_match_bruteforce(stored, query):
    trie = SetTrie(stored)
    expected = sorted({m for m in stored if m & query == query})
    assert sorted(trie.supersets_of(query)) == expected


@given(stored=mask_lists, removals=st.lists(st.integers(0, 29), max_size=10))
@settings(max_examples=50, deadline=None)
def test_insert_remove_sequence_consistency(stored, removals):
    trie = SetTrie()
    reference = set()
    for mask in stored:
        trie.insert(mask)
        reference.add(mask)
    for index in removals:
        if not reference:
            break
        victim = sorted(reference)[index % len(reference)]
        trie.remove(victim)
        reference.discard(victim)
    assert sorted(trie) == sorted(reference)
    assert len(trie) == len(reference)
