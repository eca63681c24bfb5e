"""Tests for the incrementally maintained canonical cover.

:class:`~repro.dcs.canonical.CanonicalCover` must equal the one-shot
``canonicalize_masks`` of the raw masks it was fed after every diff, and
both must equal the definition: rewrite every mask, keep the forms with
no proper subset among the forms.  The hand-built cases pin the three
ways a diff can reshape the cover; one property drives real DynEI diffs
from random insert and delete batches, the other random raw diffs dense
in rewritable operator pairs, where forms collide and nest.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.discoverer import DCDiscoverer
from repro.dcs.canonical import CanonicalCover, canonicalize_mask, canonicalize_masks
from repro.predicates import Operator, build_predicate_space
from repro.relational import relation_from_rows
from repro.workloads import staff_relation
from tests.conftest import random_rows


def cover_by_definition(masks, space):
    """The canonical cover, straight from its definition (quadratic)."""
    forms = {canonicalize_mask(mask, space) for mask in masks}
    return sorted(
        form
        for form in forms
        if not any(other != form and other & form == other for other in forms)
    )


@pytest.fixture
def space(staff):
    return build_predicate_space(staff)


def bit(space, column, op):
    return 1 << space.bit(column, op, column)


class TestCoverDiffs:
    def test_form_removed_and_readded_in_one_diff(self, space):
        le, ge = bit(space, "Hired", Operator.LE), bit(space, "Hired", Operator.GE)
        eq = bit(space, "Hired", Operator.EQ)
        name = bit(space, "Name", Operator.EQ)
        cover = CanonicalCover(space, [le | ge | name])
        # A different raw mask with the same form replaces the last one.
        delta = cover.apply([eq | name], [le | ge | name])
        assert delta.entered == [] and delta.left == []
        assert cover.masks() == [eq | name]
        assert cover.masks() == canonicalize_masks([eq | name], space)

    def test_orphans_are_promoted_in_popcount_order(self, space):
        le, ge = bit(space, "Hired", Operator.LE), bit(space, "Hired", Operator.GE)
        eq = bit(space, "Hired", Operator.EQ)
        name = bit(space, "Name", Operator.EQ)
        lt = bit(space, "Level", Operator.LT)
        witness = le | ge  # form {Hired =}
        middle = eq | name
        outer = eq | name | lt
        cover = CanonicalCover(space, [witness, middle, outer])
        assert cover.masks() == [eq]
        delta = cover.apply([], [witness])
        # Both orphans lost their witness; only the smaller one is
        # minimal, and it becomes the new witness of the larger one.
        assert delta.left == [eq] and delta.entered == [middle]
        assert cover.masks() == [middle]
        delta = cover.apply([], [middle])
        assert delta.entered == [outer]
        assert cover.masks() == [outer] == cover_by_definition([outer], space)

    def test_new_form_evicts_older_minimal_forms(self, space):
        le, ge = bit(space, "Hired", Operator.LE), bit(space, "Hired", Operator.GE)
        eq = bit(space, "Hired", Operator.EQ)
        name = bit(space, "Name", Operator.EQ)
        lt = bit(space, "Level", Operator.LT)
        mgr = bit(space, "Mgr", Operator.EQ)
        first, second, third = eq | name, eq | lt, eq | name | mgr
        cover = CanonicalCover(space, [first, second, third])
        assert cover.masks() == sorted([first, second])
        delta = cover.apply([le | ge], [])
        assert delta.entered == [eq]
        assert sorted(delta.left) == sorted([first, second])
        assert cover.masks() == [eq]
        # Everything the evicted forms witnessed now hangs off the new
        # form: removing it brings the old cover back.
        cover.apply([], [le | ge])
        assert cover.masks() == sorted([first, second])
        assert cover.masks() == cover_by_definition([first, second, third], space)

    def test_unchanged_multiplicity_is_invisible(self, space):
        le, ge = bit(space, "Id", Operator.LE), bit(space, "Id", Operator.GE)
        eq = bit(space, "Id", Operator.EQ)
        cover = CanonicalCover(space, [le | ge, eq])
        delta = cover.apply([], [eq])  # {Id =} still has a raw mask
        assert delta == ([], [], 0)
        assert cover.masks() == [eq]

    def test_one_shot_matches_definition(self, space, staff):
        discoverer = DCDiscoverer(staff)
        discoverer.fit()
        masks = discoverer.dc_masks
        assert canonicalize_masks(masks, space) == cover_by_definition(masks, space)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    steps=st.lists(
        st.tuples(st.booleans(), st.integers(1, 3)), min_size=1, max_size=6
    ),
)
def test_cover_tracks_dynei_diffs(seed, steps):
    """Random insert/delete batches: after every step the cover fed the
    raw Σ diff equals the one-shot pass and the definition."""
    rng = random.Random(seed)
    discoverer = DCDiscoverer(
        relation_from_rows(["A", "B", "C"], random_rows(rng, 6))
    )
    discoverer.fit()
    space = discoverer.space
    previous = set(discoverer.dc_masks)
    cover = CanonicalCover(space, previous)
    for is_insert, size in steps:
        alive = sorted(discoverer.relation.rids())
        if is_insert or len(alive) <= 2:
            discoverer.insert(random_rows(rng, size))
        else:
            discoverer.delete(rng.sample(alive, min(size, len(alive) - 2)))
        current = set(discoverer.dc_masks)
        cover.apply(current - previous, previous - current)
        expected = canonicalize_masks(current, space)
        assert cover.masks() == expected
        assert expected == cover_by_definition(current, space)
        previous = current


_OPS = (Operator.EQ, Operator.NE, Operator.LT, Operator.LE, Operator.GT, Operator.GE)


def _numeric_bits(space):
    """The bits of the staff space's Hired and Level groups plus Name."""
    return [
        1 << space.bit(column, op, column)
        for column in ("Hired", "Level")
        for op in _OPS
    ] + [1 << space.bit("Name", Operator.EQ, "Name")]


def _twin(mask, space):
    """Another raw mask with the same canonical form, if one is at hand:
    an operator swapped for the pair that implies it, or back."""
    for column in ("Hired", "Level"):
        eq, ne, lt, le, gt, ge = (bit(space, column, op) for op in _OPS)
        for single, pair in ((eq, le | ge), (lt, ne | le), (gt, ne | ge)):
            if mask & pair == pair and not mask & single:
                return (mask & ~pair) | single
            if mask & single and not mask & (pair | eq | ne):
                return (mask & ~single) | pair
    return None


@settings(max_examples=25, deadline=None)
@given(
    steps=st.lists(
        st.tuples(
            st.lists(st.integers(0, 2**13 - 1), max_size=12),
            st.integers(0, 2**32 - 1),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_cover_tracks_raw_diffs(steps):
    """Random diffs over few bits of two numeric groups, where rewritten
    forms collide, nest, lose their witnesses and evict each other."""
    space = build_predicate_space(staff_relation())
    bits = _numeric_bits(space)
    cover = CanonicalCover(space)
    present = set()
    for picks, removal_seed in steps:
        candidates = {
            sum(bits[i] for i in range(len(bits)) if pick >> i & 1)
            for pick in picks
        }
        candidates = {mask for mask in candidates if 0 < mask.bit_count() <= 4}
        rng = random.Random(removal_seed)
        removed = {mask for mask in sorted(present) if rng.random() < 0.4}
        # Re-add some departing forms through another raw mask.
        twins = {_twin(mask, space) for mask in sorted(removed) if rng.random() < 0.5}
        added = (candidates | twins) - present - {None}
        cover.apply(added, removed)
        present = (present - removed) | added
        assert cover.masks() == cover_by_definition(present, space)
