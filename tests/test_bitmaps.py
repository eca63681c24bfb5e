"""Unit and property tests for the bitmap backends of the bitmap
ablation (``benchmarks/bench_ablation_bitmaps.py``), whose agreement the
ablation relies on."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks._set_structures import (
    ARRAY_MAX,
    IntBitset,
    RoaringBitmap,
    _container_len,
)

BACKENDS = [IntBitset, RoaringBitmap]

small_sets = st.sets(st.integers(min_value=0, max_value=300), max_size=40)
# Values spanning several roaring chunks to exercise container boundaries.
wide_sets = st.sets(st.integers(min_value=0, max_value=300_000), max_size=30)


@pytest.mark.parametrize("backend", BACKENDS)
class TestBitmapBasics:
    def test_empty(self, backend):
        bitmap = backend()
        assert len(bitmap) == 0
        assert not bitmap
        assert list(bitmap) == []
        assert 5 not in bitmap

    def test_add_contains_discard(self, backend):
        bitmap = backend()
        bitmap.add(3)
        bitmap.add(70_000)
        assert 3 in bitmap
        assert 70_000 in bitmap
        assert 4 not in bitmap
        assert len(bitmap) == 2
        bitmap.discard(3)
        assert 3 not in bitmap
        bitmap.discard(3)  # idempotent
        assert len(bitmap) == 1

    def test_from_iterable_and_iter_sorted(self, backend):
        bitmap = backend.from_iterable([9, 2, 5, 2])
        assert list(bitmap) == [2, 5, 9]

    def test_full(self, backend):
        bitmap = backend.full(10)
        assert list(bitmap) == list(range(10))
        assert backend.full(0) == backend()

    def test_full_negative_raises(self, backend):
        with pytest.raises(ValueError):
            backend.full(-1)

    def test_min_max(self, backend):
        bitmap = backend.from_iterable([7, 100, 3])
        assert bitmap.min() == 3
        assert bitmap.max() == 100

    def test_min_max_empty_raises(self, backend):
        with pytest.raises(ValueError):
            backend().min()
        with pytest.raises(ValueError):
            backend().max()

    def test_copy_is_independent(self, backend):
        bitmap = backend.from_iterable([1, 2])
        clone = bitmap.copy()
        clone.add(99)
        assert 99 not in bitmap
        assert 99 in clone

    def test_equality_and_hash(self, backend):
        a = backend.from_iterable([1, 5])
        b = backend.from_iterable([5, 1])
        assert a == b
        assert hash(a) == hash(b)

    def test_subset_superset(self, backend):
        small = backend.from_iterable([1, 2])
        big = backend.from_iterable([1, 2, 3])
        assert small.issubset(big)
        assert big.issuperset(small)
        assert not big.issubset(small)

    def test_intersects(self, backend):
        a = backend.from_iterable([1, 2])
        assert a.intersects(backend.from_iterable([2, 9]))
        assert not a.intersects(backend.from_iterable([7, 9]))

    def test_repr_smoke(self, backend):
        assert backend.__name__ in repr(backend.from_iterable(range(20)))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("op", ["__and__", "__or__", "__xor__", "__sub__"])
@given(left=small_sets, right=small_sets)
@settings(max_examples=40, deadline=None)
def test_set_algebra_matches_python_sets(backend, op, left, right):
    expected = {
        "__and__": left & right,
        "__or__": left | right,
        "__xor__": left ^ right,
        "__sub__": left - right,
    }[op]
    result = getattr(backend.from_iterable(left), op)(backend.from_iterable(right))
    assert set(result) == expected


@given(values=wide_sets)
@settings(max_examples=30, deadline=None)
def test_roaring_matches_intbitset_across_chunks(values):
    roaring = RoaringBitmap.from_iterable(values)
    intbits = IntBitset.from_iterable(values)
    assert list(roaring) == list(intbits)
    assert len(roaring) == len(intbits)


def test_roaring_array_to_bitmap_promotion():
    bitmap = RoaringBitmap.from_iterable(range(5000))
    assert list(bitmap) == list(range(5000))
    bitmap.discard(4999)
    assert len(bitmap) == 4999


def test_roaring_run_optimize_preserves_content():
    bitmap = RoaringBitmap.from_iterable(range(2000))
    bitmap.run_optimize()
    assert list(bitmap) == list(range(2000))
    assert bitmap == RoaringBitmap.from_iterable(range(2000))
    # Run containers must survive set algebra and membership.
    other = RoaringBitmap.from_iterable(range(1000, 3000))
    assert len(bitmap & other) == 1000
    assert 1500 in bitmap
    assert bitmap.max() == 1999


def test_intbitset_negative_rejected():
    with pytest.raises(ValueError):
        IntBitset(-1)


def test_roaring_negative_add_rejected():
    with pytest.raises(ValueError):
        RoaringBitmap().add(-3)


# -- container transitions around ARRAY_MAX (Hypothesis properties) ----------
#
# The roaring format's central adaptive decision is the array↔bitmap
# promotion threshold.  Invariant maintained by RoaringBitmap: a bitmap
# container is only ever *created* with cardinality > ARRAY_MAX (add-path
# promotion or algebra), and every discard rebuilds the touched container
# from its bits — so at all times 'a' ⇒ card ≤ ARRAY_MAX and
# 'b' ⇒ card > ARRAY_MAX ('r' appears only via run_optimize).

# Values biased to hover around the promotion boundary of chunk 0, with a
# sprinkle of far values to keep multi-chunk bookkeeping honest.
boundary_values = st.one_of(
    st.integers(min_value=ARRAY_MAX - 48, max_value=ARRAY_MAX + 48),
    st.integers(min_value=0, max_value=2**17),
)
boundary_ops = st.lists(
    st.tuples(st.sampled_from(["add", "discard"]), boundary_values),
    max_size=40,
)


def _assert_container_kinds_match_cardinality(bitmap: RoaringBitmap):
    for container in bitmap._containers.values():
        kind = container[0]
        cardinality = _container_len(container)
        assert cardinality > 0  # empties must never be exposed
        if kind == "a":
            assert cardinality <= ARRAY_MAX
        elif kind == "b":
            assert cardinality > ARRAY_MAX


@given(ops=boundary_ops)
@settings(max_examples=25, deadline=None)
def test_roaring_transitions_around_array_max(ops):
    """add/discard sequences across the promotion boundary: content always
    matches a model set and container kinds always match cardinality."""
    base = range(ARRAY_MAX - 8)
    bitmap = RoaringBitmap.from_iterable(base)
    model = set(base)
    for op, value in ops:
        if op == "add":
            bitmap.add(value)
            model.add(value)
        else:
            bitmap.discard(value)
            model.discard(value)
    assert set(bitmap) == model
    assert len(bitmap) == len(model)
    _assert_container_kinds_match_cardinality(bitmap)


@given(extra=st.sets(st.integers(0, 2**16 - 1), max_size=24))
@settings(max_examples=25, deadline=None)
def test_roaring_promotion_and_demotion_boundary(extra):
    """Crossing ARRAY_MAX upward promotes to a bitmap container; coming
    back down via discard demotes to an array container."""
    bitmap = RoaringBitmap.from_iterable(range(ARRAY_MAX))
    assert bitmap.container_stats() == {"array": 1, "bitmap": 0, "run": 0}
    new_values = [value for value in sorted(extra) if value >= ARRAY_MAX]
    for value in new_values:
        bitmap.add(value)
    stats = bitmap.container_stats()
    if new_values:
        assert stats == {"array": 0, "bitmap": 1, "run": 0}
    else:
        assert stats == {"array": 1, "bitmap": 0, "run": 0}
    for value in new_values:
        bitmap.discard(value)
    # Cardinality is back to ARRAY_MAX: the discard path must have demoted.
    assert bitmap.container_stats() == {"array": 1, "bitmap": 0, "run": 0}
    assert set(bitmap) == set(range(ARRAY_MAX))


@given(
    intervals=st.lists(
        st.tuples(st.integers(0, 2**17), st.integers(1, 300)),
        min_size=1,
        max_size=8,
    ),
    churn=st.lists(st.integers(0, 2**17), max_size=12),
)
@settings(max_examples=25, deadline=None)
def test_roaring_run_container_round_trip(intervals, churn):
    """run_optimize → mutate → compare: run containers must round-trip
    through adds, discards, and iteration without losing content."""
    values = {
        value
        for start, length in intervals
        for value in range(start, start + length)
    }
    optimized = RoaringBitmap.from_iterable(values)
    optimized.run_optimize()
    model = set(values)
    assert set(optimized) == model
    for value in churn:
        if value in model:
            optimized.discard(value)
            model.discard(value)
        else:
            optimized.add(value)
            model.add(value)
        assert (value in optimized) == (value in model)
    assert set(optimized) == model
    assert optimized == RoaringBitmap.from_iterable(model)
    _assert_container_kinds_match_cardinality(optimized)


@given(values=wide_sets, other_values=wide_sets)
@settings(max_examples=25, deadline=None)
def test_roaring_run_optimize_preserves_algebra(values, other_values):
    optimized = RoaringBitmap.from_iterable(values)
    optimized.run_optimize()
    plain = RoaringBitmap.from_iterable(values)
    other = RoaringBitmap.from_iterable(other_values)
    assert optimized == plain
    assert (optimized & other) == (plain & other)
    assert (optimized | other) == (plain | other)
    assert (optimized ^ other) == (plain ^ other)
    assert (optimized - other) == (plain - other)
    assert optimized.issubset(plain) and plain.issubset(optimized)
