"""Unit tests for the per-tuple evidence index bookkeeping."""

from repro.evidence import TupleEvidenceIndex
from repro.evidence.kernels.base import ownership_counter


def record_owned(index, rid, contexts):
    """Record reconciled ``contexts`` (evidence mask → partner bits) as
    owned by ``rid``, as a kernel does for a task that owns every pair."""
    partners = 0
    for bits in contexts.values():
        partners |= bits
    index.record(rid, ownership_counter(contexts, partners), partners)


class TestTupleEvidenceIndex:
    def test_record_and_lookup(self):
        index = TupleEvidenceIndex()
        record_owned(index, 0, {0b101: 0b0110, 0b011: 0b1000})
        assert index.owned_evidence(0) == {0b101: 2, 0b011: 1}
        assert index.partners(0) == 0b1110
        assert 0 in index and 5 not in index
        assert len(index) == 1

    def test_record_accumulates(self):
        index = TupleEvidenceIndex()
        record_owned(index, 2, {0b1: 0b0001})
        record_owned(index, 2, {0b1: 0b1000})
        assert index.owned_evidence(2) == {0b1: 2}
        assert index.partners(2) == 0b1001

    def test_empty_context_bits_skipped(self):
        index = TupleEvidenceIndex()
        record_owned(index, 0, {0b1: 0})
        assert index.owned_evidence(0) == {}
        assert index.partners(0) == 0

    def test_unknown_tuple_lookup(self):
        index = TupleEvidenceIndex()
        assert index.owned_evidence(9) == {}
        assert index.partners(9) == 0

    def test_drop_tuple(self):
        index = TupleEvidenceIndex()
        record_owned(index, 0, {0b1: 0b0110})
        record_owned(index, 4, {0b1: 0b0010})
        index.drop_tuple(0)
        assert 0 not in index
        assert index.partners(0) == 0
        assert 4 in index
        index.drop_tuple(0)  # idempotent
