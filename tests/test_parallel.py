"""Tests for the striped fork pool behind ``workers > 1``.

The contract under test: any worker count produces *byte-identical*
results — same serialized state document, same evidence multiset, same Σ,
same ``evidence.*`` work counters — because every stripe runs the serial
path's own code on a subset of its item list and the merge is a
deterministic sorted-key fold.  The same holds when pool workers die
mid-stripe or the platform has no ``fork``.
"""

import functools

import pytest

from repro.core.discoverer import DCDiscoverer
from repro.core.state_io import state_to_bytes
from repro.evidence import parallel
from repro.evidence.builder import build_evidence_state
from repro.evidence.evidence_set import EvidenceSet
from repro.evidence.parallel import (
    WORKER_FAULT_POINT,
    ShardResult,
    merge_shard_counts,
    resolve_workers,
    should_parallelize,
    stripe,
)
from repro.relational.loader import relation_from_rows
from repro.workloads.datasets import DATASETS
from repro.workloads.updates import pick_delete_rids, split_for_insert

DATASET = "Tax"
WORKER_COUNTS = (1, 2, 4)
#: (insert strategy, delete strategy) pairs covering every pooled driver.
STRATEGIES = (
    {"infer_within_delta": True, "delete_strategy": "index"},
    {"infer_within_delta": False, "delete_strategy": "recompute"},
)

needs_fork = pytest.mark.skipif(
    not parallel.fork_available(), reason="fork start method unavailable"
)


# -- helpers ------------------------------------------------------------------


def _workload(seed=1, rows=80):
    raw = DATASETS[DATASET].rows(rows, seed=0)
    return split_for_insert(raw, ratio=0.25, retain=0.7, seed=seed)


def _run_cycle(workers, **discoverer_kwargs):
    """fit → insert → delete with the given worker count; return the
    discoverer and the three operations' reports."""
    workload = _workload()
    relation = relation_from_rows(
        DATASETS[DATASET].header, list(workload.static_rows)
    )
    discoverer = DCDiscoverer(relation, workers=workers, **discoverer_kwargs)
    reports = [discoverer.fit().report]
    reports.append(discoverer.insert(list(workload.delta_rows)).report)
    reports.append(
        discoverer.delete(
            pick_delete_rids(discoverer.relation, 0.15, seed=3)
        ).report
    )
    return discoverer, reports


def _cycle_reports(workers, **discoverer_kwargs):
    """The cycle's reports and canonical state bytes."""
    discoverer, reports = _run_cycle(workers, **discoverer_kwargs)
    return reports, state_to_bytes(discoverer)


@functools.lru_cache(maxsize=None)
def _serial_cycle(**discoverer_kwargs):
    """:func:`_cycle_reports` at workers=1, computed once per strategy."""
    return _cycle_reports(1, **discoverer_kwargs)


def _counters(report, prefix):
    return {
        name: value
        for name, value in report.metrics["counters"].items()
        if name.startswith(prefix)
    }


# -- the determinism guarantee ------------------------------------------------


def test_worker_counts_produce_byte_identical_states():
    """Same dataset + seed, workers ∈ {1, 2, 4}: identical serialized
    evidence sets and identical Σ (the deterministic-merge guard)."""
    discoverers = [_run_cycle(workers)[0] for workers in WORKER_COUNTS]
    reference = discoverers[0]
    for other in discoverers[1:]:
        assert other.evidence_set.counts == reference.evidence_set.counts
        assert set(other.dc_masks) == set(reference.dc_masks)
        assert state_to_bytes(other) == state_to_bytes(reference)


def test_worker_counts_identical_for_base_and_recompute_strategies():
    strategy = STRATEGIES[1]
    serial = _serial_cycle(**strategy)[1]
    for workers in WORKER_COUNTS[1:]:
        assert _cycle_reports(workers, **strategy)[1] == serial


def test_parallel_static_build_matches_serial():
    relation = relation_from_rows(
        DATASETS[DATASET].header, DATASETS[DATASET].rows(60, seed=0)
    )
    serial = DCDiscoverer(relation, delete_strategy="index")
    serial.fit()
    parallel_state = build_evidence_state(
        relation, serial.space, maintain_tuple_index=True, workers=3
    )
    assert parallel_state.evidence.counts == serial.evidence_set.counts
    assert (
        parallel_state.tuple_index.owned
        == serial.engine_state.tuple_index.owned
    )
    assert (
        parallel_state.tuple_index.partners_of
        == serial.engine_state.tuple_index.partners_of
    )


def test_workers_zero_means_cpu_count():
    assert (
        _cycle_reports(0, **STRATEGIES[0])[1]
        == _serial_cycle(**STRATEGIES[0])[1]
    )


@needs_fork
@pytest.mark.parametrize(
    "strategy", STRATEGIES, ids=lambda kwargs: kwargs["delete_strategy"]
)
def test_pooled_evidence_counters_match_serial(strategy):
    """A pooled run reports the serial work: every ``evidence.*`` (and
    ``kernel.*``) counter of fit, insert and delete at workers=2 equals
    the workers=1 value exactly."""
    serial_reports, serial_state = _serial_cycle(**strategy)
    pooled_reports, pooled_state = _cycle_reports(2, **strategy)
    assert pooled_state == serial_state
    for serial, pooled in zip(serial_reports, pooled_reports):
        assert _counters(pooled, "evidence.") == _counters(serial, "evidence.")
        assert _counters(pooled, "kernel.") == _counters(serial, "kernel.")
        assert pooled.metric("parallel.batches") == 1


# -- knob resolution and striping ---------------------------------------------


def test_resolve_workers():
    assert resolve_workers(None) == 1
    assert resolve_workers(1) == 1
    assert resolve_workers(3) == 3
    assert resolve_workers(0) >= 1
    assert resolve_workers(-2) >= 1


def test_stripe_covers_all_items_deterministically():
    items = list(range(10))
    stripes = stripe(items, 3)
    assert len(stripes) == 3
    assert sorted(value for part in stripes for value in part) == items
    assert stripes == stripe(items, 3)
    assert stripes[0] == [0, 3, 6, 9]
    # Never more stripes than items; degenerate inputs stay valid.
    assert stripe([7], 4) == [[7]]
    assert stripe([], 4) == [[]]


def test_should_parallelize_gates():
    assert not should_parallelize(1, 100)
    assert not should_parallelize(4, 1)
    if parallel.fork_available():
        assert should_parallelize(4, 100)


def test_fork_unavailable_falls_back_to_serial(monkeypatch):
    """Without fork a workers=4 cycle runs without a pool and lands on
    the serial bytes."""
    monkeypatch.setattr(parallel, "fork_available", lambda: False)
    assert not should_parallelize(4, 100)
    reports, state = _cycle_reports(4, **STRATEGIES[0])
    for report in reports:
        assert report.metric("parallel.batches", 0) == 0
    assert state == _serial_cycle(**STRATEGIES[0])[1]


def test_fallback_counter_fires_when_fork_unavailable(monkeypatch):
    """The serial fallback is loud: one ``parallel.fallback`` tick per
    operation of a workers=4 cycle."""
    monkeypatch.setattr(parallel, "fork_available", lambda: False)
    reports, _ = _cycle_reports(4)
    for report in reports:
        assert report.metric("parallel.fallback") == 1


# -- worker death -------------------------------------------------------------


@needs_fork
def test_worker_death_mid_stripe_reruns_in_parent(fault_injector):
    """The only child of a workers=2 insert dies at the ``executor.shard``
    fault point; its stripe re-runs in the parent, and fit and delete
    around it pool normally — the state is byte-identical to serial."""
    workload = _workload()
    relation = relation_from_rows(
        DATASETS[DATASET].header, list(workload.static_rows)
    )
    discoverer = DCDiscoverer(relation, workers=2, **STRATEGIES[0])
    assert discoverer.fit().report.metric("parallel.stripe_reruns", 0) == 0
    fault_injector.arm(WORKER_FAULT_POINT)
    try:
        insert = discoverer.insert(list(workload.delta_rows)).report
    finally:
        fault_injector.reset()
    delete = discoverer.delete(
        pick_delete_rids(discoverer.relation, 0.15, seed=3)
    ).report
    assert insert.metric("parallel.stripe_reruns") == 1
    assert delete.metric("parallel.stripe_reruns", 0) == 0
    assert state_to_bytes(discoverer) == _serial_cycle(**STRATEGIES[0])[1]


@needs_fork
def test_every_worker_dead_degrades_to_serial(fault_injector):
    """Every child of every operation dies before reporting: the parent
    runs all stripes itself and still lands on the serial bytes and the
    serial ``evidence.*`` counters."""
    fault_injector.arm(WORKER_FAULT_POINT)
    try:
        reports, state = _cycle_reports(4, **STRATEGIES[0])
    finally:
        fault_injector.reset()
    serial_reports, serial_state = _serial_cycle(**STRATEGIES[0])
    assert state == serial_state
    for report, serial in zip(reports, serial_reports):
        assert report.metric("parallel.stripe_reruns") == 3
        assert _counters(report, "evidence.") == _counters(serial, "evidence.")


# -- merge --------------------------------------------------------------------


def test_merge_shard_counts_is_sorted_and_signed():
    shards = [
        ShardResult(counts={5: 2, 3: 1}),
        ShardResult(counts={3: -1, 1: 4, 7: 0}),
    ]
    merged = merge_shard_counts(shards)
    assert merged.counts == {1: 4, 5: 2}
    assert list(merged.counts) == [1, 5]  # ascending-mask insertion order


def test_merge_shard_counts_rejects_negative_totals():
    with pytest.raises(ValueError, match="negative merged multiplicity"):
        merge_shard_counts([ShardResult(counts={3: -2}), ShardResult(counts={3: 1})])


def test_merge_empty_shards():
    assert merge_shard_counts([]) == EvidenceSet()


# -- observability ------------------------------------------------------------


@needs_fork
def test_parallel_run_reports_shard_metrics():
    workload = _workload()
    relation = relation_from_rows(
        DATASETS[DATASET].header, list(workload.static_rows)
    )
    discoverer = DCDiscoverer(relation, workers=2)
    result = discoverer.fit()
    assert result.report.metric("parallel.shards") == 2
    assert result.report.metric("parallel.batches") == 1
    assert result.report.metric("evidence.pairs_compared") > 0
    histograms = discoverer.instrumentation.metrics.histograms
    assert "parallel.shard_seconds" in histograms
    insert_report = discoverer.insert(list(workload.delta_rows)).report
    assert insert_report.metric("parallel.batches") == 1
