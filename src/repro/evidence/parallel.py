"""Fork pool for evidence construction.

Every maintenance operation — static build, insert batch, delete batch —
describes its work as the ordered item list the serial path runs: the
``ReconcileTask`` list of the static, insert and recompute-delete
drivers, or the ``(rid, processed_bits)`` list of the index-delete
strategy.  With ``workers > 1`` that list is *striped*: item ``i`` goes
to stripe ``i % W``.  The parent runs stripe 0 and forked children run
the others, sharing the engine snapshot (relation, indexes, kernel)
copy-on-write, so nothing heavyweight is pickled; each stripe ships back
only a signed evidence counter, its tuple-index records, its work
counters and its measured timing.

The result is byte-identical to the serial path for any worker count:

- a stripe runs the serial path's own code on a subset of its items, and
  every item's contribution is independent of the others;
- the parent merges the signed counters in ascending-mask order and
  applies the tuple-index records in rid order;
- a child that dies before reporting (crash, kill, the ``executor.shard``
  fault point) has its stripe re-run in the parent.

``workers=1`` never enters this module's pool.  A platform without the
``fork`` start method runs serially, with a warning and the
``parallel.fallback`` counter.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.durability.faults import SimulatedCrash, fault_point
from repro.evidence.evidence_set import EvidenceSet
from repro.evidence.kernels.base import (
    CounterSink,
    KernelStats,
    ListRecorder,
    emit_kernel_stats,
)
from repro.observability import add_finished_span, get_logger
from repro.observability.probe import get_probe, install

logger = get_logger(__name__)

#: Fault point armed by the worker-death tests: fires in a forked child
#: right before it runs its stripe (the parent never calls it).
WORKER_FAULT_POINT = "executor.shard"


def fork_available() -> bool:
    """Whether this platform can fork pool workers."""
    return "fork" in multiprocessing.get_all_start_methods()


def resolve_workers(workers: Optional[int]) -> int:
    """Normalize the ``workers`` knob: ``None``/1 → serial, ``0`` or any
    negative value → one worker per CPU."""
    if workers is None:
        return 1
    if workers <= 0:
        return os.cpu_count() or 1
    return workers


def should_parallelize(workers: int, n_items: int) -> bool:
    """Run on the pool only when it can actually split work: more than
    one worker requested, at least two items, and ``fork`` available.

    A fork-less platform is a *loud* serial fallback: one warning plus
    the ``parallel.fallback`` counter, so a deployment that silently lost
    its parallelism shows up in metrics rather than in a latency graph.
    """
    if workers <= 1 or n_items < 2:
        return False
    if not fork_available():
        logger.warning(
            "workers=%d requested but fork is unavailable on this "
            "platform; running serially", workers,
        )
        probe = get_probe()
        if probe is not None:
            probe.inc("parallel.fallback")
        return False
    return True


def stripe(items: list, n_stripes: int) -> List[list]:
    """Deterministic striped partition: item ``i`` goes to stripe
    ``i % n_stripes``.  Striping keeps stripe loads even when per-item
    cost decreases along the list (the static build's triangular pair
    count)."""
    n_stripes = max(1, min(n_stripes, len(items)))
    return [items[index::n_stripes] for index in range(n_stripes)]


@dataclass
class ShardResult:
    """One stripe's partial evidence plus its accounting.

    ``counts`` is a signed evidence counter (the index-delete strategy
    subtracts stale-pair corrections); only merged totals must be
    non-negative.  ``records`` holds ``(rid, owned_counter,
    partner_bits)`` tuple-index entries, ``counters`` the stripe body's
    own ``evidence.*`` counters.  ``start`` (a ``perf_counter`` reading)
    and ``duration`` are measured by the process that ran the stripe.
    """

    counts: dict = field(default_factory=dict)
    records: list = field(default_factory=list)
    stats: KernelStats = field(default_factory=KernelStats)
    counters: dict = field(default_factory=dict)
    start: float = 0.0
    duration: float = 0.0


def _run_timed(run_stripe: Callable, items: list) -> ShardResult:
    """Run one stripe with the probe off (the parent re-emits its
    counters once for all stripes) and stamp its measured timing."""
    start = time.perf_counter()
    with install(None):
        result = run_stripe(items)
    result.start = start
    result.duration = time.perf_counter() - start
    return result


def _child(run_stripe: Callable, items: list, sender) -> None:
    """Forked worker: run one stripe and send its result to the parent.
    A simulated crash exits without a result, as a killed worker would."""
    try:
        fault_point(WORKER_FAULT_POINT)
        sender.send(_run_timed(run_stripe, items))
    except SimulatedCrash:
        os._exit(17)


def run_stripes(stripes: List[list], run_stripe: Callable) -> List[ShardResult]:
    """Run ``run_stripe`` on every stripe, the first in this process and
    the rest in forked children; results come back in stripe order."""
    context = multiprocessing.get_context("fork")
    children = []
    try:
        for index in range(1, len(stripes)):
            receiver, sender = context.Pipe(duplex=False)
            child = context.Process(
                target=_child,
                args=(run_stripe, stripes[index], sender),
                daemon=True,
            )
            child.start()
            sender.close()
            children.append((index, child, receiver))
        results = [_run_timed(run_stripe, stripes[0])]
        for index, child, receiver in children:
            try:
                result = receiver.recv()
            except (EOFError, OSError):
                result = None
            child.join()
            if result is None:
                logger.warning(
                    "evidence worker for stripe %d of %d died (exit code "
                    "%s); re-running its stripe in-process",
                    index, len(stripes), child.exitcode,
                )
                probe = get_probe()
                if probe is not None:
                    probe.inc("parallel.stripe_reruns")
                result = _run_timed(run_stripe, stripes[index])
            results.append(result)
    finally:
        for _, child, receiver in children:
            receiver.close()
            if child.is_alive():
                child.terminate()
                child.join()
    return results


def merge_shard_counts(results: List[ShardResult]) -> EvidenceSet:
    """Sorted-key merge of the stripes' signed counters.

    Totals are accumulated per mask and inserted in ascending-mask order,
    so the merged set's contents *and* iteration order are independent of
    the worker count and of which process ran which stripe.

    :raises ValueError: if any merged multiplicity is negative — that
        always means a stripe diverged from the serial path.
    """
    totals: dict = {}
    for shard in results:
        for mask, count in shard.counts.items():
            totals[mask] = totals.get(mask, 0) + count
    merged = EvidenceSet()
    for mask in sorted(totals):
        count = totals[mask]
        if count < 0:
            raise ValueError(
                f"negative merged multiplicity {count} for evidence "
                f"{mask:#x} — shard results are inconsistent"
            )
        if count:
            merged.add(mask, count)
    return merged


def apply_tuple_records(tuple_index, results: List[ShardResult]) -> None:
    """Install the stripes' tuple-index records in rid order."""
    records = [record for shard in results for record in shard.records]
    for rid, owned_counter, partner_bits in sorted(
        records, key=lambda record: record[0]
    ):
        tuple_index.record(rid, owned_counter, partner_bits)


def report_shards(results: List[ShardResult], kernel, workers: int) -> None:
    """Re-emit the stripes' accounting through the active probe.

    Children cannot reach the parent's metrics registry, so the parent
    emits the summed kernel stats and stripe-body counters as one serial
    batch would (``kernel.*``, ``evidence.*``), plus the ``parallel.*``
    family described in docs/observability.md.
    """
    probe = get_probe()
    if probe is None:
        return
    probe.inc("parallel.batches")
    probe.inc("parallel.shards", len(results))
    probe.set_gauge("parallel.workers", workers)
    total = KernelStats()
    counters: dict = {}
    for shard in results:
        probe.observe("parallel.shard_seconds", shard.duration)
        probe.observe("parallel.shard_pairs", shard.stats.pairs)
        total.add(shard.stats)
        for name, value in shard.counters.items():
            counters[name] = counters.get(name, 0) + value
    emit_kernel_stats(probe, kernel.name, total, len(kernel.space.groups))
    for name, value in counters.items():
        probe.inc(name, value)


def run_striped(
    kernel, items: list, run_stripe: Callable, workers: int, tuple_index=None
) -> EvidenceSet:
    """Stripe ``items`` over ``workers``, run ``run_stripe`` on each
    stripe, and merge: the evidence is returned, tuple-index records go
    into ``tuple_index`` (when given), counters to the probe, and one
    finished ``evidence.shard[i]`` span per stripe under the current
    span."""
    results = run_stripes(stripe(items, workers), run_stripe)
    merged = merge_shard_counts(results)
    if tuple_index is not None:
        apply_tuple_records(tuple_index, results)
    report_shards(results, kernel, workers)
    for index, shard in enumerate(results):
        add_finished_span(
            f"evidence.shard[{index}]",
            shard.start,
            shard.duration,
            {
                "pairs": shard.stats.pairs,
                "pipelines": shard.stats.pipelines,
                "backend": kernel.name,
            },
        )
    return merged


def reconcile_striped(
    kernel,
    tasks: list,
    workers: int,
    tuple_index=None,
    symmetric_bits: Optional[int] = None,
) -> EvidenceSet:
    """The pooled equivalent of ``kernel.reconcile(tasks, ...)`` into a
    fresh evidence set, with tuple-index recording when ``tuple_index``
    is given."""

    def run_stripe(stripe_tasks: list) -> ShardResult:
        result = ShardResult()
        recorder = (
            ListRecorder(result.records) if tuple_index is not None else None
        )
        result.stats = kernel.reconcile(
            stripe_tasks, CounterSink(result.counts), recorder, symmetric_bits
        )
        return result

    return run_striped(kernel, tasks, run_stripe, workers, tuple_index)
