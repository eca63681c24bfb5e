"""Pooled evidence construction — wall clock at workers ∈ {1, 2}.

Not a paper figure: this benchmark tracks the fork pool behind
``workers=`` / ``--workers`` (docs/performance.md#the-fork-pool).  For
Tax at the Figure 5 size and at 10× it, one evidence engine state per
worker count goes through the four pooled operations in order:

- static build (with the tuple index) on 70 % of the rows;
- insert of the remaining 30 %;
- recompute delete and index delete of the same batch (every tenth alive
  row) — recompute first, because it leaves the engine state untouched.

Each row times the evidence driver call alone, best of ``REPEATS`` full
passes.  The enumeration layer is left out on purpose: the pool never
touches it, and a DynEI delete at these sizes takes minutes.  The
determinism contract is asserted after every operation: all worker
counts leave byte-identical evidence state (evidence multiset plus tuple
index), and both delete strategies compute the same delta.

Speedup is hardware-bound — the notes record ``os.cpu_count()``.  Scale
the workload with ``REPRO_BENCH_SCALE`` as usual.
"""

import json
import os

from _harness import BASE_ROWS, SCALE, ResultTable, insert_workload, timed

from repro.evidence.builder import build_evidence_state
from repro.evidence.deletes import (
    apply_delete_evidence,
    delete_evidence_by_recompute,
    delete_evidence_with_index,
)
from repro.evidence.incremental import (
    apply_insert_evidence,
    incremental_evidence_for_insert,
)
from repro.predicates.space import build_predicate_space
from repro.relational.loader import relation_from_rows
from repro.workloads import DATASETS

DATASET = "Tax"
#: Relation sizes as multiples of the Figure 5 experiment's.
FIG5_FACTORS = (1, 10)
#: λ that inserts every row the 70 % retain leaves over.
RATIO = 0.3 / 0.7
DELETE_STEP = 10
WORKER_COUNTS = (1, 2)
REPEATS = 3
OPERATIONS = ("static build", "insert", "recompute delete", "index delete")


def canonical_bytes(state) -> bytes:
    """Canonical serialization of the evidence engine state the pool
    writes: the evidence multiset plus the per-tuple index."""
    payload = {
        "evidence": sorted(state.evidence.counts.items()),
        "owned": [
            [rid, sorted(owned.items())]
            for rid, owned in sorted(state.tuple_index.owned.items())
        ],
        "partners": sorted(state.tuple_index.partners_of.items()),
    }
    return json.dumps(payload).encode()


def run_pass(static_rows, delta_rows, workers):
    """One pass of the four operations; returns ``({op: seconds},
    [state bytes after each step])``."""
    relation = relation_from_rows(DATASETS[DATASET].header, static_rows)
    space = build_predicate_space(relation)
    seconds = {}
    snapshots = []

    state, seconds["static build"] = timed(
        lambda: build_evidence_state(
            relation, space, maintain_tuple_index=True, workers=workers
        )
    )
    snapshots.append(canonical_bytes(state))

    new_rids = relation.insert(delta_rows)
    state.indexes.add_rows(new_rids)
    delta, seconds["insert"] = timed(
        lambda: incremental_evidence_for_insert(
            relation, state, new_rids, workers=workers
        )
    )
    apply_insert_evidence(state, delta)
    snapshots.append(canonical_bytes(state))

    rids = sorted(relation.rids())[::DELETE_STEP]
    recomputed, seconds["recompute delete"] = timed(
        lambda: delete_evidence_by_recompute(
            relation, state, rids, workers=workers
        )
    )
    indexed, seconds["index delete"] = timed(
        lambda: delete_evidence_with_index(
            relation, state, rids, workers=workers
        )
    )
    assert recomputed == indexed, "delete strategies disagree"
    apply_delete_evidence(state, indexed)
    relation.delete(rids)
    state.indexes.remove_rows(rids)
    snapshots.append(canonical_bytes(state))
    return seconds, snapshots


def test_parallel_scaling(benchmark):
    table = ResultTable(
        "Pooled evidence construction — seconds vs workers (best of "
        f"{REPEATS})",
        ["dataset", "rows", "op", "workers", "seconds", "speedup"],
        "parallel_scaling.txt",
    )
    byte_identical = True
    for factor in FIG5_FACTORS:
        total = max(40, int(BASE_ROWS[DATASET] * factor * SCALE))
        static_rows, delta_rows = insert_workload(
            DATASET, RATIO, total_rows=total
        )
        best = {workers: {} for workers in WORKER_COUNTS}
        reference = None
        for _ in range(REPEATS):
            for workers in WORKER_COUNTS:
                seconds, snapshots = run_pass(static_rows, delta_rows, workers)
                for op, value in seconds.items():
                    best[workers][op] = min(best[workers].get(op, value), value)
                if reference is None:
                    reference = snapshots
                byte_identical &= snapshots == reference
        for op in OPERATIONS:
            for workers in WORKER_COUNTS:
                table.add(
                    DATASET,
                    total,
                    op,
                    workers,
                    best[workers][op],
                    round(best[1][op] / best[workers][op], 3),
                )

    # The determinism contract behind the speedup numbers.
    assert byte_identical, "worker counts diverged from the serial state"

    cpu_count = os.cpu_count()
    table.extras["cpu_count"] = cpu_count
    table.extras["byte_identical"] = byte_identical
    table.finish(
        shape_notes=[
            f"cpu_count={cpu_count} (speedup is hardware-bound)",
            f"byte_identical={byte_identical} across workers "
            f"{', '.join(map(str, WORKER_COUNTS))}",
        ]
    )

    total = max(40, int(BASE_ROWS[DATASET] * SCALE))
    static_rows, delta_rows = insert_workload(DATASET, RATIO, total_rows=total)
    benchmark.pedantic(
        lambda: run_pass(static_rows, delta_rows, WORKER_COUNTS[-1]),
        rounds=1,
        iterations=1,
    )
