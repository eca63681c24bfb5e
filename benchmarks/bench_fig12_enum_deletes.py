"""Figure 12 — dynamic DC enumeration on deletes: DynEI vs DynHS.

Paper: enumeration-phase runtime only on delete batches; (a) growing
deletes, (b) 10 % deletes with growing column counts.  Deletions are more
expensive than insertions for both algorithms (non-minimal DCs must be
identified and the result re-grown over the remaining evidence), with
DynEI ahead throughout.  Reproduction: same sweeps at scaled sizes;
expected shape — DynEI below DynHS; delete enumeration slower than the
corresponding insert enumeration.

(c) is not in the paper: a sliding window over Tax, the dataset with
the largest Σ (about 11 k DCs), where one delete drops thousands of DCs
for the minimality re-check.  It fits 3DC on 420 rows, then runs 16
steps that each delete the 2 oldest rows and insert 2 new ones, and
splits each delete's enumeration time into its drop, re-check and
re-grow parts.
"""

import statistics
import time

from _harness import (
    ResultTable,
    geometric_speedup,
    rows_for,
    timed,
)

from repro.core.discoverer import DCDiscoverer
from repro.enumeration import DynHS, IncidenceSet, dynamic, dynei_delete
from repro.enumeration.mmcs import mmcs_enumerate
from repro.evidence import (
    apply_delete_evidence,
    build_evidence_state,
    delete_evidence_by_recompute,
)
from repro.predicates import build_predicate_space
from repro.relational.loader import relation_from_rows
from repro.workloads import DATASETS, pick_delete_rids

SIZE_DATASETS = ("Airport", "Claim", "Dit", "Tax")
RATIOS = (0.05, 0.1, 0.2)
COLUMN_DATASET = "FD"
COLUMN_COUNTS = (5, 8, 11, 14)


def _prepare_delete(name, ratio, column_names=None):
    """Build (space, sigma, previous_evidence, removed, remaining) with the
    evidence phase done outside any timed region."""
    rows = DATASETS[name].rows(rows_for(name), seed=0)
    relation = relation_from_rows(DATASETS[name].header, rows)
    space = build_predicate_space(relation, column_names=column_names)
    state = build_evidence_state(relation, space)
    sigma = mmcs_enumerate(space, list(state.evidence))
    previous_evidence = list(state.evidence)
    doomed = pick_delete_rids(relation, ratio, seed=5)
    delta = delete_evidence_by_recompute(relation, state, doomed)
    removed = apply_delete_evidence(state, delta)
    relation.delete(doomed)
    state.indexes.remove_rows(doomed)
    remaining = list(state.evidence)
    return space, sigma, previous_evidence, removed, remaining


def _measure_pair(space, sigma, previous_evidence, removed, remaining):
    # dynei_delete updates Σ in place; built untimed.
    dynei_sigma = IncidenceSet(sigma)
    _, t_dynei = timed(
        lambda: dynei_delete(space, dynei_sigma, removed, remaining)
    )
    enumerator = DynHS(space, previous_evidence)  # crit bootstrap untimed
    _, t_dynhs = timed(
        lambda: enumerator.delete_evidence(removed, remaining)
    )
    assert sorted(dynei_sigma) == enumerator.dc_masks, "enumerators disagree"
    return t_dynei, t_dynhs


def test_fig12a_delete_size_sweep(benchmark):
    table = ResultTable(
        "Figure 12a — enumeration on deletes, growing batches (s)",
        ["dataset", "ratio", "removed evidences", "DynEI", "DynHS"],
        "fig12a_enum_deletes_size.txt",
    )
    pairs = []
    for name in SIZE_DATASETS:
        for ratio in RATIOS:
            space, sigma, previous, removed, remaining = _prepare_delete(
                name, ratio
            )
            t_dynei, t_dynhs = _measure_pair(
                space, sigma, previous, removed, remaining
            )
            pairs.append((t_dynhs, t_dynei))
            table.add(name, ratio, len(removed), t_dynei, t_dynhs)
    speedup = geometric_speedup(pairs)
    table.finish(
        shape_notes=[
            f"DynEI over DynHS geometric-mean speedup {speedup:.1f}x "
            "(paper: DynEI ahead; deletes costlier than inserts for both)",
        ]
    )
    assert speedup > 1.0

    space, sigma, previous, removed, remaining = _prepare_delete(
        SIZE_DATASETS[2], 0.1
    )
    dynei_sigma = IncidenceSet(sigma)
    benchmark.pedantic(
        lambda: dynei_delete(space, dynei_sigma, removed, remaining),
        rounds=1, iterations=1,
    )


def test_fig12b_column_sweep(benchmark):
    table = ResultTable(
        "Figure 12b — enumeration on deletes (10%), growing columns (s)",
        ["dataset", "columns", "predicates", "DynEI", "DynHS"],
        "fig12b_enum_deletes_columns.txt",
    )
    header = DATASETS[COLUMN_DATASET].header
    ratios = []
    for n_columns in COLUMN_COUNTS:
        column_names = list(header[:n_columns])
        space, sigma, previous, removed, remaining = _prepare_delete(
            COLUMN_DATASET, 0.1, column_names=column_names
        )
        t_dynei, t_dynhs = _measure_pair(
            space, sigma, previous, removed, remaining
        )
        table.add(COLUMN_DATASET, n_columns, space.n_bits, t_dynei, t_dynhs)
        ratios.append(t_dynhs / t_dynei if t_dynei > 0 else 1.0)
    table.finish(
        shape_notes=[
            f"DynHS/DynEI ratio spans {min(ratios):.1f}x – {max(ratios):.1f}x "
            "across column counts (paper: DynEI much faster for more columns)",
        ]
    )
    assert max(ratios) > 1.0

    benchmark.pedantic(
        lambda: _prepare_delete(
            COLUMN_DATASET, 0.1, column_names=list(header[:5])
        ),
        rounds=1, iterations=1,
    )


WINDOW_DATASET = "Tax"
WINDOW_ROWS = 420
WINDOW_STEPS = 16
WINDOW_K = 2


def _timed_phase(split, key, original):
    def wrapper(*args):
        started = time.perf_counter()
        try:
            return original(*args)
        finally:
            split[key] += time.perf_counter() - started

    return wrapper


def test_fig12c_window_steps(benchmark, monkeypatch):
    table = ResultTable(
        "Figure 12c — Tax sliding window, 420 rows, delete 2 + insert 2 "
        "per step (ms)",
        ["step", "update", "DynEI delete", "drop", "re-check", "re-grow",
         "dropped", "re-checks", "re-added", "re-grown"],
        "fig12c_enum_deletes_window.txt",
    )
    header = DATASETS[WINDOW_DATASET].header
    rows = DATASETS[WINDOW_DATASET].rows(
        WINDOW_ROWS + WINDOW_STEPS * WINDOW_K, seed=0
    )
    discoverer = DCDiscoverer(relation_from_rows(header, rows[:WINDOW_ROWS]))
    discoverer.fit()
    # The re-check and re-grow are module functions of the delete; the
    # rest of its enumeration time is the flag pass and the Σ delta.
    split = {"recheck": 0.0, "regrow": 0.0}
    monkeypatch.setattr(
        dynamic, "lost_critical_predicate",
        _timed_phase(split, "recheck", dynamic.lost_critical_predicate),
    )
    monkeypatch.setattr(
        dynamic, "regrow", _timed_phase(split, "regrow", dynamic.regrow)
    )
    totals = dict.fromkeys(("delete", "drop", "recheck", "regrow"), 0.0)

    def window():
        steps = []
        for step in range(WINDOW_STEPS):
            oldest = sorted(discoverer.relation.rids())[:WINDOW_K]
            fresh = rows[WINDOW_ROWS + step * WINDOW_K:][:WINDOW_K]
            split.update(recheck=0.0, regrow=0.0)
            (deleted, _), elapsed = timed(
                lambda: discoverer.update(oldest, fresh)
            )
            delete_s = deleted.timings["enumeration"]
            drop_s = delete_s - split["recheck"] - split["regrow"]
            counters = deleted.report.metrics["counters"]
            table.add(
                step + 1, elapsed * 1e3, delete_s * 1e3, drop_s * 1e3,
                split["recheck"] * 1e3, split["regrow"] * 1e3,
                counters.get("enumeration.dcs_dropped", 0),
                counters.get("enumeration.critical_rechecks", 0),
                counters.get("enumeration.dcs_readded", 0),
                counters.get("enumeration.dcs_regrown", 0),
            )
            table.add_counters(f"step {step + 1} delete", deleted)
            steps.append(elapsed)
            totals["delete"] += delete_s
            totals["drop"] += drop_s
            totals["recheck"] += split["recheck"]
            totals["regrow"] += split["regrow"]
        return steps

    steps = benchmark.pedantic(window, rounds=1, iterations=1)

    # Σ after the window must equal static re-discovery on its rows.
    fresh_relation = relation_from_rows(header, list(discoverer.relation.rows()))
    static_state = build_evidence_state(fresh_relation, discoverer.space)
    oracle = {
        mask
        for mask in mmcs_enumerate(discoverer.space, list(static_state.evidence))
        if mask
    }
    assert set(discoverer.dc_masks) == oracle, "window Σ != static Σ"

    median_ms = statistics.median(steps) * 1e3
    max_ms = max(steps) * 1e3
    table.extras["window"] = {
        "dataset": WINDOW_DATASET,
        "rows": WINDOW_ROWS,
        "steps": WINDOW_STEPS,
        "rows_per_side": WINDOW_K,
        "total_s": round(sum(steps), 6),
        "median_step_ms": round(median_ms, 3),
        "max_step_ms": round(max_ms, 3),
        "delete_split_s": {key: round(value, 6) for key, value in totals.items()},
    }
    table.finish(
        shape_notes=[
            f"{WINDOW_STEPS} steps in {sum(steps):.2f} s: median step "
            f"{median_ms:.0f} ms, max {max_ms:.0f} ms",
            f"DynEI delete {totals['delete']:.3f} s = drop "
            f"{totals['drop']:.3f} + re-check {totals['recheck']:.3f} + "
            f"re-grow {totals['regrow']:.3f} s; Σ equals static "
            "re-discovery after the window",
        ]
    )
