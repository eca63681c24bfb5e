"""Figure 10 — evidence-set maintenance on deletes: index vs recompute.

Paper: growing delete batches; the per-tuple evidence-index strategy
slightly outperforms full recomputation, at the cost of a slight static
build-time overhead (e.g. NCVoter static 11.9 s → 12.9 s, dynamic
4.7 s → 3.4 s).  Reproduction: evidence-phase time only, both strategies,
growing batches, each strategy deleting from a state fitted under it
(only an index-strategy fit keeps the index); the build-overhead note is
reproduced alongside.  Every point runs under each evidence kernel: the
pure-Python kernel reconciles pair by pair like the paper's
implementation, and the NumPy kernel (the default wherever NumPy is
installed) vectorizes the reconciliation that the index saves.
Expected shape: under the Python kernel, index ≤ recompute on most
points and a small positive static overhead for maintaining the index.
Under the NumPy kernel the saved reconciliation costs less than the
index's own per-owner work, so recompute wins; that is why
``"recompute"`` is the default delete strategy.
"""

from _harness import (
    ResultTable,
    SWEEP_DATASETS,
    clone_discoverer,
    fitted_state_payload,
    rows_for,
    timed,
)

from repro.core.discoverer import DCDiscoverer
from repro.evidence.kernels import numpy_available
from repro.relational.loader import relation_from_rows
from repro.workloads import DATASETS, pick_delete_rids

DELETE_RATIOS = (0.05, 0.1, 0.2, 0.3)
STRATEGIES = ("recompute", "index")
KERNELS = ("python", "numpy") if numpy_available() else ("python",)


def _delete_time(payload, ratio, backend, seed=3):
    discoverer = clone_discoverer(payload)
    discoverer.backend = backend
    doomed = pick_delete_rids(discoverer.relation, ratio, seed=seed)
    result = discoverer.delete(doomed)
    return result.timings["evidence"], len(doomed)


def test_fig10_delete_strategies(benchmark):
    table = ResultTable(
        "Figure 10 — delete evidence maintenance: index vs recompute (s)",
        ["dataset", "|Δr|", "kernel", "recompute", "index", "speedup"],
        "fig10_delete_strategies.txt",
    )
    speedups = {kernel: [] for kernel in KERNELS}
    for name in SWEEP_DATASETS:
        static_rows = DATASETS[name].rows(rows_for(name), seed=0)
        payloads = {
            strategy: fitted_state_payload(
                name, static_rows, delete_strategy=strategy
            )
            for strategy in STRATEGIES
        }
        for ratio in DELETE_RATIOS:
            for kernel in KERNELS:
                recompute_time, batch = _delete_time(
                    payloads["recompute"], ratio, kernel
                )
                index_time, _ = _delete_time(payloads["index"], ratio, kernel)
                speedup = recompute_time / index_time if index_time else 1.0
                speedups[kernel].append(speedup)
                table.add(
                    name, batch, kernel, recompute_time, index_time, speedup
                )

    # Static build overhead of maintaining the index (paper: slight).
    overhead_rows = DATASETS["NCVoter"].rows(rows_for("NCVoter"), seed=0)

    def fit_with(strategy, kernel):
        relation = relation_from_rows(DATASETS["NCVoter"].header, overhead_rows)
        discoverer = DCDiscoverer(
            relation, delete_strategy=strategy, backend=kernel
        )
        return discoverer.fit().timings["evidence"]

    shape_notes = []
    mean_speedup = {}
    for kernel in KERNELS:
        points = speedups[kernel]
        mean_speedup[kernel] = sum(points) / len(points)
        wins = sum(s >= 1.0 for s in points)
        without_index, _ = timed(lambda: fit_with("recompute", kernel))
        with_index, _ = timed(lambda: fit_with("index", kernel))
        shape_notes += [
            f"{kernel} kernel: index strategy faster on {wins}/{len(points)} "
            f"points, mean speedup {mean_speedup[kernel]:.2f}x "
            "(paper: slight win)",
            f"{kernel} kernel: NCVoter static evidence build "
            f"{without_index:.2f}s without index vs {with_index:.2f}s "
            "maintaining it (paper: slight increase)",
        ]
    table.finish(shape_notes=shape_notes)
    # The paper's claim is about pair-by-pair reconciliation, which the
    # Python kernel reproduces on every platform; the NumPy rows are
    # reported, not asserted (see the module docstring).
    assert mean_speedup["python"] > 0.95, (
        "index strategy should not lose on average"
    )

    static_rows = DATASETS["Dit"].rows(rows_for("Dit"), seed=0)
    payload = fitted_state_payload("Dit", static_rows, delete_strategy="index")
    benchmark.pedantic(
        lambda: _delete_time(payload, 0.1, KERNELS[-1]),
        rounds=1, iterations=1,
    )
