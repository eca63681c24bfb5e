"""The in-library workload: ``sliding_window``.

It drives a fitted :class:`~repro.core.discoverer.DCDiscoverer` in a
closed loop: one maintenance call (``update`` = delete the oldest rows +
insert as many new ones), then a read of the current Σ (``dc_masks``),
then the next call.  One pass makes the workload's fixed calls on a fresh
copy of the fitted discoverer; passes repeat until the measured seconds
are used up, so every run times the same calls however fast the machine
is.  Each call is reported at the fastest of its repetitions: the calls
are deterministic, single-threaded Python, so a slower repetition
measured interference from the rest of the host, not the program.
"""

from __future__ import annotations

import os
import pickle
from collections import deque
from time import perf_counter

from loadgen import SIZES
from measure import SETUP_MIN_S, SETUP_REPEATS, Report, median, peak_rss_mb, tail_percentile
from oracle import check_discoverer

#: Program counters summed over the measured calls (per-call deltas read
#: from each ``UpdateResult.report``).
_COUNTERS = (
    "index.checkpoint_rebuilds",
    "evidence.pairs_compared",
    "evidence.index_probes",
    "evidence.index_owned_pairs",
    "enumeration.dcs_refined",
    "enumeration.candidates_inserted",
    "enumeration.dcs_dropped",
    "enumeration.dcs_readded",
    "verification.index_probes",
    "verification.sweep_steps",
)


def fit_discoverers(inputs, count, min_seconds=0.0):
    """At least ``count`` freshly fitted discoverers, more until the fits
    took ``min_seconds``, and each fit's phase timings."""
    from repro.core.discoverer import DCDiscoverer
    from repro.relational.loader import relation_from_rows

    discoverers, fits = [], []
    while len(fits) < count or sum(elapsed for elapsed, _ in fits) < min_seconds:
        started = perf_counter()
        discoverer = DCDiscoverer(relation_from_rows(list(inputs.header), inputs.static))
        result = discoverer.fit()
        fits.append((perf_counter() - started, result.timings))
        discoverers.append(discoverer)
    return discoverers, fits


class Loop:
    """Closed-loop passes of a workload, each over a fresh copy of one
    fitted discoverer."""

    def __init__(self, workload, inputs, fitted):
        self.workload = workload
        self.inputs = inputs
        self._fitted = pickle.dumps(fitted, pickle.HIGHEST_PROTOCOL)
        self.discoverer = None
        #: Per pass, the seconds of each maintenance call and of each Σ read.
        self.update_s = []
        self.read_s = []
        #: Rows each call of a pass maintained (inserted + deleted).
        self.maintained = []
        self.calls = 0
        self.passes = 0
        self.failed = 0
        self.elapsed = 0.0
        self.counters = dict.fromkeys(_COUNTERS, 0)
        self.insert_counters = {"added": 0, "candidates": 0}

    def _calls(self, order):
        """One pass's maintenance calls, as ``(rids to delete, rows)``."""
        k = SIZES[self.workload]["window_k"]
        static = list(self.discoverer.relation.rids())
        oldest = deque(static[position] for position in order.delete_order)
        for position in range(0, len(order.stream) - k + 1, k):
            yield [oldest.popleft() for _ in range(k)], order.stream[position : position + k]

    def _step(self, oldest, rows):
        discoverer = self.discoverer
        started = perf_counter()
        results = discoverer.update(oldest, rows)
        elapsed = perf_counter() - started
        maintained = len(rows) + len(oldest)
        for result in results:
            counters = result.report.metrics["counters"]
            for name in _COUNTERS:
                self.counters[name] += counters.get(name, 0)
            if result.kind == "insert":
                self.insert_counters["added"] += counters.get("discoverer.dcs_added", 0)
                self.insert_counters["candidates"] += counters.get(
                    "enumeration.candidates_inserted", 0
                )
        self.update_s[-1].append(elapsed)
        if self.passes < len(self.inputs.orders):
            self.maintained.append(maintained)
        started = perf_counter()
        discoverer.dc_masks
        self.read_s[-1].append(perf_counter() - started)

    def _pass(self) -> bool:
        """One pass on a fresh copy; False when a call failed."""
        orders = self.inputs.orders
        self.discoverer = pickle.loads(self._fitted)
        self.update_s.append([])
        self.read_s.append([])
        started = perf_counter()
        try:
            for oldest, rows in self._calls(orders[self.passes % len(orders)]):
                self.calls += 1
                self._step(oldest, rows)
        except Exception as exc:  # a failed call ends the run
            self.failed += 1
            print(f"maintenance call failed: {exc!r}")
            return False
        finally:
            self.elapsed += perf_counter() - started
        self.passes += 1
        return True

    def run(self, seconds=None, passes=None):
        """Whole passes until ``seconds`` of calls and every order as
        often as the others, or exactly ``passes``."""
        while self._pass():
            if passes is not None and self.passes >= passes:
                break
            if (passes is None and self.elapsed >= seconds
                    and self.passes % len(self.inputs.orders) == 0):
                break
        return self


def run(workload, inputs, seconds, trace, import_s, spans_path):
    """Run the window workload; returns ``(report, loop, problem)``."""
    report = Report()
    discoverers, fits = fit_discoverers(inputs, SETUP_REPEATS, SETUP_MIN_S)
    fit_s = [elapsed for elapsed, _ in fits]
    report.add("setup_s", import_s + median(fit_s), "s",
               f"imports {import_s:.3f}s + median of {len(fit_s)} fits")
    for phase in ("space", "evidence", "enumeration"):
        report.add(f"fit.{phase}_s",
                   median([timings[phase] for _, timings in fits]), "s")
    fitted = discoverers[-1]
    del discoverers

    if not trace:
        loop = Loop(workload, inputs, fitted).run(seconds=seconds)
    else:
        # The untraced twin runs first; the traced passes repeat exactly
        # the same calls on copies of the same fitted discoverer.
        from tracing import Tracer

        twin = Loop(workload, inputs, fitted).run(seconds=seconds / 2)
        tracer = Tracer().install()
        loop = Loop(workload, inputs, fitted).run(passes=twin.passes)
        tracer.uninstall()
        report.add("trace.overhead_ratio", loop.elapsed / twin.elapsed, "ratio")
        layer_metrics(report, tracer, loop)
        os.makedirs(os.path.dirname(spans_path), exist_ok=True)
        tracer.write(spans_path)
    report.add("peak_rss_mb", peak_rss_mb(), "MiB")
    end_to_end(report, loop)
    problem = check_discoverer(loop.discoverer)
    return report, loop, problem


def fastest(per_pass, orders):
    """Each call's fastest time over the complete passes of its order,
    order by order."""
    return [min(times) for order in range(orders) for times in zip(*per_pass[order::orders])]


def end_to_end(report, loop):
    orders = len(loop.inputs.orders)
    if loop.passes < orders:
        raise RuntimeError("no complete round of passes")
    update_s = fastest(loop.update_s[: loop.passes], orders)
    read_s = fastest(loop.read_s[: loop.passes], orders)
    # A row's write latency is the latency of the call that maintained it.
    write_s = [s for s, rows in zip(update_s, loop.maintained) for _ in range(rows)]
    # One tail percentile for all three: the rows of one call share its
    # latency, so they are not independent samples of the write tail.
    pct = tail_percentile(len(update_s), highest=95.0)
    report.add("success_rate", 1.0 - loop.failed / max(1, loop.calls), "ratio")
    report.add("rows_per_s", sum(loop.maintained) / (sum(update_s) + sum(read_s)), "rows/s",
               f"{len(update_s)} calls, each the fastest of {loop.passes // orders} repetitions")
    for metric, samples in (("update", update_s), ("write", write_s), ("read", read_s)):
        samples_ms = [s * 1000 for s in samples]
        report.add(f"{metric}_p50_ms", median(samples_ms), "ms")
        report.add_tail(f"{metric}_tail_ms", samples_ms, "ms", pct)


def layer_metrics(report, tracer, loop):
    """Per-call layer times and counters of the traced passes."""
    totals = tracer.totals()
    calls = max(1, loop.calls)

    def per_call_ms(name):
        return totals.get(name, {}).get("total_s", 0.0) * 1000 / calls

    for metric, span in (
        ("relational.ms", "relational"),
        ("evidence.indexes.update_ms", "evidence.indexes.update"),
        ("evidence.incremental.ms", "evidence.incremental"),
        ("evidence.deletes.ms", "evidence.deletes"),
        ("evidence.kernels.ms", "evidence.kernels"),
        ("enumeration.insert_ms", "enumeration.insert"),
        ("enumeration.delete_ms", "enumeration.delete"),
        ("verification.ms", "verification"),
        ("core.insert_ms", "core.insert"),
    ):
        report.add(metric, per_call_ms(span), "ms")
    report.add("verification.calls", totals.get("verification", {}).get("calls", 0) / calls, "count")
    for name in _COUNTERS:
        if name not in ("enumeration.dcs_dropped", "enumeration.dcs_readded"):
            report.add(name, loop.counters[name] / calls, "count")
    report.add("enumeration.insert_yield",
               _ratio(loop.insert_counters["added"], loop.insert_counters["candidates"]), "ratio")
    report.add("enumeration.readd_ratio",
               _ratio(loop.counters["enumeration.dcs_readded"],
                      loop.counters["enumeration.dcs_dropped"]), "ratio")


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0
