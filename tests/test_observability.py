"""Tests for the observability subsystem: spans, metrics, probe,
exporters, run reports, and the logging hierarchy."""

import json
import logging
import time

import pytest

from repro.core.discoverer import DCDiscoverer
from repro.observability import (
    Instrumentation,
    MetricsRegistry,
    annotate,
    configure_logging,
    current_span,
    get_logger,
    get_probe,
    install,
    parse_prometheus,
    snapshot_to_json,
    snapshot_to_prometheus,
    span,
)
from repro.bitmaps.roaring import RoaringBitmap
from repro.relational.loader import relation_from_rows


@pytest.fixture
def fitted():
    rows = [
        (1, "Ana", 2000, 5),
        (2, "Sam", 2001, 4),
        (3, "Ana", 2001, 2),
        (4, "Kai", 2002, 2),
        (5, "Ema", 2002, 3),
        (6, "Lou", 2003, 1),
    ]
    relation = relation_from_rows(["Id", "Name", "Hired", "Level"], rows)
    discoverer = DCDiscoverer(relation)
    discoverer.fit()
    return discoverer


# -- spans ---------------------------------------------------------------------


class TestSpanTracer:
    """The thread-local span API (:func:`repro.observability.span`)."""

    def test_spans_nest(self):
        with span("outer") as outer:
            with span("inner_a"):
                pass
            with span("inner_b"):
                with span("leaf"):
                    pass
        assert current_span() is None
        assert [child.name for child in outer.children] == ["inner_a", "inner_b"]
        assert outer.child("inner_b").children[0].name == "leaf"
        assert outer.child("missing") is None

    def test_children_sum_at_most_parent(self):
        with span("parent") as parent:
            for _ in range(3):
                with span("child"):
                    time.sleep(0.001)
        child_total = sum(child.duration for child in parent.children)
        assert child_total <= parent.duration
        assert parent.self_time >= 0
        assert parent.duration > 0

    def test_current_and_annotate(self):
        assert current_span() is None
        with span("a") as span_a:
            assert current_span() is span_a
            annotate("rows", 7)
        assert current_span() is None
        annotate("ignored", 1)  # no open span: no-op
        assert span_a.attrs == {"rows": 7}

    def test_to_dict_and_format(self):
        with span("op") as op:
            with span("step"):
                pass
        payload = op.to_dict()
        assert payload["name"] == "op"
        assert payload["children"][0]["name"] == "step"
        text = op.format_tree()
        assert "op" in text and "step" in text and "ms" in text

    def test_exception_still_closes_span(self):
        with pytest.raises(RuntimeError):
            with span("boom") as boom:
                raise RuntimeError("x")
        assert current_span() is None
        assert boom.duration > 0


# -- metrics registry ----------------------------------------------------------


class TestMetrics:
    def test_counters_and_gauges(self):
        registry = MetricsRegistry()
        registry.inc("a.b")
        registry.inc("a.b", 4)
        registry.set_gauge("g", 1.5)
        registry.set_gauge("g", 2.5)
        assert registry.counter("a.b") == 5
        assert registry.counter("missing") == 0
        assert registry.gauge("g") == 2.5

    def test_histogram(self):
        registry = MetricsRegistry()
        for value in (1, 3, 100, 5000):
            registry.observe("h", value)
        payload = registry.snapshot()["histograms"]["h"]
        assert payload["count"] == 4
        assert payload["min"] == 1 and payload["max"] == 5000
        assert payload["sum"] == 5104
        assert sum(payload["buckets"].values()) == 4

    def test_counter_delta(self):
        registry = MetricsRegistry()
        registry.inc("x", 2)
        before = registry.snapshot()["counters"]
        registry.inc("x", 3)
        registry.inc("y", 1)
        delta = registry.counter_delta(before)
        assert delta == {"x": 3, "y": 1}

    def test_snapshot_keys_sorted(self):
        registry = MetricsRegistry()
        registry.inc("z.last")
        registry.inc("a.first")
        counters = registry.snapshot()["counters"]
        assert list(counters) == sorted(counters)


# -- probe ---------------------------------------------------------------------


class TestProbe:
    def test_install_and_restore(self):
        assert get_probe() is None
        instrumentation = Instrumentation()
        with install(instrumentation):
            assert get_probe() is instrumentation
            inner = Instrumentation()
            with install(inner):
                assert get_probe() is inner
            assert get_probe() is instrumentation
        assert get_probe() is None

    def test_interleaved_thread_installs_do_not_leak(self):
        """The probe slot is thread-local: two threads whose install
        windows interleave (A installs, B installs, A exits, B exits —
        a co-located fleet's writer and apply threads) must each see
        only their own probe, and neither may leak past its exit."""
        import threading

        steps = [threading.Event() for _ in range(4)]
        seen = {}

        def worker(name, start, handoff, resume, done):
            start.wait(5)
            instrumentation = Instrumentation()
            with install(instrumentation):
                seen[name] = get_probe() is instrumentation
                handoff.set()
                resume.wait(5)
            seen[name + ".after"] = get_probe()
            done.set()

        a = threading.Thread(
            target=worker, args=("a", steps[0], steps[1], steps[2], steps[3])
        )
        a.start()
        steps[0].set()
        steps[1].wait(5)  # A is installed...
        b_inst = Instrumentation()
        with install(b_inst):  # ...now B (this thread) installs...
            steps[2].set()  # ...and A exits while B is active
            steps[3].wait(5)
            assert get_probe() is b_inst
        a.join(5)
        assert seen == {"a": True, "a.after": None}
        assert get_probe() is None

    def test_probe_span_without_probe_is_noop(self):
        """Outside any probe and trace context a span is bare timing: no
        ids, nothing recorded, nothing left open."""
        with span("nothing") as opened:
            assert get_probe() is None
        assert opened.trace_id is None and opened.span_id is None
        assert current_span() is None

    def test_probe_span_with_probe_records(self):
        """A span a deep module opens under the caller's installed probe
        lands in the caller's span tree."""
        instrumentation = Instrumentation()
        with span("operation") as root:
            with install(instrumentation):
                with span("recorded"):
                    pass
        assert root.children[0].name == "recorded"


# -- exporters -----------------------------------------------------------------


class TestExporters:
    def _snapshot(self):
        registry = MetricsRegistry()
        registry.inc("evidence.pairs_compared", 42)
        registry.inc("bitmap.and_ops", 7)
        registry.set_gauge("discoverer.rows", 100)
        registry.observe("delta.size", 5)
        registry.observe("delta.size", 9)
        return registry.snapshot()

    def test_json_round_trip(self):
        snapshot = self._snapshot()
        text = snapshot_to_json(snapshot)
        parsed = json.loads(text)
        assert parsed == json.loads(snapshot_to_json(snapshot))
        assert parsed["counters"]["evidence.pairs_compared"] == 42
        assert parsed["gauges"]["discoverer.rows"] == 100

    def test_prometheus_parses(self):
        text = snapshot_to_prometheus(self._snapshot())
        samples = parse_prometheus(text)
        assert samples["repro_evidence_pairs_compared_total"] == 42
        assert samples["repro_bitmap_and_ops_total"] == 7
        assert samples["repro_discoverer_rows"] == 100
        assert samples["repro_delta_size_count"] == 2
        assert samples["repro_delta_size_sum"] == 14
        assert samples['repro_delta_size_bucket{le="+Inf"}'] == 2

    def test_prometheus_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_prometheus("not a metric line at all !!!")

    def test_empty_snapshot(self):
        assert snapshot_to_prometheus({}) == ""


# -- pipeline integration ------------------------------------------------------


class TestPipelineInstrumentation:
    def test_fit_report_has_nested_spans(self):
        relation = relation_from_rows(["A", "B"], [(1, "x"), (2, "y"), (3, "x")])
        discoverer = DCDiscoverer(relation)
        report = discoverer.fit().report
        assert report.operation == "fit"
        top = [child.name for child in report.root.children]
        assert top == ["space", "evidence", "enumeration"]
        evidence = report.root.child("evidence")
        assert [child.name for child in evidence.children] == ["indexes", "scan"]

    def test_update_report_exposes_required_metrics(self, fitted):
        result = fitted.insert([(7, "Ana", 2004, 6), (8, "Pat", 2004, 2)])
        report = result.report
        assert report.metric("evidence.pairs_compared") > 0
        assert report.metric("evidence.pairs_inferred") > 0
        assert report.metric("enumeration.einc_size") == result.n_evidence_changed
        assert report.metric("discoverer.dcs_added") == result.n_new_dcs
        assert report.metric("discoverer.dcs_removed") == result.n_removed_dcs
        assert set(result.timings) == {"evidence", "enumeration"}
        assert result.timings == report.phase_timings()

    def test_delete_report_with_index_strategy(self, fitted):
        result = fitted.delete([2, 4])
        report = result.report
        assert report.operation == "delete"
        assert report.metric("evidence.index_owned_pairs") > 0
        assert report.metric("enumeration.einc_size") == result.n_evidence_changed

    def test_counters_monotone_across_updates(self, fitted):
        registry = fitted.instrumentation.metrics
        sequence = [
            lambda: fitted.insert([(10, "Zed", 2005, 9)]),
            lambda: fitted.delete([1]),
            lambda: fitted.insert([(11, "Amy", 2006, 1), (12, "Bob", 2006, 2)]),
            lambda: fitted.delete([3, 5]),
        ]
        previous = dict(registry.counters)
        for step in sequence:
            step()
            current = registry.counters
            for name, value in previous.items():
                assert current.get(name, 0) >= value, name
            previous = dict(current)
        assert registry.counter("discoverer.inserts") == 2
        assert registry.counter("discoverer.deletes") == 2

    def test_empty_batches_notify_consistently(self, fitted):
        notified = []

        class Recorder:
            def apply_insert_delta(self, delta, n_rows):
                notified.append(("insert", len(delta)))

            def apply_delete_delta(self, delta, n_rows):
                notified.append(("delete", len(delta)))

            def on_insert(self, rids):
                notified.append(("watch_insert", len(list(rids))))

            def on_delete(self, rids):
                notified.append(("watch_delete", len(list(rids))))

        recorder = Recorder()
        fitted._monitors.append(recorder)
        fitted._watchers.append(recorder)
        insert_result = fitted.insert([])
        delete_result = fitted.delete([])
        assert insert_result.delta_size == 0 and delete_result.delta_size == 0
        assert notified == [
            ("insert", 0), ("watch_insert", 0),
            ("delete", 0), ("watch_delete", 0),
        ]

    def test_update_returns_both_results(self, fitted):
        delete_result, insert_result = fitted.update(
            [2], [(9, "Noa", 2004, 4)]
        )
        assert delete_result.kind == "delete"
        assert insert_result.kind == "insert"

    def test_enabled_overhead_is_small(self):
        from repro.evidence.builder import build_evidence_state
        from repro.predicates.space import build_predicate_space

        rows = [(i, f"n{i % 7}", 2000 + i % 9, i % 5) for i in range(60)]
        relation = relation_from_rows(["Id", "Name", "Hired", "Level"], rows)
        space = build_predicate_space(relation)

        def run(enabled):
            started = time.perf_counter()
            if enabled:
                with install(Instrumentation()):
                    build_evidence_state(relation, space)
            else:
                build_evidence_state(relation, space)
            return time.perf_counter() - started

        enabled_time = min(run(True) for _ in range(3))
        disabled_time = min(run(False) for _ in range(3))
        # The acceptance bar is 5 %; assert a loose 50 % here so CI noise
        # cannot flake the suite while still catching real regressions
        # (per-pair accounting sneaking into a hot loop shows up as 2-10x).
        assert enabled_time <= disabled_time * 1.5 + 0.05

    def test_report_exports(self, fitted):
        report = fitted.insert([(20, "Quo", 2010, 5)]).report
        parsed = json.loads(report.to_json())
        assert parsed["operation"] == "insert"
        assert "spans" in parsed and "metrics" in parsed
        samples = parse_prometheus(report.to_prometheus())
        assert any(name.startswith("repro_") for name in samples)


# -- bitmap instrumentation ----------------------------------------------------


class TestBitmapInstrumentation:
    def test_container_stats(self):
        bitmap = RoaringBitmap.from_iterable(range(100))
        dense = RoaringBitmap.from_iterable(range(5000))
        stats = bitmap.container_stats()
        assert stats == {"array": 1, "bitmap": 0, "run": 0}
        assert dense.container_stats()["bitmap"] == 1
        dense.run_optimize()
        assert dense.container_stats()["run"] == 1

    def test_op_counting_through_probe(self):
        left = RoaringBitmap.from_iterable(range(10))
        right = RoaringBitmap.from_iterable(range(5, 15))
        instrumentation = Instrumentation()
        with install(instrumentation):
            _ = left & right
            _ = left | right
            _ = left - right
            _ = left ^ right
        counters = instrumentation.metrics.counters
        assert counters["bitmap.and_ops"] == 1
        assert counters["bitmap.or_ops"] == 1
        assert counters["bitmap.andnot_ops"] == 1
        assert counters["bitmap.xor_ops"] == 1
        # Outside the probe: no accounting.
        _ = left & right
        assert counters["bitmap.and_ops"] == 1


# -- logging -------------------------------------------------------------------


class TestLogging:
    def test_logger_hierarchy(self):
        logger = get_logger("repro.evidence.builder")
        assert logger.name == "repro.evidence.builder"
        nested = get_logger("mytool")
        assert nested.name == "repro.mytool"

    def test_configure_is_idempotent(self):
        root = configure_logging("info")
        handlers = list(root.handlers)
        again = configure_logging("debug")
        assert again is root
        assert again.handlers == handlers
        assert again.level == logging.DEBUG
        assert again.propagate is False

    def test_configure_rejects_unknown_level(self):
        with pytest.raises(ValueError):
            configure_logging("loud")
