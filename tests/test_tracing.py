"""Cross-layer request tracing: identity, recording, propagation, doctor.

Covers the tracing acceptance pillars:

- :class:`TraceContext` identity and W3C ``traceparent`` round-trips;
- the flight recorder: span nesting, slow ring, link-following trace
  resolution, and exact per-request work apportionment;
- traced WAL frames: both magics decode, torn-tail accounting includes
  the trace id bytes (reopening a log must never drop traced records);
- tracing is an observer: work counters and state bytes are identical
  with the recorder on and off;
- the end-to-end contract: under ≥20 interleaved concurrent writes and
  reads, every response carries a trace id that resolves at
  ``GET /debug/trace`` to the cycle → WAL append → maintenance (→ worker
  shards) span tree, and per-request work counters sum exactly to each
  cycle's totals;
- the ``repro-dc doctor`` bundle: schema-checked build, tar.gz/JSON
  round-trip, graceful degradation.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.core.discoverer import DCDiscoverer
from repro.core.state_io import state_to_bytes
from repro.doctor import (
    BUNDLE_FORMAT,
    build_bundle,
    read_bundle,
    validate_bundle,
    write_bundle,
)
from repro.durability import DurableSession
from repro.durability.framing import (
    MAGIC,
    MAGIC_TRACED,
    decode_frames,
    encode_record,
)
from repro.durability.wal import WriteAheadLog
from repro.observability import tracectx
from repro.observability.flight import (
    FlightRecorder,
    build_span_tree,
    set_recorder,
    split_counters,
    trace_span,
)
from repro.observability.tracectx import TraceContext
from repro.service import DCService, ServiceClient, ServiceConfig
from repro.workloads import staff_relation


@pytest.fixture
def recorder():
    """A fresh recorder installed for the test, always uninstalled."""
    active = FlightRecorder(max_spans=256, slow_threshold_s=0.5)
    previous = set_recorder(active)
    yield active
    set_recorder(previous)


# -- trace-context identity ---------------------------------------------------


class TestTraceContext:
    def test_mint_is_unique_and_well_formed(self):
        first, second = TraceContext.mint(), TraceContext.mint()
        assert first.trace_id != second.trace_id
        assert len(first.trace_id) == 32 and len(first.span_id) == 16
        int(first.trace_id, 16)  # hex or raise

    def test_traceparent_round_trip(self):
        context = TraceContext.mint()
        parsed = TraceContext.from_traceparent(context.traceparent())
        assert parsed.trace_id == context.trace_id
        assert parsed.span_id == context.span_id

    @pytest.mark.parametrize(
        "header",
        [
            None,
            "",
            "garbage",
            "00-short-span-01",
            "00-" + "g" * 32 + "-" + "0" * 16 + "-01",
        ],
    )
    def test_malformed_traceparent_is_none(self, header):
        assert TraceContext.from_traceparent(header) is None

    def test_child_keeps_trace_changes_span(self):
        parent = TraceContext.mint()
        child = parent.child()
        assert child.trace_id == parent.trace_id
        assert child.span_id != parent.span_id

    def test_activate_nests_and_restores(self):
        assert tracectx.current() is None
        outer, inner = TraceContext.mint(), TraceContext.mint()
        with tracectx.activate(outer):
            assert tracectx.current() is outer
            with tracectx.activate(inner):
                assert tracectx.current() is inner
            assert tracectx.current() is outer
        assert tracectx.current() is None


# -- flight recorder ----------------------------------------------------------


class TestFlightRecorder:
    def test_trace_span_is_noop_without_recorder(self):
        set_recorder(None)
        with tracectx.activate(TraceContext.mint()):
            with trace_span("work") as span:
                assert span is None

    def test_trace_span_is_noop_without_context(self, recorder):
        with trace_span("work") as span:
            assert span is None
        assert recorder.spans() == []

    def test_nested_spans_parent_correctly(self, recorder):
        context = TraceContext.mint()
        with tracectx.activate(context):
            with trace_span("outer") as outer:
                with trace_span("inner"):
                    pass
        spans = recorder.spans()
        assert [span["name"] for span in spans] == ["inner", "outer"]
        inner, recorded_outer = spans
        assert inner["parent_id"] == outer["span_id"]
        assert recorded_outer["parent_id"] == context.span_id
        tree = build_span_tree(spans)
        assert [root["name"] for root in tree] == ["outer"]
        assert [child["name"] for child in tree[0]["children"]] == ["inner"]

    def test_slow_ring_keeps_spans_over_threshold(self, recorder):
        fast = {"trace_id": "t", "span_id": "a", "name": "fast",
                "start": 0.0, "duration": 0.1, "attrs": {}}
        slow = {"trace_id": "t", "span_id": "b", "name": "slow",
                "start": 0.0, "duration": 0.9, "attrs": {}}
        recorder.record_span(fast)
        recorder.record_span(slow)
        assert [span["name"] for span in recorder.slow_spans()] == ["slow"]

    def test_trace_tree_follows_links_both_ways(self, recorder):
        request = TraceContext.mint()
        cycle = TraceContext.mint()
        recorder.record_span({
            "trace_id": request.trace_id, "span_id": "r1", "name": "http",
            "start": 0.0, "duration": 0.01, "attrs": {},
        })
        recorder.record_span({
            "trace_id": cycle.trace_id, "span_id": "c1", "name": "cycle",
            "start": 0.0, "duration": 0.02, "attrs": {},
            "links": [request.trace_id],
        })
        tree = recorder.trace_tree(request.trace_id)
        assert tree["linked_trace_ids"] == [cycle.trace_id]
        assert [span["name"] for span in tree["spans"]] == ["http"]
        assert [span["name"] for span in tree["linked_spans"]] == ["cycle"]

    def test_span_ring_is_bounded(self):
        recorder = FlightRecorder(max_spans=8)
        for index in range(20):
            recorder.record_span({
                "trace_id": "t", "span_id": str(index), "name": "s",
                "start": float(index), "duration": 0.0, "attrs": {},
            })
        spans = recorder.spans()
        assert len(spans) == 8
        assert spans[-1]["span_id"] == "19"


class TestSplitCounters:
    def test_shares_sum_exactly_to_totals(self):
        totals = {"pairs": 17, "probes": 5, "zero": 0}
        shares = split_counters(totals, [3, 1, 2])
        assert len(shares) == 3
        for name, total in totals.items():
            assert sum(share[name] for share in shares) == total

    def test_zero_weights_fall_back_to_even_split(self):
        shares = split_counters({"pairs": 10}, [0, 0])
        assert sorted(share["pairs"] for share in shares) == [5, 5]

    def test_weighting_shapes_the_shares(self):
        [small, large] = split_counters({"pairs": 100}, [1, 9])
        assert large["pairs"] > small["pairs"]
        assert small["pairs"] + large["pairs"] == 100

    def test_empty_weights(self):
        assert split_counters({"pairs": 5}, []) == []


# -- traced WAL frames --------------------------------------------------------


class TestTracedFraming:
    def test_untraced_frame_uses_legacy_magic(self):
        frame = encode_record(b"payload")
        assert frame.startswith(MAGIC)
        [(payload, trace_id)], good = decode_frames(frame)
        assert payload == b"payload" and trace_id is None
        assert good == len(frame)

    def test_traced_frame_round_trips_trace_id(self):
        trace_id = TraceContext.mint().trace_id
        frame = encode_record(b"payload", trace_id=trace_id)
        assert frame.startswith(MAGIC_TRACED)
        [(payload, decoded)], good = decode_frames(frame)
        assert payload == b"payload" and decoded == trace_id
        assert good == len(frame)

    def test_mixed_frames_interleave(self):
        trace_id = TraceContext.mint().trace_id
        data = (
            encode_record(b"a")
            + encode_record(b"b", trace_id=trace_id)
            + encode_record(b"c")
        )
        frames, good = decode_frames(data)
        assert [payload for payload, _ in frames] == [b"a", b"b", b"c"]
        assert [tid for _, tid in frames] == [None, trace_id, None]
        assert good == len(data)

    def test_torn_traced_tail_truncates_to_good_prefix(self):
        trace_id = TraceContext.mint().trace_id
        keep = encode_record(b"keep", trace_id=trace_id)
        torn = encode_record(b"torn", trace_id=trace_id)[:-3]
        frames, good = decode_frames(keep + torn)
        assert [payload for payload, _ in frames] == [b"keep"]
        assert good == len(keep)

    def test_reopen_preserves_traced_records(self, tmp_path):
        """The good-prefix accounting must include the trace-id bytes —
        otherwise reopening for append truncates valid traced frames."""
        path = tmp_path / "wal.log"
        context = TraceContext.mint()
        wal = WriteAheadLog(path)
        wal.append({"seq": 1, "op": "insert"})
        with tracectx.activate(context):
            wal.append({"seq": 2, "op": "delete"})
        wal.close()
        reopened = WriteAheadLog(path)
        reopened.append({"seq": 3, "op": "insert"})
        reopened.close()
        records = WriteAheadLog.read_traced_records(path)
        assert [record["seq"] for record, _ in records] == [1, 2, 3]
        assert [tid for _, tid in records] == [
            None, context.trace_id, None,
        ]


# -- tracing is an observer ---------------------------------------------------


class TestTracingByteIdentity:
    def test_counters_and_state_identical_traced_vs_untraced(self):
        rows = [(10 + i, "Ana" if i % 2 else "Bo", 2000 + i, i % 4, 1)
                for i in range(6)]

        def run(traced: bool):
            discoverer = DCDiscoverer(staff_relation())
            discoverer.fit()
            previous = set_recorder(FlightRecorder() if traced else None)
            try:
                context = TraceContext.mint() if traced else None
                with tracectx.activate(context):
                    insert = discoverer.insert(rows)
                    delete = discoverer.delete([insert.rids[0], 1])
            finally:
                set_recorder(previous)
            counters = [
                insert.report.metrics["counters"],
                delete.report.metrics["counters"],
            ]
            return json.dumps(counters, sort_keys=True), state_to_bytes(
                discoverer
            )

        traced_counters, traced_state = run(traced=True)
        untraced_counters, untraced_state = run(traced=False)
        assert traced_counters == untraced_counters
        assert traced_state == untraced_state


# -- end-to-end: concurrent traffic resolves through /debug/trace -------------


def _service_over(tmp_path, workers: int) -> DCService:
    discoverer = DCDiscoverer(staff_relation(), workers=workers)
    session = DurableSession.create(discoverer, tmp_path / "session")
    service = DCService(
        session, ServiceConfig(port=0, batch_window_ms=5.0)
    )
    service.start()
    return service


class TestEndToEndTracing:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_concurrent_traffic_traces_resolve(self, tmp_path, workers):
        service = _service_over(tmp_path, workers)
        try:
            self._drive_and_assert(service, workers)
        finally:
            service.shutdown()

    def _drive_and_assert(self, service: DCService, workers: int) -> None:
        probe = ServiceClient(base_url=service.url, timeout=60.0)
        probe.wait_ready()
        write_outcomes: list = []
        read_trace_ids: list = []
        collect = threading.Lock()
        n_writers = 4

        def writer(worker_id: int):
            client = ServiceClient(base_url=service.url, timeout=60.0)
            base = 100 + worker_id * 20
            for step in range(3):
                rows = [
                    [base + 2 * step, f"W{worker_id}", 2000 + step, 1, 1],
                    [base + 2 * step + 1, f"W{worker_id}", 2001 + step, 2, 1],
                ]
                inserted = client.insert(rows)
                assert client.last_trace_id == inserted["trace_id"]
                with collect:
                    write_outcomes.append(inserted)
                deleted = client.delete([inserted["rids"][0]])
                with collect:
                    write_outcomes.append(deleted)

        def reader():
            client = ServiceClient(base_url=service.url, timeout=60.0)
            for _ in range(6):
                status = client.status()
                dcs = client.dcs()
                with collect:
                    read_trace_ids.extend(
                        [status["trace_id"], dcs["trace_id"]]
                    )

        threads = [
            threading.Thread(target=writer, args=(i,))
            for i in range(n_writers)
        ] + [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        # ≥20 interleaved writes, plus concurrent reads, all traced.
        assert len(write_outcomes) == n_writers * 6 >= 20
        assert len(read_trace_ids) == 24
        assert all(len(tid) == 32 for tid in read_trace_ids)

        shard_seen = False
        for outcome in write_outcomes:
            assert outcome["status"] == "committed"
            tree = probe.debug_trace(trace_id=outcome["trace_id"])
            # The request's own HTTP span was recorded under its trace.
            direct = [span["name"] for span in tree["spans"]]
            assert any(name.startswith("http.POST") for name in direct)
            # The link resolves to the batch cycle that served it …
            assert outcome["cycle_trace_id"] in tree["linked_trace_ids"]
            [cycle_root] = [
                root for root in tree["linked_spans"]
                if root["name"] == "service.cycle"
                and root["trace_id"] == outcome["cycle_trace_id"]
            ]
            # … whose children span the WAL append and the maintenance
            # call's mirrored span tree.
            child_names = {child["name"] for child in cycle_root["children"]}
            assert "durability.wal_append" in child_names
            assert child_names & {"insert", "delete"}
            linked_names = _flatten_names(tree["linked_spans"])
            if any(name.startswith("evidence.shard[") for name in linked_names):
                shard_seen = True
        if workers > 1:
            assert shard_seen, (
                "workers=2 cycles must record per-shard spans"
            )
            # Shard spans carry the times their stripes measured, so each
            # lies inside the span it was recorded under.
            spans = {span["span_id"]: span for span in service.flight.spans()}
            shards = [
                span for span in spans.values()
                if span["name"].startswith("evidence.shard[")
            ]
            assert shards
            slack = 1e-3  # epoch vs monotonic clock reads
            for shard in shards:
                parent = spans[shard["parent_id"]]
                assert shard["start"] >= parent["start"] - slack
                assert (
                    shard["start"] + shard["duration"]
                    <= parent["start"] + parent["duration"] + slack
                )

        # Per-request work counters sum exactly to each cycle's totals.
        cycles: dict = {}
        for outcome in write_outcomes:
            cycles.setdefault(outcome["cycle_trace_id"], []).append(
                outcome["work"]
            )
        cycle_spans = {
            span["trace_id"]: span
            for span in service.flight.spans()
            if span["name"] == "service.cycle"
        }
        for cycle_trace_id, works in cycles.items():
            totals = cycle_spans[cycle_trace_id]["attrs"]["work"]
            for name, total in totals.items():
                assert sum(work[name] for work in works) == total

    def test_slow_query_and_plain_listing(self, tmp_path):
        service = _service_over(tmp_path, workers=1)
        try:
            client = ServiceClient(base_url=service.url, timeout=30.0)
            client.wait_ready()
            client.insert([[50, "Zed", 2020, 3, 1]])
            listing = client.debug_trace(limit=10)
            assert "spans" in listing and "events" in listing
            slow = client.debug_trace(slow=True)
            assert "slow" in slow and "slow_threshold_s" in slow
        finally:
            service.shutdown()

    def test_client_traceparent_is_adopted(self, tmp_path):
        service = _service_over(tmp_path, workers=1)
        try:
            client = ServiceClient(base_url=service.url, timeout=30.0)
            client.wait_ready()
            status = client.status()
            # The server adopts the client's minted context, so the
            # response id equals the one the client generated.
            assert status["trace_id"] == client.last_trace_id
        finally:
            service.shutdown()


def _flatten_names(roots) -> set:
    names = set()
    stack = list(roots)
    while stack:
        span = stack.pop()
        names.add(span["name"])
        stack.extend(span.get("children", ()))
    return names


# -- doctor bundle ------------------------------------------------------------


class TestDoctorBundle:
    def _session_dir(self, tmp_path):
        discoverer = DCDiscoverer(staff_relation())
        session = DurableSession.create(discoverer, tmp_path / "session")
        session.insert([(5, "Ema", 2002, 3, 1)])
        session.close()
        return tmp_path / "session"

    def test_bundle_round_trips_through_schema_check(self, tmp_path):
        session_dir = self._session_dir(tmp_path)
        results_dir = tmp_path / "results"
        results_dir.mkdir()
        (results_dir / "fig5.json").write_text('{"counters": {"x": 1}}')
        bundle = build_bundle(
            session_dir=str(session_dir), results_dir=str(results_dir)
        )
        assert bundle["format"] == BUNDLE_FORMAT
        assert bundle["session"]["wal"]["records"] == 1
        assert bundle["results"]["files"]["fig5.json"]["counters"] == {"x": 1}

        for out_name in ("bundle.tar.gz", "bundle.json"):
            out_path = str(tmp_path / out_name)
            assert write_bundle(bundle, out_path) == out_path
            loaded = read_bundle(out_path)
            assert loaded == json.loads(json.dumps(bundle))

    def test_bundle_session_inspection_is_read_only(self, tmp_path):
        session_dir = self._session_dir(tmp_path)
        wal_path = session_dir / "wal.log"
        before = wal_path.read_bytes()
        build_bundle(session_dir=str(session_dir))
        assert wal_path.read_bytes() == before

    def test_collectors_degrade_gracefully(self, tmp_path):
        bundle = build_bundle(
            session_dir=str(tmp_path / "missing"),
            url="http://127.0.0.1:1",  # nothing listens here
            results_dir=str(tmp_path / "absent"),
            metrics_path=str(tmp_path / "no-metrics.json"),
        )
        assert bundle["session"]["error"] == "no such directory"
        assert "error" in bundle["service"]["status"]
        assert bundle["results"]["error"] == "no such directory"
        assert "error" in bundle["metrics_snapshot"]

    def test_validate_rejects_missing_and_mistyped_sections(self):
        with pytest.raises(ValueError, match="missing required section"):
            validate_bundle({"format": BUNDLE_FORMAT})
        good = build_bundle()
        bad = dict(good)
        bad["results"] = "not a dict"
        with pytest.raises(ValueError, match="must be dict"):
            validate_bundle(bad)
        renamed = dict(good)
        renamed["format"] = "other"
        with pytest.raises(ValueError, match="unknown bundle format"):
            validate_bundle(renamed)

    def test_doctor_cli_writes_bundle(self, tmp_path, capsys):
        from repro.cli import main

        session_dir = self._session_dir(tmp_path)
        out_path = tmp_path / "doctor-bundle.tar.gz"
        assert main([
            "doctor", "--dir", str(session_dir), "--out", str(out_path)
        ]) == 0
        bundle = read_bundle(str(out_path))
        assert bundle["session"]["wal"]["records"] == 1
        assert str(out_path) in capsys.readouterr().out
