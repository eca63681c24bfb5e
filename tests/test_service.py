"""Tests for the concurrent DC serving layer (repro.service).

Covers the four acceptance pillars:

- coalescing semantics (unit tests on the pure merge logic);
- snapshot isolation (a held snapshot never sees later writes);
- the HTTP protocol (endpoints, error codes, the /check oracle);
- concurrency correctness: with many client threads issuing interleaved
  insert/delete/check/read requests, the final durable state is
  byte-identical to the same deltas applied serially in commit order,
  and every served read carries the seq of a published snapshot;
- admission control: a full queue answers 429, a commit outliving the
  request timeout answers 503, draining answers 503 — never a hang.
"""

from __future__ import annotations

import http.client
import json
import random
import threading

import pytest

from repro.core.discoverer import DCDiscoverer
from repro.core.state_io import state_to_bytes
from repro.dcs import DenialConstraint
from repro.dcs.canonical import CanonicalCover, canonicalize_masks
from repro.durability import DurableSession
from repro.predicates import parse_dc
from repro.relational import relation_from_rows
from repro.service import (
    DCService,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceSaturatedError,
    ServiceStopped,
    ServiceUnavailableError,
    WriteRequest,
    build_snapshot,
    coalesce,
    protocol,
)
from repro.workloads import staff_relation
from tests.conftest import random_rows, replay_committed


def make_session(tmp_path, relation=None, name="session", **kwargs):
    discoverer = DCDiscoverer(relation if relation is not None else staff_relation())
    return DurableSession.create(discoverer, tmp_path / name, **kwargs)


def record_ops(session) -> list:
    """Wrap ``session``'s insert and delete; the returned list collects
    ``(op, argument)`` per call the writer makes."""
    applied = []
    insert, delete = session.insert, session.delete

    def recording_insert(rows):
        applied.append(("insert", rows))
        return insert(rows)

    def recording_delete(rids):
        applied.append(("delete", rids))
        return delete(rids)

    session.insert, session.delete = recording_insert, recording_delete
    return applied


@pytest.fixture
def service(tmp_path):
    """A started service over the staff relation; always shut down."""
    instance = DCService(
        make_session(tmp_path), ServiceConfig(port=0, batch_window_ms=2.0)
    )
    instance.start()
    yield instance
    instance.shutdown()


@pytest.fixture
def client(service):
    return ServiceClient(base_url=service.url, timeout=10.0)


# -- coalescing (pure logic) ------------------------------------------------


class TestCoalesce:
    def test_merges_inserts_in_arrival_order(self, tmp_path):
        session = make_session(tmp_path)
        first = WriteRequest("insert", [[5, "Ema", 2002, 3, 1]])
        second = WriteRequest(
            "insert", [[6, "Bo", 2003, 1, 2], [7, "Cy", 2004, 2, 2]]
        )
        batch = coalesce(session, [first, second])
        assert batch.rejected == []
        assert len(batch.insert_rows) == 3
        assert batch.inserts == [(first, 0, 1), (second, 1, 2)]
        session.close()

    def test_merges_deletes_and_rejects_double_claim(self, tmp_path):
        session = make_session(tmp_path)
        first = WriteRequest("delete", [0, 2])
        second = WriteRequest("delete", [2])
        third = WriteRequest("delete", [1])
        batch = coalesce(session, [first, second, third])
        assert batch.delete_rids == [0, 1, 2]
        assert [request for request, _ in batch.deletes] == [first, third]
        [(rejected, message)] = batch.rejected
        assert rejected is second and "already deleted" in message
        session.close()

    def test_bad_requests_fail_individually(self, tmp_path):
        session = make_session(tmp_path)
        good = WriteRequest("insert", [[5, "Ema", 2002, 3, 1]])
        short_row = WriteRequest("insert", [[1, "x"]])
        dead_rid = WriteRequest("delete", [99])
        batch = coalesce(session, [good, short_row, dead_rid])
        assert len(batch.inserts) == 1 and batch.inserts[0][0] is good
        assert {request for request, _ in batch.rejected} == {short_row, dead_rid}
        session.close()


# -- snapshot isolation -----------------------------------------------------


class TestSnapshotIsolation:
    def test_held_snapshot_ignores_later_writes(self, tmp_path):
        session = make_session(tmp_path)
        before = build_snapshot(session)
        session.insert([(5, "Ana", 2000, 5, 1)])  # a third Ana
        after = build_snapshot(session)
        assert before.seq == 0 and after.seq == 1
        assert len(before.relation) == 4 and len(after.relation) == 5
        space = session.discoverer.space
        name_dc = DenialConstraint(parse_dc("!(t.Name = t'.Name)", space), space)
        candidate = (9, "Ana", 1999, 1, 1)
        old = before.check(candidate, dcs=[name_dc])
        new = after.check(candidate, dcs=[name_dc])
        assert old["violations"][0]["n_partners"] == 2  # two Anas at seq 0
        assert new["violations"][0]["n_partners"] == 3
        session.close()

    def test_check_matches_pairwise_oracle(self, tmp_path):
        rng = random.Random(7)
        relation = relation_from_rows(["A", "B", "C"], random_rows(rng, 15))
        session = make_session(tmp_path, relation=relation)
        snapshot = build_snapshot(session)
        space = session.discoverer.space
        dcs = [
            DenialConstraint(parse_dc(text, space), space)
            for text in ["!(t.A = t'.A)", "!(t.B = t'.B & t.C != t'.C)"]
        ]
        for candidate in random_rows(rng, 10):
            payload = snapshot.check(candidate, dcs=dcs)
            by_dc = {entry["dc"]: entry for entry in payload["violations"]}
            for dc in dcs:
                as_first = {
                    rid
                    for rid in snapshot.relation.rids()
                    if not dc.holds_on_pair(candidate, snapshot.relation.row(rid))
                }
                as_second = {
                    rid
                    for rid in snapshot.relation.rids()
                    if not dc.holds_on_pair(snapshot.relation.row(rid), candidate)
                }
                if not as_first and not as_second:
                    assert str(dc) not in by_dc
                else:
                    entry = by_dc[str(dc)]
                    assert set(entry["as_first"]) == as_first
                    assert set(entry["as_second"]) == as_second
        session.close()


# -- HTTP protocol ----------------------------------------------------------


class TestEndpoints:
    def test_status_and_dcs(self, client):
        status = client.wait_ready()
        assert status["rows"] == 4 and status["serving"] is True
        dcs = client.dcs()
        assert dcs["seq"] == 0
        assert dcs["n_minimal"] == len(dcs["masks"]) > 0
        assert all("¬(" in text for text in dcs["dcs"])

    def test_rank(self, client):
        payload = client.rank(top=5)
        ranking = payload["ranking"]
        assert 0 < len(ranking) <= 5
        scores = [entry["score"] for entry in ranking]
        assert scores == sorted(scores, reverse=True)

    def test_insert_then_read_moves_seq(self, client):
        outcome = client.insert([[5, "Ema", 2002, 3, 1]])
        assert outcome["status"] == "committed"
        assert outcome["seq"] == 1 and outcome["rids"] == [4]
        assert client.status()["rows"] == 5
        assert client.dcs()["seq"] == 1

    def test_check_roundtrip(self, client):
        duplicate_id = client.check([1, "Zoe", 1990, 9, 9], dcs=["!(t.Id = t'.Id)"])
        assert duplicate_id["ok"] is False
        assert duplicate_id["violations"][0]["as_first"] == [0]
        fresh_id = client.check([9, "Zoe", 1990, 9, 9], dcs=["!(t.Id = t'.Id)"])
        assert fresh_id["ok"] is True
        capped = client.check([1, "Ana", 1990, 9, 9], limit=1)
        for entry in capped["violations"]:
            assert len(entry["as_first"]) <= 1 and len(entry["as_second"]) <= 1

    def test_validation_errors_are_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.insert([[1, "too-short"]])
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client.delete([404])
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client.check([1, 2])  # arity mismatch
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client.check([1, "A", 2000, 1, 1], dcs=["!(t.Nope = t'.Nope)"])
        assert excinfo.value.status == 400

    def test_check_reports_probe_cache(self, client):
        payload = client.check([1, "Ana", 1990, 9, 9])
        probes = payload["probes"]
        assert 0 < probes["unique"] <= probes["lookups"]

    def test_unsupported_probe_is_400_not_500(self, service, client):
        """Regression: an order-op probe that the snapshot's indexes
        cannot answer (range index gone, e.g. a degraded clone) used to
        escape as a bare ValueError and a 500; it must be a 400."""
        snapshot = service.snapshot
        position = next(
            i
            for i, column in enumerate(snapshot.relation.schema)
            if column.name == "Hired"
        )
        snapshot.indexes.ranges[position] = None
        with pytest.raises(ServiceError) as excinfo:
            client.check(
                [9, "Zoe", 1990, 9, 9], dcs=["!(t.Hired > t'.Hired)"]
            )
        assert excinfo.value.status == 400
        assert "unsupported DC" in str(excinfo.value)

    def test_verify_endpoint(self, client):
        payload = client.verify()
        assert payload["seq"] == 0
        assert payload["n_constraints"] == len(client.dcs()["masks"])
        # A discover-mode session's Σ holds on its own data by definition.
        assert payload["n_violated"] == 0
        assert payload["total_violations"] == 0
        assert payload["probe_operations"] > 0
        plans = {
            entry["plan"].split("(")[0] for entry in payload["constraints"]
        }
        assert plans <= {"eq-sweep", "order-sweep", "ne-sweep", "probe-sweep"}
        capped = client.verify(limit=1)
        assert capped["limit"] == 1
        with pytest.raises(ServiceError) as excinfo:
            client.verify(limit=0)
        assert excinfo.value.status == 400

    def test_unknown_endpoint_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_metrics_exposition(self, client):
        client.insert([[5, "Ema", 2002, 3, 1]])
        text = client.metrics_text()
        assert "# TYPE repro_service_batch_size histogram" in text
        assert "repro_service_batches_total" in text
        assert "repro_durability_next_seq" in text
        assert "repro_discoverer_rows" in text


# -- concurrency correctness ------------------------------------------------


class TestVerifyModeService:
    def test_fixed_sigma_verdicts_follow_writes(self, tmp_path):
        """A verify-mode session serves /verify over a fixed Σ; repairing
        the data through the write endpoints flips the verdicts."""
        relation = relation_from_rows(
            ["City", "State", "Salary"],
            [
                ("LA", "CA", 100),
                ("SF", "CA", 120),
                ("NY", "NY", 90),
                ("LA", "WA", 50),
            ],
        )
        discoverer = DCDiscoverer(
            relation,
            mode="verify",
            constraints=[
                "!(t.City = t'.City & t.State != t'.State)",
                "!(t.Salary > t'.Salary & t.State = t'.State)",
            ],
            cross_column_ratio=0.0,
        )
        session = DurableSession.create(discoverer, tmp_path / "verify-session")
        service = DCService(session, ServiceConfig(port=0, batch_window_ms=2.0))
        service.start()
        try:
            client = ServiceClient(base_url=service.url, timeout=10.0)
            client.wait_ready()
            payload = client.verify()
            assert payload["n_constraints"] == 2
            assert payload["n_violated"] == 2
            sample = payload["constraints"][0]["sample_pairs"]
            assert sample and all(len(pair) == 2 for pair in sample)
            client.delete([3])  # the LA/WA row: City rule now holds
            assert client.verify()["n_violated"] == 1
            client.delete([1])  # the top CA salary: Σ fully holds
            repaired = client.verify()
            assert repaired["n_violated"] == 0
            assert repaired["total_violations"] == 0
        finally:
            service.shutdown()


class TestConcurrency:
    K_THREADS = 6
    OPS_PER_THREAD = 8

    def test_interleaved_traffic_equals_serial_oracle(self, tmp_path):
        rng = random.Random(11)
        base_rows = random_rows(rng, 16)
        session = make_session(
            tmp_path,
            relation=relation_from_rows(["A", "B", "C"], base_rows),
            checkpoint_every=4,
        )
        service = DCService(
            session, ServiceConfig(port=0, batch_window_ms=10.0)
        )
        published = [service.snapshot.seq]
        publish = service._publish

        def recording_publish(snapshot):
            published.append(snapshot.seq)
            publish(snapshot)

        service._publish = recording_publish
        service.start()
        client = ServiceClient(base_url=service.url, timeout=15.0)
        observed_seqs = []
        writes = []
        errors = []
        seq_lock = threading.Lock()

        def worker(worker_id: int):
            thread_rng = random.Random(1000 + worker_id)
            own_rids = []
            try:
                for step in range(self.OPS_PER_THREAD):
                    choice = thread_rng.random()
                    if choice < 0.45 or not own_rids:
                        rows = random_rows(thread_rng, thread_rng.randint(1, 2))
                        outcome = client.insert(rows)
                        assert outcome["status"] == "committed"
                        own_rids.extend(outcome["rids"])
                        recorded = outcome["seq"]
                        with seq_lock:
                            writes.append(("insert", rows, outcome))
                    elif choice < 0.65:
                        rid = own_rids.pop(thread_rng.randrange(len(own_rids)))
                        outcome = client.delete([rid])
                        assert outcome["status"] == "committed"
                        recorded = outcome["seq"]
                        with seq_lock:
                            writes.append(("delete", [rid], outcome))
                    elif choice < 0.85:
                        recorded = client.check(random_rows(thread_rng, 1)[0])[
                            "seq"
                        ]
                    else:
                        recorded = client.dcs()["seq"]
                    with seq_lock:
                        observed_seqs.append(recorded)
            except Exception as exc:  # surface in the main thread
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(self.K_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        service.shutdown()
        assert errors == []

        # Every read and write observed a seq the writer actually
        # published — no torn or speculative state ever served.
        assert set(observed_seqs) <= set(published)

        # Coalescing happened: cycles ≤ commits ≤ requests, and the WAL
        # saw one record per merged op, not one per client request.
        n_write_requests = service.instrumentation.metrics.counter(
            "service.coalesced_requests_total"
        )
        assert service.commits <= n_write_requests

        # Replaying the committed writes serially, cycle by cycle, lands
        # on the byte-identical durable state.
        oracle = make_session(
            tmp_path,
            relation=relation_from_rows(["A", "B", "C"], base_rows),
            name="oracle",
        )
        replay_committed(oracle, writes)
        assert state_to_bytes(service.session.discoverer) == state_to_bytes(
            oracle.discoverer
        )
        oracle.close()

    def test_concurrent_burst_coalesces(self, tmp_path):
        session = make_session(tmp_path)
        applied = record_ops(session)
        service = DCService(
            session,
            ServiceConfig(port=0, batch_window_ms=150.0, queue_depth=64),
        )
        service.start()
        client = ServiceClient(base_url=service.url, timeout=15.0)
        barrier = threading.Barrier(8)
        outcomes = []

        def worker(i):
            barrier.wait()
            outcomes.append(client.insert([[100 + i, f"W{i}", 2000, 1, 1]]))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        service.shutdown()
        assert all(outcome["status"] == "committed" for outcome in outcomes)
        histogram = service.instrumentation.metrics.histograms[
            "service.batch.size"
        ]
        assert histogram.mean > 1.0  # the burst merged into few cycles
        # One insert op per cycle, not one per client.
        assert len(applied) < 8


class TestPublication:
    @pytest.mark.parametrize("backend", ["dynei", "dynhs"])
    def test_diff_snapshots_match_one_shot(self, tmp_path, backend):
        """Snapshots built from Σ diffs through a cover equal snapshots
        built from scratch, over each backend's unsorted Σ view."""
        rng = random.Random(3)
        discoverer = DCDiscoverer(
            relation_from_rows(["A", "B", "C"], random_rows(rng, 8)),
            enumeration_backend=backend,
        )
        session = DurableSession.create(discoverer, tmp_path / "session")
        cover = CanonicalCover(session.discoverer.space)
        snapshot = build_snapshot(session, None, cover)
        for step in range(6):
            if step % 3 == 2:
                session.delete(sorted(session.discoverer.relation.rids())[:1])
            else:
                session.insert(random_rows(rng, 2))
            snapshot = build_snapshot(session, snapshot, cover)
            assert snapshot.dcs_payload() == build_snapshot(session).dcs_payload()
            assert snapshot.status["dcs"] == len(snapshot.dc_masks)
        session.close()

    def test_every_published_cover_is_canonical(self, tmp_path):
        """Across a burst of concurrent inserts and deletes, every
        published snapshot's cover is the one-shot canonicalization of
        its own Σ, and the last one serves the payload a from-scratch
        snapshot would."""
        rng = random.Random(23)
        session = make_session(
            tmp_path,
            relation=relation_from_rows(["A", "B", "C"], random_rows(rng, 12)),
        )
        service = DCService(
            session, ServiceConfig(port=0, batch_window_ms=5.0)
        )
        published = [service.snapshot]
        publish = service._publish
        service._publish = lambda snapshot: (
            published.append(snapshot), publish(snapshot)
        )
        service.start()
        client = ServiceClient(base_url=service.url, timeout=15.0)
        errors = []

        def worker(worker_id: int):
            thread_rng = random.Random(500 + worker_id)
            own_rids = []
            try:
                for _ in range(6):
                    if own_rids and thread_rng.random() < 0.35:
                        rid = own_rids.pop(thread_rng.randrange(len(own_rids)))
                        client.delete([rid])
                    else:
                        outcome = client.insert(
                            random_rows(thread_rng, thread_rng.randint(1, 2))
                        )
                        own_rids.extend(outcome["rids"])
            except Exception as exc:  # surface in the main thread
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        service.shutdown()
        assert errors == []
        assert len(published) > 1
        for snapshot in published:
            assert snapshot.dc_masks == sorted(snapshot.dc_masks)
            assert [dc.mask for dc in snapshot.canonical] == canonicalize_masks(
                snapshot.dc_masks, snapshot.space
            )
        assert published[-1].dc_masks == service.session.discoverer.dc_masks
        assert published[-1].dcs_payload() == build_snapshot(
            service.session
        ).dcs_payload()
        histograms = service.instrumentation.metrics.histograms
        assert histograms["service.publish_seconds"].count == len(published)
        assert histograms["service.cycle_seconds"].count == len(published) - 1
        counters = service.instrumentation.metrics.counters
        assert counters["snapshot.sigma_delta"] > 0


# -- admission control and backpressure -------------------------------------


class TestBackpressure:
    def test_full_queue_rejects_instead_of_hanging(self, tmp_path):
        service = DCService(
            make_session(tmp_path),
            ServiceConfig(
                port=0,
                queue_depth=1,
                batch_window_ms=0.0,
                cycle_delay_s=0.4,
                request_timeout_s=10.0,
            ),
        )
        service.start()
        client = ServiceClient(base_url=service.url, timeout=15.0)
        client.wait_ready()
        results = []
        barrier = threading.Barrier(5)

        def worker(i):
            barrier.wait()
            try:
                results.append(client.insert([[50 + i, f"W{i}", 2000, 1, 1]]))
            except ServiceSaturatedError as exc:
                results.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(5)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        rejected = [r for r in results if isinstance(r, ServiceSaturatedError)]
        committed = [r for r in results if isinstance(r, dict)]
        assert rejected, "a full queue must reject explicitly"
        assert committed, "the writer keeps serving admitted requests"
        assert all(r.status == 429 for r in rejected)
        saturated = service.instrumentation.metrics.counter(
            "service.requests_saturated_total"
        )
        assert saturated == len(rejected)
        service.shutdown()

    def test_commit_timeout_answers_503(self, tmp_path):
        session = make_session(tmp_path)
        applied = record_ops(session)
        service = DCService(
            session,
            ServiceConfig(port=0, batch_window_ms=0.0, cycle_delay_s=0.5),
        )
        service.start()
        client = ServiceClient(base_url=service.url, timeout=15.0)
        with pytest.raises(ServiceUnavailableError) as excinfo:
            client.insert([[5, "Ema", 2002, 3, 1]], timeout=0.05)
        assert excinfo.value.status == 503
        assert excinfo.value.payload["error"] == "timeout"
        # The write stayed queued: it still commits.
        deadline_status = client.wait_ready()
        assert deadline_status is not None
        service.shutdown()  # drains the queued write
        assert any(op == "insert" for op, _ in applied)

    def test_draining_service_rejects_writes(self, tmp_path):
        service = DCService(make_session(tmp_path), ServiceConfig(port=0))
        service.start()
        client = ServiceClient(base_url=service.url, timeout=5.0)
        service.shutdown()
        with pytest.raises(ServiceStopped):
            service.submit("insert", [[5, "Ema", 2002, 3, 1]])

    def test_shutdown_drains_and_checkpoints(self, tmp_path):
        session = make_session(tmp_path, checkpoint_every=100)
        directory = session.directory
        service = DCService(
            session, ServiceConfig(port=0, batch_window_ms=0.0)
        )
        service.start()
        client = ServiceClient(base_url=service.url, timeout=10.0)
        client.insert([[5, "Ema", 2002, 3, 1]])
        client.insert([[6, "Bo", 2003, 1, 2]])
        service.shutdown()
        recovered = DurableSession.recover(directory)
        assert len(recovered.discoverer.relation) == 6
        # The final checkpoint incorporated everything: no WAL tail left.
        assert recovered.replayed_records == 0
        assert state_to_bytes(recovered.discoverer) == state_to_bytes(
            service.session.discoverer
        )
        recovered.close()


# -- hostile request bodies --------------------------------------------------


class TestHostileBodies:
    """Raw HTTP: the declared body length is checked before any read."""

    def _post(self, service, length: str, body: bytes = b""):
        connection = http.client.HTTPConnection(
            service.host, service.port, timeout=5.0
        )
        try:
            connection.putrequest("POST", "/insert")
            connection.putheader("Content-Type", "application/json")
            connection.putheader("Content-Length", length)
            connection.endheaders(body)
            response = connection.getresponse()
            return (
                response.status,
                response.getheader("Connection"),
                json.loads(response.read()),
            )
        finally:
            connection.close()

    @pytest.mark.parametrize("length", ["abc", "-1", "1e3", "0x10"])
    def test_malformed_or_negative_length_is_400(self, service, length):
        status, connection, payload = self._post(service, length)
        assert status == 400
        assert payload["error"] == "bad_request"
        assert "Content-Length" in payload["message"]
        assert connection == "close"

    def test_oversized_body_is_413_unread(self, service):
        # Only the headers are sent: a 413 that waited for the declared
        # body would time out here instead.
        status, connection, payload = self._post(
            service, str(protocol.MAX_BODY_BYTES + 1)
        )
        assert status == 413
        assert payload["error"] == protocol.ERR_TOO_LARGE
        assert connection == "close"

    def test_service_keeps_serving(self, service, client):
        self._post(service, "-5")
        self._post(service, str(protocol.MAX_BODY_BYTES * 4))
        body = json.dumps({"rows": [[5, "Ema", 2002, 3, 1]]}).encode()
        status, _, payload = self._post(service, str(len(body)), body)
        assert status == 200 and payload["status"] == "committed"
        assert client.status()["seq"] == payload["seq"]
