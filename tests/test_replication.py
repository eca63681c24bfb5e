"""Tests for the replicated serving fleet (repro.replication).

Four pillars, mirroring the crash-matrix philosophy of
tests/test_crash_matrix.py — the proof of the replication layer is a
*failover matrix*, not a happy-path demo:

- **protocol units**: frame delivery in partial chunks, duplicate replay
  idempotence, gap detection (``snapshot_needed``), follower restart
  mid-catch-up, HTTP frame tamper rejection — each a small table-driven
  test over the real WAL bytes;
- **the failover matrix**: for every registered fault point × operation
  kind, kill the primary mid-frame, promote a tailing follower, and
  demand ``state_to_bytes`` byte-identity with an uninterrupted
  single-node oracle over the durable batch prefix (same
  lost-vs-durable rule as the crash matrix), then keep writing on the
  promoted node and demand identity again;
- **the fleet property**: Hypothesis drives a 1-primary/2-follower
  topology through random interleavings of writes, checkpoints, and
  polls, optionally crashing the final write — both followers must
  converge to the oracle digest with zero acknowledged-write loss;
- **mixed-topology service tests**: concurrent readers on an HTTP
  follower during a primary write burst see per-thread monotone
  snapshot seqs; ``/check`` on the follower matches the primary at the
  same ``min_seq``; writes to a follower answer 421 with the primary's
  URL; stale ``min_seq`` answers 409; promotion flips the node to a
  writable primary.
"""

from __future__ import annotations

import os
import random
import tempfile
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DCDiscoverer, DurableSession, relation_from_rows
from repro.core.state_io import state_to_bytes
from repro.dcs.canonical import canonicalize_masks
from repro.durability import (
    FAULT_POINTS,
    SimulatedCrash,
    WALReader,
    get_injector,
)
from repro.durability.session import SessionError, WAL_NAME
from repro.replication import (
    DirectorySource,
    FollowerService,
    FollowerSession,
    Frame,
    FrameBatch,
    HTTPSource,
    ReplicationError,
    ReplicationFeed,
)
from repro.service import (
    DCService,
    NotPrimaryError,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceStaleError,
    build_snapshot,
)
from tests.conftest import random_rows
from tests.test_crash_matrix import (
    BATCH_LOST,
    HEADER,
    OPERATIONS,
    apply_batch,
    base_rows,
    oracle_bytes,
    scripted_batches,
    target_batch,
)

pytestmark = pytest.mark.replication

#: Safety bound for drain(): no deterministic test needs more polls.
_MAX_DRAIN_POLLS = 16


def make_primary(directory, checkpoint_every=100, retain=2):
    discoverer = DCDiscoverer(relation_from_rows(HEADER, base_rows()))
    return DurableSession.create(
        discoverer, directory, checkpoint_every=checkpoint_every, retain=retain
    )


def drain(follower):
    """Poll until the follower is fully caught up (applied 0, lag 0)."""
    for _ in range(_MAX_DRAIN_POLLS):
        applied = follower.poll()
        if applied == 0 and follower.lag_seq == 0:
            return
    raise AssertionError(f"follower failed to drain: {follower!r}")


# -- protocol units ----------------------------------------------------------


class StubSource:
    """Replays scripted FrameBatches; used for duplicate/ordering units."""

    def __init__(self, batches, checkpoint=None):
        self.batches = list(batches)
        self.checkpoint = checkpoint

    def fetch_frames(self, after_seq, wait_s=0.0, max_frames=None):
        if self.batches:
            return self.batches.pop(0)
        return FrameBatch([], after_seq, 0, False)

    def fetch_checkpoint(self):
        if self.checkpoint is None:
            raise ReplicationError("stub has no checkpoint")
        return self.checkpoint

    def close(self):
        pass


class TestProtocolUnits:
    def test_feed_delivers_frames_in_seq_order(self, tmp_path):
        primary = make_primary(tmp_path / "primary")
        primary.insert(random_rows(random.Random(5), 2))
        primary.insert(random_rows(random.Random(6), 2))
        feed = ReplicationFeed(tmp_path / "primary")
        batch = feed.fetch(0)
        assert [frame.seq for frame in batch.frames] == [1, 2]
        assert batch.last_seq == 2
        assert not batch.snapshot_needed
        # Tail from the middle: only the newer frame.
        assert [f.seq for f in feed.fetch(1).frames] == [2]
        feed.close()
        primary.close()

    def test_feed_partial_frame_delivery(self, tmp_path):
        """A frame that arrives in two chunks is delivered exactly once,
        only when complete — never as a torn prefix."""
        primary = make_primary(tmp_path / "primary")
        primary.insert(random_rows(random.Random(5), 2))
        primary.insert(random_rows(random.Random(6), 2))
        wal_bytes = (tmp_path / "primary" / WAL_NAME).read_bytes()
        primary.close()

        # Re-deliver the same WAL into a staging directory byte-split
        # mid-second-frame, with the real checkpoint dir alongside so
        # the feed sees a coherent session layout.
        staged = tmp_path / "staged"
        os.makedirs(staged / "checkpoints")
        for name in os.listdir(tmp_path / "primary" / "checkpoints"):
            data = (tmp_path / "primary" / "checkpoints" / name).read_bytes()
            (staged / "checkpoints" / name).write_bytes(data)
        cut = len(wal_bytes) - 7
        with open(staged / WAL_NAME, "wb") as handle:
            handle.write(wal_bytes[:cut])
            handle.flush()
            feed = ReplicationFeed(staged)
            first = feed.fetch(0)
            assert [f.seq for f in first.frames] == [1]
            assert not first.snapshot_needed
            handle.write(wal_bytes[cut:])
            handle.flush()
        second = feed.fetch(1)
        assert [f.seq for f in second.frames] == [2]
        # The late half arrived byte-identical to the original frame.
        assert second.frames[0].raw == wal_bytes[len(first.frames[0].raw) :]
        feed.close()

    def test_feed_gap_triggers_snapshot_needed(self, tmp_path):
        """Frames reset away by a checkpoint cannot be tailed — the feed
        must demand a checkpoint install instead of silently skipping."""
        primary = make_primary(tmp_path / "primary", checkpoint_every=1)
        primary.insert(random_rows(random.Random(5), 2))  # checkpoint + reset
        feed = ReplicationFeed(tmp_path / "primary")
        batch = feed.fetch(0)
        assert batch.snapshot_needed
        assert batch.frames == []
        assert batch.checkpoint_seq == 1
        assert batch.last_seq == 1
        # From the checkpoint's seq onward, plain tailing resumes.
        assert not feed.fetch(1).snapshot_needed
        feed.close()
        primary.close()

    def test_duplicate_frame_replay_is_idempotent(self, tmp_path):
        primary = make_primary(tmp_path / "primary")
        primary.insert(random_rows(random.Random(5), 2))
        primary.delete([1])
        feed = ReplicationFeed(tmp_path / "primary")
        batch = feed.fetch(0)
        feed.close()
        duplicate = FrameBatch(
            list(batch.frames), batch.last_seq, batch.checkpoint_seq, False
        )
        source = StubSource(
            [batch, duplicate, duplicate],
            checkpoint=DirectorySource(tmp_path / "primary").fetch_checkpoint(),
        )
        follower = FollowerSession.bootstrap(tmp_path / "follower", source)
        assert follower.poll() == 2
        once = state_to_bytes(follower.session.discoverer)
        assert follower.poll() == 0
        assert follower.poll() == 0
        assert follower.frames_duplicate_total == 4
        assert state_to_bytes(follower.session.discoverer) == once
        assert once == state_to_bytes(primary.discoverer)
        follower.close()
        primary.close()

    def test_apply_replicated_rejects_gaps(self, tmp_path):
        """A frame past the next expected seq must hard-fail, not apply."""
        primary = make_primary(tmp_path / "primary")
        primary.insert(random_rows(random.Random(5), 2))
        primary.insert(random_rows(random.Random(6), 2))
        feed = ReplicationFeed(tmp_path / "primary")
        frames = feed.fetch(0).frames
        feed.close()
        source = DirectorySource(tmp_path / "primary")
        follower = FollowerSession.bootstrap(tmp_path / "follower", source)
        with pytest.raises(SessionError, match="seq"):
            follower.session.apply_replicated(frames[1].record, frames[1].raw)
        follower.close()
        primary.close()

    def test_follower_restart_mid_catchup(self, tmp_path):
        """Killing a follower halfway through the stream and re-running
        bootstrap resumes from its own directory, byte-identically."""
        primary = make_primary(tmp_path / "primary")
        batches = [
            ("insert", random_rows(random.Random(5), 2)),
            ("delete", [0, 2]),
            ("insert", random_rows(random.Random(6), 3)),
        ]
        for batch in batches:
            apply_batch(primary, batch)
        follower = FollowerSession.bootstrap(
            tmp_path / "follower", DirectorySource(tmp_path / "primary")
        )
        assert follower.poll(max_frames=1) == 1  # partially caught up
        follower.close()

        resumed = FollowerSession.bootstrap(
            tmp_path / "follower", DirectorySource(tmp_path / "primary")
        )
        assert resumed.last_applied_seq == 1
        drain(resumed)
        assert state_to_bytes(resumed.session.discoverer) == oracle_bytes(
            batches
        )
        resumed.close()
        primary.close()

    def test_catchup_across_primary_checkpoint_reset(self, tmp_path):
        """A follower that slept through a checkpoint+reset installs the
        checkpoint and resumes tailing — and still matches the oracle."""
        primary = make_primary(tmp_path / "primary", checkpoint_every=100)
        batches = [("insert", random_rows(random.Random(5), 2))]
        apply_batch(primary, batches[0])
        follower = FollowerSession.bootstrap(
            tmp_path / "follower", DirectorySource(tmp_path / "primary")
        )
        drain(follower)
        # While the follower sleeps: more writes, an explicit checkpoint
        # (resets the primary WAL), then more writes.
        more = [
            ("insert", random_rows(random.Random(6), 2)),
            ("delete", [1, 3]),
        ]
        for batch in more:
            apply_batch(primary, batch)
        batches.extend(more)
        primary.checkpoint()
        tail = ("insert", random_rows(random.Random(7), 2))
        apply_batch(primary, tail)
        batches.append(tail)

        drain(follower)
        assert follower.catchups_total == 1
        assert state_to_bytes(follower.session.discoverer) == oracle_bytes(
            batches
        )
        assert state_to_bytes(follower.session.discoverer) == state_to_bytes(
            primary.discoverer
        )
        follower.close()
        primary.close()

    def test_published_covers_survive_checkpoint_install(self, tmp_path):
        """Every snapshot a follower publishes carries the canonical cover
        of its own Σ — across the checkpoint install that swaps in a new
        discoverer (and with it a freshly seeded cover)."""
        primary = make_primary(tmp_path / "primary", checkpoint_every=100)
        apply_batch(primary, ("insert", random_rows(random.Random(5), 2)))
        follower = FollowerSession.bootstrap(
            tmp_path / "follower", DirectorySource(tmp_path / "primary")
        )
        service = FollowerService(follower, ServiceConfig(port=0))
        published = [service.snapshot]
        publish = service._publish
        service._publish = lambda snapshot: (
            published.append(snapshot), publish(snapshot)
        )
        try:
            apply_batch(primary, ("insert", random_rows(random.Random(6), 3)))
            assert service.replicate_once() == 2
            apply_batch(primary, ("delete", [0, 2]))
            primary.checkpoint()  # the follower must catch up from it
            # No frame follows the checkpoint, yet the installed state is
            # published.
            assert service.replicate_once() == 0
            assert follower.catchups_total == 1
            assert service.snapshot.seq == primary.last_applied_seq
            apply_batch(primary, ("insert", random_rows(random.Random(8), 2)))
            assert service.replicate_once() == 1
            assert len(published) == 4
            for snapshot in published:
                assert [dc.mask for dc in snapshot.canonical] == (
                    canonicalize_masks(snapshot.dc_masks, snapshot.space)
                )
            assert published[-1].dc_masks == primary.discoverer.dc_masks
            assert published[-1].dcs_payload() == build_snapshot(
                follower.session
            ).dcs_payload()
        finally:
            service.shutdown()
            primary.close()

    @pytest.mark.parametrize("tamper", ["flip_byte", "wrong_seq", "truncate"])
    def test_http_source_rejects_tampered_frames(self, tmp_path, tamper):
        """The crc32 that protected the frame on disk also protects it in
        transit: any in-flight corruption is a hard ReplicationError."""
        primary = make_primary(tmp_path / "primary")
        primary.insert(random_rows(random.Random(5), 2))
        feed = ReplicationFeed(tmp_path / "primary")
        frame = feed.fetch(0).frames[0]
        feed.close()
        primary.close()

        raw = bytearray(frame.raw)
        seq = frame.seq
        if tamper == "flip_byte":
            raw[-1] ^= 0xFF
        elif tamper == "truncate":
            raw = raw[:-3]
        else:
            seq = frame.seq + 7  # envelope seq contradicts the record

        class _StubClient:
            def replication_frames(self, **kwargs):
                return {
                    "frames": [{"seq": seq, "raw": bytes(raw).hex()}],
                    "last_seq": seq,
                    "checkpoint_seq": 0,
                    "snapshot_needed": False,
                }

        source = HTTPSource("http://127.0.0.1:1")
        source._client = _StubClient()
        with pytest.raises(ReplicationError):
            source.fetch_frames(0)


# -- the failover matrix -----------------------------------------------------


@pytest.mark.parametrize("operation", OPERATIONS)
@pytest.mark.parametrize("point", sorted(FAULT_POINTS))
def test_failover_matrix(tmp_path, fault_injector, point, operation):
    """Kill the primary at ``point`` mid-``operation``, promote a tailing
    follower, and demand byte-identity with the uninterrupted single-node
    oracle over the durable batch prefix — then keep writing on the
    promoted node and demand identity again."""
    primary_dir = tmp_path / "primary"
    setup = scripted_batches()
    # Same cadence trick as the crash matrix: checkpoint_every=1 makes
    # checkpoint.* points reachable from update batches; the explicit-
    # checkpoint scenario uses a cadence the workload never hits.
    cadence = 1 if operation != "checkpoint" else 100
    session = make_primary(primary_dir, checkpoint_every=cadence)
    for batch in setup:
        apply_batch(session, batch)

    follower = FollowerSession.bootstrap(
        tmp_path / "follower",
        DirectorySource(primary_dir),
        checkpoint_every=cadence,
        retain=2,
    )
    drain(follower)

    durable = list(setup)
    crashed = False
    fault_injector.arm(point)
    try:
        if operation == "checkpoint":
            session.checkpoint()
        else:
            batch = target_batch(operation)
            apply_batch(session, batch)
            durable.append(batch)
    except SimulatedCrash as crash:
        crashed = True
        assert crash.point == point
        session.simulate_power_loss()
        if operation != "checkpoint" and point not in BATCH_LOST:
            durable.append(batch)
    else:
        session.close()
    # Disarm *before* the follower drains: the follower's own WAL append
    # and checkpoints pass the very same fault points.
    fault_injector.reset()

    # executor.* points fire only inside parallel-evidence workers (this
    # workload runs serial; test_parallel.py covers the firing path).
    if operation != "checkpoint" and not point.startswith(
        ("state_save", "executor.")
    ):
        assert crashed, f"{point} never fired during {operation}"

    # The primary is dead.  The follower drains whatever survived in the
    # primary's directory and takes over.
    drain(follower)
    promoted = follower.promote()
    assert state_to_bytes(promoted.discoverer) == oracle_bytes(durable)

    # The promoted node accepts writes — and stays on the oracle.
    extra = ("insert", random_rows(random.Random(41), 2))
    apply_batch(promoted, extra)
    durable.append(extra)
    assert state_to_bytes(promoted.discoverer) == oracle_bytes(durable)

    # Its directory is an ordinary session directory: restart = recover.
    promoted.close()
    reopened = DurableSession.recover(tmp_path / "follower")
    try:
        assert state_to_bytes(reopened.discoverer) == oracle_bytes(durable)
    finally:
        reopened.close()


def test_failover_matrix_covers_every_registered_point():
    """A newly planted fault point must automatically join the matrix."""
    assert set(sorted(FAULT_POINTS)) == FAULT_POINTS


# -- the fleet property ------------------------------------------------------


_row = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.sampled_from("abc"),
    st.integers(min_value=0, max_value=2),
)
_fleet_op = st.one_of(
    st.tuples(st.just("insert"), st.lists(_row, min_size=1, max_size=3)),
    st.tuples(st.just("delete"), st.integers(min_value=1, max_value=2)),
    st.tuples(st.just("checkpoint"), st.none()),
    st.tuples(st.just("poll"), st.integers(min_value=0, max_value=1)),
)


def _materialize_delete(relation, count):
    """Deterministic rid choice, keeping at least 4 rows alive."""
    alive = sorted(relation.rids())
    count = min(count, max(0, len(alive) - 4))
    return alive[:count]


@settings(max_examples=15, deadline=None)
@given(
    plan=st.lists(_fleet_op, min_size=1, max_size=8),
    crash_point=st.one_of(st.none(), st.sampled_from(sorted(FAULT_POINTS))),
)
def test_fleet_converges_with_zero_acknowledged_write_loss(plan, crash_point):
    """1 primary, 2 followers, random interleaving of writes, explicit
    checkpoints, and follower polls; the final write optionally crashes
    at a random fault point.  After failover both followers converge to
    the single-node oracle digest over every acknowledged (or durably
    logged) batch — no acknowledged write is ever lost."""
    injector = get_injector()
    injector.reset()
    with tempfile.TemporaryDirectory() as tmp:
        primary_dir = os.path.join(tmp, "primary")
        discoverer = DCDiscoverer(relation_from_rows(HEADER, base_rows()))
        session = DurableSession.create(
            discoverer, primary_dir, checkpoint_every=3, retain=2
        )
        followers = [
            FollowerSession.bootstrap(
                os.path.join(tmp, f"follower{index}"),
                DirectorySource(primary_dir),
                checkpoint_every=4,
            )
            for index in range(2)
        ]
        acknowledged = []
        try:
            for kind, payload in plan:
                if kind == "insert":
                    session.insert(payload)
                    acknowledged.append(("insert", payload))
                elif kind == "delete":
                    rids = _materialize_delete(
                        session.discoverer.relation, payload
                    )
                    session.delete(rids)
                    acknowledged.append(("delete", rids))
                elif kind == "checkpoint":
                    session.checkpoint()
                else:
                    followers[payload].poll()

            final = ("insert", random_rows(random.Random(47), 2))
            if crash_point is not None:
                injector.arm(crash_point)
            try:
                session.insert(final[1])
                acknowledged.append(final)
            except SimulatedCrash:
                session.simulate_power_loss()
                if crash_point not in BATCH_LOST:
                    # Crashed after the record's fsync: durably logged,
                    # so failover must preserve it.
                    acknowledged.append(final)
            else:
                session.close()
            finally:
                injector.reset()

            for follower in followers:
                drain(follower)
            oracle = oracle_bytes(acknowledged)
            assert state_to_bytes(followers[0].session.discoverer) == oracle
            assert state_to_bytes(followers[1].session.discoverer) == oracle
        finally:
            injector.reset()
            for follower in followers:
                follower.close()


# -- mixed-topology service tests --------------------------------------------


def _start_fleet(tmp_path, min_seq_wait_s=10.0):
    """One HTTP primary (replicate-listen) + one HTTP follower."""
    session = make_primary(tmp_path / "primary", checkpoint_every=100)
    primary = DCService(
        session,
        ServiceConfig(port=0, batch_window_ms=0.0, replicate_listen=True),
    )
    primary.start()
    ServiceClient(base_url=primary.url).wait_ready()
    follower = FollowerSession.bootstrap(
        tmp_path / "follower",
        HTTPSource(primary.url),
        primary_url=primary.url,
    )
    service = FollowerService(
        follower,
        ServiceConfig(
            port=0,
            batch_window_ms=0.0,
            min_seq_wait_s=min_seq_wait_s,
            follow_poll_wait_s=0.05,
        ),
        primary_url=primary.url,
    )
    service.start()
    ServiceClient(base_url=service.url).wait_ready()
    return primary, service


class TestMixedTopology:
    def test_reads_during_write_burst(self, tmp_path):
        """Concurrent follower readers during a primary write burst: every
        reader sees monotone snapshot seqs; once caught up (min_seq), the
        follower's /check verdict matches the primary's at the same seq."""
        primary, fservice = _start_fleet(tmp_path)
        pclient = ServiceClient(base_url=primary.url, timeout=10.0)
        stop = threading.Event()
        failures = []

        def reader():
            client = ServiceClient(base_url=fservice.url, timeout=10.0)
            last = -1
            try:
                while not stop.is_set():
                    payload = client.dcs()
                    if payload["seq"] < last:
                        failures.append(
                            f"seq went backwards: {payload['seq']} < {last}"
                        )
                        return
                    last = payload["seq"]
            except Exception as exc:  # surfaced after join
                failures.append(repr(exc))

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        try:
            rng = random.Random(53)
            final_seq = 0
            for _ in range(10):
                final_seq = pclient.insert(random_rows(rng, 2))["seq"]
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert not failures, failures

        fclient = ServiceClient(base_url=fservice.url, timeout=10.0)
        # Read-your-writes across nodes: the commit seq from the primary
        # is a valid staleness token on the follower.
        follower_view = fclient.dcs(min_seq=final_seq)
        assert follower_view["seq"] >= final_seq
        row = random_rows(rng, 1)[0]
        mine = pclient.check(row, min_seq=final_seq)
        theirs = fclient.check(row, min_seq=final_seq)
        for payload in (mine, theirs):
            payload.pop("trace_id", None)
        assert mine == theirs
        status = fclient.status()
        assert status["role"] == "follower"
        assert status["replication"]["lag_seq"] == 0
        fservice.shutdown()
        primary.shutdown()

    def test_follower_rejects_writes_with_redirect(self, tmp_path):
        primary, fservice = _start_fleet(tmp_path)
        fclient = ServiceClient(base_url=fservice.url, timeout=10.0)
        with pytest.raises(NotPrimaryError) as excinfo:
            fclient.insert([(1, "a", 2)])
        assert excinfo.value.primary_url == primary.url
        with pytest.raises(NotPrimaryError):
            fclient.delete([0])
        fservice.shutdown()
        primary.shutdown()

    def test_stale_min_seq_answers_409(self, tmp_path):
        primary, fservice = _start_fleet(tmp_path, min_seq_wait_s=0.1)
        for url in (primary.url, fservice.url):
            client = ServiceClient(base_url=url, timeout=10.0)
            with pytest.raises(ServiceStaleError) as excinfo:
                client.dcs(min_seq=999)
            assert excinfo.value.min_seq == 999
            assert excinfo.value.seq == 0
        fservice.shutdown()
        primary.shutdown()

    def test_min_seq_wait_rides_out_replication_lag(self, tmp_path):
        """A bounded read that arrives *before* the frame does must block
        until the follower publishes the seq, not fail."""
        primary, fservice = _start_fleet(tmp_path)
        pclient = ServiceClient(base_url=primary.url, timeout=10.0)
        fclient = ServiceClient(base_url=fservice.url, timeout=10.0)
        seq = pclient.insert(random_rows(random.Random(59), 2))["seq"]
        payload = fclient.dcs(min_seq=seq)  # may block; must succeed
        assert payload["seq"] >= seq
        fservice.shutdown()
        primary.shutdown()

    def test_promote_flips_follower_to_writable_primary(self, tmp_path):
        primary, fservice = _start_fleet(tmp_path)
        pclient = ServiceClient(base_url=primary.url, timeout=10.0)
        fclient = ServiceClient(base_url=fservice.url, timeout=10.0)
        rng = random.Random(61)
        seq = pclient.insert(random_rows(rng, 2))["seq"]
        fclient.dcs(min_seq=seq)
        primary.shutdown()

        promoted = fclient.promote()
        assert promoted["promoted"] is True
        assert promoted["role"] == "primary"
        assert fclient.promote()["promoted"] is False  # idempotent
        out = fclient.insert(random_rows(rng, 2))
        assert out["seq"] == seq + 1
        assert fclient.status()["role"] == "primary"
        fservice.shutdown()

    def test_replication_endpoints_require_opt_in(self, tmp_path):
        """Without --replicate-listen the frame feed is a 400, so a
        misconfigured follower fails loudly instead of silently stalling."""
        session = make_primary(tmp_path / "primary")
        service = DCService(session, ServiceConfig(port=0, batch_window_ms=0.0))
        service.start()
        client = ServiceClient(base_url=service.url, timeout=10.0)
        client.wait_ready()
        with pytest.raises(ServiceError, match="replicate-listen"):
            client.replication_frames()
        with pytest.raises(ServiceError, match="replicate-listen"):
            client.replication_checkpoint()
        service.shutdown()

    def test_wal_reader_survives_primary_restart(self, tmp_path):
        """A WALReader (hence a DirectorySource follower) tailing a
        directory across the owner's close/recover keeps reading the same
        stream — recovery truncates torn tails in place."""
        primary = make_primary(tmp_path / "primary")
        primary.insert(random_rows(random.Random(5), 2))
        reader = WALReader(os.path.join(tmp_path / "primary", WAL_NAME))
        frames, reset = reader.poll()
        assert [frame.record["seq"] for frame in frames] == [1]
        assert not reset
        primary.close()
        reopened = DurableSession.recover(tmp_path / "primary")
        reopened.insert(random_rows(random.Random(6), 2))
        frames, reset = reader.poll()
        assert [frame.record["seq"] for frame in frames] == [2]
        assert not reset
        reader.close()
        reopened.close()
