"""Unit tests for the durability subsystem: framing, WAL, atomic writes,
checkpoints, fault injection, and the DurableSession life cycle.

The crash *matrix* (every fault point × every operation, byte-identity
against an uninterrupted oracle) lives in tests/test_crash_matrix.py;
this module pins the building blocks it stands on.
"""

import gc
import json
import os
import random
import zlib

import pytest

from repro import DCDiscoverer, DurableSession, SessionError, relation_from_rows
from repro.core.state_io import state_to_bytes
from repro.durability import (
    FAULT_POINTS,
    FaultInjector,
    SimulatedCrash,
    WALReader,
    WriteAheadLog,
    fault_point,
)
from repro.durability.atomic import atomic_write_bytes, canonical_json_bytes
from repro.durability.checkpoint import (
    apply_retention,
    checkpoint_name,
    list_checkpoints,
    load_latest_checkpoint,
    validate_checkpoint,
    write_checkpoint,
    CheckpointError,
)
from repro.durability.crashsim import discard_unsynced_tail, drop_tmp_files
from repro.durability.framing import (
    HEADER_SIZE,
    decode_records,
    encode_record,
    iter_records,
)
from repro.observability import FlightRecorder, Span, TraceContext, tracectx
from tests.conftest import random_rows


def make_fitted(seed=3, n_rows=12):
    rng = random.Random(seed)
    discoverer = DCDiscoverer(
        relation_from_rows(["A", "B", "C"], random_rows(rng, n_rows))
    )
    discoverer.fit()
    return discoverer


# -- framing -----------------------------------------------------------------


class TestFraming:
    def test_roundtrip(self):
        payloads = [b"alpha", b"", b"x" * 1000]
        blob = b"".join(encode_record(p) for p in payloads)
        assert list(iter_records(blob)) == payloads

    def test_good_size_is_full_length_for_valid_log(self):
        blob = encode_record(b"a") + encode_record(b"bb")
        _, good = decode_records(blob)
        assert good == len(blob)

    @pytest.mark.parametrize(
        "mutilate, surviving",
        [
            # Empty / zero-length log: nothing to recover, nothing raised.
            (lambda blob, last: b"", 0),
            # Torn tail: last frame loses its final byte.
            (lambda blob, last: blob[:-1], 2),
            # Torn tail: last frame is only a partial header.
            (lambda blob, last: blob[: last + HEADER_SIZE - 2], 2),
            # Flipped payload byte in the last record breaks its checksum.
            (
                lambda blob, last: blob[:-1] + bytes([blob[-1] ^ 0xFF]),
                2,
            ),
            # Flipped byte in the checksum field itself.
            (
                lambda blob, last: blob[: last + 8]
                + bytes([blob[last + 8] ^ 0x01])
                + blob[last + 9 :],
                2,
            ),
            # Corrupt magic in the middle truncates everything after it.
            (
                lambda blob, last: blob[:HEADER_SIZE + 1]
                + b"XXXX"
                + blob[HEADER_SIZE + 5 :],
                1,
            ),
        ],
        ids=[
            "empty-log",
            "torn-payload",
            "torn-header",
            "flipped-payload-byte",
            "flipped-checksum-byte",
            "corrupt-middle-magic",
        ],
    )
    def test_corruption_truncates_to_valid_prefix(self, mutilate, surviving):
        payloads = [b"a", b"bb", b"ccc"]
        blob = b"".join(encode_record(p) for p in payloads)
        last = len(encode_record(b"a")) + len(encode_record(b"bb"))
        damaged = mutilate(blob, last)
        recovered, good = decode_records(damaged)
        assert recovered == payloads[:surviving]
        assert good <= len(damaged)

    def test_absurd_length_field_rejected(self):
        blob = encode_record(b"ok")
        import struct

        bad = blob[:4] + struct.pack("<I", 1 << 31) + blob[8:]
        assert list(iter_records(bad + encode_record(b"after"))) == []

    def test_oversized_record_refused_at_write(self):
        with pytest.raises(ValueError, match="frame limit"):
            encode_record(b"x" * ((1 << 30) + 1))


# -- write-ahead log ---------------------------------------------------------


class TestWriteAheadLog:
    def test_append_and_replay(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.append({"seq": 1, "op": "insert", "rows": [[1, "a", 2]]})
        wal.append({"seq": 2, "op": "delete", "rids": [0]})
        wal.close()
        records = list(WriteAheadLog(tmp_path / "wal.log").replay())
        assert [r["seq"] for r in records] == [1, 2]
        assert records[1]["rids"] == [0]

    def test_replay_skips_incorporated_seqs(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        for seq in (1, 2, 3):
            wal.append({"seq": seq, "op": "delete", "rids": []})
        assert [r["seq"] for r in wal.replay(after_seq=2)] == [3]
        wal.close()

    def test_reset_then_append_continues(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.append({"seq": 1, "op": "delete", "rids": []})
        wal.reset()
        assert wal.size == 0
        wal.append({"seq": 2, "op": "delete", "rids": []})
        assert [r["seq"] for r in wal.replay()] == [2]
        wal.close()

    def test_reopen_appends_after_existing_records(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.append({"seq": 1, "op": "delete", "rids": []})
        wal.close()
        wal = WriteAheadLog(path)
        wal.append({"seq": 2, "op": "delete", "rids": []})
        wal.close()
        assert [r["seq"] for r in WriteAheadLog.read_records(path)[0]] == [1, 2]

    def test_missing_file_reads_empty(self, tmp_path):
        assert WriteAheadLog.read_records(tmp_path / "absent.log") == ([], 0)

    def test_valid_frame_with_non_json_payload_truncates(self, tmp_path):
        path = tmp_path / "wal.log"
        good = encode_record(canonical_json_bytes({"seq": 1, "op": "x"}))
        bad = encode_record(b"\xff not json")
        path.write_bytes(good + bad + good)
        records, _ = WriteAheadLog.read_records(path)
        assert [r["seq"] for r in records] == [1]

    def test_reopen_truncates_torn_tail_before_appending(self, tmp_path):
        """Regression: a torn tail a *real* power cut left on disk (no
        simulator cleaned it up) must be cut off on reopen — appending
        after the garbage would make every later fsync'd, acknowledged
        record invisible to replay."""
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.append({"seq": 1, "op": "delete", "rids": []})
        wal.append({"seq": 2, "op": "delete", "rids": []})
        wal.close()
        intact = path.read_bytes()
        path.write_bytes(intact[:-3])  # power cut tears the last frame
        wal = WriteAheadLog(path)
        assert wal.size == wal.durable_size == os.path.getsize(path)
        assert wal.size < len(intact)
        wal.append({"seq": 3, "op": "delete", "rids": []})
        wal.close()
        for _ in range(2):  # the appended record survives repeated reopens
            wal = WriteAheadLog(path)
            assert [r["seq"] for r in wal.replay()] == [1, 3]
            wal.close()

    def test_reopen_truncates_untrusted_non_json_tail(self, tmp_path):
        """The reopen truncation boundary matches replay's trust
        boundary: a checksum-valid frame with a non-JSON payload is cut
        off too, so appends land where replay resumes reading."""
        path = tmp_path / "wal.log"
        good = encode_record(canonical_json_bytes({"seq": 1, "op": "x"}))
        path.write_bytes(good + encode_record(b"\xff not json"))
        wal = WriteAheadLog(path)
        assert wal.size == len(good)
        wal.append({"seq": 2, "op": "delete", "rids": []})
        wal.close()
        records, good_size = WriteAheadLog.read_records(path)
        assert [r["seq"] for r in records] == [1, 2]
        assert good_size == os.path.getsize(path)

    def test_durable_size_tracks_fsyncs(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        assert wal.durable_size == 0
        wal.append({"seq": 1, "op": "delete", "rids": []})
        assert wal.durable_size == wal.size > 0
        wal.close()


class TestWALReader:
    """Tail-following a live WAL (the replication transport substrate)."""

    def _donor_frames(self, tmp_path, count):
        """Real frame bytes: ``(full_bytes, [end_offset_of_each_frame])``."""
        path = tmp_path / "donor.log"
        wal = WriteAheadLog(path)
        ends = []
        for seq in range(1, count + 1):
            wal.append({"seq": seq, "op": "delete", "rids": [seq]})
            ends.append(wal.size)
        wal.close()
        return path.read_bytes(), ends

    def test_incremental_appends_yield_only_new_frames(self, tmp_path):
        path = tmp_path / "wal.log"
        reader = WALReader(path)
        assert reader.poll() == ([], False)  # file does not exist yet
        wal = WriteAheadLog(path)
        wal.append({"seq": 1, "op": "delete", "rids": []})
        frames, reset = reader.poll()
        assert [f.record["seq"] for f in frames] == [1]
        assert not reset
        assert reader.poll() == ([], False)
        wal.append({"seq": 2, "op": "delete", "rids": []})
        wal.append({"seq": 3, "op": "delete", "rids": []})
        frames, reset = reader.poll()
        assert [f.record["seq"] for f in frames] == [2, 3]
        assert not reset
        reader.close()
        wal.close()

    def test_torn_tail_then_continue(self, tmp_path):
        """A frame delivered in two chunks surfaces exactly once, only
        when complete — the torn prefix stays buffered, never decoded."""
        data, ends = self._donor_frames(tmp_path, 2)
        cut = ends[0] + 7  # mid-second-frame
        path = tmp_path / "wal.log"
        reader = WALReader(path)
        with open(path, "wb") as handle:
            handle.write(data[:cut])
            handle.flush()
            frames, reset = reader.poll()
            assert [f.record["seq"] for f in frames] == [1]
            assert not reset
            assert reader.poll() == ([], False)  # torn tail: nothing yet
            handle.write(data[cut:])
            handle.flush()
        frames, reset = reader.poll()
        assert [f.record["seq"] for f in frames] == [2]
        assert not reset
        assert frames[0].raw == data[ends[0] :]
        reader.close()

    def test_shrinking_truncation_resets(self, tmp_path):
        """A file shrunk below the consumed offset (crash-torn tail cut)
        triggers a rescan-from-zero reset."""
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.append({"seq": 1, "op": "delete", "rids": []})
        wal.append({"seq": 2, "op": "delete", "rids": []})
        reader = WALReader(path)
        frames, _ = reader.poll()
        assert [f.record["seq"] for f in frames] == [1, 2]
        wal.reset()
        frames, reset = reader.poll()
        assert reset
        assert frames == []
        assert reader.resets == 1
        wal.close()
        reader.close()

    def test_truncate_then_append_past_old_offset_resets(self, tmp_path):
        """Regression: a reset WAL that grows back *past* the reader's
        old offset aliases with a plain append in ``fstat`` — the tail
        fingerprint must still detect the rewrite, or a follower would
        silently skip the post-reset frames."""
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.append({"seq": 1, "op": "delete", "rids": []})
        reader = WALReader(path)
        frames, _ = reader.poll()
        assert [f.record["seq"] for f in frames] == [1]
        old_offset = wal.size
        wal.reset()
        while wal.size <= old_offset:  # outgrow the consumed offset
            wal.append({"seq": 2, "op": "delete", "rids": [9]})
            break
        wal.append({"seq": 3, "op": "insert", "rows": [[1, "a", 2]]})
        assert wal.size > old_offset
        frames, reset = reader.poll()
        assert reset
        assert [f.record["seq"] for f in frames] == [2, 3]
        wal.close()
        reader.close()

    def test_mid_file_truncate_then_append_resets(self, tmp_path):
        """Regression: recovery cuts a torn tail *mid-file* and keeps
        appending — the file prefix is untouched and the size grows, yet
        everything past the cut changed under the reader's feet."""
        data, ends = self._donor_frames(tmp_path, 2)
        path = tmp_path / "wal.log"
        path.write_bytes(data[: ends[0] + 7])  # frame 1 + torn frame 2
        reader = WALReader(path)
        frames, _ = reader.poll()
        assert [f.record["seq"] for f in frames] == [1]
        # A recovering writer truncates the torn tail in place, then
        # appends different (bigger) frames.
        with open(path, "rb+") as handle:
            handle.truncate(ends[0])
        wal = WriteAheadLog(path)
        wal.append({"seq": 2, "op": "insert", "rows": [[5, "b", 1], [6, "c", 0]]})
        assert wal.size > ends[0] + 7
        frames, reset = reader.poll()
        assert reset
        assert [f.record["seq"] for f in frames] == [1, 2]
        wal.close()
        reader.close()

    def test_append_frame_replicates_bytes_verbatim(self, tmp_path):
        data, ends = self._donor_frames(tmp_path, 2)
        frames = [data[: ends[0]], data[ends[0] :]]
        wal = WriteAheadLog(tmp_path / "replica.log")
        for seq, frame in enumerate(frames, start=1):
            wal.append_frame(frame, seq=seq)
        assert wal.durable_size == wal.size == len(data)
        wal.close()
        assert (tmp_path / "replica.log").read_bytes() == data

    def test_append_frame_rejects_torn_or_multiple(self, tmp_path):
        data, ends = self._donor_frames(tmp_path, 2)
        wal = WriteAheadLog(tmp_path / "replica.log")
        with pytest.raises(ValueError):
            wal.append_frame(data[: ends[0] - 3])  # torn
        with pytest.raises(ValueError):
            wal.append_frame(data)  # two frames in one call
        corrupt = bytearray(data[: ends[0]])
        corrupt[-1] ^= 0xFF
        with pytest.raises(ValueError):
            wal.append_frame(bytes(corrupt))  # checksum broken
        assert wal.size == 0
        wal.close()


# -- atomic writes and the power-loss simulator ------------------------------


class TestAtomicWrite:
    def test_replaces_content(self, tmp_path):
        path = tmp_path / "f.json"
        atomic_write_bytes(path, b"one")
        atomic_write_bytes(path, b"two")
        assert path.read_bytes() == b"two"
        assert not os.path.exists(str(path) + ".tmp")

    @pytest.mark.parametrize(
        "point", ["checkpoint.pre_fsync", "checkpoint.pre_rename"]
    )
    def test_crash_before_rename_keeps_old_content(
        self, tmp_path, fault_injector, point
    ):
        path = tmp_path / "f.json"
        atomic_write_bytes(path, b"old")
        with fault_injector.armed(point):
            with pytest.raises(SimulatedCrash):
                atomic_write_bytes(path, b"new")
        drop_tmp_files(tmp_path)
        assert path.read_bytes() == b"old"

    def test_crash_after_rename_keeps_new_content(self, tmp_path, fault_injector):
        path = tmp_path / "f.json"
        atomic_write_bytes(path, b"old")
        with fault_injector.armed("checkpoint.post_rename"):
            with pytest.raises(SimulatedCrash):
                atomic_write_bytes(path, b"new")
        drop_tmp_files(tmp_path)
        assert path.read_bytes() == b"new"

    def test_discard_unsynced_tail(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(b"durable-bytes-plus-torn-tail")
        cut = discard_unsynced_tail(path, 13)
        assert path.read_bytes() == b"durable-bytes"
        assert cut == len(b"-plus-torn-tail")
        assert discard_unsynced_tail(path, 13) == 0
        assert discard_unsynced_tail(tmp_path / "absent", 5) == 0


# -- checkpoints -------------------------------------------------------------


class TestCheckpoints:
    def test_write_then_load_latest(self, tmp_path):
        write_checkpoint(tmp_path, 3, {"hello": 1})
        write_checkpoint(tmp_path, 7, {"hello": 2})
        seq, state, path = load_latest_checkpoint(tmp_path)
        assert (seq, state) == (7, {"hello": 2})
        assert path.endswith(checkpoint_name(7))

    def test_corrupt_latest_falls_back_to_predecessor(self, tmp_path):
        write_checkpoint(tmp_path, 1, {"n": 1})
        path = write_checkpoint(tmp_path, 2, {"n": 2})
        blob = bytearray(open(path, "rb").read())
        blob[len(blob) // 2] ^= 0xFF  # bit-rot inside the document
        with open(path, "wb") as handle:
            handle.write(blob)
        seq, state, _ = load_latest_checkpoint(tmp_path)
        assert (seq, state) == (1, {"n": 1})

    def test_no_valid_checkpoint_returns_none(self, tmp_path):
        assert load_latest_checkpoint(tmp_path) is None
        (tmp_path / checkpoint_name(5)).write_text("not json at all")
        assert load_latest_checkpoint(tmp_path) is None

    def test_validate_rejections(self):
        document = {
            "format": "3dc-checkpoint",
            "version": 1,
            "wal_seq": 0,
            "state": {"a": 1},
        }
        document["checksum"] = format(
            zlib.crc32(canonical_json_bytes({"a": 1})), "08x"
        )
        assert validate_checkpoint(dict(document)) == {"a": 1}
        for breakage in (
            {"format": "other"},
            {"version": 99},
            {"checksum": "00000000"},
        ):
            with pytest.raises(CheckpointError):
                validate_checkpoint({**document, **breakage})
        with pytest.raises(CheckpointError):
            validate_checkpoint([1, 2, 3])

    def test_ordering_is_numeric_beyond_zero_padding(self, tmp_path):
        """Regression: seqs past 10**10 outgrow the 10-digit padding, and
        reverse-lexical order would prefer ckpt-9999999999 over
        ckpt-10000000000 — ordering must parse the seq and compare
        numerically."""
        write_checkpoint(tmp_path, 9999999999, {"n": 1})
        write_checkpoint(tmp_path, 10**10, {"n": 2})
        names = [os.path.basename(p) for p in list_checkpoints(tmp_path)]
        assert names == [checkpoint_name(10**10), checkpoint_name(9999999999)]
        seq, state, _ = load_latest_checkpoint(tmp_path)
        assert (seq, state) == (10**10, {"n": 2})
        apply_retention(tmp_path, 1)
        assert [os.path.basename(p) for p in list_checkpoints(tmp_path)] == [
            checkpoint_name(10**10)
        ]

    def test_non_numeric_checkpoint_names_skipped(self, tmp_path):
        write_checkpoint(tmp_path, 1, {"n": 1})
        (tmp_path / "ckpt-foreign.json").write_text("{}")
        assert [os.path.basename(p) for p in list_checkpoints(tmp_path)] == [
            checkpoint_name(1)
        ]

    def test_retention_keeps_newest(self, tmp_path):
        for seq in range(6):
            write_checkpoint(tmp_path, seq, {"n": seq})
        deleted = apply_retention(tmp_path, 2)
        remaining = [os.path.basename(p) for p in list_checkpoints(tmp_path)]
        assert remaining == [checkpoint_name(5), checkpoint_name(4)]
        assert len(deleted) == 4

    def test_retention_never_deletes_everything(self, tmp_path):
        write_checkpoint(tmp_path, 1, {"n": 1})
        apply_retention(tmp_path, 0)
        assert list_checkpoints(tmp_path)


# -- fault injection ---------------------------------------------------------


class TestFaultInjection:
    def test_hit_only_when_armed(self):
        injector = FaultInjector()
        injector.hit("wal.append")  # disarmed: no-op
        injector.arm("wal.append")
        with pytest.raises(SimulatedCrash) as excinfo:
            injector.hit("wal.append")
        assert excinfo.value.point == "wal.append"
        injector.hit("wal.append")  # disarms after firing

    def test_skip_counts_hits(self):
        injector = FaultInjector()
        injector.arm("wal.pre_fsync", skip=2)
        injector.hit("wal.pre_fsync")
        injector.hit("wal.pre_fsync")
        with pytest.raises(SimulatedCrash):
            injector.hit("wal.pre_fsync")
        assert injector.crash_count == 1

    def test_unknown_point_rejected(self):
        injector = FaultInjector()
        with pytest.raises(ValueError, match="unknown fault point"):
            injector.arm("no.such.point")
        with pytest.raises(ValueError, match="unregistered"):
            fault_point("no.such.point")

    def test_registry_covers_all_planted_prefixes(self):
        prefixes = {name.split(".")[0] for name in FAULT_POINTS}
        assert prefixes == {"wal", "checkpoint", "state_save", "executor"}


# -- the durable session -----------------------------------------------------


class TestDurableSession:
    def test_create_requires_positive_cadence(self, tmp_path):
        with pytest.raises(ValueError, match="checkpoint_every"):
            DurableSession.create(make_fitted(), tmp_path / "s", checkpoint_every=0)

    def test_create_twice_refused(self, tmp_path):
        DurableSession.create(make_fitted(), tmp_path / "s").close()
        with pytest.raises(SessionError, match="already exists"):
            DurableSession.create(make_fitted(), tmp_path / "s")

    def test_create_fits_unfitted_discoverer(self, tmp_path):
        rng = random.Random(0)
        discoverer = DCDiscoverer(
            relation_from_rows(["A", "B", "C"], random_rows(rng, 8))
        )
        with DurableSession.create(discoverer, tmp_path / "s") as session:
            assert session.discoverer.dc_masks

    def test_recover_missing_directory(self, tmp_path):
        with pytest.raises(SessionError, match="manifest"):
            DurableSession.recover(tmp_path / "nope")

    def test_recover_foreign_manifest(self, tmp_path):
        os.makedirs(tmp_path / "s")
        (tmp_path / "s" / "session.json").write_text(json.dumps({"format": "x"}))
        with pytest.raises(SessionError, match="not a 3dc-session"):
            DurableSession.recover(tmp_path / "s")

    def test_recover_equals_live_session(self, tmp_path):
        rng = random.Random(7)
        session = DurableSession.create(
            make_fitted(seed=7), tmp_path / "s", checkpoint_every=2
        )
        session.insert(random_rows(rng, 3))
        session.delete([0, 4])
        session.insert(random_rows(rng, 2))
        live = state_to_bytes(session.discoverer)
        session.close()
        recovered = DurableSession.recover(tmp_path / "s")
        assert state_to_bytes(recovered.discoverer) == live
        assert recovered.replayed_records == 1  # one batch past the checkpoint
        recovered.close()

    def test_update_logs_delete_then_insert(self, tmp_path):
        rng = random.Random(9)
        session = DurableSession.create(
            make_fitted(seed=9), tmp_path / "s", checkpoint_every=100
        )
        session.update([1, 2], random_rows(rng, 2))
        records = list(session._wal.replay())
        assert [r["op"] for r in records] == ["delete", "insert"]
        session.close()

    def test_invalid_batches_never_reach_the_wal(self, tmp_path):
        session = DurableSession.create(
            make_fitted(), tmp_path / "s", checkpoint_every=100
        )
        with pytest.raises(KeyError):
            session.delete([99999])
        with pytest.raises(ValueError, match="duplicate"):
            session.delete([1, 1])
        with pytest.raises(ValueError, match="columns"):
            session.insert([(1, "a")])
        with pytest.raises(TypeError):
            session.insert([(1, object(), 2)])
        assert session._wal.size == 0  # nothing was logged
        session.close()

    def test_checkpoint_cadence_and_retention(self, tmp_path):
        rng = random.Random(5)
        session = DurableSession.create(
            make_fitted(seed=5), tmp_path / "s", checkpoint_every=1, retain=2
        )
        for _ in range(4):
            session.insert(random_rows(rng, 1))
        status = session.status()
        assert status["pending_wal_records"] == 0
        assert len(status["checkpoints"]) == 2
        assert status["checkpoint_seq"] == 4
        session.close()

    def test_corrupted_wal_tail_recovers_last_good_prefix(self, tmp_path):
        """A torn/bit-rotted WAL tail loses only the damaged suffix."""
        rng = random.Random(11)
        batches = [random_rows(rng, 2) for _ in range(3)]
        session = DurableSession.create(
            make_fitted(seed=11), tmp_path / "s", checkpoint_every=100
        )
        for batch in batches[:2]:
            session.insert(batch)
        two_batches = state_to_bytes(session.discoverer)
        session.insert(batches[2])
        session.close()
        wal_path = tmp_path / "s" / "wal.log"
        wal_path.write_bytes(wal_path.read_bytes()[:-3])  # tear the tail
        recovered = DurableSession.recover(tmp_path / "s")
        assert state_to_bytes(recovered.discoverer) == two_batches
        assert recovered.replayed_records == 2
        recovered.close()

    def test_append_after_torn_tail_survives_repeated_recovery(self, tmp_path):
        """Regression: batches acknowledged *after* recovering from a
        torn WAL tail must stay visible — recovery truncates the garbage
        instead of appending the new records after it."""
        rng = random.Random(17)
        session = DurableSession.create(
            make_fitted(seed=17), tmp_path / "s", checkpoint_every=100
        )
        session.insert(random_rows(rng, 2))
        session.insert(random_rows(rng, 2))
        session.close()
        wal_path = tmp_path / "s" / "wal.log"
        wal_path.write_bytes(wal_path.read_bytes()[:-3])  # tear the tail
        recovered = DurableSession.recover(tmp_path / "s")
        assert recovered.replayed_records == 1
        recovered.insert(random_rows(rng, 2))  # acknowledged post-tear
        expected = state_to_bytes(recovered.discoverer)
        recovered.close()
        for _ in range(2):
            again = DurableSession.recover(tmp_path / "s")
            assert state_to_bytes(again.discoverer) == expected
            assert again.replayed_records == 2
            again.close()

    def test_crash_between_checkpoint_and_manifest_is_retryable(
        self, tmp_path, fault_injector
    ):
        """Regression: create() commits via the manifest, written last —
        a crash after the initial checkpoint leaves a directory that
        recover() reports as no-session and create() can simply retry,
        never one both refuse."""
        discoverer = make_fitted(seed=21)
        with fault_injector.armed("checkpoint.pre_rename", skip=1):
            with pytest.raises(SimulatedCrash):
                DurableSession.create(discoverer, tmp_path / "s")
        drop_tmp_files(tmp_path / "s")
        with pytest.raises(SessionError, match="manifest"):
            DurableSession.recover(tmp_path / "s")
        session = DurableSession.create(discoverer, tmp_path / "s")
        expected = state_to_bytes(session.discoverer)
        session.close()
        recovered = DurableSession.recover(tmp_path / "s")
        assert state_to_bytes(recovered.discoverer) == expected
        recovered.close()

    def test_recovery_emits_durability_metrics(self, tmp_path):
        rng = random.Random(13)
        session = DurableSession.create(
            make_fitted(seed=13), tmp_path / "s", checkpoint_every=100
        )
        session.insert(random_rows(rng, 2))
        counters = session.discoverer.instrumentation.metrics.counters
        assert counters.get("durability.wal_records") == 1
        assert counters.get("durability.fsyncs", 0) >= 1
        assert counters.get("durability.wal_bytes", 0) > 0
        session.close()
        recovered = DurableSession.recover(tmp_path / "s")
        counters = recovered.discoverer.instrumentation.metrics.counters
        assert counters.get("durability.recovery_replayed") == 1
        recovered.close()

    def test_checkpoint_span_and_histogram(self, tmp_path):
        session = DurableSession.create(
            make_fitted(), tmp_path / "s", checkpoint_every=100
        )
        recorder = FlightRecorder()
        with tracectx.activate(TraceContext.mint(recorder=recorder)):
            session.checkpoint()
        instrumentation = session.discoverer.instrumentation
        names = [record["name"] for record in recorder.spans()]
        assert "durability.checkpoint" in names
        snapshot = instrumentation.metrics.snapshot()
        assert "durability.checkpoint_seconds" in snapshot.get("histograms", {})
        counters = instrumentation.metrics.counters
        assert counters.get("durability.checkpoints", 0) >= 1
        session.close()

    def test_writes_leave_no_live_spans(self, tmp_path):
        """Nothing holds a write's spans (WAL append, maintenance,
        checkpoint) once the write has returned."""
        rng = random.Random(21)
        session = DurableSession.create(
            make_fitted(seed=21), tmp_path / "s", checkpoint_every=8
        )

        def live_spans() -> int:
            gc.collect()
            return sum(1 for obj in gc.get_objects() if isinstance(obj, Span))

        session.insert(random_rows(rng, 1))
        after_first = live_spans()
        for _ in range(49):
            session.insert(random_rows(rng, 1))
        assert live_spans() <= after_first
        session.close()
