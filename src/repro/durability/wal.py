"""The write-ahead update log: durable insert/delete batches.

A :class:`WriteAheadLog` is an append-only file of framed JSON records
(:mod:`repro.durability.framing`), one per update batch.  The durability
contract is *log-before-apply*: :meth:`append` returns only after the
record is fsync'd, so by the time the in-memory discoverer touches a
batch, recovery can always replay it.  Conversely, a batch whose record
never reached disk never happened — recovery lands on the state before
it, which is also a state an uninterrupted run could have produced.

Records carry a monotonically increasing ``seq`` that survives log
resets: a checkpoint stores the ``seq`` it incorporates, and replay
skips records at or below it, which makes the checkpoint→WAL-reset pair
crash-safe in both orders (a crash between the checkpoint rename and
the reset only leaves already-incorporated records, which are skipped).

The log tracks its *durable size* — the byte length at the last fsync —
so the power-loss simulator (:mod:`repro.durability.crashsim`) can
discard exactly the bytes a real power cut could lose.  Opening an
existing log first truncates it to its valid prefix: a torn tail a real
power cut left behind must be cut off before new records are appended,
or everything appended after it would be unreachable at replay.
"""

from __future__ import annotations

import json
import os
from typing import Iterator, List, NamedTuple, Optional, Tuple

from repro.durability.atomic import canonical_json_bytes
from repro.durability.faults import fault_point
from repro.durability.framing import (
    decode_envelopes,
    decode_frames,
    encode_record,
)
from repro.observability import span, tracectx
from repro.observability.probe import get_probe


class WriteAheadLog:
    """Append-only, checksum-framed, fsync'd update log."""

    def __init__(self, path):
        self.path = os.fspath(path)
        # A real power cut can leave a torn frame at the tail that no
        # simulator cleaned up.  Truncate to the valid prefix *before*
        # positioning the append handle: appending after garbage would
        # make every later record — fsync'd and acknowledged — invisible
        # to replay, which stops at the first bad frame.
        _, good_size = self.read_records(self.path)
        self._handle = open(self.path, "ab")
        if self._handle.tell() > good_size:
            self._handle.truncate(good_size)
            self._handle.flush()
            os.fsync(self._handle.fileno())
        self._size = good_size
        #: Byte length known to be on disk (updated after each fsync).
        self.durable_size = self._size

    # -- writing ---------------------------------------------------------

    def append(
        self,
        record: dict,
        trace_id: Optional[str] = None,
        epoch: Optional[int] = None,
    ) -> None:
        """Frame, write, and fsync one record; crash-safe by contract.

        ``trace_id`` stamps the frame with the writing batch cycle's
        trace (see :mod:`repro.durability.framing`); when omitted, the
        thread's active trace context — the batch cycle, in the serving
        layer — is used.  ``epoch`` stamps the writer's commit epoch
        into the envelope (the fleet's fencing token); when omitted the
        pre-epoch frame layouts are written unchanged, so logs from
        sessions that never joined a fleet stay byte-identical.
        """
        if trace_id is None:
            context = tracectx.current()
            if context is not None:
                trace_id = context.trace_id
        with span("durability.wal_append") as appended:
            fault_point("wal.append")
            frame = encode_record(
                canonical_json_bytes(record), trace_id, epoch=epoch
            )
            self._handle.write(frame)
            self._handle.flush()
            fault_point("wal.pre_fsync")
            os.fsync(self._handle.fileno())
            self._size += len(frame)
            self.durable_size = self._size
            probe = get_probe()
            if probe is not None:
                probe.inc("durability.wal_records")
                probe.inc("durability.wal_bytes", len(frame))
                probe.inc("durability.fsyncs")
            appended.attrs.update(bytes=len(frame), seq=record.get("seq"))
            fault_point("wal.post_fsync")

    def append_frame(self, frame: bytes, seq: Optional[int] = None) -> None:
        """Write and fsync one *pre-framed* record verbatim.

        The replication apply path: a follower appends the primary's
        frame bytes unchanged (trace id included), so the follower's log
        is byte-for-byte the stream the primary acknowledged and any
        offline frame-level tooling reads both the same way.  The bytes
        must decode to exactly one valid frame — a follower must never
        persist what it could not replay.
        """
        decoded, good_size = decode_frames(frame)
        if len(decoded) != 1 or good_size != len(frame):
            raise ValueError(
                "append_frame requires exactly one complete valid frame"
            )
        with span("durability.wal_append") as appended:
            fault_point("wal.append")
            self._handle.write(frame)
            self._handle.flush()
            fault_point("wal.pre_fsync")
            os.fsync(self._handle.fileno())
            self._size += len(frame)
            self.durable_size = self._size
            probe = get_probe()
            if probe is not None:
                probe.inc("durability.wal_records")
                probe.inc("durability.wal_bytes", len(frame))
                probe.inc("durability.fsyncs")
            appended.attrs.update(bytes=len(frame), seq=seq, replicated=True)
            fault_point("wal.post_fsync")

    def reset(self) -> None:
        """Truncate the log to empty (after a checkpoint incorporated it).

        Safe at any crash instant: until the truncate is durable the old
        records survive, and replay skips them by ``seq``.
        """
        self._handle.truncate(0)
        self._handle.seek(0)
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._size = 0
        self.durable_size = 0
        probe = get_probe()
        if probe is not None:
            probe.inc("durability.wal_resets")
            probe.inc("durability.fsyncs")

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    @property
    def is_open(self) -> bool:
        return not self._handle.closed

    # -- reading ---------------------------------------------------------

    @staticmethod
    def read_records(path) -> Tuple[list, int]:
        """Decode ``(records, good_size)`` of the log's valid prefix.

        Corruption past the valid prefix — a torn tail, a flipped byte,
        an empty file — is normal after a crash and silently truncates
        the result; it never raises.
        """
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            return [], 0
        envelopes, _ = decode_envelopes(data)
        records = []
        good_size = 0
        for envelope in envelopes:
            try:
                record = json.loads(envelope.payload)
            except ValueError:
                # A frame whose checksum holds but whose payload is not
                # JSON was never written by us: stop trusting the log.
                break
            records.append(record)
            good_size += envelope.size
        return records, good_size

    @staticmethod
    def read_traced_records(path) -> List[Tuple[dict, Optional[str]]]:
        """``(record, trace id or None)`` pairs of the log's valid prefix.

        Read-only (no truncation, no append handle) — safe against a log
        another process is writing; the doctor bundle uses this to join
        WAL contents with recorded traces.
        """
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            return []
        frames, _ = decode_frames(data)
        records = []
        for payload, trace_id in frames:
            try:
                record = json.loads(payload)
            except ValueError:
                break
            records.append((record, trace_id))
        return records

    def replay(self, after_seq: int = -1) -> Iterator[dict]:
        """Valid records with ``seq > after_seq``, oldest first."""
        records, _ = self.read_records(self.path)
        for record in records:
            if record.get("seq", -1) > after_seq:
                yield record

    @property
    def size(self) -> int:
        return self._size

    def __repr__(self) -> str:
        return f"WriteAheadLog({self.path!r}, {self._size} bytes)"


#: How many of the newest consumed WAL bytes a :class:`WALReader`
#: fingerprints to detect in-place truncate-then-append rewrites whose
#: sizes alias with plain appends.
_TAIL_PROBE = 64


class TailFrame(NamedTuple):
    """One decoded frame from a :class:`WALReader` poll."""

    record: dict
    raw: bytes
    trace_id: Optional[str]
    #: Commit epoch of the writer (None for pre-epoch frame layouts).
    epoch: Optional[int] = None


class WALReader:
    """Tail-follow a live WAL without reopening it per poll.

    Keeps one read handle and a byte offset; :meth:`poll` reads only the
    bytes appended since the previous call and returns the newly
    completed frames.  A torn tail — a frame whose header landed but
    whose body has not (yet) — stays buffered until its continuation
    arrives, so a reader polling mid-append sees nothing rather than
    garbage, and the rest of the frame on the next poll
    (*torn-tail-then-continue*).

    The one discontinuity an append-only log allows is in-place
    truncation: a checkpoint resetting the WAL, or a recovering writer
    cutting a crash-torn tail.  A truncation that leaves the file
    *smaller* than the consumed offset is visible in ``fstat`` alone —
    but a truncate-then-append that grows the file back past the old
    offset is not (the sizes alias).  :meth:`poll` therefore also
    fingerprints the last :data:`_TAIL_PROBE` consumed bytes and
    re-reads them every poll: an append-only writer never changes bytes
    below the offset, while any rewrite does (replacement frames carry
    strictly larger ``seq`` values, so the bytes cannot repeat).
    Either signal triggers a rescan from the start with ``reset=True``;
    frames re-read after a reset may repeat, and it is the caller's job
    (the replication feed's) to dedup by ``seq``.
    """

    def __init__(self, path):
        self.path = os.fspath(path)
        self._handle = None
        #: Bytes consumed from the file (buffered bytes included).
        self._offset = 0
        #: Undecodable tail bytes awaiting their continuation.
        self._buffer = b""
        #: Fingerprint of the newest consumed bytes (reset detection).
        self._tail_mark = b""
        #: How many in-place truncations this reader has survived.
        self.resets = 0

    def poll(self) -> Tuple[List[TailFrame], bool]:
        """``(new_frames, reset)`` appended since the previous poll."""
        reset = False
        if self._handle is None:
            try:
                self._handle = open(self.path, "rb")
            except FileNotFoundError:
                return [], False
        try:
            size = os.fstat(self._handle.fileno()).st_size
        except OSError:
            return [], False
        if size < self._offset:
            reset = True
        elif self._tail_mark:
            self._handle.seek(self._offset - len(self._tail_mark))
            if self._handle.read(len(self._tail_mark)) != self._tail_mark:
                reset = True
        if reset:
            self.resets += 1
            self._buffer = b""
            self._offset = 0
            self._tail_mark = b""
        if size > self._offset:
            self._handle.seek(self._offset)
            chunk = self._handle.read(size - self._offset)
            self._offset += len(chunk)
            self._buffer += chunk
            self._tail_mark = (self._tail_mark + chunk)[-_TAIL_PROBE:]
        frames: List[TailFrame] = []
        decoded, good_size = decode_envelopes(self._buffer)
        consumed = 0
        for envelope in decoded:
            raw = self._buffer[consumed : consumed + envelope.size]
            try:
                record = json.loads(envelope.payload)
            except ValueError:
                # Checksum-valid but not JSON: never written by us.
                # Stop trusting the stream (mirrors read_records).
                break
            frames.append(
                TailFrame(record, raw, envelope.trace_id, envelope.epoch)
            )
            consumed += envelope.size
        self._buffer = self._buffer[consumed:]
        return frames, reset

    def close(self) -> None:
        if self._handle is not None and not self._handle.closed:
            self._handle.close()
        self._handle = None

    def __enter__(self) -> "WALReader":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"WALReader({self.path!r}, offset={self._offset}, "
            f"{len(self._buffer)} buffered)"
        )
