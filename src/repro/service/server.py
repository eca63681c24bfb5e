"""The long-running DC service: one writer, many lock-free readers.

Architecture (docs/service.md has the operator view)::

    clients ──HTTP──▶ handler threads ──▶ bounded write queue ─▶ writer
                         │                                        │
                         │ reads                    one coalesced batch
                         ▼                          per cycle (WAL+apply)
                  latest Snapshot ◀── publish ────────────┘

- **Write path**: POST /insert and /delete enqueue a
  :class:`~repro.service.coalescer.WriteRequest` and block until the
  writer commits it (or the per-request timeout fires).  The single
  writer thread drains the queue into one merged delta per cycle — N
  concurrent clients pay one incremental evidence update and one WAL
  append cycle instead of N.
- **Read path**: GET /dcs, /rank, /status and POST /check serve from the
  latest published :class:`~repro.service.snapshot.Snapshot` without
  taking any lock the writer can hold.
- **Backpressure**: a full queue rejects instantly with 429; a commit
  that outlives the request timeout answers 503 with outcome unknown.
- **Shutdown**: SIGTERM (or POST /shutdown) stops admissions, drains the
  queue, writes a final checkpoint, and closes the session — the durable
  state equals the serially-applied commit history.
"""

from __future__ import annotations

import json
import os
import queue
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import parse_qs, urlsplit

from repro.dcs.canonical import CanonicalCover
from repro.dcs.denial_constraint import DenialConstraint
from repro.dcs.violations import UnsupportedProbeError
from repro.durability.session import SessionFencedError
from repro.observability import (
    LATENCY_BOUNDS_S,
    PROMETHEUS_CONTENT_TYPE,
    FlightRecorder,
    TraceContext,
    get_logger,
    snapshot_to_json,
    snapshot_to_prometheus,
    span,
    split_counters,
    tracectx,
)
from repro.predicates.parser import parse_dc
from repro.service import protocol
from repro.service.coalescer import (
    OP_DELETE,
    OP_INSERT,
    WriteRequest,
    coalesce,
)
from repro.service.config import ServiceConfig
from repro.service.snapshot import Snapshot, build_snapshot

logger = get_logger(__name__)

#: How often the idle writer wakes to notice a shutdown request.
_IDLE_POLL_S = 0.05

#: Deterministic engine work counters split per request each cycle.  Any
#: probe counter would do; these are the ones Rapidash-style cost models
#: care about (pairs compared, index probes, evidence ops).
_WORK_COUNTERS = (
    "evidence.pairs_compared",
    "evidence.index_probes",
    "evidence.context_pipelines",
    "evidence.contexts_out",
    "evidence.pairs_inferred",
)


class ServiceStopped(RuntimeError):
    """A write was submitted to a service that no longer accepts any."""


class DCService:
    """Serves one :class:`~repro.durability.session.DurableSession`.

    The session (and its discoverer) is owned by the writer thread from
    :meth:`start` until the drain completes; everything any other thread
    needs is published through immutable snapshots.
    """

    #: What this node is: ``"primary"`` accepts writes; a follower
    #: subclass (:class:`~repro.replication.service.FollowerService`)
    #: flips this to ``"follower"`` until promoted.
    role = "primary"

    def __init__(self, session, config: Optional[ServiceConfig] = None):
        self.session = session
        self.config = config or ServiceConfig()
        self.instrumentation = session.discoverer.instrumentation
        self._queue: "queue.Queue[WriteRequest]" = queue.Queue(
            maxsize=self.config.queue_depth
        )
        #: Serializes metric mutation/export between handler threads,
        #: the writer, and /metrics (dict iteration vs. resize).
        self._metrics_lock = threading.Lock()
        self._stop = threading.Event()  # no new writes admitted
        self._drained = threading.Event()  # writer finished its drain
        self._shutdown_requested = threading.Event()
        self._failure: Optional[BaseException] = None
        #: Session operations (merged deletes, merged inserts) the writer
        #: has applied.
        self.commits = 0
        session.export_gauges()
        #: Signaled on every snapshot publish; min_seq-bounded reads and
        #: replication long-polls wait on it instead of busy-spinning.
        self._publish_cond = threading.Condition()
        #: The writer's canonical cover of Σ, fed one diff per publish,
        #: and the discoverer it tracks (readers never touch either).  The
        #: lock covers a promotion handing publishing from a replication
        #: thread that outlived its join to the writer thread.
        self._cover: Optional[CanonicalCover] = None
        self._cover_source = None
        self._cover_lock = threading.Lock()
        self._snapshot: Optional[Snapshot] = None
        self._publish_current()
        self._writer: Optional[threading.Thread] = None
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._http_thread: Optional[threading.Thread] = None
        #: Lazily built WAL frame cache behind /replication/frames
        #: (handler threads share it under the lock).
        self._feed = None
        self._feed_lock = threading.Lock()
        self.started_at = time.time()
        #: Ring buffer of recent spans, served at GET /debug/trace; every
        #: trace context this service activates is bound to it.
        self.flight = FlightRecorder(
            max_spans=self.config.flight_recorder_spans,
            slow_threshold_s=self.config.slow_trace_threshold_s,
        )

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        """Bind the HTTP server and start the writer thread."""
        self._start_http()
        self._start_writer()
        logger.debug("service listening on %s:%d", self.host, self.port)

    def _start_http(self) -> None:
        handler = _make_handler(self)
        self._httpd = ThreadingHTTPServer(
            (self.config.host, self.config.port), handler
        )
        self._httpd.daemon_threads = True
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="dc-service-http",
            daemon=True,
        )
        self._http_thread.start()

    def _start_writer(self) -> None:
        self._writer = threading.Thread(
            target=self._writer_loop, name="dc-service-writer", daemon=True
        )
        self._writer.start()

    @property
    def host(self) -> str:
        return self._httpd.server_address[0] if self._httpd else self.config.host

    @property
    def port(self) -> int:
        return self._httpd.server_port if self._httpd else self.config.port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def request_shutdown(self) -> None:
        """Signal-safe: ask the service to drain and stop."""
        self._shutdown_requested.set()

    def install_signal_handlers(self) -> None:
        """Route SIGTERM/SIGINT to a graceful drain (main thread only)."""

        def _handle(signum, frame):
            logger.debug("signal %d: draining service", signum)
            self.request_shutdown()

        signal.signal(signal.SIGTERM, _handle)
        signal.signal(signal.SIGINT, _handle)

    def serve_forever(self) -> None:
        """Block until a shutdown is requested, then drain and close."""
        if self._httpd is None:
            self.start()
        self._shutdown_requested.wait()
        self.shutdown()

    def shutdown(self) -> None:
        """Drain the write queue, checkpoint, and stop serving.

        Idempotent.  After it returns the session directory holds
        exactly the serially-applied commit history (final checkpoint
        included) and the HTTP socket is closed.
        """
        self._stop.set()
        self._shutdown_requested.set()
        if self._writer is not None:
            self._drained.wait(timeout=self.config.drain_timeout_s)
        else:
            self._drain_queue()  # never started: fail queued writes fast
        if self.session._wal.is_open:
            if self._failure is None:
                if self.session.status()["pending_wal_records"]:
                    self.session.checkpoint()
                self.session.export_gauges()
            self.session.close()
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
        if self._feed is not None:
            self._feed.close()
        with self._publish_cond:  # release min_seq waiters promptly
            self._publish_cond.notify_all()
        # The drain is complete: the registry now holds the last cycle's
        # counters, so this is the one snapshot a SIGTERM must not lose.
        if self.config.metrics_out:
            try:
                self.write_metrics_snapshot(self.config.metrics_out)
            except OSError as exc:
                logger.error("final metrics snapshot failed: %s", exc)
        logger.debug("service stopped after %d commits", self.commits)

    def write_metrics_snapshot(self, path) -> None:
        """Write the live registry to ``path`` as deterministic JSON."""
        with self._metrics_lock:
            snapshot = self.instrumentation.metrics.snapshot()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(snapshot_to_json(snapshot))
            handle.write("\n")

    # -- write path -------------------------------------------------------

    def submit(
        self, op: str, payload, timeout: Optional[float] = None
    ) -> dict:
        """Enqueue one write and wait for its outcome.

        Returns the response payload; raises :class:`queue.Full` on
        saturation and :class:`ServiceStopped` when draining.  A timeout
        returns a ``status: "timeout"`` payload (the request stays
        queued; its outcome is unknown to the caller).
        """
        if self._stop.is_set():
            raise ServiceStopped("service is draining")
        if self._failure is not None:
            raise ServiceStopped(f"writer failed: {self._failure}")
        if self.session.is_fenced:
            # A deposed primary must stop acknowledging immediately: the
            # fleet moved on to a newer epoch and nothing written here
            # will ever replicate.
            self._metric_inc("fleet.writes_fenced_total")
            raise protocol.FencedWriteError(
                self.session.epoch, self.session.fenced_below
            )
        request = WriteRequest(op, payload, trace=tracectx.current())
        self._queue.put_nowait(request)  # queue.Full propagates -> 429
        self._metric_gauge("service.queue.depth", self._queue.qsize())
        wait_s = timeout if timeout is not None else self.config.request_timeout_s
        if not request.done.wait(wait_s):
            self._metric_inc("service.requests_timeout_total")
            return {
                "status": "timeout",
                "error": protocol.ERR_TIMEOUT,
                "message": (
                    f"commit did not land within {wait_s:.3f}s; the write "
                    f"stays queued and may still be applied"
                ),
            }
        return request.outcome

    def _writer_loop(self) -> None:
        try:
            while True:
                try:
                    first = self._queue.get(timeout=_IDLE_POLL_S)
                except queue.Empty:
                    if self._stop.is_set():
                        break
                    continue
                batch = [first]
                window_s = self.config.batch_window_ms / 1000.0
                if window_s > 0 and not self._stop.is_set():
                    deadline = time.monotonic() + window_s
                    while True:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            break
                        try:
                            batch.append(self._queue.get(timeout=remaining))
                        except queue.Empty:
                            break
                while True:  # merge whatever else already accumulated
                    try:
                        batch.append(self._queue.get_nowait())
                    except queue.Empty:
                        break
                self._apply_cycle(batch)
        finally:
            self._drain_queue()
            self._drained.set()

    def _drain_queue(self) -> None:
        """Apply (or fail) everything still queued at shutdown."""
        leftovers = []
        while True:
            try:
                leftovers.append(self._queue.get_nowait())
            except queue.Empty:
                break
        if not leftovers:
            return
        if self._failure is None:
            self._apply_cycle(leftovers)
        else:
            for request in leftovers:
                request.resolve(
                    {
                        "status": "failed",
                        "error": protocol.ERR_INTERNAL,
                        "message": f"writer failed: {self._failure}",
                    }
                )

    def _apply_cycle(self, requests: list) -> None:
        """Validate, merge, durably apply, publish, respond.

        The cycle runs under its own freshly minted trace context whose
        cycle span *links* every contributing request's trace id — the
        join point ``/debug/trace`` follows from a request back to the
        batch that served it.  WAL appends and incremental maintenance
        inside :meth:`DurableSession.insert`/``delete`` inherit the cycle
        context through the writer thread's locals.
        """
        if self.config.cycle_delay_s:
            time.sleep(self.config.cycle_delay_s)
        with self._metrics_lock:
            self.instrumentation.inc("service.batches_total")
            self.instrumentation.inc(
                "service.coalesced_requests_total", len(requests)
            )
            self.instrumentation.observe("service.batch.size", len(requests))
        batch = coalesce(self.session, requests)
        for request, message in batch.rejected:
            self._metric_inc("service.requests_rejected_total")
            request.resolve(
                {
                    "status": "rejected",
                    "error": protocol.ERR_BAD_REQUEST,
                    "message": message,
                }
            )
        if not batch.n_admitted:
            return
        cycle_context = TraceContext.mint(recorder=self.flight)
        links = sorted({
            request.trace.trace_id
            for request in requests
            if request.trace is not None
        })
        started = time.perf_counter()
        with self._metrics_lock:
            work_before = {
                name: self.instrumentation.metrics.counter(name)
                for name in _WORK_COUNTERS
            }
        with tracectx.activate(cycle_context), span(
            "service.cycle",
            attrs={"requests": len(requests), "admitted": batch.n_admitted},
            links=links,
        ) as cycle_span:
            try:
                new_rids: list = []
                if batch.delete_rids:
                    self.session.delete(batch.delete_rids)
                    self.commits += 1
                if batch.insert_rows:
                    new_rids = self.session.insert(batch.insert_rows).rids
                    self.commits += 1
            except SessionFencedError as exc:
                # Fenced between admission and apply: the batch fails
                # with the hard 409 every zombie write gets, but the
                # writer itself stays healthy (the node may rejoin the
                # fleet as a follower without a restart).
                self._metric_inc("fleet.writes_fenced_total")
                outcome = {
                    "status": "fenced",
                    "error": protocol.ERR_FENCED,
                    "message": str(exc),
                    "epoch": exc.epoch,
                    "fenced_below": exc.fenced_below,
                }
                for request, _ in batch.deletes:
                    request.resolve(dict(outcome))
                for request, _, _ in batch.inserts:
                    request.resolve(dict(outcome))
                return
            except BaseException as exc:  # writer must never die silently
                self._failure = exc
                self._stop.set()
                logger.error("writer failed applying a batch: %s", exc)
                self.flight.record_event(
                    "writer_failure",
                    error=str(exc),
                    cycle_trace_id=cycle_context.trace_id,
                )
                for request, _ in batch.deletes:
                    request.resolve(_internal_failure(exc))
                for request, _, _ in batch.inserts:
                    request.resolve(_internal_failure(exc))
                return
            seq = self.session.last_applied_seq
            with self._metrics_lock:
                self.session.export_gauges()
                work_totals = {
                    name: self.instrumentation.metrics.counter(name)
                    - work_before[name]
                    for name in _WORK_COUNTERS
                }
            cycle_span.attrs["seq"] = seq
            cycle_span.attrs["work"] = dict(work_totals)
            self._publish_current()
        self._metric_observe(
            "service.cycle_seconds", time.perf_counter() - started
        )
        # Per-request work attribution: split the cycle's counter deltas
        # across admitted requests, weighted by row count, exactly (the
        # shares always sum back to the cycle totals).
        weights = [max(1, len(rids)) for _, rids in batch.deletes]
        weights += [max(1, count) for _, _, count in batch.inserts]
        shares = split_counters(work_totals, weights)
        position = 0
        for request, rid_list in batch.deletes:
            request.resolve(
                {
                    "status": "committed",
                    "seq": seq,
                    "rids": rid_list,
                    "work": shares[position],
                    "cycle_trace_id": cycle_context.trace_id,
                }
            )
            position += 1
        for request, offset, count in batch.inserts:
            request.resolve(
                {
                    "status": "committed",
                    "seq": seq,
                    "rids": new_rids[offset : offset + count],
                    "work": shares[position],
                    "cycle_trace_id": cycle_context.trace_id,
                }
            )
            position += 1

    # -- read path --------------------------------------------------------

    @property
    def snapshot(self) -> Snapshot:
        """The latest published snapshot (atomic reference read)."""
        return self._snapshot

    def _publish_current(self) -> None:
        """Snapshot the session's current state and publish it.

        The snapshot is built from the Σ diff since the previous one,
        through the writer's cover.  The cover is rebuilt (seeded from
        all of Σ) only when the session's discoverer was replaced, as by
        a follower's checkpoint install, or when a build failed midway.
        """
        started = time.perf_counter()
        with self._cover_lock:
            discoverer = self.session.discoverer
            previous = self._snapshot
            if discoverer is not self._cover_source:
                self._cover = CanonicalCover(discoverer.space)
                self._cover_source = discoverer
                previous = None
            try:
                with span("service.publish"):
                    snapshot = build_snapshot(
                        self.session, previous, self._cover
                    )
            except BaseException:
                self._cover_source = None  # the cover may be half-fed
                raise
            self._publish(snapshot)
        self._metric_observe(
            "service.publish_seconds", time.perf_counter() - started
        )

    def _publish(self, snapshot: Snapshot) -> None:
        """Publish a snapshot and wake everything waiting for its seq."""
        self._snapshot = snapshot
        with self._publish_cond:
            self._publish_cond.notify_all()

    def wait_for_min_seq(self, min_seq: int) -> Snapshot:
        """The latest snapshot once it reaches ``min_seq``, else 409.

        The cross-node read-your-writes token: a client that observed a
        commit at seq S passes ``min_seq=S`` to any replica and either
        gets a snapshot at least that fresh (waiting up to the config's
        ``min_seq_wait_s`` for replication/publication to catch up) or
        an explicit :class:`~repro.service.protocol.StaleReadError`.
        """
        snapshot = self._snapshot
        if snapshot.seq >= min_seq:
            return snapshot
        deadline = time.monotonic() + self.config.min_seq_wait_s
        with self._publish_cond:
            while True:
                snapshot = self._snapshot
                if snapshot.seq >= min_seq:
                    return snapshot
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise protocol.StaleReadError(min_seq, snapshot.seq)
                self._publish_cond.wait(remaining)

    # -- replication feed (the primary side of WAL shipping) --------------

    def _replication_feed(self):
        if not self.config.replicate_listen:
            return None
        if self._feed is None:
            from repro.replication.source import ReplicationFeed

            self._feed = ReplicationFeed(self.session.directory)
        return self._feed

    def replication_frames_payload(
        self,
        after_seq: int,
        wait_s: float,
        max_frames: int,
        requester_epoch: Optional[int] = None,
    ) -> dict:
        """Answer ``GET /replication/frames``: hex frames after a seq.

        Long-polls: with no new frames available, the handler thread
        parks on the publish condition until a commit lands or ``wait_s``
        (capped by config) runs out, so an idle fleet costs no CPU.

        ``requester_epoch`` is the poller's fencing heartbeat: a
        requester that has seen a newer epoch than this node proves this
        node's timeline is dead — the node fences *itself* and answers
        409 rather than feed a chain from dead history.  That is how
        epoch knowledge flows against the direction of replication.
        """
        feed = self._replication_feed()
        if feed is None:
            raise protocol.ProtocolError(
                "replication is not enabled on this node "
                "(start it with --replicate-listen)"
            )
        if (
            requester_epoch is not None
            and requester_epoch > self.session.epoch
        ):
            self._metric_inc("fleet.polls_fenced_total")
            self.session.fence(requester_epoch)
            raise protocol.FencedWriteError(
                self.session.epoch, self.session.fenced_below
            )
        wait_s = max(0.0, min(wait_s, self.config.replication_wait_s_cap))
        max_frames = max(
            1, min(max_frames, self.config.replication_max_frames)
        )
        deadline = time.monotonic() + wait_s
        while True:
            with self._feed_lock:
                batch = feed.fetch(after_seq, max_frames)
            if batch.frames or batch.snapshot_needed:
                break
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self._stop.is_set():
                break
            with self._publish_cond:
                self._publish_cond.wait(min(remaining, _IDLE_POLL_S * 4))
        self._metric_inc("service.replication_polls_total")
        return {
            "frames": [
                {"seq": frame.seq, "raw": frame.raw.hex(), "epoch": frame.epoch}
                for frame in batch.frames
            ],
            "last_seq": batch.last_seq,
            "checkpoint_seq": batch.checkpoint_seq,
            "snapshot_needed": batch.snapshot_needed,
            "epoch": batch.epoch,
            "source_seq": batch.source_seq,
        }

    def replication_checkpoint_payload(self) -> dict:
        """Answer ``GET /replication/checkpoint``: the newest checkpoint
        document verbatim (the follower re-validates its checksum)."""
        from repro.durability.checkpoint import list_checkpoints
        from repro.durability.session import CHECKPOINT_DIR

        if not self.config.replicate_listen:
            raise protocol.ProtocolError(
                "replication is not enabled on this node "
                "(start it with --replicate-listen)"
            )
        checkpoint_dir = os.path.join(self.session.directory, CHECKPOINT_DIR)
        self._metric_inc("service.replication_checkpoint_fetches_total")
        for path in list_checkpoints(checkpoint_dir):
            try:
                with open(path, "rb") as handle:
                    document = json.load(handle)
            except (OSError, ValueError):
                continue
            return {"document": document}
        raise protocol.ProtocolError("no checkpoint available to replicate")

    def promote_payload(self, epoch: Optional[int] = None) -> dict:
        """Answer ``POST /promote`` (idempotent on a primary)."""
        return {
            "role": self.role,
            "promoted": False,
            "epoch": self.session.epoch,
        }

    def fence_payload(self, epoch: int) -> dict:
        """Answer ``POST /fence``: declare every epoch below dead.

        The failover orchestrator's first move against a suspected-dead
        primary that might still be alive: after this lands (durably),
        the node hard-409s every write, so nothing acknowledged here can
        postdate the fence.
        """
        changed = self.session.fence(epoch)
        if changed:
            self._metric_inc("fleet.fences_total")
        return {
            "fenced_below": self.session.fenced_below,
            "epoch": self.session.epoch,
            "fenced": self.session.is_fenced,
            "changed": changed,
        }

    def follow_payload(self, url: str) -> dict:
        """Answer ``POST /follow`` — only meaningful on a follower."""
        raise protocol.ProtocolError(
            "this node is a primary; /follow repoints followers"
        )

    @property
    def upstream_url(self) -> Optional[str]:
        """Where this node replicates from (None on a primary)."""
        return None

    def topology_payload(self) -> dict:
        """Answer ``GET /topology``: this node's view of its own place.

        The fleet coordinator and :class:`~repro.fleet.client.FleetClient`
        aggregate these per-node answers into the routing table.
        """
        return {
            "role": self.role,
            "url": self.url,
            "epoch": self.session.epoch,
            "fenced": self.session.is_fenced,
            "fenced_below": self.session.fenced_below,
            "seq": self.session.last_applied_seq,
            "upstream_url": self.upstream_url,
            "serving": not self._stop.is_set(),
        }

    def status_payload(self) -> dict:
        payload = self.snapshot.status_payload()
        payload.update(
            {
                "role": self.role,
                "serving": not self._stop.is_set(),
                "uptime_s": round(time.time() - self.started_at, 3),
                "queue_depth": self._queue.qsize(),
                "queue_capacity": self.config.queue_depth,
                "batch_window_ms": self.config.batch_window_ms,
                "commits": self.commits,
                "epoch": self.session.epoch,
                "fenced": self.session.is_fenced,
                "upstream_url": self.upstream_url,
            }
        )
        return payload

    def metrics_text(self) -> str:
        """Prometheus exposition of the live registry (/metrics)."""
        with self._metrics_lock:
            for attempt in range(3):
                try:
                    snapshot = self.instrumentation.metrics.snapshot()
                    break
                except RuntimeError:  # resized mid-iteration by a probe
                    if attempt == 2:
                        raise
        return snapshot_to_prometheus(snapshot)

    def check_payload(self, body: dict, snapshot: Optional[Snapshot] = None) -> dict:
        """Violation-check a candidate row against the latest snapshot."""
        if snapshot is None:
            snapshot = self.snapshot
        row = protocol.coerce_row(
            snapshot.relation.schema, protocol.require_field(body, "row", list)
        )
        dcs = None
        if "dcs" in body:
            texts = protocol.require_field(body, "dcs", list)
            try:
                dcs = [
                    DenialConstraint(
                        parse_dc(text, snapshot.space), snapshot.space
                    )
                    for text in texts
                ]
            except (KeyError, ValueError) as exc:
                raise protocol.ProtocolError(f"bad DC: {exc}") from None
        limit = body.get("limit")
        if limit is not None and (not isinstance(limit, int) or limit < 0):
            raise protocol.ProtocolError("limit must be a non-negative int")
        self._metric_inc("service.checks_total")
        try:
            return snapshot.check(row, dcs=dcs, limit=limit)
        except UnsupportedProbeError as exc:
            # A DC that the snapshot's indexes cannot answer (an order
            # operator against a column with no range index) is a bad
            # request, not an internal failure.
            raise protocol.ProtocolError(f"unsupported DC: {exc}") from None

    def verify_payload(
        self, limit: Optional[int] = None, snapshot: Optional[Snapshot] = None
    ) -> dict:
        """Verify the snapshot's full Σ with the verification kernel."""
        if snapshot is None:
            snapshot = self.snapshot
        if limit is None:
            limit = self.config.verification_limit
        self._metric_inc("service.verifies_total")
        return snapshot.verify_payload(limit=limit)

    def debug_trace_payload(self, query: dict) -> dict:
        """Answer ``GET /debug/trace`` from the flight recorder.

        ``?trace_id=`` resolves one trace (links followed), ``?slow=1``
        lists the slow ring, otherwise the most recent spans and events;
        ``?limit=`` bounds any listing.
        """
        limit_raw = query.get("limit", ["100"])[0]
        try:
            limit = max(1, int(limit_raw))
        except ValueError:
            raise protocol.ProtocolError("limit must be an int") from None
        trace_id = query.get("trace_id", [None])[0]
        if trace_id:
            return self.flight.trace_tree(trace_id)
        if query.get("slow", ["0"])[0] not in ("0", "", "false"):
            return {
                "slow_threshold_s": self.flight.slow_threshold_s,
                "slow": self.flight.slow_spans(limit),
            }
        return {
            "spans": self.flight.spans(limit),
            "events": self.flight.events(limit),
        }

    # -- metric helpers (handler threads go through the lock) -------------

    def _metric_inc(self, name: str, amount: int = 1) -> None:
        with self._metrics_lock:
            self.instrumentation.inc(name, amount)

    def _metric_gauge(self, name: str, value: float) -> None:
        with self._metrics_lock:
            self.instrumentation.set_gauge(name, value)

    def _metric_observe(self, name: str, value: float) -> None:
        with self._metrics_lock:
            self.instrumentation.observe(name, value)

    def _finish_request(
        self, method: str, endpoint: str, elapsed: float, trace_id: str
    ) -> None:
        """One lock acquisition for everything a finished request emits:
        the aggregate latency histogram, the per-endpoint histogram with
        the request's trace id as bucket exemplar, and the request count.
        """
        with self._metrics_lock:
            self.instrumentation.observe("service.request_seconds", elapsed)
            self.instrumentation.observe(
                f"service.endpoint_seconds.{method} {endpoint}",
                elapsed,
                bounds=LATENCY_BOUNDS_S,
                exemplar=trace_id,
            )
            self.instrumentation.inc("service.requests_total")


def _internal_failure(exc: BaseException) -> dict:
    return {
        "status": "failed",
        "error": protocol.ERR_INTERNAL,
        "message": f"writer failed: {exc}",
    }


def _make_handler(service: DCService):
    """A request-handler class bound to one service instance."""

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        server_version = "repro-dc-service/1.0"

        # -- plumbing --------------------------------------------------

        def log_message(self, format, *args):  # noqa: A002 - stdlib name
            logger.debug("%s %s", self.address_string(), format % args)

        def _respond(
            self,
            status: int,
            payload: dict,
            headers: Optional[dict] = None,
        ) -> None:
            trace = getattr(self, "_trace", None)
            if trace is not None:
                # Shallow-copy before stamping: read payloads (rank, dcs)
                # are memoized on the shared snapshot, and mutating them
                # would leak the first requester's trace id to everyone.
                payload = dict(payload)
                payload["trace_id"] = trace.trace_id
            body = protocol.encode(payload)
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            if trace is not None:
                self.send_header("X-Trace-Id", trace.trace_id)
            for name, value in (headers or {}).items():
                self.send_header(name, str(value))
            if self.close_connection:
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)

        def _respond_error(self, code: str, message: str) -> None:
            self._respond(
                protocol.STATUS_OF_ERROR[code],
                {"status": "error", "error": code, "message": message},
            )

        def _read_body(self) -> dict:
            try:
                length = protocol.body_length(
                    self.headers.get("Content-Length")
                )
            except protocol.ProtocolError:
                # The body stays unread, so the stream cannot be resynced
                # for another request on this connection.
                self.close_connection = True
                raise
            return protocol.decode(self.rfile.read(length))

        def _route(self, method: str) -> None:
            started = time.perf_counter()
            url = urlsplit(self.path)
            # Adopt the caller's trace or mint one: every response
            # carries a trace id either way.
            self._trace = TraceContext.from_traceparent(
                self.headers.get("traceparent"), recorder=service.flight
            ) or TraceContext.mint(recorder=service.flight)
            known = (method, url.path) in _ROUTES
            endpoint = url.path if known else "unknown"
            try:
                with tracectx.activate(self._trace), span(
                    f"http.{method} {url.path}"
                ):
                    handler = _ROUTES.get((method, url.path))
                    if handler is None:
                        self._respond_error(
                            protocol.ERR_NOT_FOUND,
                            f"no such endpoint: {method} {url.path}",
                        )
                        return
                    handler(self, parse_qs(url.query))
            except protocol.BodyTooLargeError as exc:
                self._respond_error(protocol.ERR_TOO_LARGE, str(exc))
            except protocol.ProtocolError as exc:
                self._respond_error(protocol.ERR_BAD_REQUEST, str(exc))
            except protocol.StaleReadError as exc:
                service._metric_inc("service.requests_stale_total")
                retry_after = max(
                    1, int(round(service.config.min_seq_wait_s))
                )
                self._respond(
                    protocol.STATUS_OF_ERROR[protocol.ERR_STALE],
                    {
                        "status": "error",
                        "error": protocol.ERR_STALE,
                        "message": str(exc),
                        "min_seq": exc.min_seq,
                        "seq": exc.seq,
                        "retry_after": retry_after,
                    },
                    headers={"Retry-After": retry_after},
                )
            except (protocol.FencedWriteError, SessionFencedError) as exc:
                service._metric_inc("service.requests_fenced_total")
                self._respond(
                    protocol.STATUS_OF_ERROR[protocol.ERR_FENCED],
                    {
                        "status": "error",
                        "error": protocol.ERR_FENCED,
                        "message": str(exc),
                        "epoch": exc.epoch,
                        "fenced_below": exc.fenced_below,
                    },
                )
            except protocol.NotPrimaryError as exc:
                service._metric_inc("service.requests_not_primary_total")
                self._respond(
                    protocol.STATUS_OF_ERROR[protocol.ERR_NOT_PRIMARY],
                    {
                        "status": "error",
                        "error": protocol.ERR_NOT_PRIMARY,
                        "message": str(exc),
                        "primary_url": exc.primary_url,
                    },
                )
            except queue.Full:
                service._metric_inc("service.requests_saturated_total")
                service.flight.record_event(
                    "queue_full",
                    endpoint=f"{method} {url.path}",
                    trace_id=self._trace.trace_id,
                )
                self._respond_error(
                    protocol.ERR_SATURATED,
                    f"write queue is full "
                    f"(depth {service.config.queue_depth}); retry later",
                )
            except ServiceStopped as exc:
                self._respond_error(protocol.ERR_DRAINING, str(exc))
            except BrokenPipeError:  # client went away mid-response
                pass
            except Exception as exc:  # pragma: no cover - defensive
                logger.error("request handler failed: %s", exc)
                try:
                    self._respond_error(protocol.ERR_INTERNAL, str(exc))
                except Exception:
                    pass
            finally:
                service._finish_request(
                    method,
                    endpoint,
                    time.perf_counter() - started,
                    self._trace.trace_id,
                )

        def do_GET(self):  # noqa: N802 - stdlib casing
            self._route("GET")

        def do_POST(self):  # noqa: N802 - stdlib casing
            self._route("POST")

        # -- endpoints -------------------------------------------------

        def _bounded_snapshot(self, query, body=None):
            """The snapshot a read may serve, honoring ``min_seq``.

            The staleness token can arrive as a query parameter (GETs)
            or a body field (POST /check); absent either, the latest
            snapshot is served unconditionally.
            """
            raw = query.get("min_seq", [None])[0]
            if raw is None and body is not None:
                raw = body.get("min_seq")
            if raw is None:
                return service.snapshot
            try:
                min_seq = int(raw)
            except (TypeError, ValueError):
                raise protocol.ProtocolError(
                    "min_seq must be an int"
                ) from None
            return service.wait_for_min_seq(min_seq)

        def _get_dcs(self, query):
            self._respond(200, self._bounded_snapshot(query).dcs_payload())

        def _get_rank(self, query):
            try:
                top = int(query.get("top", ["10"])[0])
            except ValueError:
                raise protocol.ProtocolError("top must be an int") from None
            snapshot = self._bounded_snapshot(query)
            self._respond(200, snapshot.rank_payload(max(top, 0)))

        def _get_status(self, query):
            self._respond(200, service.status_payload())

        def _get_verify(self, query):
            limit_raw = query.get("limit", [None])[0]
            limit = None
            if limit_raw is not None:
                try:
                    limit = int(limit_raw)
                except ValueError:
                    raise protocol.ProtocolError(
                        "limit must be an int"
                    ) from None
                if limit < 1:
                    raise protocol.ProtocolError("limit must be >= 1")
            snapshot = self._bounded_snapshot(query)
            self._respond(
                200, service.verify_payload(limit=limit, snapshot=snapshot)
            )

        def _get_metrics(self, query):
            text = service.metrics_text().encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", PROMETHEUS_CONTENT_TYPE)
            self.send_header("Content-Length", str(len(text)))
            trace = getattr(self, "_trace", None)
            if trace is not None:
                self.send_header("X-Trace-Id", trace.trace_id)
            self.end_headers()
            self.wfile.write(text)

        def _get_debug_trace(self, query):
            self._respond(200, service.debug_trace_payload(query))

        def _post_write(self, op: str):
            body = self._read_body()
            field = "rows" if op == OP_INSERT else "rids"
            payload = protocol.require_field(body, field, list)
            timeout = body.get("timeout")
            if timeout is not None and not isinstance(timeout, (int, float)):
                raise protocol.ProtocolError("timeout must be a number")
            outcome = service.submit(op, payload, timeout=timeout)
            status = {
                "committed": 200,
                "rejected": 400,
                "timeout": 503,
                "failed": 500,
                "fenced": 409,
            }[outcome["status"]]
            self._respond(status, outcome)

        def _post_insert(self, query):
            self._post_write(OP_INSERT)

        def _post_delete(self, query):
            self._post_write(OP_DELETE)

        def _post_check(self, query):
            body = self._read_body()
            snapshot = self._bounded_snapshot(query, body)
            self._respond(
                200, service.check_payload(body, snapshot=snapshot)
            )

        def _post_shutdown(self, query):
            service.request_shutdown()
            self._respond(200, {"status": "draining"})

        def _post_promote(self, query):
            body = self._read_body()
            epoch = body.get("epoch")
            if epoch is not None and not isinstance(epoch, int):
                raise protocol.ProtocolError("epoch must be an int")
            self._respond(200, service.promote_payload(epoch=epoch))

        def _post_fence(self, query):
            body = self._read_body()
            epoch = protocol.require_field(body, "epoch", int)
            self._respond(200, service.fence_payload(epoch))

        def _post_follow(self, query):
            body = self._read_body()
            url = protocol.require_field(body, "url", str)
            self._respond(200, service.follow_payload(url))

        def _get_topology(self, query):
            self._respond(200, service.topology_payload())

        def _get_replication_frames(self, query):
            try:
                after_seq = int(query.get("after_seq", ["0"])[0])
                wait_s = float(query.get("wait_s", ["0"])[0])
                max_frames = int(
                    query.get(
                        "max_frames",
                        [str(service.config.replication_max_frames)],
                    )[0]
                )
                epoch_raw = query.get("epoch", [None])[0]
                requester_epoch = (
                    int(epoch_raw) if epoch_raw is not None else None
                )
            except ValueError:
                raise protocol.ProtocolError(
                    "after_seq/max_frames/epoch must be ints, wait_s a number"
                ) from None
            self._respond(
                200,
                service.replication_frames_payload(
                    after_seq,
                    wait_s,
                    max_frames,
                    requester_epoch=requester_epoch,
                ),
            )

        def _get_replication_checkpoint(self, query):
            self._respond(200, service.replication_checkpoint_payload())

    _ROUTES = {
        ("GET", "/dcs"): Handler._get_dcs,
        ("GET", "/rank"): Handler._get_rank,
        ("GET", "/status"): Handler._get_status,
        ("GET", "/verify"): Handler._get_verify,
        ("GET", "/metrics"): Handler._get_metrics,
        ("GET", "/debug/trace"): Handler._get_debug_trace,
        ("GET", "/replication/frames"): Handler._get_replication_frames,
        ("GET", "/replication/checkpoint"): (
            Handler._get_replication_checkpoint
        ),
        ("POST", "/insert"): Handler._post_insert,
        ("POST", "/delete"): Handler._post_delete,
        ("POST", "/check"): Handler._post_check,
        ("GET", "/topology"): Handler._get_topology,
        ("POST", "/shutdown"): Handler._post_shutdown,
        ("POST", "/promote"): Handler._post_promote,
        ("POST", "/fence"): Handler._post_fence,
        ("POST", "/follow"): Handler._post_follow,
    }

    return Handler
