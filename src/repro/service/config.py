"""Configuration of the serving layer.

One :class:`ServiceConfig` parameterizes everything operational about a
:class:`~repro.service.server.DCService`: where it listens, how deep the
write queue may grow before admission control rejects (backpressure), how
long the writer lingers collecting concurrent writes into one coalesced
batch (the paper's batch-update model driven by live traffic), and how
long a client request may wait for its commit before being told to retry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

DEFAULT_HOST = "127.0.0.1"
DEFAULT_QUEUE_DEPTH = 64
DEFAULT_BATCH_WINDOW_MS = 5.0
DEFAULT_REQUEST_TIMEOUT_S = 30.0
DEFAULT_FLIGHT_RECORDER_SPANS = 2048
DEFAULT_SLOW_TRACE_THRESHOLD_S = 1.0


@dataclass(frozen=True)
class ServiceConfig:
    """Operational knobs of one service instance.

    :param host: bind address.
    :param port: bind port (0 = pick an ephemeral port; read the actual
        one from :attr:`DCService.port` after start).
    :param queue_depth: bounded write-queue capacity.  A write arriving
        at a full queue is rejected immediately with HTTP 429 — requests
        never hang on saturation.
    :param batch_window_ms: after picking up the first queued write, the
        writer waits this long for more requests to coalesce into the
        same batch.  0 disables the window: the writer still merges
        whatever has accumulated while it was busy, but never waits.
    :param request_timeout_s: how long a write request waits for its
        commit before the server answers 503.  The request stays queued
        — the 503 means "outcome unknown, poll /status", not "rolled
        back"; see docs/service.md.
    :param drain_timeout_s: shutdown grace period for the writer to
        drain the queue and checkpoint.
    :param flight_recorder_spans: capacity of the in-memory flight
        recorder's span ring (``GET /debug/trace`` serves from it).
    :param slow_trace_threshold_s: spans at least this long are copied
        into the recorder's slow ring, which outlives the main ring.
    :param metrics_out: when set, the service writes a final JSON metrics
        snapshot to this path on shutdown, after the drain — so the last
        coalesced cycle's counters survive a SIGTERM.
    :param verification_limit: default per-DC violation-count cap for
        ``GET /verify`` when the request carries no ``limit`` parameter.
        ``None`` (the default) counts exactly; a cap turns each check
        into a cheap "holds / violated at least N times" probe.
    :param replicate_listen: serve the replication feed
        (``GET /replication/frames`` and ``/replication/checkpoint``) so
        followers can tail this node's WAL.  Off by default — shipping
        the update stream is opt-in.
    :param min_seq_wait_s: how long a ``min_seq``-bounded read may block
        waiting for a fresh enough snapshot before answering 409.  The
        staleness token's wait budget, on primaries and followers alike.
    :param replication_wait_s_cap: upper bound a ``/replication/frames``
        long-poll honors for its ``wait_s`` parameter (keeps handler
        threads from being parked indefinitely by a bad client).
    :param replication_max_frames: frame-count cap per
        ``/replication/frames`` response (a lagging follower simply
        polls again).
    :param follow_poll_wait_s: how long a follower's replication loop
        asks its source to wait for new frames per poll (the long-poll
        interval; also bounds shutdown latency of the loop).
    """

    host: str = DEFAULT_HOST
    port: int = 0
    queue_depth: int = DEFAULT_QUEUE_DEPTH
    batch_window_ms: float = DEFAULT_BATCH_WINDOW_MS
    request_timeout_s: float = DEFAULT_REQUEST_TIMEOUT_S
    drain_timeout_s: float = 60.0
    flight_recorder_spans: int = DEFAULT_FLIGHT_RECORDER_SPANS
    slow_trace_threshold_s: float = DEFAULT_SLOW_TRACE_THRESHOLD_S
    metrics_out: Optional[str] = None
    verification_limit: Optional[int] = None
    replicate_listen: bool = False
    min_seq_wait_s: float = 5.0
    replication_wait_s_cap: float = 30.0
    replication_max_frames: int = 512
    follow_poll_wait_s: float = 0.5

    def __post_init__(self):
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if self.batch_window_ms < 0:
            raise ValueError("batch_window_ms must be >= 0")
        if self.request_timeout_s <= 0:
            raise ValueError("request_timeout_s must be > 0")
        if self.flight_recorder_spans < 1:
            raise ValueError("flight_recorder_spans must be >= 1")
        if self.slow_trace_threshold_s < 0:
            raise ValueError("slow_trace_threshold_s must be >= 0")
        if self.verification_limit is not None and self.verification_limit < 1:
            raise ValueError("verification_limit must be >= 1 or None")
        if self.min_seq_wait_s < 0:
            raise ValueError("min_seq_wait_s must be >= 0")
        if self.replication_wait_s_cap < 0:
            raise ValueError("replication_wait_s_cap must be >= 0")
        if self.replication_max_frames < 1:
            raise ValueError("replication_max_frames must be >= 1")
        if self.follow_poll_wait_s < 0:
            raise ValueError("follow_poll_wait_s must be >= 0")
