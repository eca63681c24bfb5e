"""Python client for the DC service — drive it like an application.

:class:`ServiceClient` speaks the JSON-over-HTTP protocol of
:mod:`repro.service.server` with nothing but the stdlib.  Each call opens
its own connection (simple and unconditionally thread-safe: the
concurrency tests and the closed-loop benchmark share one client across
many threads).

Error mapping mirrors the protocol's status codes:

- 409 → :class:`ServiceStaleError` (the node could not reach the
  requested ``min_seq`` within its wait budget; ``.retry_after`` echoes
  the server's Retry-After hint) or :class:`FencedError` (the write
  reached a deposed primary — rerouting is mandatory, retrying here is
  futile);
- 421 → :class:`NotPrimaryError` (the node is a read-only follower;
  ``.primary_url`` says where the write belongs);
- 429 → :class:`ServiceSaturatedError` (back off and retry);
- 503 → :class:`ServiceUnavailableError` (draining, or commit timeout
  with *unknown* outcome);
- other non-2xx → :class:`ServiceError`.

Failover ergonomics (both off by default, so the error surface of
existing callers is unchanged):

- ``follow_writes=True`` makes :meth:`insert`/:meth:`delete` chase 421
  redirects through at most two hops (a loop of follower hints cannot
  spin the client);
- ``connect_retry_s > 0`` retries connection-refused failures with
  jittered backoff inside that budget — the promote window, where the
  old primary's socket is gone and the new one's is seconds away.
"""

from __future__ import annotations

import http.client
import json
import random
import time
from typing import Iterable, List, Optional, Sequence
from urllib.parse import urlsplit

from repro.observability.tracectx import TraceContext

#: Hard cap on 421 redirect hops per logical write.
MAX_REDIRECT_HOPS = 2

#: Initial backoff for connection-refused retries (doubles per attempt,
#: with up to 50% random jitter so a thundering herd of clients spreads
#: out across the promote window).
_CONNECT_BACKOFF_S = 0.05


class ServiceError(RuntimeError):
    """A non-2xx response from the service."""

    def __init__(self, status: int, payload: dict):
        message = payload.get("message") or payload.get("error") or "?"
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.payload = payload


class ServiceSaturatedError(ServiceError):
    """The write queue is full (HTTP 429) — back off and retry."""


class ServiceUnavailableError(ServiceError):
    """Draining or commit timeout (HTTP 503); write outcome unknown."""


class ServiceStaleError(ServiceError):
    """A ``min_seq``-bounded read could not be served fresh enough
    (HTTP 409): the node's snapshot seq is in ``.seq`` and the server's
    Retry-After hint (seconds) in ``.retry_after``."""

    def __init__(self, status: int, payload: dict):
        super().__init__(status, payload)
        self.min_seq = payload.get("min_seq")
        self.seq = payload.get("seq")
        self.retry_after = payload.get("retry_after")


class FencedError(ServiceError):
    """A write reached a fenced (deposed) primary — HTTP 409 with error
    code ``fenced``.  Unlike a stale read, retrying the same node is
    futile: reroute to the fleet's current primary."""

    def __init__(self, status: int, payload: dict):
        super().__init__(status, payload)
        self.epoch = payload.get("epoch")
        self.fenced_below = payload.get("fenced_below")


class NotPrimaryError(ServiceError):
    """A write reached a read-only follower (HTTP 421); retry against
    ``.primary_url``."""

    def __init__(self, status: int, payload: dict):
        super().__init__(status, payload)
        self.primary_url = payload.get("primary_url")


class ServiceClient:
    """Blocking client for one service endpoint."""

    def __init__(
        self,
        base_url: Optional[str] = None,
        host: Optional[str] = None,
        port: Optional[int] = None,
        timeout: float = 30.0,
        follow_writes: bool = False,
        connect_retry_s: float = 0.0,
    ):
        if base_url is not None:
            parts = urlsplit(base_url)
            self.host = parts.hostname or "127.0.0.1"
            self.port = parts.port or 80
        else:
            if host is None or port is None:
                raise ValueError("pass base_url or host and port")
            self.host = host
            self.port = port
        self.timeout = timeout
        #: Chase 421 redirects on writes (capped at MAX_REDIRECT_HOPS).
        self.follow_writes = follow_writes
        #: Total budget (seconds) for retrying connection-refused writes
        #: with jittered backoff; 0 disables retrying.
        self.connect_retry_s = connect_retry_s
        #: Trace id of the most recent request (from the X-Trace-Id
        #: response header), resolvable at ``GET /debug/trace``.
        self.last_trace_id: Optional[str] = None

    # -- transport --------------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[dict] = None,
        target: Optional[str] = None,
    ) -> dict:
        host, port = self.host, self.port
        if target is not None:
            parts = urlsplit(target)
            host = parts.hostname or host
            port = parts.port or 80
        connection = http.client.HTTPConnection(
            host, port, timeout=self.timeout
        )
        # Mint one trace context per call; the server adopts it, so the
        # client-side id and the server-side trace are the same.
        trace = TraceContext.mint()
        try:
            body = None
            headers = {"traceparent": trace.traceparent()}
            if payload is not None:
                body = json.dumps(payload).encode("utf-8")
                headers["Content-Type"] = "application/json"
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            raw = response.read()
        finally:
            connection.close()
        self.last_trace_id = (
            response.headers.get("X-Trace-Id") or trace.trace_id
        )
        if response.headers.get_content_type() == "text/plain":
            document = {"text": raw.decode("utf-8")}
        else:
            document = json.loads(raw.decode("utf-8")) if raw else {}
        if response.status == 409:
            if document.get("error") == "fenced":
                raise FencedError(response.status, document)
            raise ServiceStaleError(response.status, document)
        if response.status == 421:
            raise NotPrimaryError(response.status, document)
        if response.status == 429:
            raise ServiceSaturatedError(response.status, document)
        if response.status == 503:
            raise ServiceUnavailableError(response.status, document)
        if response.status >= 400:
            raise ServiceError(response.status, document)
        return document

    def wait_ready(self, deadline_s: float = 10.0) -> dict:
        """Poll ``/status`` until the service answers (or raise)."""
        deadline = time.monotonic() + deadline_s
        while True:
            try:
                return self.status()
            except (OSError, ServiceError):
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.05)

    # -- writes -----------------------------------------------------------

    def _write_request(self, path: str, payload: dict) -> dict:
        """POST one write, optionally chasing redirects and cold sockets.

        With ``follow_writes``, a 421 redirect hint is followed for at
        most :data:`MAX_REDIRECT_HOPS` hops (a redirect loop raises the
        last 421 instead of spinning).  With ``connect_retry_s``, a
        connection-refused failure — the signature of the promote
        window, when no node has the listening socket yet — is retried
        with exponential, jittered backoff until the budget runs out.
        """
        target: Optional[str] = None
        hops = 0
        deadline = time.monotonic() + self.connect_retry_s
        backoff = _CONNECT_BACKOFF_S
        while True:
            try:
                return self._request("POST", path, payload, target=target)
            except NotPrimaryError as exc:
                if (
                    not self.follow_writes
                    or exc.primary_url is None
                    or hops >= MAX_REDIRECT_HOPS
                ):
                    raise
                hops += 1
                target = exc.primary_url
            except ConnectionRefusedError:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise
                time.sleep(
                    min(remaining, backoff * (1 + random.random() * 0.5))
                )
                backoff *= 2

    def insert(
        self, rows: Iterable[Sequence], timeout: Optional[float] = None
    ) -> dict:
        """Durably insert rows; returns ``{"seq", "rids", ...}``."""
        payload = {"rows": [list(row) for row in rows]}
        if timeout is not None:
            payload["timeout"] = timeout
        return self._write_request("/insert", payload)

    def delete(
        self, rids: Iterable[int], timeout: Optional[float] = None
    ) -> dict:
        """Durably delete rows by rid."""
        payload = {"rids": [int(rid) for rid in rids]}
        if timeout is not None:
            payload["timeout"] = timeout
        return self._write_request("/delete", payload)

    # -- reads ------------------------------------------------------------
    #
    # ``min_seq`` on any read is the cross-node read-your-writes token:
    # pass the seq a commit returned and the answering node either serves
    # a snapshot at least that fresh or raises ServiceStaleError.

    def dcs(self, min_seq: Optional[int] = None) -> dict:
        """Current canonical DCs of the latest snapshot."""
        query = f"?min_seq={int(min_seq)}" if min_seq is not None else ""
        return self._request("GET", f"/dcs{query}")

    def rank(self, top: int = 10, min_seq: Optional[int] = None) -> dict:
        """Top-k ranked DCs of the latest snapshot."""
        query = f"/rank?top={int(top)}"
        if min_seq is not None:
            query += f"&min_seq={int(min_seq)}"
        return self._request("GET", query)

    def check(
        self,
        row: Sequence,
        dcs: Optional[List[str]] = None,
        limit: Optional[int] = None,
        min_seq: Optional[int] = None,
    ) -> dict:
        """Violation-check a candidate row *before* inserting it."""
        payload: dict = {"row": list(row)}
        if dcs is not None:
            payload["dcs"] = list(dcs)
        if limit is not None:
            payload["limit"] = int(limit)
        if min_seq is not None:
            payload["min_seq"] = int(min_seq)
        return self._request("POST", "/check", payload)

    def verify(
        self, limit: Optional[int] = None, min_seq: Optional[int] = None
    ) -> dict:
        """Per-DC verification verdicts of the latest snapshot.

        ``limit`` caps the violation count per DC (``None`` = server
        default, usually exact).
        """
        params = []
        if limit is not None:
            params.append(f"limit={int(limit)}")
        if min_seq is not None:
            params.append(f"min_seq={int(min_seq)}")
        query = "?" + "&".join(params) if params else ""
        return self._request("GET", f"/verify{query}")

    def status(self) -> dict:
        return self._request("GET", "/status")

    def metrics_text(self) -> str:
        """Prometheus exposition text of the live registry."""
        return self._request("GET", "/metrics")["text"]

    def debug_trace(
        self,
        trace_id: Optional[str] = None,
        slow: bool = False,
        limit: Optional[int] = None,
    ) -> dict:
        """Query the flight recorder: one resolved trace (``trace_id``),
        the slow-span ring (``slow=True``), or the recent spans/events."""
        params = []
        if trace_id is not None:
            params.append(f"trace_id={trace_id}")
        if slow:
            params.append("slow=1")
        if limit is not None:
            params.append(f"limit={int(limit)}")
        query = "?" + "&".join(params) if params else ""
        return self._request("GET", f"/debug/trace{query}")

    # -- replication ------------------------------------------------------

    def replication_frames(
        self,
        after_seq: int = 0,
        wait_s: float = 0.0,
        max_frames: Optional[int] = None,
        epoch: Optional[int] = None,
    ) -> dict:
        """Long-poll the primary's WAL frame feed (hex frame bytes).

        ``epoch`` advertises the requester's commit epoch; an upstream
        that is provably staler fences itself and answers 409.
        """
        query = f"?after_seq={int(after_seq)}&wait_s={float(wait_s):g}"
        if max_frames is not None:
            query += f"&max_frames={int(max_frames)}"
        if epoch is not None:
            query += f"&epoch={int(epoch)}"
        return self._request("GET", f"/replication/frames{query}")

    def replication_checkpoint(self) -> dict:
        """The primary's newest checkpoint document (follower catch-up)."""
        return self._request("GET", "/replication/checkpoint")

    def promote(self, epoch: Optional[int] = None) -> dict:
        """Ask a follower to take over primary duty (idempotent).

        ``epoch`` installs the fleet-chosen commit epoch; omitted, the
        node mints the next epoch after its own.
        """
        payload = {"epoch": int(epoch)} if epoch is not None else None
        return self._request("POST", "/promote", payload)

    def fence(self, epoch: int) -> dict:
        """Declare every epoch below ``epoch`` dead on this node."""
        return self._request("POST", "/fence", {"epoch": int(epoch)})

    def follow(self, url: str) -> dict:
        """Repoint a follower at a different upstream."""
        return self._request("POST", "/follow", {"url": url})

    def topology(self) -> dict:
        """This node's own view of its place in the fleet."""
        return self._request("GET", "/topology")

    def shutdown(self) -> dict:
        """Ask the service to drain and stop (returns immediately)."""
        return self._request("POST", "/shutdown")

    def __repr__(self) -> str:
        return f"ServiceClient(http://{self.host}:{self.port})"
