"""Serving from a replica: the follower-mode DC service.

A :class:`FollowerService` is a :class:`~repro.service.server.DCService`
whose writer thread is replaced by a replication loop: instead of
draining a write queue, it tails the primary's WAL through a
:class:`~repro.replication.follower.FollowerSession` and publishes a
fresh immutable snapshot after every applied frame batch.  Reads
(``GET /dcs``, ``/rank``, ``/check``, ``/verify``) are served locally
from those snapshots exactly as on the primary — same endpoints, same
payloads, same seq stamps — so a load balancer can spread reads across
the fleet and clients can pin freshness with the ``min_seq`` token.

Writes are refused with HTTP 421 and a ``primary_url`` redirect hint;
:meth:`promote` (or ``POST /promote``) flips the node to primary duty —
the replication loop stops, the write queue gets its writer thread, a
new commit epoch is minted, and the very same session directory starts
accepting writes.  ``POST /follow`` repoints a follower at a different
upstream (how the fleet monitor re-parents survivors after a failover,
and how chains deeper than one hop are built).
"""

from __future__ import annotations

import threading
import time
from typing import Optional

from repro.observability import get_logger
from repro.replication.follower import FollowerSession
from repro.replication.source import ReplicationError
from repro.service import protocol
from repro.service.config import ServiceConfig
from repro.service.server import DCService

logger = get_logger(__name__)

#: Backoff after a transient source failure (primary down/restarting).
_SOURCE_RETRY_S = 0.2


class FollowerService(DCService):
    """Serve reads from a replica; tail the primary; refuse writes."""

    role = "follower"

    def __init__(
        self,
        follower: FollowerSession,
        config: Optional[ServiceConfig] = None,
        primary_url: Optional[str] = None,
    ):
        self.follower = follower
        super().__init__(follower.session, config)
        self.primary_url = primary_url or follower.primary_url
        self._replication_stop = threading.Event()
        self._replication_thread: Optional[threading.Thread] = None
        self._promote_lock = threading.Lock()
        self._repoint_lock = threading.Lock()
        self._pending_upstream: Optional[str] = None
        self.source_errors_total = 0
        self.repoints_total = 0
        follower.export_gauges()

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        """Bind the HTTP server and start the replication loop."""
        self._start_http()
        self._replication_thread = threading.Thread(
            target=self._replication_loop,
            name="dc-service-replication",
            daemon=True,
        )
        self._replication_thread.start()
        logger.debug(
            "follower serving on %s:%d (primary: %s)",
            self.host,
            self.port,
            self.primary_url,
        )

    def _replication_loop(self) -> None:
        from repro.service.client import ServiceError

        while not self._replication_stop.is_set():
            self._apply_pending_repoint()
            try:
                self.replicate_once(wait_s=self.config.follow_poll_wait_s)
            except (OSError, ReplicationError, ServiceError) as exc:
                # Transient by assumption: the primary is down, draining,
                # or mid-rotation.  Keep the replica serving its current
                # snapshot and keep trying — surviving primary death is
                # the point of having a follower.
                self.source_errors_total += 1
                self._metric_gauge(
                    "replication.source_errors", self.source_errors_total
                )
                self.flight.record_event(
                    "replication_source_error", error=str(exc)
                )
                self._replication_stop.wait(_SOURCE_RETRY_S)
                continue
            except Exception as exc:  # apply failed: replica is broken
                self._failure = exc
                logger.error("replication apply failed: %s", exc)
                self.flight.record_event(
                    "replication_failure", error=str(exc)
                )
                return

    def replicate_once(self, wait_s: float = 0.0) -> int:
        """Poll the upstream once and publish a snapshot if the session
        moved (frames applied or a checkpoint installed); returns the
        records applied.  One step of the replication loop."""
        applied = self.follower.poll(wait_s=wait_s)
        if (
            self.session.last_applied_seq != self.snapshot.seq
            or self.session.discoverer is not self._cover_source
        ):
            with self._metrics_lock:
                self.session.export_gauges()
            self._publish_current()
        return applied

    def shutdown(self) -> None:
        self._replication_stop.set()
        if (
            self._replication_thread is not None
            and self._replication_thread.is_alive()
        ):
            self._replication_thread.join(
                timeout=self.config.drain_timeout_s
            )
        super().shutdown()

    # -- write path -------------------------------------------------------

    def submit(self, op, payload, timeout=None) -> dict:
        """Refuse writes while a follower; accept them once promoted."""
        if self.role == "primary":
            return super().submit(op, payload, timeout=timeout)
        raise protocol.NotPrimaryError(self.primary_url)

    # -- failover ---------------------------------------------------------

    def promote(self, epoch: Optional[int] = None) -> bool:
        """Take over primary duty; returns False if already promoted.

        Stops the replication loop, detaches the follower session (its
        directory is already a complete primary directory), mints a new
        commit epoch (``epoch`` to install the fleet-chosen value), and
        starts the writer thread — from here on this node is
        indistinguishable from a service that recovered the directory
        itself.  The epoch bump *is* the fence against the old primary:
        every frame it keeps writing carries a dead epoch and is
        rejected fleet-wide (docs/fleet.md).
        """
        with self._promote_lock:
            if self.role == "primary":
                return False
            self._replication_stop.set()
            if (
                self._replication_thread is not None
                and self._replication_thread.is_alive()
                and threading.current_thread() is not self._replication_thread
            ):
                self._replication_thread.join(
                    timeout=self.config.drain_timeout_s
                )
            self.follower.promote(epoch=epoch)
            self.role = "primary"
            self.started_at = time.time()
            self._metric_gauge("replication.lag_seq", 0)
            self._metric_gauge("replication.lag_seconds", 0.0)
            self._metric_gauge("fleet.epoch", self.session.epoch)
            self._start_writer()
            logger.debug(
                "follower promoted to primary at seq %d (epoch %d)",
                self.session.last_applied_seq,
                self.session.epoch,
            )
            return True

    def promote_payload(self, epoch: Optional[int] = None) -> dict:
        promoted = self.promote(epoch=epoch)
        return {
            "role": self.role,
            "promoted": promoted,
            "seq": self.session.last_applied_seq,
            "epoch": self.session.epoch,
        }

    # -- repointing (follower-of-anything) --------------------------------

    def repoint(self, url: str) -> None:
        """Ask the replication loop to tail a different upstream.

        Applied between polls (the loop owns the source object); the
        fleet monitor uses this to re-parent surviving followers onto a
        freshly promoted primary, and operators use it to build chains
        (a follower tailing another follower's ``/replication/frames``).
        """
        with self._repoint_lock:
            self._pending_upstream = url

    def _apply_pending_repoint(self) -> None:
        with self._repoint_lock:
            pending, self._pending_upstream = self._pending_upstream, None
        if pending is None or self.role != "follower":
            return
        from repro.replication.source import HTTPSource

        old = self.follower.source
        self.follower.source = HTTPSource(pending, epoch=self.session.epoch)
        self.follower.primary_url = pending
        self.primary_url = pending
        self.repoints_total += 1
        self._metric_gauge("replication.repoints", self.repoints_total)
        try:
            old.close()
        except Exception:  # pragma: no cover - defensive
            pass
        logger.debug("follower repointed to upstream %s", pending)

    def follow_payload(self, url: str) -> dict:
        if self.role != "follower":
            return super().follow_payload(url)
        self.repoint(url)
        return {"role": self.role, "upstream_url": url, "status": "repointing"}

    # -- introspection ----------------------------------------------------

    @property
    def upstream_url(self) -> Optional[str]:
        return self.primary_url if self.role == "follower" else None

    def status_payload(self) -> dict:
        payload = super().status_payload()
        if self.role == "follower":
            payload["primary_url"] = self.primary_url
            payload["replication"] = self.follower.status()
        return payload

    def topology_payload(self) -> dict:
        payload = super().topology_payload()
        if self.role == "follower":
            payload["lag_seq"] = self.follower.lag_seq
        return payload
