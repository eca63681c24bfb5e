"""Durable dynamic-discovery sessions: WAL + checkpoints around a discoverer.

A :class:`DurableSession` owns a directory::

    <dir>/session.json       manifest (format, checkpoint cadence, retention)
    <dir>/wal.log            write-ahead update log (framed, fsync'd)
    <dir>/checkpoints/       rotated atomic checkpoints (ckpt-<seq>.json)

and wraps a fitted :class:`~repro.core.discoverer.DCDiscoverer` so that
every ``insert``/``delete``/``update`` batch is durably logged *before*
it touches in-memory state, and the full serialized state is periodically
checkpointed atomically.  After a crash at any instant,
:meth:`DurableSession.recover` loads the newest valid checkpoint and
replays the WAL tail, landing on exactly the state an uninterrupted run
over the durably-logged batch prefix would have produced — byte for byte
(the crash matrix in ``tests/test_crash_matrix.py`` proves this for
every registered fault point).

Batches are validated *before* they are logged: a record that reaches
the WAL must be replayable, otherwise recovery would re-raise the same
error forever.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.discoverer import DCDiscoverer
    from repro.core.results import UpdateResult

# NOTE: repro.core is imported lazily inside methods, not here: core's
# state_io routes its saves through repro.durability.atomic, so a
# module-level import in either direction would be circular.  durability
# below core, session on top — the lazy import keeps the package
# importable from both ends.
from repro.durability.atomic import atomic_write_json
from repro.durability.checkpoint import (
    apply_retention,
    list_checkpoints,
    load_latest_checkpoint,
    write_checkpoint,
)
from repro.durability.crashsim import discard_unsynced_tail, drop_tmp_files
from repro.durability.wal import WriteAheadLog
from repro.observability import get_logger, span
from repro.relational.relation import Relation
from repro.relational.schema import ColumnType, Schema

logger = get_logger(__name__)

MANIFEST_NAME = "session.json"
WAL_NAME = "wal.log"
CHECKPOINT_DIR = "checkpoints"
MANIFEST_FORMAT = "3dc-session"
MANIFEST_VERSION = 1

DEFAULT_CHECKPOINT_EVERY = 8
DEFAULT_RETAIN = 3

#: Epoch a session is minted at (and the epoch every pre-fleet manifest
#: implicitly carries — legacy manifests without an ``epoch`` field
#: recover at this value).
INITIAL_EPOCH = 1


class SessionError(RuntimeError):
    """The session directory is missing, malformed, or unrecoverable."""


class SessionFencedError(SessionError):
    """A write reached a session whose commit epoch has been fenced.

    The fleet promoted a successor: every epoch below ``fenced_below``
    is dead, and this session's epoch is one of them.  The node must
    rejoin as a follower (which discards its unreplicated tail) before
    it can make progress again.
    """

    def __init__(self, epoch: int, fenced_below: int):
        super().__init__(
            f"session epoch {epoch} is fenced (epochs < {fenced_below} "
            f"are dead); rejoin as a follower to continue"
        )
        self.epoch = epoch
        self.fenced_below = fenced_below


def read_manifest(directory) -> dict:
    """Best-effort read of a session manifest (``{}`` when unreadable).

    Read-only helper for fleet tooling (replication sources report the
    upstream's epoch from it); never raises on a missing or torn file.
    """
    try:
        with open(os.path.join(os.fspath(directory), MANIFEST_NAME)) as handle:
            manifest = json.load(handle)
    except (OSError, ValueError):
        return {}
    return manifest if isinstance(manifest, dict) else {}


def _coerce_rows(schema: Schema, rows: Iterable[Sequence]) -> list:
    """Undo JSON's numeric lossiness for replayed/logged rows (a float
    column's integral values come back as ints)."""
    columns = list(schema)
    return [
        tuple(
            float(value)
            if column.ctype is ColumnType.FLOAT and isinstance(value, int)
            else value
            for value, column in zip(row, columns)
        )
        for row in rows
    ]


class DurableSession:
    """Crash-safe wrapper around one discoverer's update stream.

    Use :meth:`create` for a fresh session and :meth:`recover` (or its
    alias :meth:`open`) to resume one — never the constructor directly.
    """

    def __init__(
        self,
        directory,
        discoverer: DCDiscoverer,
        wal: WriteAheadLog,
        checkpoint_every: int,
        retain: int,
        next_seq: int,
        checkpoint_seq: int,
        pending_records: int = 0,
        replayed_records: int = 0,
        epoch: int = INITIAL_EPOCH,
        fenced_below: int = 0,
    ):
        self.directory = os.fspath(directory)
        self.discoverer = discoverer
        self.checkpoint_every = checkpoint_every
        self.retain = retain
        self._wal = wal
        self._next_seq = next_seq
        self._checkpoint_seq = checkpoint_seq
        self._pending_records = pending_records
        #: WAL records replayed by the most recent recovery (0 for create).
        self.replayed_records = replayed_records
        self._epoch = epoch
        self._fenced_below = fenced_below

    # -- construction ----------------------------------------------------

    @classmethod
    def create(
        cls,
        discoverer: DCDiscoverer,
        directory,
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
        retain: int = DEFAULT_RETAIN,
    ) -> "DurableSession":
        """Initialize a session directory around a discoverer.

        Fits the discoverer if needed, writes the initial checkpoint,
        and only then the manifest — the manifest is the commit point,
        so a session is recoverable from the moment this returns, and a
        crash mid-create leaves a directory ``create`` can simply retry
        (never one that both ``create`` and ``recover`` refuse).
        """
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        directory = os.fspath(directory)
        checkpoint_dir = os.path.join(directory, CHECKPOINT_DIR)
        os.makedirs(checkpoint_dir, exist_ok=True)
        if os.path.exists(os.path.join(directory, MANIFEST_NAME)):
            raise SessionError(f"session already exists in {directory}")
        if not discoverer._fitted:
            discoverer.fit()
        from repro.core.state_io import state_to_dict

        with discoverer.instrumentation.activate():
            write_checkpoint(checkpoint_dir, 0, state_to_dict(discoverer))
        atomic_write_json(
            os.path.join(directory, MANIFEST_NAME),
            {
                "format": MANIFEST_FORMAT,
                "version": MANIFEST_VERSION,
                "checkpoint_every": checkpoint_every,
                "retain": retain,
                "epoch": INITIAL_EPOCH,
            },
            fault_prefix="checkpoint",
        )
        wal = WriteAheadLog(os.path.join(directory, WAL_NAME))
        logger.debug("created durable session in %s", directory)
        return cls(
            directory,
            discoverer,
            wal,
            checkpoint_every=checkpoint_every,
            retain=retain,
            next_seq=1,
            checkpoint_seq=0,
        )

    @classmethod
    def recover(cls, directory) -> "DurableSession":
        """Resume a session: newest valid checkpoint + WAL tail replay."""
        directory = os.fspath(directory)
        manifest_path = os.path.join(directory, MANIFEST_NAME)
        try:
            with open(manifest_path) as handle:
                manifest = json.load(handle)
        except (OSError, ValueError) as exc:
            raise SessionError(
                f"no readable session manifest in {directory}"
            ) from exc
        if manifest.get("format") != MANIFEST_FORMAT:
            raise SessionError(f"not a {MANIFEST_FORMAT} directory")
        checkpoint_dir = os.path.join(directory, CHECKPOINT_DIR)
        loaded = load_latest_checkpoint(checkpoint_dir)
        if loaded is None:
            raise SessionError(f"no valid checkpoint in {checkpoint_dir}")
        from repro.core.state_io import state_from_dict

        checkpoint_seq, state_payload, path = loaded
        discoverer = state_from_dict(state_payload)

        wal = WriteAheadLog(os.path.join(directory, WAL_NAME))
        schema = discoverer.relation.schema
        last_seq = checkpoint_seq
        replayed = 0
        with discoverer.instrumentation.activate():
            for record in wal.replay(after_seq=checkpoint_seq):
                op = record.get("op")
                if op == "insert":
                    discoverer.insert(_coerce_rows(schema, record["rows"]))
                elif op == "delete":
                    discoverer.delete(record["rids"])
                else:
                    raise SessionError(f"unknown WAL op {op!r}")
                last_seq = record["seq"]
                replayed += 1
        discoverer.instrumentation.inc("durability.recovery_replayed", replayed)
        logger.debug(
            "recovered session from %s (+%d WAL records)", path, replayed
        )
        return cls(
            directory,
            discoverer,
            wal,
            checkpoint_every=manifest.get(
                "checkpoint_every", DEFAULT_CHECKPOINT_EVERY
            ),
            retain=manifest.get("retain", DEFAULT_RETAIN),
            next_seq=last_seq + 1,
            checkpoint_seq=checkpoint_seq,
            pending_records=replayed,
            replayed_records=replayed,
            epoch=int(manifest.get("epoch", INITIAL_EPOCH)),
            fenced_below=int(manifest.get("fenced_below", 0)),
        )

    #: Alias: resuming and recovering are the same code path by design.
    open = recover

    # -- commit epoch and fencing ----------------------------------------

    @property
    def epoch(self) -> int:
        """The session's commit epoch: minted at create, bumped by every
        promotion, stamped into each WAL frame's envelope."""
        return self._epoch

    @property
    def fenced_below(self) -> int:
        """Epochs below this value are dead (0 = never fenced)."""
        return self._fenced_below

    @property
    def is_fenced(self) -> bool:
        """Whether this session's own epoch has been fenced off."""
        return self._epoch < self._fenced_below

    def _write_manifest(self) -> None:
        """Atomically rewrite the manifest with the live epoch/fence.

        The manifest is the commit point for epoch transitions exactly as
        it is for session creation: a promotion is durable — and frames
        may carry the new epoch — only after this rename lands.
        """
        manifest = {
            "format": MANIFEST_FORMAT,
            "version": MANIFEST_VERSION,
            "checkpoint_every": self.checkpoint_every,
            "retain": self.retain,
            "epoch": self._epoch,
        }
        if self._fenced_below:
            manifest["fenced_below"] = self._fenced_below
        atomic_write_json(
            os.path.join(self.directory, MANIFEST_NAME),
            manifest,
            fault_prefix="checkpoint",
        )

    def bump_epoch(self, new_epoch: Optional[int] = None) -> int:
        """Move to a strictly higher epoch (a promotion), durably.

        The manifest write happens *before* the in-memory epoch flips, so
        no frame can ever carry an epoch the directory does not yet
        admit.  Returns the new epoch.
        """
        if new_epoch is None:
            new_epoch = self._epoch + 1
        if new_epoch <= self._epoch:
            raise SessionError(
                f"epoch must increase: {new_epoch} <= current {self._epoch}"
            )
        previous, self._epoch = self._epoch, new_epoch
        try:
            self._write_manifest()
        except BaseException:
            self._epoch = previous
            raise
        logger.debug(
            "session %s epoch %d -> %d", self.directory, previous, new_epoch
        )
        return new_epoch

    def adopt_epoch(self, epoch: int) -> bool:
        """Adopt a higher epoch observed on the replication stream.

        Followers call this when their upstream's frames carry a newer
        epoch than their own — the normal way promotion knowledge spreads
        down a replication chain.  Idempotent; returns True if the epoch
        moved.  Adopting an epoch at or above ``fenced_below`` clears the
        fence (the node rejoined the live timeline).
        """
        if epoch <= self._epoch:
            return False
        self.bump_epoch(epoch)
        return True

    def fence(self, below_epoch: int) -> bool:
        """Record that every epoch below ``below_epoch`` is dead.

        The failover orchestrator's hammer: a session whose own epoch is
        fenced refuses writes with :class:`SessionFencedError` until it
        rejoins as a follower at a live epoch.  Durable (a restarted
        zombie stays fenced) and idempotent; returns True if the fence
        moved.
        """
        if below_epoch <= self._fenced_below:
            return False
        previous, self._fenced_below = self._fenced_below, below_epoch
        try:
            self._write_manifest()
        except BaseException:
            self._fenced_below = previous
            raise
        logger.debug(
            "session %s fenced below epoch %d (own epoch %d)",
            self.directory,
            below_epoch,
            self._epoch,
        )
        return True

    def _check_not_fenced(self) -> None:
        if self.is_fenced:
            raise SessionFencedError(self._epoch, self._fenced_below)

    # -- update stream ---------------------------------------------------

    def insert(self, rows: Iterable[Sequence]) -> UpdateResult:
        """Durably log, then apply, one insert batch."""
        self._check_not_fenced()
        materialized = [list(row) for row in rows]
        self._validate_insert(materialized)
        self._log({"op": "insert", "rows": materialized})
        result = self.discoverer.insert(
            _coerce_rows(self.discoverer.relation.schema, materialized)
        )
        self._maybe_checkpoint()
        return result

    def delete(self, rids: Iterable[int]) -> UpdateResult:
        """Durably log, then apply, one delete batch."""
        self._check_not_fenced()
        rid_list = sorted(int(rid) for rid in rids)
        self._validate_delete(rid_list)
        self._log({"op": "delete", "rids": rid_list})
        result = self.discoverer.delete(rid_list)
        self._maybe_checkpoint()
        return result

    def update(
        self, delete_rids: Iterable[int], insert_rows: Iterable[Sequence]
    ) -> Tuple[UpdateResult, UpdateResult]:
        """Mixed update as delete-then-insert — two WAL records, matching
        the discoverer's (and the paper's) decomposition."""
        return self.delete(delete_rids), self.insert(insert_rows)

    def validate_insert_rows(self, rows: Iterable[Sequence]) -> list:
        """Check an insert batch against the schema *without* applying it.

        Returns the materialized rows.  The service layer uses this for
        per-request admission before merging requests into one batch (a
        bad row must fail its own request, not the whole cycle).
        """
        materialized = [list(row) for row in rows]
        self._validate_insert(materialized)
        return materialized

    def validate_delete_rids(self, rids: Iterable[int]) -> list:
        """Check a delete batch (alive, duplicate-free) without applying.

        Returns the sorted rid list.
        """
        rid_list = sorted(int(rid) for rid in rids)
        self._validate_delete(rid_list)
        return rid_list

    def _validate_insert(self, rows: list) -> None:
        # A record must be replayable before it may be logged.
        schema = self.discoverer.relation.schema
        width = len(schema)
        for row in rows:
            if len(row) != width:
                raise ValueError(
                    f"row of {len(row)} values for {width} columns"
                )
            for value, column in zip(row, schema):
                Relation._check_value(value, column.ctype, column.name)

    def _validate_delete(self, rid_list: list) -> None:
        if len(set(rid_list)) != len(rid_list):
            raise ValueError("duplicate rids in delete batch")
        for rid in rid_list:
            if not self.discoverer.relation.is_alive(rid):
                raise KeyError(f"rid {rid} is not an alive row")

    def _log(self, record: dict) -> None:
        record["seq"] = self._next_seq
        with self.discoverer.instrumentation.activate():
            self._wal.append(record, epoch=self._epoch)
        self._next_seq += 1
        self._pending_records += 1

    # -- replication (follower apply path) -------------------------------

    def apply_replicated(self, record: dict, raw: bytes) -> None:
        """Durably append a primary-framed record, then apply it.

        The follower-side twin of :meth:`insert`/:meth:`delete`: same
        log-before-apply contract, but the WAL frame is the primary's
        bytes verbatim (:meth:`WriteAheadLog.append_frame`) instead of a
        re-encoding, so the follower's log is byte-identical to the
        acknowledged primary stream.  The record must be the next seq —
        gaps mean the caller skipped history and must re-seed from a
        checkpoint instead (:meth:`install_checkpoint`).
        """
        seq = record.get("seq")
        if seq != self._next_seq:
            raise SessionError(
                f"replicated record seq {seq!r} does not follow "
                f"last applied seq {self.last_applied_seq}"
            )
        op = record.get("op")
        if op not in ("insert", "delete"):
            raise SessionError(f"unknown WAL op {op!r}")
        with self.discoverer.instrumentation.activate():
            self._wal.append_frame(raw, seq=seq)
            self._next_seq += 1
            self._pending_records += 1
            if op == "insert":
                self.discoverer.insert(
                    _coerce_rows(self.discoverer.relation.schema, record["rows"])
                )
            else:
                self.discoverer.delete(record["rids"])
        self._maybe_checkpoint()

    def install_checkpoint(
        self, wal_seq: int, state_payload: dict, force: bool = False
    ) -> int:
        """Adopt a replicated checkpoint wholesale (follower catch-up).

        Writes the checkpoint locally, resets the WAL (every local record
        is at or below ``wal_seq`` and therefore incorporated), and swaps
        in the rebuilt state.  The live instrumentation is transplanted
        onto the new discoverer so metric streams survive the swap.

        ``force=True`` admits a checkpoint at or *below* the local seq —
        the rejoin-as-follower path for a fenced zombie, whose WAL tail
        past the new primary's history diverged and must be discarded
        wholesale.  Returns how many local records were discarded that
        way (0 on an ordinary catch-up).
        """
        discarded = 0
        if wal_seq <= self.last_applied_seq:
            if not force:
                raise SessionError(
                    f"checkpoint at seq {wal_seq} is not ahead of "
                    f"last applied seq {self.last_applied_seq}"
                )
            discarded = self.last_applied_seq - wal_seq
        from repro.core.state_io import state_from_dict

        checkpoint_dir = os.path.join(self.directory, CHECKPOINT_DIR)
        instrumentation = self.discoverer.instrumentation
        with instrumentation.activate(), span("durability.install_checkpoint"):
            discoverer = state_from_dict(state_payload)
            discoverer.instrumentation = instrumentation
            if force:
                # A rebase rewrites history: any local checkpoint *past*
                # the installed seq describes the diverged tail being
                # discarded, and retention (which keeps the newest seqs)
                # would otherwise preserve it for the next recovery to
                # resurrect.
                from repro.durability.checkpoint import parse_checkpoint_seq

                for path in list_checkpoints(checkpoint_dir):
                    seq = parse_checkpoint_seq(os.path.basename(path))
                    if seq is not None and seq > wal_seq:
                        try:
                            os.unlink(path)
                        except OSError:  # pragma: no cover - defensive
                            pass
            write_checkpoint(checkpoint_dir, wal_seq, state_payload)
            self._wal.reset()
            apply_retention(checkpoint_dir, self.retain)
        self.discoverer = discoverer
        self._next_seq = wal_seq + 1
        self._checkpoint_seq = wal_seq
        self._pending_records = 0
        if discarded:
            logger.debug(
                "installed checkpoint at seq %d, discarding %d diverged "
                "local records",
                wal_seq,
                discarded,
            )
        else:
            logger.debug("installed replicated checkpoint at seq %d", wal_seq)
        return discarded

    # -- checkpointing ---------------------------------------------------

    def checkpoint(self) -> str:
        """Write a checkpoint now; resets the WAL and applies retention.

        Returns the checkpoint path.  Crash-safe at every instant: until
        the atomic rename lands, recovery uses the previous checkpoint
        plus the intact WAL; after it, replay skips the incorporated
        records by seq even if the WAL reset never happened.
        """
        from repro.core.state_io import state_to_dict

        checkpoint_dir = os.path.join(self.directory, CHECKPOINT_DIR)
        last_seq = self._next_seq - 1
        instrumentation = self.discoverer.instrumentation
        with instrumentation.activate(), span(
            "durability.checkpoint", {"wal_seq": last_seq}
        ) as checkpoint_span:
            path = write_checkpoint(
                checkpoint_dir, last_seq, state_to_dict(self.discoverer)
            )
            self._checkpoint_seq = last_seq
            self._pending_records = 0
            self._wal.reset()
            apply_retention(checkpoint_dir, self.retain)
        instrumentation.observe(
            "durability.checkpoint_seconds", checkpoint_span.duration
        )
        logger.debug("checkpoint at seq %d -> %s", last_seq, path)
        return path

    def _maybe_checkpoint(self) -> None:
        if self._pending_records >= self.checkpoint_every:
            self.checkpoint()

    # -- introspection and shutdown --------------------------------------

    @property
    def last_applied_seq(self) -> int:
        """WAL seq of the most recently applied record (0 = none yet)."""
        return self._next_seq - 1

    def export_gauges(self) -> None:
        """Publish the session's state as ``durability.*`` gauges.

        Lands the same numbers :meth:`status` reports in the metrics
        registry, so ``session status --metrics-out`` and the serving
        layer's ``/metrics`` endpoint expose one consistent stream.
        """
        instrumentation = self.discoverer.instrumentation
        checkpoint_dir = os.path.join(self.directory, CHECKPOINT_DIR)
        instrumentation.set_gauge("durability.next_seq", self._next_seq)
        instrumentation.set_gauge(
            "durability.checkpoint_seq", self._checkpoint_seq
        )
        instrumentation.set_gauge(
            "durability.pending_wal_records", self._pending_records
        )
        instrumentation.set_gauge("durability.wal_bytes", self._wal.size)
        instrumentation.set_gauge(
            "durability.checkpoints_on_disk",
            len(list_checkpoints(checkpoint_dir)),
        )
        instrumentation.set_gauge("durability.epoch", self._epoch)
        instrumentation.set_gauge(
            "durability.fenced", 1 if self.is_fenced else 0
        )
        self.discoverer._record_state_gauges()

    def status(self) -> dict:
        """Machine-readable session status (backs ``session status``)."""
        checkpoint_dir = os.path.join(self.directory, CHECKPOINT_DIR)
        return {
            "directory": self.directory,
            "rows": len(self.discoverer.relation),
            "dcs": self.discoverer.n_dcs,
            "evidence_distinct": len(self.discoverer.evidence_set),
            "next_seq": self._next_seq,
            "checkpoint_seq": self._checkpoint_seq,
            "pending_wal_records": self._pending_records,
            "wal_bytes": self._wal.size,
            "checkpoints": [
                os.path.basename(p) for p in list_checkpoints(checkpoint_dir)
            ],
            "checkpoint_every": self.checkpoint_every,
            "retain": self.retain,
            "replayed_on_recovery": self.replayed_records,
            "epoch": self._epoch,
            "fenced": self.is_fenced,
            "fenced_below": self._fenced_below,
        }

    def close(self) -> None:
        self._wal.close()

    def simulate_power_loss(self) -> None:
        """Collapse the directory to its worst admissible post-crash image
        (see :mod:`repro.durability.crashsim`) and close the session.

        Test-harness API: call after catching a
        :class:`~repro.durability.faults.SimulatedCrash`, then
        :meth:`recover` a fresh session from the directory.
        """
        durable = self._wal.durable_size
        self._wal.close()
        discard_unsynced_tail(os.path.join(self.directory, WAL_NAME), durable)
        drop_tmp_files(self.directory)

    def __enter__(self) -> "DurableSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"DurableSession({self.directory!r}, seq={self._next_seq}, "
            f"{self._pending_records} pending)"
        )
