"""The JSON-over-HTTP protocol of the serving layer.

Kept separate from the server so the client, the server, and the tests
agree on one vocabulary: endpoint paths, error codes, and the row
coercion that undoes JSON's numeric lossiness (an integral float comes
back from ``json.loads`` as an ``int``) before a row touches the schema.

Status-code semantics (docs/service.md spells out the full contract):

- ``200`` — success;
- ``400`` — the request itself is invalid (bad JSON, schema mismatch,
  dead rid): retrying unchanged will fail again;
- ``404`` — unknown endpoint;
- ``409`` — the read carried a ``min_seq`` staleness bound this node
  could not reach within its wait budget: retry here later, or read a
  fresher node;
- ``413`` — the request body is larger than :data:`MAX_BODY_BYTES`
  (refused unread; the connection is closed);
- ``421`` — the node is a read-only follower and the request was a
  write: redirect to the ``primary_url`` in the response;
- ``429`` — the write queue is full (backpressure): retry with backoff;
- ``503`` — the service is draining, or the request timed out waiting
  for its commit (outcome unknown — the write may still land);
- ``500`` — internal failure, the writer is stopped.
"""

from __future__ import annotations

import json
from typing import Optional, Sequence

from repro.relational.relation import Relation
from repro.relational.schema import ColumnType, Schema

#: Error codes carried in the ``"error"`` field of non-200 responses.
ERR_BAD_REQUEST = "bad_request"
ERR_NOT_FOUND = "not_found"
ERR_STALE = "stale"
ERR_FENCED = "fenced"
ERR_NOT_PRIMARY = "not_primary"
ERR_TOO_LARGE = "too_large"
ERR_SATURATED = "saturated"
ERR_TIMEOUT = "timeout"
ERR_DRAINING = "draining"
ERR_INTERNAL = "internal"

#: Map error code -> HTTP status.
STATUS_OF_ERROR = {
    ERR_BAD_REQUEST: 400,
    ERR_NOT_FOUND: 404,
    ERR_STALE: 409,
    ERR_FENCED: 409,
    ERR_TOO_LARGE: 413,
    ERR_NOT_PRIMARY: 421,
    ERR_SATURATED: 429,
    ERR_TIMEOUT: 503,
    ERR_DRAINING: 503,
    ERR_INTERNAL: 500,
}


#: Largest request body a node reads, in bytes.  A write of this size is
#: tens of thousands of rows; anything larger is refused before reading.
MAX_BODY_BYTES = 8 * 1024 * 1024


class ProtocolError(ValueError):
    """A request body that cannot be honored (maps to HTTP 400)."""


class BodyTooLargeError(ProtocolError):
    """A declared body length above :data:`MAX_BODY_BYTES` (HTTP 413)."""


def body_length(header: Optional[str]) -> int:
    """The byte count a ``Content-Length`` header declares.

    Raises :class:`ProtocolError` for a malformed or negative value and
    :class:`BodyTooLargeError` above :data:`MAX_BODY_BYTES` — both before
    a single body byte is read.
    """
    if header is None or not header.strip():
        return 0
    text = header.strip()
    if not (text.isascii() and text.isdigit()):
        raise ProtocolError(
            f"Content-Length must be a non-negative integer, got {header!r}"
        )
    length = int(text)
    if length > MAX_BODY_BYTES:
        raise BodyTooLargeError(
            f"request body of {length} bytes exceeds the "
            f"{MAX_BODY_BYTES}-byte limit"
        )
    return length


class StaleReadError(RuntimeError):
    """A ``min_seq``-bounded read could not be satisfied (HTTP 409).

    Carries the snapshot seq the node *could* serve so clients can see
    how far behind it is.
    """

    def __init__(self, min_seq: int, seq: int):
        super().__init__(
            f"snapshot seq {seq} has not reached min_seq {min_seq}"
        )
        self.min_seq = min_seq
        self.seq = seq


class NotPrimaryError(RuntimeError):
    """A write reached a read-only follower (HTTP 421).

    ``primary_url`` is the redirect hint — where the write belongs.
    """

    def __init__(self, primary_url: Optional[str] = None):
        hint = f"; retry against {primary_url}" if primary_url else ""
        super().__init__(f"this node is a read-only follower{hint}")
        self.primary_url = primary_url


class FencedWriteError(RuntimeError):
    """A write reached a primary whose epoch has been fenced (HTTP 409).

    The node was deposed by a failover — it must stop acknowledging
    writes immediately (the hard 409 every zombie gets) and rejoin the
    fleet as a follower.  Carries the node's dead ``epoch`` and the
    ``fenced_below`` boundary the fleet installed.
    """

    def __init__(self, epoch: int, fenced_below: int):
        super().__init__(
            f"write fenced: this node's epoch {epoch} was deposed "
            f"(fenced below {fenced_below})"
        )
        self.epoch = epoch
        self.fenced_below = fenced_below


def encode(payload: dict) -> bytes:
    """Canonical wire encoding of a response payload."""
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


def decode(body: bytes) -> dict:
    """Parse a JSON request body into a dict (empty body = empty dict)."""
    if not body:
        return {}
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"request body is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError("request body must be a JSON object")
    return payload


def coerce_row(schema: Schema, row: Sequence) -> tuple:
    """Type-check one wire row against the schema, fixing JSON lossiness.

    Integral values destined for FLOAT columns come back from JSON as
    ints; promote them before validation so a round-tripped row equals
    the row the writer will durably log.
    """
    columns = list(schema)
    if not isinstance(row, (list, tuple)):
        raise ProtocolError("row must be a JSON array")
    if len(row) != len(columns):
        raise ProtocolError(
            f"row of {len(row)} values for {len(columns)} columns"
        )
    coerced = []
    for value, column in zip(row, columns):
        if column.ctype is ColumnType.FLOAT and isinstance(value, int):
            value = float(value)
        try:
            Relation._check_value(value, column.ctype, column.name)
        except (TypeError, ValueError) as exc:
            raise ProtocolError(str(exc)) from None
        coerced.append(value)
    return tuple(coerced)


def require_field(payload: dict, name: str, kind: type):
    """Fetch a required, type-checked field from a request payload."""
    if name not in payload:
        raise ProtocolError(f"missing required field {name!r}")
    value = payload[name]
    if not isinstance(value, kind):
        raise ProtocolError(
            f"field {name!r} must be a JSON {kind.__name__}"
        )
    return value
