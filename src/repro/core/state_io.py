"""Persistence of 3DC intermediates between sessions.

3DC's whole point is reusing the evidence set and DC antichain of a
previous discovery (Figure 2).  This module serializes the full discoverer
state — schema, alive rows (with their original rids), the exact predicate
space, the evidence multiplicities, the DC antichain, and (under the
index delete strategy) the per-tuple evidence index — to a JSON document,
so a later process can resume incremental maintenance without re-running
the static bootstrap.

Masks are hex strings (they exceed 64 bits routinely); rids are decimal
string keys (JSON objects demand string keys).
"""

from __future__ import annotations

import json

from repro.core.backends import make_backend
from repro.core.discoverer import DCDiscoverer
from repro.durability.atomic import atomic_write_bytes, canonical_json_bytes
from repro.evidence.builder import EvidenceEngineState
from repro.evidence.evidence_set import EvidenceSet
from repro.evidence.indexes import ColumnIndexes
from repro.evidence.tuple_index import TupleEvidenceIndex
from repro.predicates.space import build_space_from_pairs
from repro.relational.relation import Relation
from repro.relational.schema import Column, ColumnType, Schema

FORMAT_NAME = "3dc-state"
FORMAT_VERSION = 1


class StateFormatError(ValueError):
    """The document is not a 3DC state (foreign JSON, missing fields)."""


class StateVersionError(ValueError):
    """The document is a 3DC state of an unsupported schema version."""

    def __init__(self, found):
        super().__init__(
            f"unsupported state version {found!r} "
            f"(this build reads version {FORMAT_VERSION}); "
            f"re-run discovery to migrate the state"
        )
        self.found = found
        self.supported = FORMAT_VERSION


def _tuple_index_to_dict(tuple_index: TupleEvidenceIndex) -> dict:
    # Sorted rids and masks: serialization must be canonical so that runs
    # with different worker-pool sizes produce byte-identical documents.
    return {
        "owned": {
            str(rid): {
                format(mask, "x"): counter[mask] for mask in sorted(counter)
            }
            for rid, counter in sorted(tuple_index.owned.items())
        },
        "partners": {
            str(rid): format(bits, "x")
            for rid, bits in sorted(tuple_index.partners_of.items())
        },
    }


def _tuple_index_from_dict(payload: dict) -> TupleEvidenceIndex:
    tuple_index = TupleEvidenceIndex()
    tuple_index.owned = {
        int(rid): {int(mask, 16): count for mask, count in counter.items()}
        for rid, counter in payload["owned"].items()
    }
    tuple_index.partners_of = {
        int(rid): int(bits, 16) for rid, bits in payload["partners"].items()
    }
    return tuple_index


def state_to_dict(discoverer: DCDiscoverer) -> dict:
    """Serialize a fitted discoverer to a JSON-compatible dict."""
    if discoverer.space is None:
        raise RuntimeError("cannot serialize an unfitted discoverer")
    relation = discoverer.relation
    state = discoverer.engine_state
    if state.tuple_index is not None:
        # The index's lazy corrections need the retained values of dead
        # rows, which do not survive serialization — settle them now.
        state.tuple_index.compact(relation, discoverer.space)
    config = {
        "cross_column_ratio": discoverer.cross_column_ratio,
        "allow_cross_columns": discoverer.allow_cross_columns,
        "column_names": list(discoverer.column_names)
        if discoverer.column_names
        else None,
        "delete_strategy": discoverer.delete_strategy,
        "infer_within_delta": discoverer.infer_within_delta,
        "enumeration_backend": discoverer.enumeration_backend,
        # The workers and (evidence-kernel) backend knobs are
        # deliberately NOT persisted: they are execution settings of one
        # process, not part of the data state, and leaving them out keeps
        # saved states byte-identical across worker counts and backends.
    }
    if discoverer.mode != "discover":
        # Only serialized when it deviates from the default, so every
        # discover-mode state stays byte-identical to earlier versions.
        config["mode"] = discoverer.mode
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "config": config,
        "schema": [
            [column.name, column.ctype.value] for column in relation.schema
        ],
        "rows": {str(rid): list(relation.row(rid)) for rid in relation.rids()},
        "next_rid": relation.next_rid,
        "space_pairs": [
            [group.predicates[0].lhs, group.predicates[0].rhs]
            for group in discoverer.space.groups
        ],
        "evidence": {
            format(mask, "x"): state.evidence.counts[mask]
            for mask in sorted(state.evidence.counts)
        },
        "sigma": sorted(format(mask, "x") for mask in discoverer._backend.masks),
        "tuple_index": (
            _tuple_index_to_dict(state.tuple_index)
            if state.tuple_index is not None
            else None
        ),
    }


#: The keys of a persisted config: :class:`DCDiscoverer` arguments.
_CONFIG_KEYS = frozenset(
    {
        "cross_column_ratio",
        "allow_cross_columns",
        "column_names",
        "delete_strategy",
        "infer_within_delta",
        "enumeration_backend",
        "mode",
    }
)
#: Config keys of earlier versions of the format, accepted and ignored.
_RETIRED_CONFIG_KEYS = frozenset({"maintain_tuple_index"})

_REQUIRED_KEYS = (
    "config",
    "schema",
    "rows",
    "next_rid",
    "space_pairs",
    "evidence",
    "sigma",
    "tuple_index",
)


def state_from_dict(payload: dict) -> DCDiscoverer:
    """Rebuild a fitted discoverer from :func:`state_to_dict` output.

    Raises :class:`StateFormatError` for foreign/incomplete documents and
    configs with unknown keys, and :class:`StateVersionError` for other
    schema versions (both subclass ``ValueError``) — never an opaque
    ``KeyError`` or ``TypeError``.  A persisted tuple index is loaded
    only under the index delete strategy.
    """
    if not isinstance(payload, dict) or payload.get("format") != FORMAT_NAME:
        raise StateFormatError(f"not a {FORMAT_NAME} document")
    if payload.get("version") != FORMAT_VERSION:
        raise StateVersionError(payload.get("version"))
    missing = [key for key in _REQUIRED_KEYS if key not in payload]
    if missing:
        raise StateFormatError(
            f"{FORMAT_NAME} document is missing fields: {', '.join(missing)}"
        )
    config = payload["config"]
    if not isinstance(config, dict):
        raise StateFormatError(f"{FORMAT_NAME} config is not an object")
    unknown = sorted(set(config) - _CONFIG_KEYS - _RETIRED_CONFIG_KEYS)
    if unknown:
        raise StateFormatError(
            f"{FORMAT_NAME} config has unknown keys: {', '.join(unknown)}"
        )
    config = {key: value for key, value in config.items() if key in _CONFIG_KEYS}

    schema = Schema(
        Column(name, ColumnType(ctype)) for name, ctype in payload["schema"]
    )
    rows_by_rid = {
        int(rid): tuple(
            float(value)
            if column.ctype is ColumnType.FLOAT and isinstance(value, int)
            else value
            for value, column in zip(row, schema)
        )
        for rid, row in payload["rows"].items()
    }
    relation = Relation.from_sparse_rows(schema, rows_by_rid, payload["next_rid"])

    discoverer = DCDiscoverer(relation, **config)
    discoverer.space = build_space_from_pairs(
        schema, [tuple(pair) for pair in payload["space_pairs"]]
    )

    evidence = EvidenceSet(
        {int(mask, 16): count for mask, count in payload["evidence"].items()}
    )
    # Earlier versions kept the index under "recompute" too, where deletes
    # never pruned it, so such a state's index is dropped, not loaded.
    tuple_index = (
        _tuple_index_from_dict(payload["tuple_index"])
        if discoverer.delete_strategy == "index"
        and payload["tuple_index"] is not None
        else None
    )
    discoverer._state = EvidenceEngineState(
        space=discoverer.space,
        indexes=ColumnIndexes(relation),
        evidence=evidence,
        tuple_index=tuple_index,
    )
    backend = make_backend(config["enumeration_backend"], discoverer.space)
    try:
        backend.set_masks(
            [int(mask, 16) for mask in payload["sigma"]], list(evidence)
        )
    except NotImplementedError:
        backend.bootstrap(list(evidence))
    discoverer._backend = backend
    discoverer._fitted = True
    if discoverer.mode == "verify":
        # Re-enumerate the tracked DCs' violating pairs with the
        # verification kernel (they are derived state, not serialized)
        # and keep the restored constraints for future round trips.
        discoverer.constraints = list(backend.masks)
        discoverer._seed_verify_watcher()
    return discoverer


def state_to_bytes(discoverer: DCDiscoverer) -> bytes:
    """Canonical on-disk encoding of the discoverer state.

    Sorted keys, compact separators: equal logical states encode to
    equal bytes, which is what the worker-determinism and crash-matrix
    suites compare on.
    """
    return canonical_json_bytes(state_to_dict(discoverer))


def save_state(discoverer: DCDiscoverer, path) -> None:
    """Atomically write the discoverer state as JSON to ``path``.

    The write goes through the temp+fsync+rename sequence of
    :mod:`repro.durability.atomic`: a crash at any instant leaves either
    the complete previous state or the complete new one, never a
    truncated hybrid.
    """
    atomic_write_bytes(path, state_to_bytes(discoverer), fault_prefix="state_save")


def load_state(path) -> DCDiscoverer:
    """Load a discoverer state written by :func:`save_state`."""
    with open(path) as handle:
        try:
            payload = json.load(handle)
        except ValueError as exc:
            raise StateFormatError(f"{path}: not valid JSON ({exc})") from exc
    return state_from_dict(payload)
