"""Columnar relation with stable row ids.

Row ids (*rids*) are dense integers assigned at insertion time and never
reused: evidence contexts, column indexes, and the per-tuple evidence index
all key on rids, so a delete must not shift ids.  Deleted slots keep their
storage (values of dead rows are retained — delete maintenance needs to
recompute the evidence the dying tuples produced) but are excluded from the
alive rids, iteration, and indexes built afterwards.  The alive rids are
one ``int`` whose bit ``rid`` is set while the row lives, the same raw bit
pattern every rid set of the evidence engine uses.

The columns are therefore append-only and a rid's values never change,
which is what lets :meth:`Relation.snapshot` share them.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.bitmaps.bitutils import iter_bits
from repro.relational.schema import ColumnType, Schema

#: The single NaN object every stored NaN is canonicalized to.  CPython
#: dict lookups short-circuit on identity before trying ``==`` (which is
#: always false for NaN), so funneling all NaNs through one object gives
#: the equality indexes and the evidence pipeline a deterministic
#: "NaN = NaN" semantics; the range layer orders NaN greater than every
#: number (see :mod:`repro.evidence.indexes`).
CANONICAL_NAN = float("nan")


def canonical_value(value):
    """Replace any NaN float with the shared :data:`CANONICAL_NAN` object."""
    if isinstance(value, float) and value != value:
        return CANONICAL_NAN
    return value


class Relation:
    """An insert/delete-able relation instance."""

    def __init__(self, schema: Schema):
        self.schema = schema
        self._columns = [[] for _ in schema]
        self._alive = 0
        self._next_rid = 0

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_sparse_rows(cls, schema: Schema, rows_by_rid: dict, next_rid: int):
        """Rebuild a relation with pre-assigned rids (state deserialization).

        ``rows_by_rid`` maps alive rids to row tuples; rids absent from the
        mapping but below ``next_rid`` become dead slots.  Dead slots hold
        type-neutral placeholders — they are never consulted: evidence of
        dead rows was subtracted before the state was saved.
        """
        relation = cls(schema)
        placeholders = tuple(
            "" if column.ctype is ColumnType.STRING
            else (0 if column.ctype is ColumnType.INTEGER else 0.0)
            for column in schema
        )
        alive = 0
        for rid in range(next_rid):
            row = rows_by_rid.get(rid)
            if row is None:
                row = placeholders
            else:
                alive |= 1 << rid
            for position, value in enumerate(row):
                relation._columns[position].append(canonical_value(value))
        relation._alive = alive
        relation._next_rid = next_rid
        return relation

    # -- modification -------------------------------------------------------

    def insert(self, rows: Iterable[Sequence]) -> list:
        """Append ``rows`` and return their newly assigned rids.

        Each row must be a sequence with one value per schema column, in
        schema order.  Values are type-checked against the column type.
        """
        new_rids = []
        for row in rows:
            if len(row) != len(self.schema):
                raise ValueError(
                    f"row arity {len(row)} does not match schema arity "
                    f"{len(self.schema)}"
                )
            # Check the whole row first: a rejected row appends nothing.
            for value, column in zip(row, self.schema):
                self._check_value(value, column.ctype, column.name)
            for values, value in zip(self._columns, row):
                values.append(canonical_value(value))
            rid = self._next_rid
            self._next_rid += 1
            self._alive |= 1 << rid
            new_rids.append(rid)
        return new_rids

    def delete(self, rids: Iterable[int]) -> list:
        """Mark ``rids`` dead and return them as a list.

        :raises KeyError: if any rid is not currently alive, or repeats;
            a rejected batch deletes nothing.
        """
        deleted = list(rids)
        doomed = 0
        for rid in deleted:
            if not self.is_alive(rid) or (doomed >> rid) & 1:
                raise KeyError(f"rid {rid} is not an alive row")
            doomed |= 1 << rid
        self._alive ^= doomed
        return deleted

    @staticmethod
    def _check_value(value, ctype: ColumnType, name: str) -> None:
        if value is None:
            raise ValueError(
                f"null in column {name!r}: nulls are not supported; "
                "use the loader's null policy to resolve them at load time"
            )
        if ctype is ColumnType.STRING and not isinstance(value, str):
            raise TypeError(f"column {name!r} expects str, got {type(value).__name__}")
        if ctype is ColumnType.INTEGER and not isinstance(value, int):
            raise TypeError(f"column {name!r} expects int, got {type(value).__name__}")
        if ctype is ColumnType.FLOAT and not isinstance(value, (int, float)):
            raise TypeError(
                f"column {name!r} expects float, got {type(value).__name__}"
            )

    # -- access --------------------------------------------------------------

    def value(self, rid: int, position: int):
        """Value of column ``position`` in row ``rid`` (alive or dead)."""
        return self._columns[position][rid]

    def row(self, rid: int) -> tuple:
        """Full tuple of row ``rid`` (alive or dead)."""
        return tuple(column[rid] for column in self._columns)

    def column_values(self, position: int) -> list:
        """The raw value list of a column, indexed by rid (includes dead rows)."""
        return self._columns[position]

    @property
    def alive_bits(self) -> int:
        """Alive rids as a raw int bit pattern."""
        return self._alive

    def is_alive(self, rid: int) -> bool:
        return rid >= 0 and (self._alive >> rid) & 1 == 1

    @property
    def next_rid(self) -> int:
        """The rid the next inserted row will receive."""
        return self._next_rid

    def __len__(self) -> int:
        """Number of alive rows."""
        return self._alive.bit_count()

    def rids(self) -> Iterator[int]:
        """Alive rids in ascending order."""
        return iter_bits(self._alive)

    def rows(self) -> Iterator[tuple]:
        """Alive rows in rid order."""
        for rid in iter_bits(self._alive):
            yield self.row(rid)

    # -- derivation ------------------------------------------------------------

    def snapshot(self) -> "Relation":
        """A read-only view of the current rows that copies none of them.

        The view shares the column lists, which later inserts only append
        to past its ``next_rid``, and the alive rids, an immutable ``int``
        that later writes replace.  It raises on ``insert``/``delete``.
        """
        view = _RelationView.__new__(_RelationView)
        view.schema = self.schema
        view._columns = self._columns
        view._alive = self._alive
        view._next_rid = self._next_rid
        return view

    def project(self, names: Sequence[str]) -> "Relation":
        """New relation with only ``names`` columns and only alive rows.

        Rids are re-assigned densely in the projection.
        """
        projected = Relation(self.schema.project(names))
        positions = [self.schema.position(name) for name in names]
        projected.insert(
            tuple(self._columns[position][rid] for position in positions)
            for rid in iter_bits(self._alive)
        )
        return projected

    def head(self, n: int) -> "Relation":
        """New relation with the first ``n`` alive rows (re-assigned rids)."""
        fresh = Relation(self.schema)
        rows = []
        for rid in iter_bits(self._alive):
            if len(rows) >= n:
                break
            rows.append(self.row(rid))
        fresh.insert(rows)
        return fresh

    def __repr__(self) -> str:
        return (
            f"Relation({len(self.schema)} columns, {len(self)} alive rows, "
            f"next_rid={self._next_rid})"
        )


class _RelationView(Relation):
    """What :meth:`Relation.snapshot` returns: its columns are shared."""

    def insert(self, rows: Iterable[Sequence]) -> list:
        raise TypeError("a relation snapshot is read-only")

    def delete(self, rids: Iterable[int]) -> list:
        raise TypeError("a relation snapshot is read-only")
