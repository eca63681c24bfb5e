"""Tests for schema, relation, loader, and sorting."""

import pytest

from repro.relational import (
    Column,
    ColumnType,
    Relation,
    Schema,
    infer_schema,
    load_csv,
    relation_from_rows,
    sort_by_numeric_columns,
)


class TestSchema:
    def test_positions_and_lookup(self):
        schema = Schema(
            [Column("A", ColumnType.INTEGER), Column("B", ColumnType.STRING)]
        )
        assert schema.position("B") == 1
        assert schema.column("A").ctype is ColumnType.INTEGER
        assert "A" in schema and "Z" not in schema
        assert schema.names == ("A", "B")
        assert len(schema) == 2

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Schema([Column("A", ColumnType.INTEGER), Column("A", ColumnType.STRING)])

    def test_project(self):
        schema = Schema(
            [
                Column("A", ColumnType.INTEGER),
                Column("B", ColumnType.STRING),
                Column("C", ColumnType.FLOAT),
            ]
        )
        projected = schema.project(["C", "A"])
        assert projected.names == ("C", "A")

    def test_type_comparability(self):
        assert ColumnType.INTEGER.comparable_with(ColumnType.FLOAT)
        assert ColumnType.FLOAT.comparable_with(ColumnType.INTEGER)
        assert ColumnType.STRING.comparable_with(ColumnType.STRING)
        assert not ColumnType.STRING.comparable_with(ColumnType.INTEGER)

    def test_numeric_flags(self):
        assert Column("x", ColumnType.FLOAT).is_numeric
        assert not Column("x", ColumnType.STRING).is_numeric


class TestRelation:
    def _schema(self):
        return Schema(
            [Column("A", ColumnType.INTEGER), Column("B", ColumnType.STRING)]
        )

    def test_insert_assigns_dense_rids(self):
        relation = Relation(self._schema())
        rids = relation.insert([(1, "x"), (2, "y")])
        assert rids == [0, 1]
        assert relation.next_rid == 2
        assert len(relation) == 2
        assert relation.row(1) == (2, "y")

    def test_delete_keeps_rids_stable(self):
        relation = Relation(self._schema())
        relation.insert([(1, "x"), (2, "y"), (3, "z")])
        relation.delete([1])
        assert len(relation) == 2
        assert list(relation.rids()) == [0, 2]
        assert not relation.is_alive(1)
        # Dead row storage remains accessible.
        assert relation.row(1) == (2, "y")
        # New inserts never reuse rids.
        assert relation.insert([(4, "w")]) == [3]

    def test_delete_unknown_rid_raises(self):
        relation = Relation(self._schema())
        relation.insert([(1, "x")])
        with pytest.raises(KeyError):
            relation.delete([5])
        relation.delete([0])
        with pytest.raises(KeyError):
            relation.delete([0])  # double delete

    def test_rejected_delete_deletes_nothing(self, staff):
        """A batch holding a dead, unknown, negative or repeated rid
        raises before any of its rows dies."""
        staff.delete([3])
        for batch in ([0, 10**6], [1, 1], [2, 3], [0, -1]):
            with pytest.raises(KeyError):
                staff.delete(batch)
            assert list(staff.rids()) == [0, 1, 2]
        assert staff.delete([2, 0]) == [2, 0]
        assert list(staff.rids()) == [1]

    def test_arity_mismatch_raises(self):
        relation = Relation(self._schema())
        with pytest.raises(ValueError, match="arity"):
            relation.insert([(1,)])

    def test_type_checks(self):
        relation = Relation(self._schema())
        with pytest.raises(TypeError):
            relation.insert([("not-int", "x")])
        with pytest.raises(ValueError, match="null"):
            relation.insert([(None, "x")])

    def test_float_column_accepts_int(self):
        relation = Relation(Schema([Column("F", ColumnType.FLOAT)]))
        relation.insert([(1,), (2.5,)])
        assert len(relation) == 2

    def test_project_reassigns_rids(self):
        relation = Relation(self._schema())
        relation.insert([(1, "x"), (2, "y"), (3, "z")])
        relation.delete([0])
        projected = relation.project(["B"])
        assert list(projected.rows()) == [("y",), ("z",)]
        assert list(projected.rids()) == [0, 1]

    def test_head(self):
        relation = Relation(self._schema())
        relation.insert([(i, "x") for i in range(5)])
        assert len(relation.head(3)) == 3

    def test_from_sparse_rows(self):
        schema = self._schema()
        relation = Relation.from_sparse_rows(
            schema, {0: (1, "x"), 2: (3, "z")}, next_rid=4
        )
        assert list(relation.rids()) == [0, 2]
        assert relation.next_rid == 4
        assert relation.row(2) == (3, "z")
        assert relation.insert([(9, "w")]) == [4]


class TestLoader:
    def test_infer_schema(self):
        rows = [(1, "a", 1.5), (2, "b", 2)]
        schema = infer_schema(["X", "Y", "Z"], rows)
        assert schema.column("X").ctype is ColumnType.INTEGER
        assert schema.column("Y").ctype is ColumnType.STRING
        assert schema.column("Z").ctype is ColumnType.FLOAT

    def test_all_null_column_is_string(self):
        schema = infer_schema(["X"], [(None,), (None,)])
        assert schema.column("X").ctype is ColumnType.STRING

    def test_relation_from_rows_coercion(self):
        relation = relation_from_rows(["X", "Y"], [(1, 2.5), (2, 3)])
        assert relation.schema.column("Y").ctype is ColumnType.FLOAT
        assert relation.row(1) == (2, 3.0)
        assert isinstance(relation.row(1)[1], float)

    def test_null_policies(self):
        header = ["X", "Y"]
        rows = [(1, "a"), (None, "b"), (3, "c")]
        with pytest.raises(ValueError, match="null"):
            relation_from_rows(header, rows)
        dropped = relation_from_rows(header, rows, null_policy="drop")
        assert len(dropped) == 2
        filled = relation_from_rows(header, rows, null_policy="fill")
        assert len(filled) == 3
        assert filled.row(1)[0] == 0  # min(1,3) - 1

    def test_unknown_null_policy(self):
        with pytest.raises(ValueError, match="unknown null policy"):
            relation_from_rows(["X"], [(1,)], null_policy="bogus")

    def test_load_csv_roundtrip(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("A,B,C\n1,x,1.5\n2,y,2.5\n")
        relation = load_csv(path)
        assert len(relation) == 2
        assert relation.row(0) == (1, "x", 1.5)
        assert relation.schema.column("A").ctype is ColumnType.INTEGER

    def test_load_csv_null_tokens_and_max_rows(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("A,B\n1,x\n?,y\n3,z\n4,w\n")
        relation = load_csv(path, null_policy="drop", max_rows=3)
        assert len(relation) == 2  # row 2 dropped, row 4 beyond max_rows

    def test_load_empty_csv_raises(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_csv(path)


class TestSorting:
    def test_sort_by_numeric_columns(self):
        relation = relation_from_rows(
            ["N", "S"], [(3, "c"), (1, "b"), (2, "a"), (1, "a")]
        )
        sorted_relation = sort_by_numeric_columns(relation)
        assert list(sorted_relation.rows()) == [
            (1, "a"),
            (1, "b"),
            (2, "a"),
            (3, "c"),
        ]

    def test_sort_pure_categorical(self):
        relation = relation_from_rows(["S"], [("b",), ("a",)])
        assert list(sort_by_numeric_columns(relation).rows()) == [("a",), ("b",)]
