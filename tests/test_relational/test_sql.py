"""Tests for the SQL renderer (documentation output)."""

from repro.expr import parse
from repro.relational import (
    Aggregate,
    AggregateSpec,
    Coerce,
    Compute,
    Database,
    DataType,
    InLookup,
    Join,
    Pivot,
    Project,
    Rename,
    Scan,
    Select,
    Sort,
    TableSchema,
    Union,
    Values,
    optimize,
    to_sql,
)


class TestRendering:
    def test_scan(self):
        assert to_sql(Scan("t")) == "SELECT * FROM t"

    def test_in_lookup(self):
        assert to_sql(InLookup("t", "a", (1, 2))) == "SELECT * FROM t WHERE a IN (1, 2)"
        assert to_sql(InLookup("t", "k", ("x'y",))) == (
            "SELECT * FROM t WHERE k IN ('x''y')"
        )
        assert to_sql(InLookup("t", "a", ())) == "SELECT * FROM t WHERE a IN (NULL)"

    def test_lowered_equality(self):
        db = Database("d")
        db.create_table(
            TableSchema.build("t", [("k", DataType.TEXT), ("n", DataType.INTEGER)])
        )
        db.table("t").create_index(("k",))
        optimized = optimize(Select(Scan("t"), parse("k = 'x' AND n > 1")), db)
        assert to_sql(optimized) == (
            "SELECT * FROM (\n"
            "  SELECT * FROM t WHERE k IN ('x')\n"
            ") AS t\n"
            "WHERE (n > 1)"
        )

    def test_select_where(self):
        sql = to_sql(Select(Scan("t"), parse("a = 1")))
        assert "WHERE (a = 1)" in sql

    def test_project(self):
        sql = to_sql(Project(Scan("t"), ("a", "b")))
        assert sql.startswith("SELECT a, b FROM")

    def test_compute(self):
        sql = to_sql(Compute(Scan("t"), (("double_a", parse("a * 2")),)))
        assert "(a * 2) AS double_a" in sql

    def test_rename(self):
        sql = to_sql(Rename(Scan("t"), (("old", "new"),)))
        assert "old AS new" in sql

    def test_join_kinds(self):
        inner = to_sql(Join(Scan("l"), Scan("r"), on=(("a", "b"),)))
        assert "INNER JOIN" in inner and "l.a = r.b" in inner
        left = to_sql(Join(Scan("l"), Scan("r"), on=(("a", "b"),), how="left"))
        assert "LEFT OUTER JOIN" in left

    def test_union(self):
        sql = to_sql(Union((Scan("a"), Scan("b"))))
        assert "UNION ALL" in sql

    def test_sort(self):
        assert "ORDER BY a ASC" in to_sql(Sort(Scan("t"), (("a", True),)))
        assert "ORDER BY a DESC" in to_sql(Sort(Scan("t"), (("a", False),)))

    def test_aggregate(self):
        sql = to_sql(
            Aggregate(Scan("t"), ("g",), (AggregateSpec("COUNT", None, "n"),))
        )
        assert "COUNT(*) AS n" in sql and "GROUP BY g" in sql

    def test_count_distinct(self):
        sql = to_sql(
            Aggregate(Scan("t"), (), (AggregateSpec("COUNT_DISTINCT", "x", "n"),))
        )
        assert "COUNT(DISTINCT x)" in sql

    def test_pivot_is_case_group(self):
        sql = to_sql(
            Pivot(Scan("t"), ("id",), "attr", "val", ("a", "b"))
        )
        assert "CASE WHEN attr = 'a'" in sql and "GROUP BY id" in sql
        assert "END) AS a," in sql

    def test_pivot_quotes_attribute_names(self):
        # g-tree node names are arbitrary strings: the CASE literal is
        # escaped and the alias becomes a quoted identifier.
        attributes = ("patient's_age", 'say "hi"', "two words", "9lives")
        sql = to_sql(Pivot(Scan("eav"), ("entity",), "attribute", "value", attributes))
        assert "WHEN attribute = 'patient''s_age' THEN" in sql
        assert "END) AS \"patient's_age\"," in sql
        assert "WHEN attribute = 'say \"hi\"' THEN" in sql
        assert "END) AS \"say \"\"hi\"\"\"," in sql
        assert "END) AS \"two words\"," in sql
        assert "END) AS \"9lives\" FROM" in sql

    def test_values(self):
        sql = to_sql(Values(("a",), ((1,), (None,))))
        assert "VALUES (1), (NULL)" in sql

    def test_values_escapes_strings(self):
        sql = to_sql(Values(("a",), (("it's",),)))
        assert "'it''s'" in sql

    def test_coerce_renders_cast(self):
        sql = to_sql(Coerce(Scan("t"), (("a", DataType.INTEGER),)))
        assert "CAST(a AS INTEGER)" in sql
