"""Tests for the vectorized columnar execution engine.

Three layers of assurance, mirroring how the row path earned trust:

1. **Differential corpora** — the planner test corpus (including its
   error cases) and the 40-statement NULL three-valued-logic corpus run
   with the columnar path enabled and must match the naive interpreter
   byte for byte (and sqlite3, for the NULL corpus).
2. **Seeded property tests** — hypothesis-generated WHERE clauses over a
   mixed-type table with NULLs, columnar vs naive.
3. **Unit tests** — chunk partitioning, ColumnStore
   layout/invalidation, scan statistics, EXPLAIN surface, fallback
   reasons, and bulk inserts.
"""

from __future__ import annotations

import datetime
import random
import sqlite3

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.perf import chunk_spans
from repro.sqldb import (
    Column,
    ColumnStore,
    Database,
    DataType,
    SqlError,
    TableSchema,
)
from repro.sqldb.executor import Executor

from tests.test_sqldb_null_semantics import CORPUS as NULL_CORPUS
from tests.test_sqldb_null_semantics import ROWS as NULL_ROWS
from tests.test_sqldb_null_semantics import _norm
from tests.test_sqldb_planner import (
    EMP_CORPUS,
    ERROR_CORPUS,
    SHOP_CORPUS,
    _strict_rows,
)

# ---------------------------------------------------------------------------
# Differential: columnar vs row path vs naive on the planner corpora
# ---------------------------------------------------------------------------


def assert_three_paths_agree(db, sql):
    """naive, planned row-path, and planned columnar must all agree."""
    naive = Executor(db, use_planner=False)
    row = Executor(db, use_planner=True, use_columnar=False)
    col = Executor(db, use_planner=True, use_columnar=True)
    try:
        expected = naive.execute_sql(sql)
    except SqlError as exc:
        for planned in (row, col):
            with pytest.raises(type(exc)):
                planned.execute_sql(sql)
        return
    for planned in (row, col):
        got = planned.execute_sql(sql)
        assert got.columns == expected.columns, sql
        assert _strict_rows(got) == _strict_rows(expected), sql


class TestDifferentialCorpora:
    @pytest.mark.parametrize("sql", EMP_CORPUS)
    def test_emp_corpus(self, emp_db, sql):
        assert_three_paths_agree(emp_db, sql)

    @pytest.mark.parametrize("sql", SHOP_CORPUS)
    def test_shop_corpus(self, shop_db, sql):
        assert_three_paths_agree(shop_db, sql)

    @pytest.mark.parametrize("sql", ERROR_CORPUS)
    def test_error_corpus(self, emp_db, sql):
        assert_three_paths_agree(emp_db, sql)

    def test_columnar_actually_claims_queries(self, emp_db):
        """The corpus must exercise the vectorized path, not fall back
        everywhere — otherwise the differential suite proves nothing."""
        ex = Executor(emp_db)
        for sql in EMP_CORPUS:
            try:
                ex.execute_sql(sql)
            except SqlError:
                pass
        assert ex.total_stats.vectorized >= 10


# ---------------------------------------------------------------------------
# Differential: the NULL 3VL corpus vs the sqlite3 oracle, columnar on
# ---------------------------------------------------------------------------


@pytest.fixture
def null_engines():
    db = Database("nulls-columnar")
    db.create_table(
        TableSchema(
            "t",
            [
                Column("id", DataType.INTEGER, primary_key=True, nullable=False),
                Column("a", DataType.INTEGER),
                Column("b", DataType.INTEGER),
                Column("s", DataType.TEXT),
            ],
        )
    )
    db.insert_many("t", [list(r) for r in NULL_ROWS])
    oracle = sqlite3.connect(":memory:")
    oracle.execute("CREATE TABLE t (id INTEGER, a INTEGER, b INTEGER, s TEXT)")
    oracle.executemany("INSERT INTO t VALUES (?, ?, ?, ?)", NULL_ROWS)
    # Tiny chunks so even the 5-row table is scanned in several chunks.
    yield Executor(db, use_columnar=True, scan_chunk_rows=2), oracle
    oracle.close()


@pytest.mark.parametrize("sql", NULL_CORPUS)
def test_null_corpus_columnar_vs_sqlite(null_engines, sql):
    executor, oracle = null_engines
    ours = sorted(
        tuple(_norm(v) for v in row) for row in executor.execute_sql(sql).rows
    )
    theirs = sorted(
        tuple(_norm(v) for v in row) for row in oracle.execute(sql).fetchall()
    )
    assert ours == theirs, f"columnar divergence from sqlite3 on: {sql}"


# ---------------------------------------------------------------------------
# Property-based: seeded random predicates, columnar vs naive
# ---------------------------------------------------------------------------

_PROP_DB = None


def _prop_db() -> Database:
    """A 300-row mixed-type table with ~20% NULLs, fixed seed."""
    global _PROP_DB
    if _PROP_DB is None:
        rng = random.Random(20260807)
        db = Database("prop")
        db.create_table(
            TableSchema(
                "v",
                [
                    Column("id", DataType.INTEGER, primary_key=True, nullable=False),
                    Column("a", DataType.INTEGER),
                    Column("f", DataType.FLOAT),
                    Column("s", DataType.TEXT),
                    Column("d", DataType.DATE),
                ],
            )
        )
        base = datetime.date(2023, 1, 1)
        words = ["alpha", "beta", "gamma", "", "Ada", "bob"]

        def maybe(value):
            return None if rng.random() < 0.2 else value

        db.insert_many(
            "v",
            [
                [
                    i,
                    maybe(rng.randint(-50, 50)),
                    maybe(round(rng.uniform(-5.0, 5.0), 3)),
                    maybe(rng.choice(words)),
                    maybe(base + datetime.timedelta(days=rng.randint(0, 400))),
                ]
                for i in range(300)
            ],
        )
        _PROP_DB = db
    return _PROP_DB


_CMP = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])


@st.composite
def _atom(draw):
    kind = draw(
        st.sampled_from(
            ["int", "id", "float", "text", "date", "null", "between", "in", "like"]
        )
    )
    if kind == "int":
        return f"a {draw(_CMP)} {draw(st.integers(-60, 60))}"
    if kind == "id":
        # NULL-free column: its masks carry no UNKNOWN bitmap, so trees
        # mix bitmap-free and NULL-carrying masks.
        return f"id {draw(_CMP)} {draw(st.integers(-10, 310))}"
    if kind == "float":
        return f"f {draw(_CMP)} {draw(st.integers(-6, 6))}.5"
    if kind == "text":
        return f"s {draw(_CMP)} '{draw(st.sampled_from(['alpha', 'Ada', 'zzz', '']))}'"
    if kind == "date":
        day = datetime.date(2023, 1, 1) + datetime.timedelta(days=draw(st.integers(0, 400)))
        return f"d {draw(_CMP)} '{day.isoformat()}'"
    if kind == "null":
        col = draw(st.sampled_from(["id", "a", "f", "s", "d"]))
        return f"{col} IS {'NOT ' if draw(st.booleans()) else ''}NULL"
    if kind == "between":
        lo, hi = sorted(draw(st.tuples(st.integers(-60, 60), st.integers(-60, 60))))
        neg = "NOT " if draw(st.booleans()) else ""
        return f"a {neg}BETWEEN {lo} AND {hi}"
    if kind == "in":
        items = draw(st.lists(st.integers(-60, 60), min_size=1, max_size=4))
        if draw(st.booleans()):
            items = items + ["NULL"]
        neg = "NOT " if draw(st.booleans()) else ""
        return f"a {neg}IN ({', '.join(str(i) for i in items)})"
    return f"s LIKE '{draw(st.sampled_from(['a%', '%a', '_da', '%', 'alpha']))}'"


@st.composite
def _where(draw):
    # NOT may wrap any subtree: an inner NOT is what exposes a wrong
    # UNKNOWN mask below it (at the top, UNKNOWN and FALSE both drop).
    def maybe_not(expr):
        return f"NOT ({expr})" if draw(st.booleans()) else expr

    expr = maybe_not(draw(_atom()))
    for _ in range(draw(st.integers(0, 2))):
        conj = draw(st.sampled_from(["AND", "OR"]))
        rhs = maybe_not(draw(_atom()))
        expr = maybe_not(f"({expr}) {conj} ({rhs})")
    return expr


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(where=_where(), agg=st.sampled_from([
    "id",
    "COUNT(*)",
    "COUNT(a), SUM(a), MIN(a), MAX(a)",
    "AVG(a), MIN(s), MAX(d)",
    "COUNT(f), MIN(f), MAX(f)",
]))
def test_property_columnar_matches_naive(where, agg):
    db = _prop_db()
    assert_three_paths_agree(db, f"SELECT {agg} FROM v WHERE {where}")


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(where=_where(), key=st.sampled_from(["a", "s", "d"]))
def test_property_columnar_grouped_matches_naive(where, key):
    db = _prop_db()
    sql = (
        f"SELECT {key}, COUNT(*), SUM(a) FROM v WHERE {where} "
        f"GROUP BY {key} ORDER BY {key}"
    )
    assert_three_paths_agree(db, sql)


# ---------------------------------------------------------------------------
# Partitioning primitives
# ---------------------------------------------------------------------------


class TestPartitioning:
    def test_chunk_spans_cover_all_rows(self):
        spans = chunk_spans(1_000_003, 131_072)
        assert spans[0][0] == 0 and spans[-1][1] == 1_000_003
        for (a_lo, a_hi), (b_lo, b_hi) in zip(spans, spans[1:]):
            assert a_hi == b_lo
        assert all(hi - lo <= 131_072 for lo, hi in spans)

    def test_chunk_spans_empty_and_bad_size(self):
        assert chunk_spans(0) == [(0, 0)]
        # non-positive sizes degrade to the default chunk size
        assert chunk_spans(10, -5) == [(0, 10)]
        assert chunk_spans(10, 0) == [(0, 10)]


# ---------------------------------------------------------------------------
# ColumnStore layout and invalidation
# ---------------------------------------------------------------------------


class TestColumnStore:
    def _db(self):
        db = Database("cs")
        db.create_table(
            TableSchema(
                "t",
                [
                    Column("i", DataType.INTEGER, primary_key=True),
                    Column("f", DataType.FLOAT),
                    Column("s", DataType.TEXT),
                    Column("b", DataType.BOOLEAN),
                    Column("d", DataType.DATE),
                ],
            )
        )
        db.insert_many(
            "t",
            [
                [1, 1.5, "x", True, datetime.date(2023, 1, 1)],
                [2, None, None, None, None],
            ],
        )
        return db

    def test_kinds_and_null_bitmap(self):
        db = self._db()
        store = db.table("t").column_store()
        assert isinstance(store, ColumnStore)
        assert store.n_rows == 2
        by_name = dict(zip(store.column_names, store.cols))
        kinds = {name: col.kind for name, col in by_name.items()}
        assert kinds == {"i": "int", "f": "float", "s": "text", "b": "bool", "d": "date"}
        assert not by_name["i"].null.any()
        assert by_name["f"].null.tolist() == [False, True]

    def test_nul_byte_text_demoted(self):
        db = Database("nul")
        db.create_table(
            TableSchema("t", [Column("i", DataType.INTEGER, primary_key=True),
                              Column("s", DataType.TEXT)])
        )
        # numpy 'U' arrays silently strip trailing NUL characters, which
        # would corrupt round-trips — such columns must not vectorize.
        db.insert_many("t", [[1, "a\x00b"], [2, "plain"]])
        store = db.table("t").column_store()
        by_name = dict(zip(store.column_names, store.cols))
        assert by_name["s"].kind == "other"

    def test_store_invalidated_by_writes(self):
        db = self._db()
        ex = Executor(db)
        assert ex.execute_sql("SELECT COUNT(i) FROM t WHERE i > 0").rows == [(2,)]
        db.insert("t", [3, 2.5, "y", False, datetime.date(2024, 2, 2)])
        assert ex.execute_sql("SELECT COUNT(i) FROM t WHERE i > 0").rows == [(3,)]
        assert db.table("t").column_store().n_rows == 3


# ---------------------------------------------------------------------------
# Statistics and EXPLAIN surface
# ---------------------------------------------------------------------------


class TestObservability:
    def _db(self, n=700):
        db = Database("obs")
        db.create_table(
            TableSchema(
                "t",
                [
                    Column("id", DataType.INTEGER, primary_key=True),
                    Column("v", DataType.INTEGER),
                ],
            )
        )
        db.insert_many("t", [[i, i % 7] for i in range(n)])
        return db

    def test_columnar_scan_stats(self):
        ex = Executor(self._db(), scan_chunk_rows=100)
        ex.execute_sql("SELECT COUNT(*) FROM t WHERE v > 3")
        stats = ex.last_stats
        assert stats.vectorized == 1
        assert stats.rows_scanned == 700
        assert stats.partitions_scanned == 7
        assert stats.full_scans == 1

    def test_row_path_scan_stats(self):
        ex = Executor(self._db(), use_columnar=False)
        ex.execute_sql("SELECT COUNT(*) FROM t WHERE v > 3")
        stats = ex.last_stats
        assert stats.vectorized == 0
        assert stats.rows_scanned == 700
        assert stats.partitions_scanned == 1

    def test_explain_reports_vectorized_shape(self):
        ex = Executor(self._db())
        text = ex.explain_sql("SELECT COUNT(*) FROM t WHERE v > 3")
        assert "columnar: vectorized scan+filter+aggregate" in text

    def test_explain_reports_fallback_reason(self):
        ex = Executor(self._db())
        text = ex.explain_sql("SELECT v FROM t WHERE id = 7")
        assert "columnar: row path (index scan preferred)" in text
        text = ex.explain_sql("SELECT v FROM t WHERE v + 1 > 5")
        assert "columnar: row path (comparison over computed expressions)" in text

    def test_fallback_reason_recorded_on_execute(self):
        ex = Executor(self._db())
        ex.execute_sql("SELECT COUNT(*) FROM t WHERE v + 1 > 5")
        engine = ex._columnar_engine()
        assert engine is not None
        assert engine.last_fallback == "comparison over computed expressions"
        assert ex.last_stats.vectorized == 0

    def test_joins_fall_back(self):
        db = self._db(50)
        db.create_table(
            TableSchema(
                "u",
                [Column("id", DataType.INTEGER, primary_key=True),
                 Column("w", DataType.INTEGER)],
            )
        )
        db.insert_many("u", [[i, i] for i in range(10)])
        ex = Executor(db)
        text = ex.explain_sql("SELECT t.v FROM t JOIN u ON t.v = u.id")
        assert "columnar: row path" in text


# ---------------------------------------------------------------------------
# Golden fallback reasons
# ---------------------------------------------------------------------------

#: (sql, verbatim reason) — one query per `_Unsupported` message the
#: compiler can emit for SQL text.  The remaining raise sites need
#: programmatic ASTs or non-SQL values (NaN literal, DATE object against
#: a TEXT column, stores without vectorizable storage) and are covered
#: implicitly by the differential corpora.
GOLDEN_FALLBACKS = [
    ("SELECT v FROM t WHERE u.w > 3", "column 'u.w' is outside the scanned table"),
    ("SELECT v FROM t WHERE nosuch > 1", "column 'nosuch' does not resolve locally"),
    ("SELECT v FROM t WHERE v + 1", "operator '+' in WHERE"),
    ("SELECT v FROM t WHERE v + 1 IS NULL", "IS NULL over a computed expression"),
    ("SELECT v FROM t WHERE v + 1 > 5", "comparison over computed expressions"),
    ("SELECT v FROM t WHERE v > " + "9" * 400, "integer literal beyond float range"),
    ("SELECT v FROM t WHERE s > 'a\x00b'", "NUL byte in text literal"),
    ("SELECT v FROM t WHERE f > 1", "ordering comparison on NaN-containing column 'f'"),
    ("SELECT v FROM t WHERE s > d", "DATE/TEXT column comparison needs per-row coercion"),
    ("SELECT v FROM t WHERE v LIKE 'a%'", "LIKE outside text-column-vs-pattern form"),
    ("SELECT v FROM t WHERE v + 1 IN (1, 2)", "IN over a computed operand"),
    ("SELECT v FROM t WHERE v IN (id)", "non-literal IN list item"),
    ("SELECT t.v FROM t JOIN u ON t.v = u.id", "join"),
    ("SELECT v FROM t WHERE EXISTS (SELECT id FROM u)", "subquery"),
    ("SELECT v FROM t WHERE id = 7", "index scan preferred"),
    ("SELECT COUNT(*) FROM t GROUP BY v + 1", "computed GROUP BY key"),
    ("SELECT 1", "no FROM clause"),
]


class TestGoldenFallbackReasons:
    """Every reachable `_Unsupported` reason must surface verbatim in
    EXPLAIN output as ``columnar: row path (<reason>)`` — the fallback
    boundary is a documented API, not an implementation detail."""

    @staticmethod
    def _db() -> Database:
        db = Database("golden")
        db.create_table(
            TableSchema(
                "t",
                [
                    Column("id", DataType.INTEGER, primary_key=True, nullable=False),
                    Column("v", DataType.INTEGER),
                    Column("f", DataType.FLOAT),
                    Column("s", DataType.TEXT),
                    Column("d", DataType.DATE),
                ],
            )
        )
        db.create_table(
            TableSchema(
                "u",
                [
                    Column("id", DataType.INTEGER, primary_key=True, nullable=False),
                    Column("w", DataType.INTEGER),
                ],
            )
        )
        base = datetime.date(2023, 1, 1)
        db.insert_many(
            "t",
            [
                [
                    i,
                    i % 50,
                    float("nan") if i == 3 else i / 7.0,
                    f"s{i % 9}",
                    base + datetime.timedelta(days=i % 200),
                ]
                for i in range(600)
            ],
        )
        db.insert_many("u", [[i, i] for i in range(10)])
        return db

    @pytest.mark.parametrize("sql, reason", GOLDEN_FALLBACKS)
    def test_reason_verbatim_in_explain(self, sql, reason):
        text = self._db().explain_sql(sql)
        assert f"columnar: row path ({reason})" in text, text

    @pytest.mark.parametrize(
        "sql, reason",
        [
            pair
            for pair in GOLDEN_FALLBACKS
            # The row path itself raises OverflowError (not a SqlError)
            # comparing an int beyond float range; parity is meaningless.
            if pair[1] != "integer literal beyond float range"
        ],
    )
    def test_fallback_query_still_matches_naive(self, sql, reason):
        db = self._db()
        assert_three_paths_agree(db, sql)


# ---------------------------------------------------------------------------
# Bulk insert
# ---------------------------------------------------------------------------


class TestInsertMany:
    def _schema(self):
        return TableSchema(
            "t",
            [
                Column("id", DataType.INTEGER, primary_key=True),
                Column("v", DataType.INTEGER, nullable=True),
            ],
        )

    def test_bulk_matches_row_at_a_time(self):
        a, b = Database("a"), Database("b")
        a.create_table(self._schema())
        b.create_table(self._schema())
        rows = [[i, None if i % 5 == 0 else i * 2] for i in range(100)]
        for row in rows:
            a.insert("t", row)
        b.insert_many("t", rows)
        assert a.table("t").rows == b.table("t").rows

    def test_bulk_is_one_version_bump(self):
        db = Database("v")
        db.create_table(self._schema())
        before = db.table("t").version
        db.insert_many("t", [[i, i] for i in range(50)])
        assert db.table("t").version == before + 1

    def test_bulk_is_all_or_nothing(self):
        db = Database("atomic")
        db.create_table(self._schema())
        with pytest.raises(SqlError):
            db.insert_many("t", [[1, 1], [2, 2], ["bogus", 3]])  # type error in row 3
        assert db.table("t").rows == []
