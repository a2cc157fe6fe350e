"""Differential NULL-semantics tests: repro.sqldb vs the sqlite3 oracle.

SQL three-valued logic is exactly the kind of semantics that silently
rots: every operator must propagate *unknown*, and WHERE/HAVING must
keep only definitely-true rows.  Rather than hand-assert each case, the
corpus here executes the same statements on our engine and on stdlib
sqlite3 and demands identical row multisets — including the three
historical regressions (NOT over NULL comparisons, NOT IN with a NULL
in the list, != resurrecting NULL rows).
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.sqldb import Column, Database, DataType, TableSchema
from repro.sqldb.executor import Executor

ROWS = [
    (1, 1, 10, "x"),
    (2, 2, None, "y"),
    (3, 3, 5, None),
    (4, None, 7, "z"),
    (5, 2, 10, "x"),
]


@pytest.fixture
def engines():
    """The same t(id, a, b, s) table in repro.sqldb and in sqlite3."""
    db = Database("nulls")
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
    db.insert_many("t", [list(row) for row in ROWS])
    oracle = sqlite3.connect(":memory:")
    oracle.execute("CREATE TABLE t (id INTEGER, a INTEGER, b INTEGER, s TEXT)")
    oracle.executemany("INSERT INTO t VALUES (?, ?, ?, ?)", ROWS)
    yield Executor(db), oracle
    oracle.close()


def _norm(value):
    """Comparison key that ignores int/float representation drift."""
    if value is None:
        return (0, "")
    if isinstance(value, bool):
        return (1, float(value))
    if isinstance(value, (int, float)):
        return (1, float(value))
    return (2, str(value))


def _run_both(engines, sql, ordered=False):
    executor, oracle = engines
    ours = [tuple(row) for row in executor.execute_sql(sql).rows]
    theirs = [tuple(row) for row in oracle.execute(sql).fetchall()]
    key = lambda row: tuple(_norm(v) for v in row)
    if ordered:
        return [key(r) for r in ours], [key(r) for r in theirs]
    return sorted(key(r) for r in ours), sorted(key(r) for r in theirs)


#: every statement runs on both engines and must agree exactly
CORPUS = [
    # -- the three headline regressions --------------------------------------
    "SELECT id FROM t WHERE NOT (b = 10)",
    "SELECT id FROM t WHERE b != 10",
    "SELECT id FROM t WHERE b NOT IN (10, NULL)",
    # -- NOT / != / <> over unknown ------------------------------------------
    "SELECT id FROM t WHERE NOT (b != 10)",
    "SELECT id FROM t WHERE NOT (a = b)",
    "SELECT id FROM t WHERE a <> b",
    "SELECT id FROM t WHERE NOT (s = 'x')",
    # -- IN / NOT IN with literal NULLs --------------------------------------
    "SELECT id FROM t WHERE b IN (10, NULL)",
    "SELECT id FROM t WHERE b IN (10, 5)",
    "SELECT id FROM t WHERE b NOT IN (10, 5)",
    "SELECT id FROM t WHERE b NOT IN (10, 5, 7)",
    # -- IN / NOT IN over subqueries containing NULLs ------------------------
    "SELECT id FROM t WHERE a IN (SELECT b FROM t)",
    "SELECT id FROM t WHERE a NOT IN (SELECT b FROM t)",
    "SELECT id FROM t WHERE a NOT IN (SELECT b FROM t WHERE b IS NOT NULL)",
    # -- BETWEEN / NOT BETWEEN -----------------------------------------------
    "SELECT id FROM t WHERE b BETWEEN 5 AND 10",
    "SELECT id FROM t WHERE b NOT BETWEEN 5 AND 10",
    "SELECT id FROM t WHERE b NOT BETWEEN 6 AND 8",
    # -- Kleene AND / OR ------------------------------------------------------
    "SELECT id FROM t WHERE b > 5 OR s = 'x'",
    "SELECT id FROM t WHERE b > 5 AND s = 'x'",
    "SELECT id FROM t WHERE NOT (b > 5 AND s = 'y')",
    "SELECT id FROM t WHERE NOT (b > 5 OR s = 'y')",
    "SELECT id FROM t WHERE b = NULL",
    "SELECT id FROM t WHERE NOT (b IS NULL)",
    "SELECT id FROM t WHERE b IS NULL OR a IS NULL",
    # -- NULL-free id beside NULL-carrying b: a wrong UNKNOWN shows under NOT
    "SELECT id FROM t WHERE NOT (id > 2 AND b > 6)",
    "SELECT id FROM t WHERE NOT (b > 6 AND id > 2)",
    "SELECT id FROM t WHERE NOT (NOT (id < 3 OR b > 6))",
    "SELECT id FROM t WHERE NOT (NOT (b > 6 OR id < 3))",
    # -- ordering comparisons over NULL --------------------------------------
    "SELECT id FROM t WHERE b > 5",
    "SELECT id FROM t WHERE NOT (b > 5)",
    "SELECT id FROM t WHERE b <= 10",
    # -- aggregates ignore NULLs ----------------------------------------------
    "SELECT COUNT(*), COUNT(b), COUNT(a) FROM t",
    "SELECT SUM(b), MIN(b), MAX(b) FROM t",
    "SELECT AVG(b) FROM t",
    "SELECT COUNT(s) FROM t WHERE b NOT IN (5, NULL)",
    # -- grouping + HAVING over 3VL -------------------------------------------
    "SELECT a, COUNT(*) FROM t GROUP BY a HAVING NOT (COUNT(*) = 1)",
    "SELECT a, SUM(b) FROM t GROUP BY a HAVING SUM(b) > 9",
]


@pytest.mark.parametrize("sql", CORPUS)
def test_differential_null_semantics(engines, sql):
    ours, theirs = _run_both(engines, sql)
    assert ours == theirs, f"divergence from sqlite3 on: {sql}"


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT id, b FROM t ORDER BY id LIMIT 2 OFFSET 1",
        "SELECT id FROM t ORDER BY id LIMIT 10 OFFSET 3",
        "SELECT id FROM t ORDER BY id LIMIT 2 OFFSET 0",
        "SELECT id FROM t ORDER BY id DESC LIMIT 3 OFFSET 2",
    ],
)
def test_differential_limit_offset(engines, sql):
    ours, theirs = _run_both(engines, sql, ordered=True)
    assert ours == theirs, f"divergence from sqlite3 on: {sql}"


class TestHeadlineRegressions:
    """The three repros from the issue, asserted directly (not just
    differentially) so a failure names the exact broken operator."""

    def test_not_propagates_null(self, engines):
        executor, _ = engines
        # b is NULL on row 2: NOT (NULL = 10) is unknown, row excluded.
        rows = executor.execute_sql("SELECT id FROM t WHERE NOT (b = 10)").rows
        assert [r[0] for r in rows] == [3, 4]

    def test_not_in_with_null_matches_nothing(self, engines):
        executor, _ = engines
        rows = executor.execute_sql(
            "SELECT id FROM t WHERE b NOT IN (1, NULL)"
        ).rows
        assert rows == []

    def test_inequality_does_not_resurrect_null(self, engines):
        executor, _ = engines
        rows = executor.execute_sql("SELECT id FROM t WHERE b != 10").rows
        assert [r[0] for r in rows] == [3, 4]
        rows = executor.execute_sql(
            "SELECT id FROM t WHERE b NOT BETWEEN 0 AND 6"
        ).rows
        assert [r[0] for r in rows] == [1, 4, 5]
