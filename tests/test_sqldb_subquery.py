"""Differential tests for subquery evaluation.

On the planned path an uncorrelated subquery runs once per top-level
statement and ``IN``/``NOT IN`` probe its result by hash; a correlated
one re-runs per outer row.  Every statement here runs on six engine
configurations — the naive interpreter, the planned row path and the
planned columnar path, each with static inference on and off — and must
match the stdlib sqlite3 oracle (or, where sqlite's semantics differ on
purpose — NaN, booleans, multi-row scalar subqueries — a hand-checked
expectation).  ``subquery_cache_hits`` must be positive on the planned
paths exactly when a subquery read no outer value, and zero on the
naive path always.
"""

from __future__ import annotations

import datetime
import sqlite3

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.sqldb import Column, Database, DataType, TableSchema
from repro.sqldb.errors import SubqueryError
from repro.sqldb.executor import Executor
from tests.test_sqldb_null_semantics import ROWS as T_ROWS

# ---------------------------------------------------------------------------
# Fixture: the NULL-semantics table t plus NULL-heavy inner tables
# ---------------------------------------------------------------------------

U_ROWS = [
    (1, 1.0, "x"),
    (2, None, "y"),
    (3, 10.0, None),
    (None, 5.0, "x"),
    (5, 2.0, "z"),
]
#: DATE column in the engine; ISO text in sqlite (which has no DATE)
E_ROWS = [(datetime.date(2020, 1, 1),), (None,), (datetime.date(2021, 6, 30),)]
W_ROWS = [("2020-01-01",), ("not a date",), ("2020-01-02",), (None,)]

TABLES = {
    "t": (
        [("id", DataType.INTEGER), ("a", DataType.INTEGER), ("b", DataType.INTEGER),
         ("s", DataType.TEXT)],
        T_ROWS,
    ),
    "u": ([("id", DataType.INTEGER), ("x", DataType.FLOAT), ("s", DataType.TEXT)], U_ROWS),
    "e": ([("d", DataType.DATE)], E_ROWS),
    "w": ([("s", DataType.TEXT)], W_ROWS),
    "z": ([("id", DataType.INTEGER), ("a", DataType.INTEGER)], []),
}


def _build(tables):
    db = Database("subquery")
    for name, (columns, rows) in tables.items():
        db.create_table(TableSchema(name, [Column(c, dtype) for c, dtype in columns]))
        db.insert_many(name, [list(r) for r in rows])
    return db


def _sqlite_value(value):
    return value.isoformat() if isinstance(value, datetime.date) else value


@pytest.fixture(scope="module")
def engines():
    db = _build(TABLES)
    oracle = sqlite3.connect(":memory:")
    for name, (columns, rows) in TABLES.items():
        oracle.execute(f"CREATE TABLE {name} ({', '.join(c for c, _ in columns)})")
        marks = ", ".join("?" for _ in columns)
        oracle.executemany(
            f"INSERT INTO {name} VALUES ({marks})",
            [tuple(_sqlite_value(v) for v in r) for r in rows],
        )
    yield db, oracle
    oracle.close()


def _configs(db):
    """(label, executor, planned) for the six engine configurations."""
    out = []
    for infer in (True, False):
        out.append((f"naive/infer={infer}", Executor(db, use_planner=False, infer=infer), False))
        out.append((
            f"row/infer={infer}",
            Executor(db, use_planner=True, use_columnar=False, infer=infer),
            True,
        ))
        out.append((
            f"columnar/infer={infer}",
            Executor(db, use_planner=True, use_columnar=True, scan_chunk_rows=2, infer=infer),
            True,
        ))
    return out


def _tag(row):
    """Type-tagged key: 1 and 1.0 equal, booleans apart, dates as ISO."""
    out = []
    for v in row:
        if v is None:
            out.append((0, ""))
        elif isinstance(v, bool):
            out.append((1, float(v)))
        elif isinstance(v, (int, float)):
            out.append((2, float(v)))
        else:
            out.append((3, str(v)))
    return tuple(out)


def _check(db, sql, expected, cached, ordered=False):
    """Every configuration returns ``expected`` (tagged rows); the
    planned ones hit the subquery cache iff ``cached``."""
    for label, executor, planned in _configs(db):
        got = [_tag(r) for r in executor.execute_sql(sql).rows]
        assert (got if ordered else sorted(got)) == expected, (label, sql)
        hits = executor.last_stats.subquery_cache_hits
        assert (hits > 0) == (planned and cached), (label, sql, hits)


def _oracle_rows(oracle, sql, ordered):
    rows = [_tag(r) for r in oracle.execute(sql).fetchall()]
    return rows if ordered else sorted(rows)


# ---------------------------------------------------------------------------
# sqlite3-checked corpus: (sql, uncorrelated)
# ---------------------------------------------------------------------------

CORPUS = [
    # -- uncorrelated IN / NOT IN with NULLs in the inner result -------------
    ("SELECT id FROM t WHERE a IN (SELECT id FROM u)", True),
    ("SELECT id FROM t WHERE a NOT IN (SELECT id FROM u)", True),
    ("SELECT id FROM t WHERE a NOT IN (SELECT id FROM u WHERE id IS NOT NULL)", True),
    ("SELECT id FROM t WHERE b IN (SELECT x FROM u)", True),
    ("SELECT id FROM t WHERE b NOT IN (SELECT x FROM u WHERE x > 1)", True),
    ("SELECT id FROM t WHERE s IN (SELECT s FROM u)", True),
    ("SELECT id FROM t WHERE s NOT IN (SELECT s FROM u)", True),
    ("SELECT id FROM t WHERE NOT (a IN (SELECT id FROM u))", True),
    # -- 1 vs 1.0: INTEGER probes against FLOAT members ----------------------
    ("SELECT id FROM t WHERE a IN (SELECT x FROM u)", True),
    ("SELECT id FROM t WHERE a NOT IN (SELECT x FROM u WHERE x IS NOT NULL)", True),
    # -- empty inner result, NULL outer operand ------------------------------
    ("SELECT id FROM t WHERE a IN (SELECT id FROM u WHERE x > 100)", True),
    ("SELECT id FROM t WHERE a NOT IN (SELECT id FROM u WHERE x > 100)", True),
    ("SELECT id FROM t WHERE a NOT IN (SELECT id FROM u WHERE 1 = 0)", True),
    ("SELECT id FROM t WHERE a NOT IN (SELECT a FROM z)", True),
    # -- DATE vs ISO-string members ------------------------------------------
    ("SELECT s FROM w WHERE s IN (SELECT d FROM e)", True),
    ("SELECT s FROM w WHERE s NOT IN (SELECT d FROM e)", True),
    ("SELECT s FROM w WHERE s NOT IN (SELECT d FROM e WHERE d IS NOT NULL)", True),
    ("SELECT d FROM e WHERE d IN (SELECT s FROM w)", True),
    # -- uncorrelated EXISTS and scalar --------------------------------------
    ("SELECT id FROM t WHERE EXISTS (SELECT 1 FROM u WHERE x > 5)", True),
    ("SELECT id FROM t WHERE NOT EXISTS (SELECT 1 FROM u WHERE x > 50)", True),
    ("SELECT id FROM t WHERE EXISTS (SELECT 1 FROM z)", True),
    ("SELECT id FROM t WHERE b > (SELECT AVG(x) FROM u)", True),
    ("SELECT id FROM t WHERE b = (SELECT MAX(x) FROM u)", True),
    ("SELECT id FROM t WHERE a < (SELECT MIN(a) FROM z)", True),
    ("SELECT id FROM t WHERE a = (SELECT id FROM u WHERE s = 'z')", True),
    # -- correlated -----------------------------------------------------------
    ("SELECT id FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.id = t.a)", False),
    ("SELECT id FROM t WHERE NOT EXISTS (SELECT 1 FROM u WHERE u.id = t.a)", False),
    ("SELECT id FROM t WHERE b IN (SELECT x FROM u WHERE u.id <> t.id)", False),
    ("SELECT id FROM t WHERE a NOT IN (SELECT id FROM u WHERE u.s = t.s)", False),
    ("SELECT id FROM t WHERE b > (SELECT AVG(x) FROM u WHERE u.s = t.s)", False),
    # two levels: the innermost block reads the outermost row
    (
        "SELECT id FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.id IN "
        "(SELECT v.id FROM u AS v WHERE v.x >= t.b))",
        False,
    ),
    # the middle block is correlated, the innermost is not
    (
        "SELECT id FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.id = t.a "
        "AND u.x IN (SELECT x FROM u AS v WHERE v.s = 'x'))",
        True,
    ),
    # the correlated branch is never reached (u.id = 2 has x NULL, so the
    # CASE takes its ELSE): no run reads t, so the answer is reused
    (
        "SELECT id FROM t WHERE b > (SELECT CASE WHEN u.x IS NOT NULL THEN t.a "
        "ELSE 4 END FROM u WHERE u.id = 2)",
        True,
    ),
    # the same shape reaching its correlated branch re-runs per row
    (
        "SELECT id FROM t WHERE b > (SELECT CASE WHEN u.x IS NOT NULL THEN t.a "
        "ELSE 4 END FROM u WHERE u.id = 1)",
        False,
    ),
    # short-circuited for some outer rows (a IS NULL skips it)
    ("SELECT id FROM t WHERE a IS NULL OR a IN (SELECT id FROM u WHERE u.s = t.s)", False),
    ("SELECT id FROM t WHERE a IS NULL OR a IN (SELECT id FROM u)", True),
    # -- subqueries outside WHERE --------------------------------------------
    ("SELECT id, (SELECT MAX(x) FROM u) FROM t", True),
    ("SELECT id, (SELECT COUNT(*) FROM u WHERE u.id = t.a) FROM t", False),
    (
        "SELECT a, COUNT(*) FROM t GROUP BY a "
        "HAVING (SELECT COUNT(*) FROM u WHERE x IS NULL) <= COUNT(*)",
        True,
    ),
    (
        "SELECT a, COUNT(*) FROM t GROUP BY a "
        "HAVING EXISTS (SELECT 1 FROM u WHERE u.id = t.a)",
        False,
    ),
    (
        "SELECT id, CASE WHEN a IN (SELECT id FROM u) THEN 'in' "
        "WHEN a NOT IN (SELECT id FROM u) THEN 'out' ELSE 'unknown' END FROM t",
        True,
    ),
    (
        "SELECT id, CASE WHEN EXISTS (SELECT 1 FROM u WHERE u.s = t.s) "
        "THEN 1 ELSE 0 END FROM t",
        False,
    ),
    (
        "SELECT t.id, u.id FROM t JOIN u ON t.a = u.id "
        "AND u.x >= (SELECT AVG(x) FROM u AS v)",
        True,
    ),
    (
        "SELECT t.id, u.id FROM t JOIN u ON t.s = u.s "
        "AND t.a NOT IN (SELECT id FROM u AS v WHERE v.x > 1)",
        True,
    ),
    (
        "SELECT id FROM t WHERE a IN (SELECT id FROM u) "
        "UNION SELECT id FROM u WHERE x > (SELECT AVG(b) FROM t)",
        True,
    ),
    (
        "SELECT id FROM t WHERE a NOT IN (SELECT id FROM u WHERE id IS NOT NULL) "
        "EXCEPT SELECT id FROM u WHERE EXISTS (SELECT 1 FROM t WHERE t.a = u.id)",
        True,
    ),
    (
        "SELECT id, ROW_NUMBER() OVER (ORDER BY id), (SELECT MAX(x) FROM u) FROM t",
        True,
    ),
    (
        "SELECT id, SUM(b) OVER (PARTITION BY a IN (SELECT id FROM u)) FROM t",
        True,
    ),
    (
        "SELECT id, RANK() OVER (ORDER BY a), "
        "(SELECT COUNT(*) FROM u WHERE u.id <= t.id) FROM t",
        False,
    ),
]


@pytest.mark.parametrize("sql,uncorrelated", CORPUS)
def test_subquery_matches_sqlite(engines, sql, uncorrelated):
    db, oracle = engines
    _check(db, sql, _oracle_rows(oracle, sql, False), uncorrelated)


@pytest.mark.parametrize(
    "sql,uncorrelated",
    [
        ("SELECT id FROM t WHERE a IN (SELECT id FROM u) ORDER BY id DESC", True),
        ("SELECT id, (SELECT MAX(x) FROM u) AS m FROM t ORDER BY m, id LIMIT 3", True),
        ("SELECT id FROM t ORDER BY (SELECT COUNT(*) FROM u WHERE u.id < t.id), id", False),
    ],
)
def test_ordered_subquery_matches_sqlite(engines, sql, uncorrelated):
    db, oracle = engines
    _check(db, sql, _oracle_rows(oracle, sql, True), uncorrelated, ordered=True)


# ---------------------------------------------------------------------------
# Engine semantics sqlite3 does not share: NaN, booleans, multi-row scalars
# ---------------------------------------------------------------------------

NAN = float("nan")
SPECIAL = {
    "t": TABLES["t"],
    "z": TABLES["z"],
    "f": ([("v", DataType.FLOAT)], [(1.0,), (NAN,), (None,)]),
    "g": ([("v", DataType.FLOAT)], [(NAN,), (NAN,)]),
    "k": ([("flag", DataType.BOOLEAN)], [(True,), (False,)]),
    "m": ([("v", DataType.FLOAT)], [(1.0,), (2,)]),
}


@pytest.fixture(scope="module")
def special_db():
    return _build(SPECIAL)


def _ids(*ids):
    return sorted(_tag((i,)) for i in ids)


@pytest.mark.parametrize(
    "sql,expected",
    [
        # NaN never matches; the NULL member makes every miss unknown
        ("SELECT id FROM t WHERE a IN (SELECT v FROM f)", _ids(1)),
        ("SELECT id FROM t WHERE a NOT IN (SELECT v FROM f)", _ids()),
        # NaN without NULL is a non-NULL member that matches nothing
        ("SELECT id FROM t WHERE a IN (SELECT v FROM g)", _ids()),
        ("SELECT id FROM t WHERE a NOT IN (SELECT v FROM g)", _ids(1, 2, 3, 5)),
        # a NaN outer operand misses, even against itself
        ("SELECT COUNT(*) FROM g WHERE v NOT IN (SELECT v FROM g)", [_tag((2,))]),
        ("SELECT v FROM f WHERE v IN (SELECT v FROM f)", [_tag((1.0,))]),
        # TRUE is not 1: booleans stay a separate family
        ("SELECT id FROM t WHERE a IN (SELECT flag FROM k)", _ids()),
        ("SELECT id FROM t WHERE a NOT IN (SELECT flag FROM k)", _ids(1, 2, 3, 5)),
        ("SELECT flag FROM k WHERE flag IN (SELECT a FROM t)", []),
        ("SELECT flag FROM k WHERE flag IN (SELECT flag FROM k WHERE flag)", [_tag((True,))]),
        # 1, 1.0 and TRUE: the numbers collapse, the boolean does not
        ("SELECT id FROM t WHERE a IN (SELECT v FROM m)", _ids(1, 2, 5)),
        ("SELECT COUNT(*) FROM k WHERE flag NOT IN (SELECT v FROM m)", [_tag((2,))]),
    ],
)
def test_engine_only_membership(special_db, sql, expected):
    _check(special_db, sql, sorted(expected), cached=True)


def test_scalar_subquery_two_rows_raises_only_with_outer_rows(special_db):
    for label, executor, _ in _configs(special_db):
        with pytest.raises(SubqueryError):
            executor.execute_sql("SELECT id FROM t WHERE a = (SELECT a FROM t)")
        assert executor._subquery_cache == {}, label
        result = executor.execute_sql("SELECT id FROM z WHERE a = (SELECT a FROM t)")
        assert result.rows == [], label
        assert executor.last_stats.subqueries == 0, label


def test_uncorrelated_subquery_runs_once_per_statement(engines):
    db, _ = engines
    executor = Executor(db)
    executor.execute_sql("SELECT id FROM t WHERE a NOT IN (SELECT id FROM u)")
    assert executor.last_stats.subqueries == 1
    assert executor.last_stats.subquery_cache_hits == len(T_ROWS) - 1
    # the cache never outlives its statement
    assert executor._subquery_cache == {}
    executor.execute_sql("SELECT id FROM t WHERE a NOT IN (SELECT id FROM u)")
    assert executor.last_stats.subqueries == 1


def test_correlated_subquery_runs_per_outer_row(engines):
    db, _ = engines
    for executor in (Executor(db), Executor(db, use_planner=False)):
        executor.execute_sql("SELECT id FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.id = t.a)")
        assert executor.last_stats.subqueries == len(T_ROWS)
        assert executor.last_stats.subquery_cache_hits == 0


def test_naive_path_never_consults_the_cache(engines):
    db, _ = engines
    executor = Executor(db, use_planner=False)
    executor.execute_sql("SELECT id FROM t WHERE a IN (SELECT id FROM u)")
    assert executor.last_stats.subqueries == len(T_ROWS)
    assert executor.last_stats.subquery_cache_hits == 0


def test_cache_does_not_cross_a_write():
    db = _build({"t": TABLES["t"], "u": TABLES["u"]})
    executor = Executor(db)
    sql = "SELECT id FROM t WHERE b IN (SELECT x FROM u)"
    before = sorted(r[0] for r in executor.execute_sql(sql).rows)
    db.insert_many("u", [[6, 7.0, "w"]])
    after = sorted(r[0] for r in executor.execute_sql(sql).rows)
    assert before == [1, 3, 5]
    assert after == [1, 3, 4, 5]


# ---------------------------------------------------------------------------
# Property: x [NOT] IN (SELECT y ...) over random mixed-type columns
# ---------------------------------------------------------------------------

_TYPES = {
    DataType.INTEGER: st.one_of(st.none(), st.integers(-2, 3)),
    DataType.FLOAT: st.one_of(
        st.none(), st.just(NAN), st.sampled_from([-2.0, 0.0, 1.0, 1.5, 3.0])
    ),
    DataType.TEXT: st.one_of(st.none(), st.sampled_from(["a", "b", "1", ""])),
}


@st.composite
def _membership_case(draw):
    outer_type = draw(st.sampled_from(sorted(_TYPES, key=lambda t: t.value)))
    inner_type = draw(st.sampled_from(sorted(_TYPES, key=lambda t: t.value)))
    outer = draw(st.lists(_TYPES[outer_type], max_size=6))
    inner = draw(st.lists(_TYPES[inner_type], max_size=5))
    negated = draw(st.booleans())
    where = draw(st.sampled_from(["", " WHERE y IS NOT NULL", " WHERE y IS NULL"]))
    return outer_type, inner_type, outer, inner, negated, where


def _nan_stand_in(tag, value):
    """sqlite stores NaN as NULL, so a text unique to this occurrence
    stands in for it: like NaN, it equals nothing at all."""
    return f"nan#{tag}" if isinstance(value, float) and value != value else value


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_membership_case())
def test_property_membership_matches_sqlite(case):
    outer_type, inner_type, outer, inner, negated, where = case
    db = _build({
        "o": ([("id", DataType.INTEGER), ("x", outer_type)], list(enumerate(outer))),
        "i": ([("y", inner_type)], [(v,) for v in inner]),
    })
    # Untyped sqlite columns apply no affinity, so 1 = 1.0 but 1 <> '1'.
    oracle = sqlite3.connect(":memory:")
    oracle.execute("CREATE TABLE o (id, x)")
    oracle.execute("CREATE TABLE i (y)")
    oracle.executemany(
        "INSERT INTO o VALUES (?, ?)", [(n, _nan_stand_in(f"o{n}", v)) for n, v in enumerate(outer)]
    )
    oracle.executemany(
        "INSERT INTO i VALUES (?)", [(_nan_stand_in(f"i{n}", v),) for n, v in enumerate(inner)]
    )
    op = "NOT IN" if negated else "IN"
    sql = f"SELECT id FROM o WHERE x {op} (SELECT y FROM i{where})"
    expected = sorted(_tag(r) for r in oracle.execute(sql).fetchall())
    oracle.close()
    for label, executor, _ in _configs(db):
        got = sorted(_tag(r) for r in executor.execute_sql(sql).rows)
        assert got == expected, (label, sql, outer, inner)
