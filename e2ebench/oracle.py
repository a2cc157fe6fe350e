"""Independent answer oracle: stdlib ``sqlite3`` over the same generated rows.

Gold answers must not come from ``repro.sqldb``: if the engine computed
both sides, an engine bug would agree with itself.  The oracle copies a
``repro`` database's rows into an in-memory sqlite3 database (dates as
ISO text, booleans as 0/1, which is how sqlite stores them) and answers
SQL there.  Results are compared as multisets of canonical rows, or as
sequences when an ``ORDER BY`` fixes the order.
"""

from __future__ import annotations

import datetime
import re
import sqlite3
from collections import Counter
from typing import Any, Iterable, List, Optional, Sequence, Tuple

#: repro column type → sqlite declared type
_SQLITE_TYPES = {
    "integer": "INTEGER",
    "float": "REAL",
    "text": "TEXT",
    "boolean": "INTEGER",
    "date": "TEXT",
}

_ORDER_BY = re.compile(r"\border\s+by\b", re.IGNORECASE)


def sqlite_value(value: Any) -> Any:
    """A repro cell as sqlite stores it."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, datetime.date):
        return value.isoformat()
    return value


def canonical(value: Any) -> Tuple[str, Any]:
    """A type-tagged comparison key that makes both engines' cells equal.

    Numbers compare by value rounded to 9 significant digits (AVG and SUM
    over floats may differ in the last bits between engines); booleans
    compare as sqlite's 0/1; dates and their ISO text compare equal.
    """
    if value is None:
        return ("null", "")
    if isinstance(value, bool):
        value = int(value)
    if isinstance(value, (int, float)):
        return ("num", float(f"{float(value):.9g}"))
    if isinstance(value, datetime.date):
        return ("str", value.isoformat())
    return ("str", str(value))


def canonical_rows(rows: Iterable[Sequence[Any]]) -> List[Tuple[Tuple[str, Any], ...]]:
    """Every row as a tuple of :func:`canonical` keys, in input order."""
    return [tuple(canonical(v) for v in row) for row in rows]


def is_ordered(sql: str) -> bool:
    """Does the statement fix its row order with a top-level ORDER BY?

    A conservative textual test: an ORDER BY anywhere counts, which only
    ever makes the comparison stricter for the NL corpora used here.
    """
    return bool(_ORDER_BY.search(sql))


def answer_key(rows: Iterable[Sequence[Any]], ordered: bool) -> Any:
    """The comparison form of a result: a list when ordered, else a multiset."""
    canon = canonical_rows(rows)
    if ordered:
        return canon
    return Counter(canon)


def same_answer(ours: Iterable[Sequence[Any]], gold: Iterable[Sequence[Any]], ordered: bool) -> bool:
    """Multiset (or, when ``ordered``, sequence) equality of two results."""
    return answer_key(ours, ordered) == answer_key(gold, ordered)


class SqliteOracle:
    """An in-memory sqlite3 copy of a repro database."""

    def __init__(self, database: Any, indexes: Sequence[Tuple[str, str]] = ()):
        self.conn = sqlite3.connect(":memory:")
        self._tables = {}
        for table in database.tables:
            self.add_table(table)
        for number, (table_name, columns) in enumerate(indexes):
            self.conn.execute(f"CREATE INDEX ix_{number} ON {table_name}({columns})")

    def add_table(self, table: Any) -> None:
        columns = list(table.schema)
        ddl = ", ".join(
            f"{c.name} {_SQLITE_TYPES[c.dtype.value]}" for c in columns
        )
        self.conn.execute(f"CREATE TABLE {table.name} ({ddl})")
        self._tables[table.name.lower()] = len(columns)
        self.insert(table.name, table.rows)

    def insert(self, table_name: str, rows: Iterable[Sequence[Any]]) -> int:
        """Insert rows (repro cell values) into ``table_name``."""
        width = self._tables[table_name.lower()]
        marks = ", ".join("?" * width)
        cursor = self.conn.executemany(
            f"INSERT INTO {table_name} VALUES ({marks})",
            ([sqlite_value(v) for v in row] for row in rows),
        )
        return cursor.rowcount

    def query(self, sql: str) -> Optional[List[Tuple[Any, ...]]]:
        """Rows of ``sql``, or ``None`` when sqlite cannot run it."""
        try:
            return self.conn.execute(sql).fetchall()
        except sqlite3.Error:
            return None

    def close(self) -> None:
        self.conn.close()
