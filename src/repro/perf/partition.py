"""Fixed-size row-span partitioning for chunked scans.

The columnar scan path (:mod:`repro.sqldb.columnar`) evaluates predicate
masks per chunk of rows and concatenates them in chunk order;
:func:`chunk_spans` yields those deterministic ``[lo, hi)`` spans.

This module is a dependency-free leaf that the SQL engine can import
without cycles.
"""

from __future__ import annotations

from typing import List, Tuple

#: Default rows per scan chunk.  Large enough that per-chunk numpy
#: dispatch overhead is amortized.
DEFAULT_CHUNK_ROWS = 131_072

Span = Tuple[int, int]


def chunk_spans(n_rows: int, chunk_rows: int = DEFAULT_CHUNK_ROWS) -> List[Span]:
    """Split ``n_rows`` into contiguous half-open ``[lo, hi)`` spans.

    Every row lands in exactly one span; an empty input yields a single
    empty span so callers can treat "no rows" uniformly.
    """
    if chunk_rows <= 0:
        chunk_rows = DEFAULT_CHUNK_ROWS
    if n_rows <= 0:
        return [(0, 0)]
    return [(lo, min(lo + chunk_rows, n_rows)) for lo in range(0, n_rows, chunk_rows)]
