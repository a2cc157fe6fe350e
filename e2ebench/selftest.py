"""Self-tests of the benchmark's own machinery.

    python3 e2ebench/selftest.py

- workload generation is a pure function of the seed;
- the oracle check catches a deliberately corrupted answer row;
- the self-time arithmetic is exact on a synthetic span tree, and the
  self times are checked against the loop's own clock.
"""

from __future__ import annotations

import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from oracle import SqliteOracle, same_answer  # noqa: E402
from spans import Span, link_requests, self_times  # noqa: E402


class GenerationIsSeeded(unittest.TestCase):
    def test_telemetry_ops(self) -> None:
        self.assertEqual(workloads.telemetry_ops(7, 2), workloads.telemetry_ops(7, 2))
        self.assertNotEqual(workloads.telemetry_ops(7, 2), workloads.telemetry_ops(8, 2))

    def test_http_sequence(self) -> None:
        self.assertEqual(workloads.http_sequence(50, 3, 200), workloads.http_sequence(50, 3, 200))
        self.assertNotEqual(workloads.http_sequence(50, 3, 200), workloads.http_sequence(50, 4, 200))

    def test_question_pool(self) -> None:
        def questions(seed: int) -> list:
            database = workloads.build_catalog(workloads.HTTP_SCALE)
            oracle = SqliteOracle(database)
            pool = workloads.question_pool(database, seed, seed, 5, oracle)
            return [(example.question, example.sql) for example in pool]

        first = questions(11)
        self.assertEqual(first, questions(11))
        self.assertNotEqual(first, questions(12))


class OracleCatchesCorruption(unittest.TestCase):
    def setUp(self) -> None:
        from repro.bench.domains import build_domain

        self.database = build_domain("retail")
        self.oracle = SqliteOracle(self.database)
        self.sql = "SELECT city, region FROM stores"
        self.rows = [list(row) for row in self.database.execute_sql(self.sql).rows]

    def check(self, rows: list) -> dict:
        inputs = run.Inputs.__new__(run.Inputs)
        inputs.oracle = self.oracle
        inputs.gold = {0: (self.oracle.query(self.sql), False)}
        record = {"i": 0, "ok": True, "error": None, "sql": self.sql, "rows": rows}
        return run.check_nl(inputs, [record])

    def test_clean_answer_passes(self) -> None:
        check = self.check(self.rows)
        self.assertEqual(check["matches"], 1)
        self.assertEqual(check["engine_mismatches"], [])

    def test_corrupted_row_fails(self) -> None:
        corrupted = [list(row) for row in self.rows]
        corrupted[len(corrupted) // 2][0] = "Atlantis"
        check = self.check(corrupted)
        self.assertEqual(check["matches"], 0)
        self.assertEqual(check["engine_mismatches"], [self.sql])

    def test_order_matters_only_when_fixed(self) -> None:
        gold = [(1, "a"), (2, "b")]
        self.assertTrue(same_answer([[2, "b"], [1, "a"]], gold, ordered=False))
        self.assertFalse(same_answer([[2, "b"], [1, "a"]], gold, ordered=True))
        self.assertFalse(same_answer([[1, "a"]], gold, ordered=False))


class SelfTimeArithmetic(unittest.TestCase):
    def test_synthetic_tree(self) -> None:
        spans = [
            Span("serve.http", 0.0, 10.0),  # 0: root
            Span("serve.front", 1.0, 4.0, parent=0, method="submit", request_id=5),
            Span("serve.front", 3.0, 8.0, parent=0),  # overlaps its sibling
            Span("core.interpret", 5.0, 6.0, parent=2),
            Span("perf.cache", 9.0, 12.0, parent=0),  # runs past its parent
        ]
        per_layer, wall = self_times(spans)
        self.assertEqual(wall, 10.0)
        self.assertAlmostEqual(per_layer["serve.http"], 10.0 - 3.0 - 4.0 - 1.0)
        self.assertAlmostEqual(per_layer["serve.front"], 3.0 + (4.0 - 1.0))
        self.assertAlmostEqual(per_layer["core.interpret"], 1.0)
        self.assertAlmostEqual(per_layer["perf.cache"], 1.0)
        self.assertAlmostEqual(sum(per_layer.values()), wall)

    def test_cross_thread_request_gets_queue_span(self) -> None:
        spans = [
            Span("serve.front", 0.0, 10.0, thread=1, method="ask", request_id=3),
            Span("serve.front", 0.5, 1.0, parent=0, thread=1, method="submit", request_id=3),
            Span("serve.front", 2.0, 9.5, thread=2, method="_run_ticket", request_id=3),
            Span("sqldb.execute", 3.0, 7.0, parent=2, thread=2),
        ]
        linked = link_requests(spans)
        self.assertEqual(linked[2].parent, 0)
        queue = [s for s in linked if s.layer == "serve.queue"]
        self.assertEqual([(q.start, q.end, q.parent) for q in queue], [(1.0, 2.0, 0)])
        per_layer, wall = self_times(linked)
        self.assertAlmostEqual(per_layer["serve.queue"], 1.0)
        self.assertAlmostEqual(per_layer["sqldb.execute"], 4.0)
        self.assertAlmostEqual(per_layer["serve.front"], 10.0 - 1.0 - 4.0)
        self.assertAlmostEqual(sum(per_layer.values()), wall)

    def test_gap_against_the_loop_clock(self) -> None:
        spans = [
            Span("sqldb.execute", 0.0, 0.004),
            Span("sqldb.columnar", 0.001, 0.003, parent=0),
            Span("sqldb.storage", 0.010, 0.012),
        ]
        per_layer, _ = self_times(spans)
        covered = [{"ms": 4.0}, {"ms": 2.0}]
        self.assertAlmostEqual(run.self_time_gap(covered, per_layer), 0.0)
        # a loop that timed 2 ms more than any span covers
        uncovered = [{"ms": 5.0}, {"ms": 3.0}]
        self.assertAlmostEqual(run.self_time_gap(uncovered, per_layer), 0.25)
        # spans counting more time than the loop saw
        self.assertLess(run.self_time_gap([{"ms": 4.0}], per_layer), -0.4)


if __name__ == "__main__":
    unittest.main()
