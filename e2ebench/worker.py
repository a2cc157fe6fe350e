"""The measured process: sets the program up and drives it.

Started by ``run.py`` with ``src`` on ``sys.path``.  It reads one JSON
job line from stdin, then:

- ``nl_http`` — sets the server up ``job["setups"]`` times (reporting
  each set-up time), keeps the last one and serves HTTP until stdin says
  ``stop``; the HTTP client lives in the parent process, so the load
  generator never competes with the server for this process's
  interpreter lock;
- ``nl_engine`` / ``telemetry_rw`` — runs ``job["setups"]`` passes.  A
  pass sets the system up afresh (timed as one set-up) and runs the
  closed loop on it for its share of the run, so every pass starts from
  the same state: cold caches and the generated rows.  When tracing,
  only the last pass is traced.

The last stdout line is a JSON report: set-up times, peak RSS, one
record per operation (tagged with its pass), the time each pass's loop
ran, counters read from the last system's public objects, and, when
tracing, per-layer self times.
"""

from __future__ import annotations

import datetime
import gc
import json
import resource
import statistics
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

import workloads
from spans import LAYERS, Tracer, link_requests, self_times, tracing_cost

#: breakers guard against faults; in this fault-free benchmark an
#: unanswerable question (every system abstains) must not trip them, or
#: whole stretches of a run would be answered "breaker open" in microseconds
BREAKER_THRESHOLD = 1_000_000
#: warm-up question asked once per worker context during set-up
WARM_QUESTION = "how many rows are there"
#: an ``nl_engine`` pass stops early only past this many times its share
NL_ENGINE_OVERRUN = 2.0


def emit(payload: Dict[str, Any]) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def json_rows(rows: Any) -> Optional[List[List[Any]]]:
    if rows is None:
        return None
    return [
        [v.isoformat() if isinstance(v, datetime.date) else v for v in row] for row in rows
    ]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- set-up ------------------------------------------------------------------------


class NLSystem:
    """Catalog, per-worker contexts, front and (for HTTP) server."""

    def __init__(self, scale: float, pool_size: int, http: bool):
        from repro.core.pipeline import NLIDBContext
        from repro.serve.concurrent import ConcurrentFront
        from repro.serve.service import ResilientService

        self.database = workloads.build_catalog(scale)
        self.warm_indexes = [
            (table, column.name) for table in self.database.tables for column in table.schema
        ]
        for table, column in self.warm_indexes:
            table.column_store()
            table.secondary_index(column)
        self.contexts = []
        for _ in range(pool_size):
            context = NLIDBContext(self.database)
            ResilientService(context).ask(WARM_QUESTION)
            self.contexts.append(context)
        factory = iter(self.contexts).__next__
        # the workers share one interpretation cache (``repro serve`` runs
        # without one), so a question repeated on another worker hits it
        self.front = ConcurrentFront(
            factory,
            pool_size=pool_size,
            share_interpretations=True,
            failure_threshold=BREAKER_THRESHOLD,
        ).start()
        self.server = None
        if http:
            from repro.serve.http import ServeHTTPServer

            self.server = ServeHTTPServer(self.front, "127.0.0.1", 0, quiet=True)
            self.server.serve_in_background()

    def close(self) -> None:
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
        self.front.stop()

    def counters(self) -> Dict[str, Any]:
        from repro.sqldb.planner import ExecutionStats

        total = ExecutionStats()
        pruning = {"considered": 0, "scored": 0}
        for context in self.contexts:
            total.merge(context.executor.total_stats)
            counters = context.schema_index_counters()
            if counters is not None:
                pruning["considered"] += counters.considered
                pruning["scored"] += counters.scored
        answer = self.front.answer_cache.stats
        interp = self.contexts[0].interpretation_cache.stats
        return {
            "execution": total.as_dict(),
            "pruning": pruning,
            "answer_cache": {"hits": answer.hits, "misses": answer.misses},
            "interp_cache": {"hits": interp.hits, "misses": interp.misses},
            "healthz": self.front.healthz()["counters"],
        }


class TelemetrySystem:
    """The 200k-row telemetry database with its lazy structures warmed."""

    def __init__(self) -> None:
        self.database = workloads.build_telemetry()
        table = self.database.table("telemetry")
        table.column_store()
        table.secondary_index("id")
        self.warm_indexes = [(table, "id")]
        self.database.execute_sql("SELECT COUNT(*) FROM telemetry WHERE id = 0")

    def close(self) -> None:
        pass

    def counters(self) -> Dict[str, Any]:
        return {"execution": self.database.executor.total_stats.as_dict()}


def build(job: Dict[str, Any]) -> Tuple[Any, float]:
    """One timed set-up of the workload's system."""
    start = time.perf_counter()
    if job["workload"] == "telemetry_rw":
        system: Any = TelemetrySystem()
    else:
        http = job["workload"] == "nl_http"
        scale = workloads.HTTP_SCALE if http else workloads.ENGINE_SCALE
        system = NLSystem(scale, job["pool_size"], http)
    return system, time.perf_counter() - start


def start_tracer(system: Any) -> Tracer:
    tracer = Tracer()
    for table, column in system.warm_indexes:
        tracer.prime_index(table, column)
    return tracer.install()


# -- closed loops ------------------------------------------------------------------


def error_verdict(verdict: str) -> bool:
    return verdict in ("rejected_overload", "rejected_deadline", "cancelled")


def run_nl_engine(system: NLSystem, job: Dict[str, Any], seconds: float) -> List[Dict[str, Any]]:
    records = []
    clock = time.perf_counter
    deadline = clock() + seconds
    for index, question in enumerate(job["questions"]):
        if clock() >= deadline:
            break
        start = clock()
        try:
            result = system.front.ask(question)
        except Exception as exc:  # the run reports it and fails
            records.append({"i": index, "ms": 1000 * (clock() - start), "error": repr(exc)})
            continue
        elapsed = clock() - start
        records.append({
            "i": index,
            "ms": 1000 * elapsed,
            "ok": result.ok,
            "error": result.verdict if error_verdict(result.verdict) else None,
            "sql": result.sql,
            "rows": json_rows(result.answer.rows if result.answer is not None else None),
        })
    return records


def run_telemetry(
    system: TelemetrySystem, job: Dict[str, Any], seconds: float
) -> List[Dict[str, Any]]:
    """Whole rounds until the time is up, so every pass has the same
    write share (a partly run round would skew it)."""
    database = system.database
    records = []
    clock = time.perf_counter
    deadline = clock() + seconds
    ops = job["ops"]
    after_write = False
    for index, op in enumerate(ops):
        if op["kind"] == "write" and clock() >= deadline:
            break
        start = clock()
        try:
            if op["kind"] == "write":
                out: Any = database.insert_many(op["table"], op["rows"])
            else:
                out = database.execute_sql(op["sql"])
        except Exception as exc:  # the run reports it and fails
            records.append({"i": index, "ms": 1000 * (clock() - start), "error": repr(exc)})
            continue
        elapsed = clock() - start
        record: Dict[str, Any] = {"i": index, "ms": 1000 * elapsed, "error": None}
        if op["kind"] == "write":
            record["count"] = out
            after_write = True
        else:
            record["rows"] = json_rows(out.rows)
            record["after_write"] = after_write
            after_write = False
        records.append(record)
    return records


# -- trace summary -----------------------------------------------------------------


def trace_summary(tracer: Tracer, requests: int) -> Dict[str, Any]:
    spans = link_requests(tracer.spans)
    per_layer, wall = self_times(spans)
    stages: Dict[str, float] = {}
    stage_calls = 0
    for profiler in tracer.profilers:
        for name, stat in profiler.stages.items():
            stages[name] = stages.get(name, 0.0) + stat.seconds
            stage_calls += stat.calls
    builds: Dict[str, List[float]] = {"build": [], "secondary_index": []}
    inserts: List[float] = []
    queued: List[float] = []
    systems: List[int] = []
    analyze_calls = 0
    statements = 0
    for span in spans:
        if span.method == "build" or span.note.get("built"):
            builds[span.method].append(span.duration)
        elif span.method == "insert_many":
            inserts.append(span.duration)
        elif span.method == "analyze":
            analyze_calls += 1
        elif span.layer == "sqldb.execute" and (
            span.parent is None or spans[span.parent].layer != "sqldb.execute"
        ):
            statements += 1
        elif span.method == "_run_ticket" and span.note:
            queued.append(span.note["queued_s"])
            if not span.note["cached"]:
                systems.append(span.note["systems"])
    tickets = sum(1 for span in tracer.spans if span.method == "_run_ticket")
    return {
        "self_s": {layer: per_layer.get(layer, 0.0) for layer in LAYERS},
        "wall_s": wall,
        "requests": requests,
        "spans": len(spans),
        "cost_s": tracing_cost(len(tracer.spans), stage_calls, tickets),
        "stages_s": stages,
        "column_store_builds_s": builds["build"],
        "secondary_index_builds_s": builds["secondary_index"],
        "inserts_s": inserts,
        "queued_s": queued,
        "systems_per_request": systems,
        "analyze_calls": analyze_calls,
        "statements": statements,
    }


# -- main --------------------------------------------------------------------------


def serve_http(job: Dict[str, Any]) -> Dict[str, Any]:
    """Set the server up ``job["setups"]`` times, serve on the last one."""
    setup_s: List[float] = []
    system = None
    for _ in range(job["setups"]):
        if system is not None:
            system.close()
            system = None
        system, seconds = build(job)
        setup_s.append(seconds)
    assert system is not None and system.server is not None
    tracer = start_tracer(system) if job["trace"] else None
    emit({"event": "ready", "port": system.server.endpoint[1]})
    command = sys.stdin.readline().strip()
    if command != "stop":
        raise SystemExit(f"expected 'stop', got {command!r}")
    if tracer is not None:
        tracer.uninstall()
    requests = system.front.healthz()["counters"]["submitted"]
    counters = system.counters()
    system.close()
    return {
        "setup_s": setup_s,
        "records": [],
        "passes": [],
        "counters": counters,
        "trace": trace_summary(tracer, requests) if tracer is not None else None,
    }


def run_passes(job: Dict[str, Any]) -> Dict[str, Any]:
    """``job["setups"]`` passes of the closed loop, each on a fresh system.

    A telemetry pass runs whole rounds for its share of the run.  An
    ``nl_engine`` pass asks the whole question set, which is sized to
    about fill its share; it stops early only past
    :data:`NL_ENGINE_OVERRUN` times its share, so on a slow host every
    pass still asks the same questions."""
    share = job["seconds"] / job["setups"]
    if job["workload"] == "nl_engine":
        loop, limit = run_nl_engine, NL_ENGINE_OVERRUN * share
    else:
        loop, limit = run_telemetry, share
    setup_s: List[float] = []
    records: List[Dict[str, Any]] = []
    passes: List[Dict[str, Any]] = []
    counters: Dict[str, Any] = {}
    summary = None
    for number in range(job["setups"]):
        # what earlier passes left (their records) is the harness's, not
        # the program's: the collector stops scanning it, so every pass
        # collects only its own system's objects
        gc.collect()
        gc.freeze()
        system, seconds = build(job)
        setup_s.append(seconds)
        last = number == job["setups"] - 1
        tracer = start_tracer(system) if job["trace"] and last else None
        start = time.perf_counter()
        done = loop(system, job, limit)
        loop_s = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
            summary = trace_summary(tracer, len(done))
        for record in done:
            record["pass"] = number
        records.extend(done)
        passes.append({"loop_s": loop_s})
        if last:
            counters = system.counters()
        system.close()
        system = tracer = None
    return {
        "setup_s": setup_s,
        "records": records,
        "passes": passes,
        "counters": counters,
        "trace": summary,
    }


def main() -> int:
    job = json.loads(sys.stdin.readline())
    report = serve_http(job) if job["workload"] == "nl_http" else run_passes(job)
    report.update(
        event="report",
        setup_median_s=statistics.median(report["setup_s"]),
        peak_rss_mb=peak_rss_mb(),
    )
    emit(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
