"""End-to-end benchmark of the NL-question → SQL → engine → answer stack.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload nl_http --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py`` for why each one exists):

- ``nl_http``      — questions over HTTP keep-alive connections;
- ``nl_engine``    — engine-bound questions through ``ConcurrentFront.ask``;
- ``telemetry_rw`` — SQL reads and bulk writes through ``Database``.

This script generates the inputs from ``--seed``, computes gold answers
with stdlib ``sqlite3`` (``oracle.py``), runs the program in a separate
measured process (``worker.py``), checks every output, and prints the
metrics.  The closed-loop workloads run in :data:`SETUPS` passes, each
on a freshly set-up system; their timings pool the passes.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload traced (the last pass, on the closed loops) and prints the
per-layer metrics together with the tracing overhead.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A wrong answer from the SQL
engine, an HTTP 5xx or an exception exits with status 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

WORKLOADS = ("nl_http", "nl_engine", "telemetry_rw")
#: set-ups per run; the median is reported as ``setup_s``.  On the closed
#: loops each set-up is followed by a pass over the workload that runs
#: for this share of the run
SETUPS = 3
#: an operation answered within this many ms meets the latency objective
SLO_MS = 100.0
#: fewer samples than this leave fewer than ten beyond the p95
MIN_SAMPLES = 200
#: telemetry rounds generated per run (the loop stops when time is up)
TELEMETRY_ROUNDS = 40
#: largest accepted |loop-timed total - sum of layer self times| / loop-timed
#: total on the closed loops, whose loop times the root span's very call
SELF_TIME_TOLERANCE = 0.01
#: workloads whose own loop times the call the root spans wrap
CLOSED_LOOPS = ("nl_engine", "telemetry_rw")
#: hard cap on one measured process, well inside a run's time limit
WORKER_TIMEOUT_S = 150.0


def cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


# -- provenance --------------------------------------------------------------------


def git_sha() -> Optional[str]:
    """HEAD of the checkout, read from ``.git`` without running git (the
    benchmark may run in an export that is not a repository)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def provenance(args: argparse.Namespace) -> Dict[str, Any]:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a dependency
        numpy_version = None
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": cores(),
        "seed": args.seed,
        "seconds": args.seconds,
        "mode": "quick" if args.quick else "full",
        "workload": args.workload,
        "trace": args.trace,
    }


# -- statistics --------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# -- the measured process ----------------------------------------------------------


class Worker:
    """``worker.py`` in its own process, fed one JSON job line."""

    def __init__(self, job: Dict[str, Any]):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONHASHSEED"] = "0"
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=ROOT,
            env=env,
            text=True,
        )
        assert self.proc.stdin is not None
        self.proc.stdin.write(json.dumps(job) + "\n")
        self.proc.stdin.flush()

    def read_event(self) -> Dict[str, Any]:
        assert self.proc.stdout is not None
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"measured process exited early (status {self.proc.wait()})")
        return json.loads(line)

    def finish(self, command: str = "") -> Dict[str, Any]:
        out, _ = self.proc.communicate(command, timeout=WORKER_TIMEOUT_S)
        if self.proc.returncode != 0:
            raise RuntimeError(f"measured process failed with status {self.proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


# -- one workload run --------------------------------------------------------------


class Inputs:
    """Everything generated from the seed, plus gold answers."""

    def __init__(self, workload: str, seed: int):
        import workloads
        from oracle import SqliteOracle, is_ordered

        self.workload = workload
        self.pool: List[Any] = []
        self.sequence: List[int] = []
        self.ops: List[Dict[str, Any]] = []
        self.gold: Dict[int, Any] = {}
        if workload == "telemetry_rw":
            self.ops = workloads.telemetry_ops(seed, TELEMETRY_ROUNDS)
            return
        http = workload == "nl_http"
        database = workloads.build_catalog(workloads.HTTP_SCALE if http else workloads.ENGINE_SCALE)
        self.oracle = SqliteOracle(database)
        draw_seed = seed if http else workloads.DATA_SEED
        self.pool = workloads.question_pool(
            database, draw_seed, seed, workloads.TEMPLATE_QUOTA[workload], self.oracle
        )
        if http:
            self.sequence = workloads.http_sequence(len(self.pool), seed)
        for index in sorted(set(self.sequence) if http else range(len(self.pool))):
            example = self.pool[index]
            rows = self.oracle.query(example.sql)
            if rows is None:
                raise RuntimeError(f"oracle cannot run gold SQL: {example.sql}")
            self.gold[index] = (rows, is_ordered(example.sql))

    @property
    def questions(self) -> List[str]:
        return [example.question for example in self.pool]


def telemetry_oracle() -> Any:
    """sqlite3 loaded with the telemetry rows the worker starts from.

    Covering indexes keep replaying a run's reads cheap; they change no
    answer."""
    import workloads
    from oracle import SqliteOracle

    return SqliteOracle(
        workloads.build_telemetry(),
        indexes=(
            ("telemetry", "id"),
            ("telemetry", "device_id, event_type, duration_ms"),
            ("telemetry", "event_day, duration_ms"),
            ("telemetry", "duration_ms, region"),
            # NOCASE lets sqlite answer the case-insensitive LIKE prefix
            # scans from the index
            ("telemetry", "session COLLATE NOCASE"),
        ),
    )


def run_once(args: argparse.Namespace, inputs: Inputs, trace: bool) -> Dict[str, Any]:
    """One measured run; returns the worker report (with the client's
    records for ``nl_http``)."""
    job = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": trace,
        "setups": 1 if args.quick else SETUPS,
        "pool_size": cores(),
        "questions": inputs.questions if args.workload == "nl_engine" else [],
        "ops": inputs.ops,
    }
    worker = Worker(job)
    try:
        if args.workload != "nl_http":
            return worker.finish()
        from loadgen import run_closed_loop

        ready = worker.read_event()
        records, wall = run_closed_loop(
            ready["port"], inputs.questions, inputs.sequence, cores(), args.seconds
        )
        report = worker.finish("stop\n")
        report["records"] = records
        report["passes"] = [{"loop_s": wall}]
        return report
    finally:
        worker.kill()


# -- checking ----------------------------------------------------------------------


def check_nl(inputs: Inputs, records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Gold agreement per answer, and engine agreement on the system's SQL."""
    from oracle import is_ordered, same_answer

    matches = 0
    engine_checked = 0
    engine_mismatches: List[str] = []
    engine_cache: Dict[str, Any] = {}
    for record in records:
        if record.get("error") or not record.get("ok"):
            continue
        rows = record["rows"]
        gold_rows, ordered = inputs.gold[record["i"]]
        if same_answer(rows, gold_rows, ordered):
            matches += 1
        sql = record.get("sql")
        if not sql:
            continue
        if sql not in engine_cache:
            engine_cache[sql] = inputs.oracle.query(sql)
        oracle_rows = engine_cache[sql]
        engine_checked += 1
        if oracle_rows is None or not same_answer(rows, oracle_rows, is_ordered(sql)):
            engine_mismatches.append(sql)
    return {
        "matches": matches,
        "engine_checked": engine_checked,
        "engine_mismatches": sorted(set(engine_mismatches)),
    }


def check_telemetry(ops: List[Dict[str, Any]], records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Replay the executed prefix of the operations in sqlite3, in order.

    Every pass runs a prefix of the same operations from the same rows,
    so one replay of the longest prefix gives each record its gold."""
    from oracle import is_ordered, same_answer

    executed = 1 + max((r["i"] for r in records), default=-1)
    oracle = telemetry_oracle()
    try:
        gold = [
            oracle.insert(op["table"], op["rows"]) if op["kind"] == "write" else oracle.query(op["sql"])
            for op in ops[:executed]
        ]
    finally:
        oracle.close()
    matches = 0
    mismatches: List[str] = []
    for record in records:
        op = ops[record["i"]]
        expected = gold[record["i"]]
        if op["kind"] == "write":
            ok = record.get("error") is None and record.get("count") == expected
            label = f"insert of {len(op['rows'])} rows"
        else:
            ok = (
                record.get("error") is None
                and expected is not None
                and same_answer(record["rows"], expected, is_ordered(op["sql"]))
            )
            label = op["sql"]
        if ok:
            matches += 1
        else:
            mismatches.append(label)
    return {"matches": matches, "engine_checked": len(records), "engine_mismatches": mismatches}


# -- metrics -----------------------------------------------------------------------


def by_pass(report: Dict[str, Any]) -> List[List[Dict[str, Any]]]:
    """The records of each pass, in pass order (``nl_http`` has one)."""
    groups: List[List[Dict[str, Any]]] = [[] for _ in report["passes"]]
    for record in report["records"]:
        groups[record.get("pass", 0)].append(record)
    return groups


def pass_timings(report: Dict[str, Any]) -> List[Dict[str, float]]:
    """Median latency and throughput of each pass."""
    return [
        {
            "p50_ms": percentile([r["ms"] for r in records], 50),
            "qps": ratio(sum(1 for r in records if not r.get("error")), done["loop_s"]),
        }
        for records, done in zip(by_pass(report), report["passes"])
    ]


def end_to_end(report: Dict[str, Any], check: Dict[str, Any]) -> Dict[str, Tuple[float, str]]:
    records = report["records"]
    attempted = len(records)
    good = [r for r in records if not r.get("error")]
    within = sum(1 for r in good if r["ms"] <= SLO_MS)
    loop_s = sum(done["loop_s"] for done in report["passes"])
    return {
        "setup_s": (report["setup_median_s"], "s"),
        "latency_p50_ms": (percentile([r["ms"] for r in records], 50), "ms"),
        "throughput_qps": (ratio(len(good), loop_s), "ops/s"),
        "within_slo_ratio": (ratio(within, attempted), "ratio"),
        "correct_ratio": (ratio(check["matches"], attempted), "ratio"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
    }


def self_time_gap(records: List[Dict[str, Any]], self_s: Dict[str, float]) -> float:
    """Share of the loop-timed operation total that no layer's self time
    accounts for (negative if the spans count more time than the loop)."""
    timed_s = sum(r["ms"] for r in records) / 1000
    return ratio(timed_s - sum(self_s.values()), timed_s)


def per_layer(workload: str, report: Dict[str, Any]) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics from the traced pass."""
    trace = report["trace"]
    counters = report["counters"]
    records = by_pass(report)[-1]
    n = max(1, trace["requests"])
    self_ms = {layer: 1000 * s / n for layer, s in trace["self_s"].items()}
    stages = trace["stages_s"]
    execution = counters["execution"]
    statements = max(1, trace["statements"])

    def cache_ratio(name: str) -> float:
        stats = counters.get(name)
        if not stats:
            return 0.0
        return ratio(stats["hits"], stats["hits"] + stats["misses"])

    pruning = counters.get("pruning", {"considered": 0, "scored": 0})
    writes = sum(1 for r in records if "count" in r)
    builds = len(trace["column_store_builds_s"]) + len(trace["secondary_index_builds_s"])
    raw = [r["ms"] for r in records if r.get("after_write")]
    timed_s = sum(r["ms"] for r in records) / 1000
    # on nl_http the client's latency also holds the time on the wire,
    # which no server-side span covers: the gap is wire_ms's share
    gap = self_time_gap(records, trace["self_s"])
    wire_ms = (
        statistics.mean(r["ms"] for r in records) - 1000 * trace["wall_s"] / n
        if workload == "nl_http"
        else 0.0
    )
    metrics: Dict[str, Tuple[float, str]] = {
        "serve.http.self_ms": (self_ms["serve.http"], "ms"),
        "serve.http.wire_ms": (wire_ms, "ms"),
        "serve.front.self_ms": (self_ms["serve.front"], "ms"),
        "serve.queue.wait_ms_p95": (
            percentile([1000 * q for q in trace["queued_s"]], 95) if trace["queued_s"] else 0.0,
            "ms",
        ),
        "serve.chain.systems_per_request": (
            statistics.mean(trace["systems_per_request"]) if trace["systems_per_request"] else 0.0,
            "count",
        ),
        "perf.cache.self_ms": (self_ms["perf.cache"], "ms"),
        "perf.answer_cache.hit_ratio": (cache_ratio("answer_cache"), "ratio"),
        "perf.interp_cache.hit_ratio": (cache_ratio("interp_cache"), "ratio"),
        "core.interpret.self_ms": (self_ms["core.interpret"], "ms"),
        "nl.tokenize_ms": (1000 * stages.get("tokenize", 0.0) / n, "ms"),
        "nl.schema_index_ms": (1000 * stages.get("schema_index", 0.0) / n, "ms"),
        "nl.match_ms": (1000 * stages.get("match", 0.0) / n, "ms"),
        "nl.rank_ms": (1000 * stages.get("rank", 0.0) / n, "ms"),
        "core.schema_index.pruning_ratio": (
            ratio(pruning["considered"] - pruning["scored"], pruning["considered"]),
            "ratio",
        ),
        "core.analyze.self_ms": (self_ms["core.analyze"], "ms"),
        "core.analyze.candidates_per_request": (trace["analyze_calls"] / n, "count"),
        "core.compile.self_ms": (self_ms["core.compile"], "ms"),
        "sqldb.execute.self_ms": (self_ms["sqldb.execute"], "ms"),
        "sqldb.rows_scanned_per_row_out": (
            ratio(execution["rows_scanned"], execution["rows_output"]),
            "ratio",
        ),
        "sqldb.subqueries_per_stmt": (execution["subqueries"] / statements, "count"),
        "sqldb.hash_joins_per_stmt": (execution["hash_joins"] / statements, "count"),
        "sqldb.index_lookups_per_stmt": (execution["index_lookups"] / statements, "count"),
        "sqldb.statement_cache.hit_ratio": (
            ratio(
                execution["statement_cache_hits"],
                execution["statement_cache_hits"] + execution["statement_cache_misses"],
            ),
            "ratio",
        ),
        "sqldb.preflight_cache.hit_ratio": (
            ratio(execution["preflight_cache_hits"], execution["preflight_checks"]),
            "ratio",
        ),
        "sqldb.columnar.self_ms": (self_ms["sqldb.columnar"], "ms"),
        "sqldb.vectorized_ratio": (
            ratio(execution["vectorized"], statements + execution["subqueries"]),
            "ratio",
        ),
        "sqldb.twoval_kernel_ratio": (
            ratio(execution["twoval_kernels"], execution["vectorized"]),
            "ratio",
        ),
        "sqldb.storage.self_ms": (self_ms["sqldb.storage"], "ms"),
        "sqldb.column_store.build_ms": (
            1000 * statistics.median(trace["column_store_builds_s"])
            if trace["column_store_builds_s"]
            else 0.0,
            "ms",
        ),
        "sqldb.secondary_index.build_ms": (
            1000 * statistics.median(trace["secondary_index_builds_s"])
            if trace["secondary_index_builds_s"]
            else 0.0,
            "ms",
        ),
        "sqldb.storage.builds_per_write": (ratio(builds, writes), "count"),
        "sqldb.insert.ms_p50": (
            1000 * statistics.median(trace["inserts_s"]) if trace["inserts_s"] else 0.0,
            "ms",
        ),
        "sqldb.read_after_write_ms": (statistics.median(raw) if raw else 0.0, "ms"),
        "trace.overhead_ratio": (ratio(trace["cost_s"], timed_s), "ratio"),
        "trace.self_time_gap_ratio": (gap, "ratio"),
    }
    return metrics


# -- reporting ---------------------------------------------------------------------


def layer_table(report: Dict[str, Any]) -> str:
    trace = report["trace"]
    timed = sum(r["ms"] for r in by_pass(report)[-1]) / 1000
    lines = [f"{'layer':<16} {'self ms/req':>12} {'share':>7}"]
    n = max(1, trace["requests"])
    for layer, seconds in sorted(trace["self_s"].items(), key=lambda kv: -kv[1]):
        lines.append(f"{layer:<16} {1000 * seconds / n:>12.3f} {ratio(seconds, timed):>7.1%}")
    total = sum(trace["self_s"].values())
    lines.append(f"sum of self times {total:.4f} s vs loop-timed operations {timed:.4f} s")
    return "\n".join(lines)


def verify(inputs: Inputs, report: Dict[str, Any]) -> Tuple[Dict[str, Any], List[str]]:
    records = report["records"]
    if inputs.workload == "telemetry_rw":
        check = check_telemetry(inputs.ops, records)
    else:
        check = check_nl(inputs, records)
    problems = [f"wrong answer: {sql}" for sql in check["engine_mismatches"]]
    for record in records:
        if record.get("error"):
            problems.append(f"operation {record['i']} failed: {record['error']}")
    return check, problems


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true", help="one set-up instead of three (smoke runs)"
    )
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: the program's sources are missing ({SRC}/repro)", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    started = time.perf_counter()
    inputs = Inputs(args.workload, args.seed)
    generated_s = time.perf_counter() - started
    report = run_once(args, inputs, trace=bool(args.trace))
    check, problems = verify(inputs, report)
    records = report["records"]
    failed = sum(1 for r in records if r.get("error"))
    info = provenance(args)
    latencies = [r["ms"] for r in records]
    info.update(
        samples=len(records),
        # tail percentiles are reported, not bounded: on this workload mix
        # they swing with the host's speed far more than the median does
        latency_p90_ms=percentile(latencies, 90),
        latency_p95_ms=percentile(latencies, 95),
        generation_s=round(generated_s, 3),
        setup_runs_s=[round(s, 4) for s in report["setup_s"]],
        passes=[
            {"p50_ms": round(t["p50_ms"], 4), "qps": round(t["qps"], 3)}
            for t in pass_timings(report)
        ],
        engine_checked=check["engine_checked"],
        enough_samples=len(records) >= MIN_SAMPLES,
    )
    if args.workload == "nl_http":
        info["sent"] = len(records)
        info["succeeded"] = sum(1 for r in records if r.get("status") == 200)
        info["failed"] = failed
    if args.trace:
        metrics = per_layer(args.workload, report)
        print(layer_table(report))
        gap = metrics["trace.self_time_gap_ratio"][0]
        if args.workload in CLOSED_LOOPS and abs(gap) > SELF_TIME_TOLERANCE:
            problems.append(
                f"layer self times miss the loop-timed total by {gap:.2%}"
                f" (tolerance {SELF_TIME_TOLERANCE:.0%})"
            )
    else:
        metrics = end_to_end(report, check)
    for name, (value, unit) in metrics.items():
        print(f"{name:<36} {value:>14.4f} {unit}")
    print(json.dumps({"provenance": info}))
    for problem in problems[:20]:
        print(f"FAIL {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
