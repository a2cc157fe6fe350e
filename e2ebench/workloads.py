"""Seeded inputs of the three benchmark workloads.

The databases are fixed (built with :data:`DATA_SEED`); ``--seed`` draws
the questions and operations run over them, so the same seed gives the
same inputs and a different seed a different sample of the same mix.
The program under test only ever receives the generated inputs.

- ``nl_http`` — mixed-tier questions over the 28-table wide catalog
  (each of the seven demo domains once) at ``scale=1``, sent over HTTP
  by one keep-alive connection per core.  About half the requests repeat
  an earlier question verbatim, so the answer cache has a working set
  that fits.  Requests are short, so HTTP and admission costs show.
- ``nl_engine`` — the same catalog recipe at ``scale=10`` (about 15k
  rows), every question unique so the caches miss, one closed-loop
  client.  Engine-bound: joins and uncorrelated ``IN``/``NOT IN``
  subqueries run on the row path.  The question set is fixed and the
  seed draws its order.  A run asks the whole set once per pass (see
  ``worker.py``); the set is sized so that a pass about fills its third
  of a 30 s run on a 2-core host.  About one question in a hundred is
  misread into an ``IN`` subquery over a join that costs 0.5–4 s on the
  row path, and some twenty heavy questions take three quarters of a
  pass, so a seeded draw of values would put zero to five of the
  misread ones in a run and swing its throughput by half.
- ``telemetry_rw`` — SQL text over the 200k-row telemetry table: the six
  ``QUERY_TEMPLATES`` read classes in equal shares with fresh parameters
  (so the statement cache always misses) and one 10-row
  ``insert_many`` per :data:`ROUND_OPS` operations, which forces the
  lazy column store and secondary index to rebuild.  Exercises the
  columnar kernels and the storage layer; the NL and serving layers
  are idle.

Question mixes are stratified by generator template, not just by tier:
templates differ in cost by two orders of magnitude, so a run's mix of
templates must not depend on the seed.
"""

from __future__ import annotations

import datetime
import random
from typing import Any, Dict, List, Tuple

#: seed of the generated databases (the workload seed draws the inputs)
DATA_SEED = 0
CATALOG_WIDTH = 28
HTTP_SCALE = 1.0
ENGINE_SCALE = 10.0
TELEMETRY_ROWS = 200_000

#: share of ``nl_http`` requests that repeat an earlier question verbatim
HTTP_REPEAT_SHARE = 0.5
#: ``nl_http`` requests generated per run; a run sends as many as fit
HTTP_REQUESTS = 4000

#: telemetry operations per round: one write, then reads
ROUND_OPS = 100
WRITE_ROWS = 10

#: questions kept per generator template (fewer where the template has
#: fewer distinct questions), and questions asked of the generator per
#: tier to fill those quotas; 18 per template gives ``nl_engine`` 309
#: questions, about 9 s on a 2-core host
TEMPLATE_QUOTA = {"nl_http": 160, "nl_engine": 18}
TIER_DRAWS = (450, 800, 350, 330)


def build_catalog(scale: float) -> Any:
    """The wide catalog both NL workloads run over."""
    from repro.bench.catalog_gen import build_wide_catalog

    return build_wide_catalog(CATALOG_WIDTH, seed=DATA_SEED, scale=scale)


def build_telemetry() -> Any:
    from repro.bench.workload_gen import build_telemetry_db

    return build_telemetry_db(TELEMETRY_ROWS, seed=DATA_SEED)


def _generator(database: Any, seed: int, oracle: Any) -> Any:
    """``WorkloadGenerator`` validating gold SQL on the sqlite3 oracle.

    The stock generator validates each candidate by running it on
    ``repro.sqldb``; the benchmark's gold answers come from sqlite3, so
    it validates there instead (same checks: it runs, it is of the
    requested tier, it returns rows).  This also keeps generation fast
    on the engine-bound shapes this benchmark is about.
    """
    from repro.bench.workloads import WorkloadGenerator
    from repro.core.complexity import classify
    from repro.sqldb.errors import SqlError

    class OracleValidated(WorkloadGenerator):
        def _valid(self, example: Any) -> bool:
            if not oracle.query(example.sql):
                return False
            try:
                return classify(example.sql) is example.tier
            except SqlError:
                return False

    return OracleValidated(database, seed=seed)


def question_pool(
    database: Any, draw_seed: int, order_seed: int, quota: int, oracle: Any
) -> List[Any]:
    """Unique validated questions, at most ``quota`` per template.

    ``draw_seed`` draws the questions, ``order_seed`` their order.  Each
    template's questions are dealt evenly over the pool positions, so
    any prefix of the pool has about the same template mix as the whole,
    and a closed loop that stops when time is up runs the same mix under
    every seed.
    """
    from repro.core.complexity import ComplexityTier

    generator = _generator(database, draw_seed, oracle)
    by_template: Dict[str, List[Any]] = {}
    seen = set()
    for tier, draws in zip(ComplexityTier, TIER_DRAWS):
        for example in generator.generate(tier, draws):
            if example.question not in seen:
                seen.add(example.question)
                by_template.setdefault(example.template, []).append(example)
    rng = random.Random(order_seed)
    keyed = []
    for template in sorted(by_template):
        examples = by_template[template][:quota]
        rng.shuffle(examples)
        for i, example in enumerate(examples):
            keyed.append(((i + rng.random()) / len(examples), example))
    keyed.sort(key=lambda pair: pair[0])
    return [example for _, example in keyed]


def http_sequence(pool_size: int, seed: int, length: int = HTTP_REQUESTS) -> List[int]:
    """Pool indices in request order.

    Each request repeats a uniformly chosen earlier question with
    probability :data:`HTTP_REPEAT_SHARE`, otherwise asks the next unused
    question of the pool (once the pool is used up, every request
    repeats).
    """
    rng = random.Random(seed * 7919 + 1)
    sequence: List[int] = []
    asked = 0
    for _ in range(length):
        if asked and (rng.random() < HTTP_REPEAT_SHARE or asked >= pool_size):
            sequence.append(rng.randrange(asked))
        else:
            sequence.append(asked)
            asked += 1
    return sequence


def telemetry_ops(seed: int, rounds: int, n_rows: int = TELEMETRY_ROWS) -> List[Dict[str, Any]]:
    """``rounds`` rounds of :data:`ROUND_OPS` operations each.

    A round opens with a :data:`WRITE_ROWS`-row insert, then cycles the
    six read classes in seeded order with fresh parameters.  No SQL text
    repeats within a run, so the statement cache never hits.
    """
    from repro.bench.workload_gen import (
        BASE_DAY,
        MAX_DURATION_MS,
        N_DAYS,
        N_DEVICES,
        N_EVENT_TYPES,
        N_SESSIONS,
        QUERY_TEMPLATES,
        REGIONS,
    )

    rng = random.Random(seed * 104729 + 3)
    base = datetime.date.fromisoformat(BASE_DAY)
    classes = sorted(QUERY_TEMPLATES)
    seen = set()
    next_id = n_rows
    ops: List[Dict[str, Any]] = []

    def pair(n: int) -> Tuple[int, int]:
        lo, hi = sorted(rng.sample(range(n), 2))
        return lo, hi

    def day(offset: int) -> str:
        return (base + datetime.timedelta(days=offset)).isoformat()

    for _ in range(rounds):
        rows = []
        for _ in range(WRITE_ROWS):
            rows.append([
                next_id,
                rng.randrange(N_DEVICES),
                rng.randrange(N_EVENT_TYPES),
                rng.choice(REGIONS),
                f"sess-{rng.randrange(N_SESSIONS)}",
                day(rng.randrange(N_DAYS)),
                None if rng.random() < 0.04 else rng.randrange(MAX_DURATION_MS),
                None if rng.random() < 0.04 else rng.random() < 0.9,
            ])
            next_id += 1
        ops.append({"kind": "write", "table": "telemetry", "rows": rows})
        order: List[str] = []
        while len(order) < ROUND_OPS - 1:
            block = list(classes)
            rng.shuffle(block)
            order.extend(block)
        for name in order[: ROUND_OPS - 1]:
            sql = ""
            while not sql or sql in seen:
                dev_lo, dev_hi = pair(N_DEVICES)
                et_lo, et_hi = pair(N_EVENT_TYPES)
                day_lo, day_hi = pair(N_DAYS)
                dur_lo, dur_hi = pair(MAX_DURATION_MS)
                sql = QUERY_TEMPLATES[name].format(
                    dev_lo=dev_lo,
                    dev_hi=dev_hi,
                    et_lo=et_lo,
                    et_hi=et_hi,
                    day_lo=day(day_lo),
                    day_hi=day(day_hi),
                    dur_lo=dur_lo,
                    dur_hi=dur_hi,
                    sess_prefix=rng.randrange(10, N_SESSIONS),
                    row_id=rng.randrange(next_id),
                )
            seen.add(sql)
            ops.append({"kind": "read", "class": name, "sql": sql})
    return ops
