"""Closed-loop HTTP load generator for ``nl_http``.

One keep-alive connection per core, each on its own thread, takes the
next question of a fixed sequence as soon as its previous answer has
arrived, until the time is up.  The loop is closed on purpose: the HTTP
facade writes a response's headers and body in two ``send`` calls, so a
keep-alive connection that sends its next request soon after reading an
answer makes the client's delayed ACK hold the body for about 40 ms
(Nagle's algorithm).  An open loop hits that stall on a random share of
requests, set by its arrival gaps, which spread p50 and p95 by a third
from seed to seed; a closed loop hits it on every request, so the stall
shows at full size and steadily until the facade is fixed.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from typing import Any, Dict, List, Sequence, Tuple


def run_closed_loop(
    port: int,
    questions: Sequence[str],
    sequence: Sequence[int],
    connections: int,
    seconds: float,
    timeout: float = 60.0,
) -> Tuple[List[Dict[str, Any]], float]:
    """Send questions until ``seconds`` have passed; return one record per
    request (in sequence order) and the wall time of the loop."""
    records: Dict[int, Dict[str, Any]] = {}
    cursor = [0]
    lock = threading.Lock()
    clock = time.perf_counter
    start = clock()
    deadline = start + seconds

    def drive() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
        try:
            while clock() < deadline:
                with lock:
                    slot = cursor[0]
                    cursor[0] += 1
                if slot >= len(sequence):
                    return
                index = sequence[slot]
                body = json.dumps({"question": questions[index]})
                sent = clock()
                record: Dict[str, Any] = {"i": index}
                try:
                    conn.request("POST", "/query", body, {"Content-Type": "application/json"})
                    response = conn.getresponse()
                    payload = json.loads(response.read())
                    record.update(
                        status=response.status,
                        ok=payload.get("ok", False),
                        sql=payload.get("sql"),
                        rows=payload.get("rows"),
                        cached=payload.get("cached", False),
                        error=None if response.status == 200 else f"HTTP {response.status}",
                    )
                except (OSError, http.client.HTTPException, ValueError) as exc:
                    record.update(status=None, error=repr(exc))
                    conn.close()
                    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
                record["ms"] = 1000 * (clock() - sent)
                records[slot] = record
        finally:
            conn.close()

    threads = [threading.Thread(target=drive, name=f"loadgen-{n}") for n in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = clock() - start
    return [records[slot] for slot in sorted(records)], wall
