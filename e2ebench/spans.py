"""In-memory span tracing around the program's public layer boundaries.

The program has no span instrumentation of its own yet, so the traced
run wraps the boundary methods listed in :data:`LAYER_METHODS` from the
benchmark's side.  Each call records a :class:`Span` (layer, start, end,
parent, thread, request id); spans stay in memory until the run ends.

Parents come from a per-thread stack.  A request crosses threads once,
from the thread that submits it to the serving front (HTTP handler or
closed-loop client) to the pool worker that runs it; :func:`link_requests`
joins the two halves by request id and inserts the time the request
waited in the admission queue as a ``serve.queue`` span.

A layer's self time is its span's duration minus the part of that
interval its child spans cover (:func:`self_times`).  Children are
clipped to their parent and siblings to each other, so the self times of
one tree add up to its root's duration exactly; whether the root spans
cover the time the workload's own loop measured is checked by the
caller against that loop's clock.

:func:`tracing_cost` estimates, in the traced process, what the
wrappers and stage profiling added to the run.
"""

from __future__ import annotations

import functools
import math
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (module, class, method, layer) for every wrapped boundary
LAYER_METHODS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.serve.http", "ServeRequestHandler", "do_POST", "serve.http"),
    ("repro.serve.concurrent", "ConcurrentFront", "ask", "serve.front"),
    ("repro.serve.concurrent", "ConcurrentFront", "submit", "serve.front"),
    ("repro.serve.concurrent", "ConcurrentFront", "_run_ticket", "serve.front"),
    ("repro.serve.concurrent", "AnswerCache", "get", "perf.cache"),
    ("repro.serve.concurrent", "AnswerCache", "put", "perf.cache"),
    ("repro.perf.cache", "InterpretationCache", "get", "perf.cache"),
    ("repro.perf.cache", "InterpretationCache", "put", "perf.cache"),
    ("repro.core.pipeline", "NLIDBContext", "interpret", "core.interpret"),
    ("repro.core.pipeline", "NLIDBContext", "analyze", "core.analyze"),
    ("repro.core.interpretation", "Interpretation", "to_sql", "core.compile"),
    ("repro.sqldb.executor", "Executor", "execute", "sqldb.execute"),
    ("repro.sqldb.executor", "Executor", "execute_sql", "sqldb.execute"),
    ("repro.sqldb.columnar", "ColumnarEngine", "try_execute", "sqldb.columnar"),
    ("repro.sqldb.columnar", "ColumnStore", "build", "sqldb.storage"),
    ("repro.sqldb.table", "Table", "secondary_index", "sqldb.storage"),
    ("repro.sqldb.database", "Database", "insert_many", "sqldb.storage"),
)

#: stable report order of the layers
LAYERS: Tuple[str, ...] = (
    "serve.http",
    "serve.queue",
    "serve.front",
    "perf.cache",
    "core.interpret",
    "core.analyze",
    "core.compile",
    "sqldb.execute",
    "sqldb.columnar",
    "sqldb.storage",
)


@dataclass
class Span:
    """One timed call into a layer."""

    layer: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    thread: int = 0
    request_id: Optional[int] = None
    #: method name, so counters can tell e.g. a submit from an ask
    method: str = ""
    #: free-form facts recorded at the boundary (e.g. ``{"built": True}``)
    note: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around wrapped methods; :meth:`uninstall` restores them."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._restore: List[Tuple[type, str, Any]] = []
        #: per-thread StageProfilers activated on serving workers
        self.profilers: List[Any] = []
        #: (table id, column) -> id of the secondary index last returned
        self.indexes_seen: Dict[Tuple[int, str], int] = {}

    # -- recording -------------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, layer: str, method: str = "", request_id: Optional[int] = None) -> int:
        stack = self._stack()
        span = Span(
            layer,
            time.perf_counter(),
            parent=stack[-1] if stack else None,
            thread=threading.get_ident(),
            request_id=request_id,
            method=method,
        )
        self.spans.append(span)
        index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack().pop()

    def thread_root(self) -> Optional[Span]:
        """The outermost open span of the calling thread."""
        stack = self._stack()
        return self.spans[stack[0]] if stack else None

    # -- installation ------------------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every boundary in :data:`LAYER_METHODS`."""
        import importlib

        from repro.perf.profiler import StageProfiler

        for module_name, class_name, method, layer in LAYER_METHODS:
            owner = getattr(importlib.import_module(module_name), class_name)
            original = owner.__dict__[method]
            function = original.__func__ if isinstance(original, classmethod) else original
            wrapper = _WRAPPERS.get(method, _plain)(self, function, layer, method)
            wrapper = functools.wraps(function)(wrapper)
            if isinstance(original, classmethod):
                wrapper = classmethod(wrapper)
            setattr(owner, method, wrapper)
            self._restore.append((owner, method, original))
        self._profiler_type = StageProfiler
        return self

    def uninstall(self) -> None:
        for owner, method, original in reversed(self._restore):
            setattr(owner, method, original)
        self._restore.clear()

    def prime_index(self, table: Any, column: str) -> None:
        """Remember an already built secondary index (call before
        :meth:`install`), so the first traced lookup on it is not
        mistaken for a rebuild."""
        self.indexes_seen[(id(table), column.lower())] = id(table.secondary_index(column))

    def stage_profiler(self) -> Any:
        """This thread's StageProfiler (created on first use)."""
        profiler = getattr(self._local, "profiler", None)
        if profiler is None:
            profiler = self._local.profiler = self._profiler_type()
            self.profilers.append(profiler)
        return profiler


def _plain(tracer: Tracer, original: Callable, layer: str, method: str) -> Callable:
    def traced(*args: Any, **kwargs: Any) -> Any:
        index = tracer.open(layer, method)
        try:
            return original(*args, **kwargs)
        finally:
            tracer.close(index)

    return traced


def _submit(tracer: Tracer, original: Callable, layer: str, method: str) -> Callable:
    """Tag the submitting thread's root span with the admitted request id."""

    def traced(*args: Any, **kwargs: Any) -> Any:
        index = tracer.open(layer, method)
        try:
            ticket = original(*args, **kwargs)
        finally:
            tracer.close(index)
        tracer.spans[index].request_id = ticket.request_id
        root = tracer.thread_root()
        if root is not None:
            root.request_id = ticket.request_id
        return ticket

    return traced


def _run_ticket(tracer: Tracer, original: Callable, layer: str, method: str) -> Callable:
    """The worker half of a request: carries its id, queue wait and NL stages."""

    def traced(front: Any, service: Any, ticket: Any) -> Any:
        index = tracer.open(layer, method, ticket.request_id)
        try:
            with tracer.stage_profiler().activate():
                return original(front, service, ticket)
        finally:
            tracer.close(index)
            result = ticket.result
            if result is not None:
                tracer.spans[index].note = {
                    "queued_s": result.queued_s,
                    "cached": result.cached,
                    "ok": result.ok,
                    "systems": len(result.degraded_from) + int(result.ok),
                }

    return traced


def _index_build(tracer: Tracer, original: Callable, layer: str, method: str) -> Callable:
    """Mark secondary-index calls that rebuilt the index (a new mapping)."""

    def traced(table: Any, column: str) -> Any:
        index = tracer.open(layer, method)
        try:
            value = original(table, column)
        finally:
            tracer.close(index)
        key = (id(table), column.lower())
        seen = tracer.indexes_seen.get(key)
        tracer.spans[index].note = {"built": seen != id(value)}
        tracer.indexes_seen[key] = id(value)
        return value

    return traced


_WRAPPERS: Dict[str, Callable[..., Callable]] = {
    "submit": _submit,
    "_run_ticket": _run_ticket,
    "secondary_index": _index_build,
}


# -- analysis ---------------------------------------------------------------------


def link_requests(spans: List[Span]) -> List[Span]:
    """Attach each worker-side request span to the span that submitted it.

    A ``_run_ticket`` span that opened with an empty stack belongs to the
    request tagged with the same id on the submitting thread.  The gap
    between the end of the ``submit`` call and the start of the worker
    span becomes a synthetic ``serve.queue`` child.  Returns the spans,
    with queue spans appended.
    """
    submitters: Dict[int, int] = {}
    submit_end: Dict[int, float] = {}
    for index, span in enumerate(spans):
        if span.method == "submit" and span.request_id is not None:
            submit_end[span.request_id] = span.end
            root = index
            while spans[root].parent is not None:
                root = spans[root].parent  # type: ignore[assignment]
            submitters[span.request_id] = root
    out = list(spans)
    for span in spans:
        if span.method != "_run_ticket" or span.parent is not None:
            continue
        owner = submitters.get(span.request_id)  # type: ignore[arg-type]
        if owner is None:
            continue
        span.parent = owner
        queued_from = submit_end[span.request_id]  # type: ignore[index]
        if span.start > queued_from:
            out.append(
                Span(
                    "serve.queue",
                    queued_from,
                    span.start,
                    parent=owner,
                    thread=span.thread,
                    request_id=span.request_id,
                    method="queue",
                )
            )
    return out


def self_times(spans: List[Span]) -> Tuple[Dict[str, float], float]:
    """Self seconds per layer, and the summed duration of the root spans.

    Each span is clipped to its (clipped) parent, and a child starting
    before its previous sibling ended is clipped to start after it, so
    concurrent cross-thread children never count the same instant twice.
    The returned self times therefore sum to the root total.
    """
    children: Dict[Optional[int], List[int]] = {}
    for index, span in enumerate(spans):
        children.setdefault(span.parent, []).append(index)
    per_layer: Dict[str, float] = {}
    wall = 0.0
    # iterative DFS: (index, clipped start, clipped end)
    todo: List[Tuple[int, float, float]] = []
    for root in children.get(None, []):
        span = spans[root]
        wall += max(0.0, span.duration)
        todo.append((root, span.start, max(span.start, span.end)))
    while todo:
        index, lo, hi = todo.pop()
        covered = 0.0
        cursor = lo
        kids = sorted(children.get(index, []), key=lambda k: spans[k].start)
        for kid in kids:
            child = spans[kid]
            start = max(child.start, cursor)
            end = min(child.end, hi)
            if end <= start:
                continue
            covered += end - start
            cursor = end
            todo.append((kid, start, end))
        layer = spans[index].layer
        per_layer[layer] = per_layer.get(layer, 0.0) + (hi - lo) - covered
    return per_layer, wall



# -- overhead ---------------------------------------------------------------------


def _seconds_per_call(function: Callable[[], Any], calls: int, after: Callable[[], None]) -> float:
    """Best of five timings of ``calls`` calls, per call."""
    best = math.inf
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(calls):
            function()
        best = min(best, (time.perf_counter() - start) / calls)
        after()
    return best


def tracing_cost(spans: int, stage_calls: int, activations: int, calls: int = 20_000) -> float:
    """Estimated seconds the tracer added to a run.

    Times, on a no-op, one wrapped call against a plain one, one
    ``profile_stage`` block with a profiler active against one without,
    and one profiler activation, then scales each by how often the run
    did it.  Best-of-five timings make this a lower bound: in a real run
    the wrappers also miss caches the probe keeps warm.
    """
    from repro.perf.profiler import StageProfiler, profile_stage

    probe = Tracer()

    def noop() -> None:
        return None

    wrapped = _plain(probe, noop, "probe", "noop")

    def stage() -> None:
        with profile_stage("probe", fire_hook=False):
            pass

    profiler = StageProfiler()

    def profiled_stage() -> None:
        with profiler.activate():
            stage()

    def activation() -> None:
        with profiler.activate():
            pass

    def reset() -> None:
        probe.spans.clear()
        profiler.stages.clear()

    plain = _seconds_per_call(noop, calls, reset)
    activated = _seconds_per_call(activation, calls, reset)
    per_span = _seconds_per_call(wrapped, calls, reset) - plain
    per_activation = activated - plain
    # profiled_stage makes one activation and one stage() call
    per_stage = (
        _seconds_per_call(profiled_stage, calls, reset)
        - activated
        - _seconds_per_call(stage, calls, reset)
    )
    return (
        max(0.0, per_span) * spans
        + max(0.0, per_stage) * stage_calls
        + max(0.0, per_activation) * activations
    )
