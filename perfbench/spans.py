"""Span tracing from outside the program.

:class:`Tracer` wraps public functions and methods of the program's
layers *from the benchmark's own code*: it swaps each target for a
wrapper in every loaded ``repro`` module that holds it (modules import
functions by name) or on its class, and restores the originals on
:meth:`Tracer.uninstall`.  No program file changes.

A span has a name, a start, an end, a parent span and the query ID of
the operation it ran under.  Spans of one thread nest properly, so a
span's self time is its duration minus the summed durations of its
direct children.  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: (module, attribute path, layer metric) of every timed public call.
TIMED_CALLS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.parser.parser", "parse_statement", "parser.ms"),
    ("repro.parser.binder", "bind_select", "parser.ms"),
    ("repro.core.partition", "to_group_by_join_query", "core.testfd_ms"),
    ("repro.core.transform", "check_transformable", "core.testfd_ms"),
    ("repro.optimizer.cardinality", "collect_statistics", "optimizer.stats_ms"),
    ("repro.optimizer.planner", "Planner.choose", "optimizer.choose_ms"),
    ("repro.optimizer.rewrites", "apply_rewrites", "optimizer.rewrites_ms"),
    ("repro.optimizer.distribute", "distribute_plan", "optimizer.distribute_ms"),
    ("repro.analysis.equivalence", "verify_rewrite", "analysis.audit_ms"),
    ("repro.analysis.verifier", "analyze_plan", "analysis.audit_ms"),
    ("repro.engine.executor", "Executor.run", "engine.exec_ms"),
    ("repro.engine.vector.executor", "VectorExecutor.run", "engine.vector.exec_ms"),
    ("repro.storage.partition", "partition_table", "storage.partition_ms"),
    ("repro.engine.shardrpc", "ShardPool.execute", "exchange.rpc_ms"),
    ("repro.server.snapshot", "VersionedCatalog.execute", "server.write_ms"),
    ("repro.server.snapshot", "VersionedCatalog.snapshot", "server.snapshot_ms"),
)

#: The layer metrics :data:`TIMED_CALLS` produces, in report order.
LAYER_MS: Tuple[str, ...] = tuple(dict.fromkeys(m for _, _, m in TIMED_CALLS))


class _Frame:
    __slots__ = ("span_id", "name", "start", "child_seconds")

    def __init__(self, span_id: int, name: str, start: float) -> None:
        self.span_id = span_id
        self.name = name
        self.start = start
        self.child_seconds = 0.0


class Tracer:
    """In-memory span recorder plus per-layer self-time and counters."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, Optional[int], str, str, float, float]] = []
        #: (root kind, span name) -> summed self seconds.
        self.self_seconds: Dict[Tuple[str, str], float] = defaultdict(float)
        #: (root kind, span name) -> summed inclusive seconds.
        self.total_seconds: Dict[Tuple[str, str], float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = iter(range(1, sys.maxsize))
        self._patches: List[Tuple[Any, str, Any]] = []
        self._origin = time.perf_counter()
        #: By span name: called with (args, result) after a traced call.
        self.observers: Dict[str, Callable[[tuple, Any], None]] = {}
        #: By span name: called with (args,) before a traced call.
        self.preobservers: Dict[str, Callable[[tuple], None]] = {}

    # -- per-thread context ---------------------------------------------

    @property
    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def context(self) -> Dict[str, Any]:
        """Per-thread facts about the running operation (query ID, root
        kind, referenced tables) that observers may read."""
        ctx = getattr(self._local, "context", None)
        if ctx is None:
            ctx = self._local.context = {}
        return ctx

    # -- spans ----------------------------------------------------------

    def begin(self, name: str) -> _Frame:
        with self._lock:
            span_id = next(self._ids)
        frame = _Frame(span_id, name, time.perf_counter())
        self._stack.append(frame)
        return frame

    def end(self, frame: _Frame) -> None:
        finish = time.perf_counter()
        stack = self._stack
        stack.pop()
        duration = finish - frame.start
        parent = stack[-1] if stack else None
        if parent is not None:
            parent.child_seconds += duration
        ctx = self.context
        root = ctx.get("root", "none")
        with self._lock:
            self.spans.append((
                frame.span_id,
                parent.span_id if parent is not None else None,
                frame.name,
                ctx.get("query_id", ""),
                frame.start - self._origin,
                finish - self._origin,
            ))
            self.self_seconds[(root, frame.name)] += duration - frame.child_seconds
            self.total_seconds[(root, frame.name)] += duration

    @contextlib.contextmanager
    def operation(self, root: str, query_id: str, tables=()) -> Iterator[None]:
        """A root span for one benchmark operation ("read" or "write")."""
        ctx = self.context
        ctx.update(root=root, query_id=query_id, tables=tables)
        frame = self.begin(f"bench.{root}")
        try:
            yield
        finally:
            self.end(frame)
            ctx.clear()

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += amount

    # -- wrapping -------------------------------------------------------

    def _wrapper(self, name: str, original: Callable) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            before = tracer.preobservers.get(name)
            if before is not None:
                before(args)
            frame = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(frame)
            after = tracer.observers.get(name)
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = original  # type: ignore[attr-defined]
        traced.__name__ = getattr(original, "__name__", name)
        return traced

    def wrap(self, module_name: str, path: str) -> None:
        """Time ``module_name.path`` (``func`` or ``Class.method``) as a
        span named ``path``."""
        module = importlib.import_module(module_name)
        if "." in path:
            class_name, method = path.split(".")
            owner = getattr(module, class_name)
            original = owner.__dict__[method]
            self._patches.append((owner, method, original))
            setattr(owner, method, self._wrapper(path, original))
            return
        original = getattr(module, path)
        wrapper = self._wrapper(path, original)
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    self._patches.append((loaded, attr, original))
                    setattr(loaded, attr, wrapper)

    def install(self) -> None:
        for module_name, path, _metric in TIMED_CALLS:
            self.wrap(module_name, path)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results --------------------------------------------------------

    def layer_ms(self, root: str) -> Dict[str, float]:
        """Summed self milliseconds per layer metric, under ``root`` ops."""
        out = {metric: 0.0 for metric in LAYER_MS}
        for _module, path, metric in TIMED_CALLS:
            out[metric] += self.self_seconds.get((root, path), 0.0) * 1000.0
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, query_id, start, end in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "query": query_id, "start_s": round(start, 9),
                    "end_s": round(end, 9),
                }) + "\n")
