"""Layer spans for the traced run, recorded from outside the program.

The program has no tracing of its own yet, so the traced run wraps the
public function at each layer boundary and patches the wrapper over every
name that refers to it in the loaded ``repro`` modules — the module that
calls it (``repro.core.miner.search_all``) as well as the one that defines
it, because some callers import lazily at call time.  Methods are wrapped
on their class.  Nothing under ``src/`` is edited; :meth:`Tracer.uninstall`
puts every original back.

Spans live in memory (name, start, end, parent span, request id) and are
written out once, when the run ends.  A span's *self time* is its duration
minus the time its direct children cover; a layer's self time is the sum
over its spans.  Busy time and call counts take only the outermost span of
a name, so reentrant calls (``Database.exclusive`` nests) count once.

:data:`TARGETS` is the boundary list.  The layer is the span name's first
component; the end-to-end metric each layer should move is documented in
:mod:`perfbench.workloads`.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

#: Span name of one HTTP request, opened by the caller around the client call.
REQUEST_SPAN = "server.request"


def _data_rows(args, result, before):
    return {"data.rows": result}


def _core_caps(args, result, before):
    return {"core.caps": len(result)}


def _cache_get(args, result, before):
    return {"cache.hits" if result is not None else "cache.misses": 1}


def _wal_append(args, result, before):
    return {"store.wal_append_bytes": result}


def _wal_sync_before(args):
    return bool(args[0].dirty)


def _wal_sync(args, result, before):
    return {"store.wal_fsyncs": 1} if before else {}


def _crc_bytes(args, result, before):
    return {"store.crc_bytes": len(args[0])}


def _stream_events(args, result, before):
    return {"stream.events": len(result[0])}


def _remine(args, result, before):
    return {"core.stream_epochs": 1, "core.stream_remines": 1 if result else 0}


def _svg_bytes(args, result, before):
    return {"viz.svg_bytes": len(result.encode("utf-8"))}


@dataclass(frozen=True)
class Target:
    """One layer boundary: ``module:qualname`` wrapped as span ``span``.

    ``context`` marks a context-manager factory (the span covers the
    ``with`` body, not the factory call).  ``count`` turns a call's
    arguments and result into counters; ``before`` captures state the
    call changes (whether a log was dirty before ``sync``).
    """

    module: str
    qualname: str
    span: str
    context: bool = False
    count: Callable[[tuple, Any, Any], dict[str, float]] | None = None
    before: Callable[[tuple], Any] | None = None


TARGETS: tuple[Target, ...] = (
    Target("repro.server.http", "json_response", "server.json_encode"),
    Target("repro.data.csv_io", "ChunkAssembler.add_chunk", "data.parse", count=_data_rows),
    Target("repro.data.csv_io", "ChunkAssembler.finish", "data.assemble"),
    Target("repro.core.evolving", "extract_all_evolving", "core.evolving"),
    Target("repro.core.spatial", "build_proximity_graph", "core.graph"),
    Target("repro.core.search", "search_all", "core.search", count=_core_caps),
    Target("repro.core.miner", "MiningResult.to_document", "core.result_encode"),
    Target("repro.core.miner", "MiningResult.from_document", "core.result_decode"),
    Target("repro.core.streaming", "StreamingMiner.extend", "core.stream_extend"),
    Target("repro.core.streaming", "StreamingMiner.mine", "core.stream_mine"),
    Target("repro.core.streaming", "StreamingMiner.affected_components",
           "core.stream_affected", count=_remine),
    Target("repro.cache.cache", "ResultCache.get", "cache.get", count=_cache_get),
    Target("repro.cache.cache", "ResultCache.put", "cache.put"),
    Target("repro.store.collection", "Collection.find_one", "store.find_one"),
    Target("repro.store.collection", "Collection.find", "store.find"),
    Target("repro.store.collection", "Collection.insert_one", "store.insert"),
    Target("repro.store.collection", "Collection.replace_one", "store.replace"),
    Target("repro.store.collection", "Collection.update_one", "store.update"),
    Target("repro.store.database", "Database.exclusive", "store.exclusive", context=True),
    Target("repro.store.database", "Database.open", "store.open"),
    Target("repro.store.wal", "CollectionLog.append", "store.wal_append", count=_wal_append),
    Target("repro.store.wal", "CollectionLog.sync", "store.wal_sync",
           count=_wal_sync, before=_wal_sync_before),
    Target("repro.store.wal", "crc32c", "store.crc", count=_crc_bytes),
    Target("repro.stream.ingest", "append_batch", "stream.append"),
    Target("repro.stream.runner", "StreamSession.process_epoch", "stream.process",
           count=_stream_events),
    Target("repro.stream.feed", "diff_caps", "stream.diff"),
    Target("repro.stream.alerts", "evaluate_rules", "stream.alerts"),
    Target("repro.stream.feed", "read_events", "stream.read_events"),
    Target("repro.stream.retention", "sweep_retention", "stream.sweep"),
    Target("repro.viz.map_view", "render_map", "viz.map"),
    Target("repro.viz.timeseries_view", "render_timeseries", "viz.timeseries"),
    Target("repro.viz.heatmap", "render_coevolution_heatmap", "viz.heatmap"),
    Target("repro.viz.svg", "SvgCanvas.to_string", "viz.svg_encode", count=_svg_bytes),
    Target("repro.server.handlers", "ServerState.recover_jobs", "jobs.recover"),
)


class Span:
    """One timed call.  ``outer`` is false when a same-named span encloses it."""

    __slots__ = ("sid", "name", "start", "end", "parent", "request", "outer")

    def __init__(self, sid, name, start, parent, request, outer):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.outer = outer

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_document(self) -> dict[str, Any]:
        return {
            "id": self.sid, "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "request": self.request,
        }


class _SpanContext:
    """Wraps a context manager so the span covers its ``with`` body."""

    def __init__(self, tracer: "Tracer", name: str, inner) -> None:
        self._tracer = tracer
        self._name = name
        self._inner = inner
        self._span: Span | None = None

    def __enter__(self):
        self._span = self._tracer.open(self._name)
        try:
            return self._inner.__enter__()
        except BaseException:
            self._tracer.close(self._span)
            raise

    def __exit__(self, *exc):
        try:
            return self._inner.__exit__(*exc)
        finally:
            self._tracer.close(self._span)


class Tracer:
    """In-memory span recorder plus the patcher that feeds it."""

    def __init__(self, targets: tuple[Target, ...] = TARGETS, clock=time.perf_counter) -> None:
        self.targets = targets
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._local = threading.local()
        self._ids = 0
        self._requests = 0
        self._id_lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        with self._id_lock:
            self._ids += 1
            sid = self._ids
            if not stack:
                self._requests += 1
            request = stack[0].request if stack else self._requests
        parent = stack[-1].sid if stack else None
        outer = all(span.name != name for span in stack)
        span = Span(sid, name, self.clock(), parent, request, outer)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # pragma: no cover - an inner span leaked
            del stack[stack.index(span):]
        self.spans.append(span)

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        opened = self.open(name)
        try:
            yield opened
        finally:
            self.close(opened)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- patching ------------------------------------------------------------

    def _wrap(self, function: Callable, target: Target) -> Callable:
        tracer = self
        name = target.span
        if target.context:
            def wrapper(*args, **kwargs):
                return _SpanContext(tracer, name, function(*args, **kwargs))
        else:
            def wrapper(*args, **kwargs):
                before = target.before(args) if target.before is not None else None
                span = tracer.open(name)
                try:
                    result = function(*args, **kwargs)
                finally:
                    tracer.close(span)
                if target.count is not None:
                    for key, amount in target.count(args, result, before).items():
                        tracer.count(key, amount)
                return result
        wrapper.__wrapped__ = function  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(function, "__name__", name)
        return wrapper

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Patch every target; :meth:`uninstall` (or :meth:`installed`) undoes it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for target in self.targets:
            module = importlib.import_module(target.module)
            if "." in target.qualname:
                class_name, attr = target.qualname.split(".")
                owner = getattr(module, class_name)
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    wrapped: object = classmethod(self._wrap(raw.__func__, target))
                else:
                    wrapped = self._wrap(raw, target)
                self._patch(owner, attr, wrapped)
                continue
            original = getattr(module, target.qualname)
            wrapper = self._wrap(original, target)
            for loaded in list(sys.modules.values()):
                if getattr(loaded, "__name__", "").split(".")[0] != "repro":
                    continue
                if vars(loaded).get(target.qualname) is original:
                    self._patch(loaded, target.qualname, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


# -- analysis ------------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Per-span self time: duration minus the time direct children cover."""
    covered: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            covered[span.parent] = covered.get(span.parent, 0.0) + span.duration
    return {span.sid: span.duration - covered.get(span.sid, 0.0) for span in spans}


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def analyze(spans: list[Span]) -> dict[str, float]:
    """Busy time and calls per span name, self time per layer, coverage.

    Keys: ``<span>_s`` and ``<span>.calls`` (outermost spans only),
    ``<layer>.self_s``, ``<span>.self_s`` and ``trace.coverage`` — the
    median share of each request's wall time that layer spans cover.
    """
    out: dict[str, float] = {}
    own = self_times(spans)
    for span in spans:
        layer = layer_of(span.name)
        out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + own[span.sid]
        out[f"{span.name}.self_s"] = out.get(f"{span.name}.self_s", 0.0) + own[span.sid]
        if span.outer:
            out[f"{span.name}_s"] = out.get(f"{span.name}_s", 0.0) + span.duration
            out[f"{span.name}.calls"] = out.get(f"{span.name}.calls", 0) + 1
    shares = [
        1.0 - own[span.sid] / span.duration
        for span in spans
        if span.name == REQUEST_SPAN and span.duration > 0
    ]
    out["trace.coverage"] = statistics.median(shares) if shares else 0.0
    return out
