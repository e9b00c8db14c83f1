"""In-memory layer spans for the traced run.

The traced run wraps the public entry points of each package layer of
``repro`` in a timing span, from the benchmark's own files: no module of
the program changes.  A span records its layer, its duration and the
time covered by the spans it caused; a layer's *self time* is the
duration minus that covered part, so the self times of all spans under
one root add up to at most the root's duration.

Roots are the operations the benchmark times (one skyline query) or,
inside the service, one executed batch plan (``execute_plan``).  Spans
that run outside any root — service sinks after a query finished,
workspace mutations — go to a per-thread background record, so no time
is lost.

A name imported with ``from module import name`` is a separate binding
in the importing module, so :func:`install` replaces every binding of a
wrapped function in every loaded ``repro`` module, not only the one in
the defining module.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from dataclasses import dataclass, field

_clock = time.thread_time
"""Spans time CPU seconds of their own thread: a span opens and closes
on one thread, the figures follow the process clock of
:mod:`perfbench.workloads` rather than the load on the host, and a
root's span never exceeds the process time measured around it."""


@dataclass
class RootRecord:
    """One finished root span and the layer self times beneath it."""

    name: str
    thread: str
    duration_s: float
    self_s: dict[str, float] = field(default_factory=dict)
    calls: dict[str, int] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def layer_self_s(self) -> float:
        """Self time of every layer span under the root (root excluded)."""
        return sum(v for k, v in self.self_s.items() if k != "root")


class _Frame:
    __slots__ = ("layer", "child_s")

    def __init__(self, layer: str) -> None:
        self.layer = layer
        self.child_s = 0.0


class LayerTracer:
    """Collects layer self times per root span, per thread."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.roots: list[RootRecord] = []
        self.background: dict[str, list[float]] = {}
        self.durations: dict[str, list[float]] = {}
        """Full span durations for layers whose every call matters on its
        own (``oracle_build``, ``service``); other layers keep sums."""
        self.keep_durations = {"oracle_build", "service"}
        self.counters: dict[str, int] = {}

    def count(self, name: str, value: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    # -- per-thread state ------------------------------------------------
    def _state(self):
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.acc = None
            local.calls = None
        return local

    def _close(self, local, layer: str, duration: float, child: float) -> None:
        stack = local.stack
        if stack:
            stack[-1].child_s += duration
        acc = local.acc
        if acc is None:
            with self._lock:
                slot = self.background.setdefault(layer, [0.0, 0])
                slot[0] += duration - child
                slot[1] += 1
        else:
            acc[layer] = acc.get(layer, 0.0) + (duration - child)
            local.calls[layer] = local.calls.get(layer, 0) + 1
        if layer in self.keep_durations:
            with self._lock:
                self.durations.setdefault(layer, []).append(duration)

    # -- spans -------------------------------------------------------------
    def span(self, layer: str, fn):
        """``fn`` wrapped so that every call is one span of ``layer``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = tracer._state()
            frame = _Frame(layer)
            local.stack.append(frame)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = _clock() - start
                local.stack.pop()
                tracer._close(local, layer, duration, frame.child_s)

        return traced

    def generator_span(self, layer: str, fn):
        """A generator function wrapped so that every resume is a span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer._iterate(layer, fn(*args, **kwargs))

        return traced

    def _iterate(self, layer: str, generator):
        while True:
            local = self._state()
            frame = _Frame(layer)
            local.stack.append(frame)
            start = _clock()
            try:
                item = next(generator)
            except StopIteration:
                return
            finally:
                duration = _clock() - start
                local.stack.pop()
                self._close(local, layer, duration, frame.child_s)
            yield item

    def root(self, name: str, fn, layer: str | None = None, meta=None):
        """Call ``fn()`` as a root span; returns ``(value, RootRecord)``.

        With ``layer`` the root's own self time is charged to that layer
        (the service's ``execute_plan``); otherwise it is ``root``, the
        benchmark's own overhead around the call.
        """
        local = self._state()
        if local.acc is not None:
            # Already inside a root (a nested entry point): plain span.
            return self.span(layer or "root", fn)(), None
        local.acc = acc = {}
        local.calls = calls = {}
        frame = _Frame(layer or "root")
        local.stack.append(frame)
        start = _clock()
        try:
            value = fn()
        finally:
            duration = _clock() - start
            local.stack.pop()
            own = layer or "root"
            acc[own] = acc.get(own, 0.0) + (duration - frame.child_s)
            calls[own] = calls.get(own, 0) + 1
            local.acc = None
            local.calls = None
            record = RootRecord(
                name=name,
                thread=threading.current_thread().name,
                duration_s=duration,
                self_s=acc,
                calls=calls,
                meta=dict(meta or {}),
            )
            with self._lock:
                self.roots.append(record)
                if own in self.keep_durations:
                    self.durations.setdefault(own, []).append(duration)
        return value, record

    # -- totals ------------------------------------------------------------
    def layer_totals(self) -> dict[str, tuple[float, int]]:
        """Self seconds and span count per layer, roots and background."""
        totals: dict[str, list] = {}
        with self._lock:
            roots = list(self.roots)
            background = {k: list(v) for k, v in self.background.items()}
        for record in roots:
            for layer, seconds in record.self_s.items():
                slot = totals.setdefault(layer, [0.0, 0])
                slot[0] += seconds
                slot[1] += record.calls.get(layer, 0)
        for layer, (seconds, calls) in background.items():
            slot = totals.setdefault(layer, [0.0, 0])
            slot[0] += seconds
            slot[1] += calls
        return {k: (v[0], v[1]) for k, v in totals.items()}

    def to_json(self, limit: int = 2000) -> dict:
        """The recorded spans, for writing out when the run ends."""
        with self._lock:
            roots = list(self.roots)
        return {
            "roots": [
                {
                    "name": r.name,
                    "thread": r.thread,
                    "duration_s": r.duration_s,
                    "self_s": r.self_s,
                    "calls": r.calls,
                    "meta": r.meta,
                }
                for r in roots[:limit]
            ],
            "roots_dropped": max(0, len(roots) - limit),
            "background": {k: list(v) for k, v in self.background.items()},
            "layer_totals": {
                k: {"self_s": s, "spans": c}
                for k, (s, c) in self.layer_totals().items()
            },
        }


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

#: (layer, module, owner, names): ``owner`` is a class name in ``module``
#: or ``None`` for module-level functions.
ENTRY_POINTS: tuple[tuple[str, str, str | None, tuple[str, ...]], ...] = (
    ("core", "repro.core.base", "SkylineAlgorithm", ("run",)),
    (
        "columnar",
        "repro.columnar.kernels",
        None,
        (
            "dominates_flat",
            "is_dominated_by_any_block",
            "is_dominated_by_any_block_lb",
            "is_covered_by_any_block",
            "dominates_block",
            "dominates_block_lb",
            "block_skyline",
            "batch_euclidean",
            "fill_column",
        ),
    ),
    (
        "skyline",
        "repro.skyline.bbs",
        None,
        (
            "euclidean_vector",
            "euclidean_vectors_block",
            "mbr_lower_bound_vector",
            "incremental_euclidean_skyline",
            "euclidean_skyline",
        ),
    ),
    (
        "engine",
        "repro.engine.engine",
        "DistanceEngine",
        (
            "distance",
            "distance_via",
            "distances",
            "matrix",
            "matrix_block",
            "vector",
            "vectors",
            "vectors_block",
            "expander",
            "astar_expander",
            "ine_expander",
        ),
    ),
    ("oracle", "repro.oracle.runtime", "DistanceOracle", ("distance", "node_distance")),
    ("oracle_build", "repro.oracle.index", None, ("build_oracle_index",)),
    (
        "network",
        "repro.network.dijkstra",
        "DijkstraExpander",
        ("expand_next", "distance_to", "distance_to_node", "next_nearest_object"),
    ),
    (
        "network",
        "repro.network.astar",
        "AStarExpander",
        ("distance_to", "search_toward"),
    ),
    (
        "network",
        "repro.network.astar",
        "LowerBoundSearch",
        ("expand_step", "run_to_completion"),
    ),
    ("storage", "repro.storage.buffer", "BufferPool", ("fetch",)),
    (
        "index",
        "repro.index.rtree",
        "RTree",
        ("best_first", "search", "nearest", "aggregate_nearest"),
    ),
    ("index", "repro.network.middle_layer", "MiddleLayer", ("objects_on",)),
    ("obs", "repro.obs.events", "EventLog", ("emit",)),
    ("obs", "repro.insight.live", "InsightHub", ("observe",)),
    ("obs", "repro.obs.recorder", "FlightRecorder", ("record",)),
    ("obs", "repro.obs.slowlog", "SlowQueryLog", ("offer",)),
    ("obs", "repro.obs.tracing", "Tracer", ("finish",)),
    ("obs", "repro.obs.metrics", "Histogram", ("observe",)),
    ("obs", "repro.service.metrics", "LatencyRecorder", ("record",)),
)

class Installation:
    """The replaced bindings, so :meth:`restore` can undo them."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def restore(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()


def _counted_fetch(tracer: LayerTracer, fetch):
    """``BufferPool.fetch`` that also counts fetches and page misses."""

    @functools.wraps(fetch)
    def counted(pool, page_id):
        before = pool.stats.physical_reads
        page = fetch(pool, page_id)
        tracer.count("fetches")
        if pool.stats.physical_reads != before:
            tracer.count("misses")
        return page

    return counted


def _wrap(tracer: LayerTracer, layer: str, fn):
    if inspect.isgeneratorfunction(fn):
        return tracer.generator_span(layer, fn)
    if layer == "storage" and fn.__name__ == "fetch":
        fn = _counted_fetch(tracer, fn)
    return tracer.span(layer, fn)


def install(tracer: LayerTracer) -> Installation:
    """Wrap every entry point of :data:`ENTRY_POINTS` in ``tracer`` spans.

    ``repro.service.batching.execute_plan`` becomes a root span of the
    ``service`` layer: the worker that runs a plan has no benchmark
    root above it.  Call :meth:`Installation.restore` to undo.
    """
    import importlib

    installed = Installation()
    functions: dict[int, tuple[object, object]] = {}
    for layer, module_name, owner_name, names in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        for name in names:
            if owner_name is None:
                original = getattr(module, name)
                functions[id(original)] = (original, _wrap(tracer, layer, original))
            else:
                owner = getattr(module, owner_name)
                original = owner.__dict__[name]
                installed.replace(owner, name, _wrap(tracer, layer, original))

    batching = importlib.import_module("repro.service.batching")
    execute_plan = batching.execute_plan

    @functools.wraps(execute_plan)
    def traced_plan(workspace, plan, algorithms):
        started = time.monotonic()
        waits = [
            started - request.enqueued_at
            for unit in plan.units
            for request in unit.requests
        ]
        value, _ = tracer.root(
            "execute_plan",
            lambda: execute_plan(workspace, plan, algorithms),
            layer="service",
            meta={"requests": plan.request_count, "queue_wait_s": waits},
        )
        return value

    functions[id(execute_plan)] = (execute_plan, traced_plan)

    # Every binding of a wrapped function, wherever it was imported to.
    for module_name, module in list(sys.modules.items()):
        if module is None or not (
            module_name == "repro" or module_name.startswith("repro.")
        ):
            continue
        for attr, value in list(vars(module).items()):
            entry = functions.get(id(value))
            if entry is not None and entry[0] is value:
                installed.replace(module, attr, entry[1])
    return installed
