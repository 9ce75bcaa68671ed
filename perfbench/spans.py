"""In-memory span recording around the program's layer entry points.

The benchmark measures every layer from outside: :func:`instrument`
replaces the public entry points of each layer (as bound in the module
that calls them) with wrappers that record a span, and puts the
originals back when its block ends.  Nothing inside the program changes.

A span is ``(name, start, end, parent, request)``.  The client opens one
root span per operation (``read`` or ``append``); every span opened
beneath it shares the root's request id.  A layer's *self time* is its
span's duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import gc
from array import array
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from time import perf_counter
from typing import Any


class SpanRecorder:
    """Spans kept in parallel typed arrays (cheap to append, compact)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.request = array("l")
        self._stack: list[int] = []
        self._requests = 0

    def __len__(self) -> int:
        return len(self.start)

    def _intern(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def _record(self, name: str, parent: int, start: float, end: float) -> int:
        index = len(self.start)
        if parent >= 0:
            request = self.request[parent]
        else:
            request = self._requests
            self._requests += 1
        self.name_id.append(self._intern(name))
        self.parent.append(parent)
        self.request.append(request)
        self.start.append(start)
        self.end.append(end)
        return index

    def open(self, name: str) -> int:
        """Start a span under the innermost open one; returns its index."""
        stack = self._stack
        index = self._record(name, stack[-1] if stack else -1, 0.0, 0.0)
        stack.append(index)
        self.start[index] = perf_counter()
        return index

    def close(self, index: int) -> None:
        """End the span ``index`` (the innermost open one)."""
        self.end[index] = perf_counter()
        self._stack.pop()

    def add(self, name: str, start: float, end: float, parent: int) -> int:
        """Record a finished span directly (tests and offline use)."""
        return self._record(name, parent, start, end)

    def name(self, index: int) -> str:
        return self.names[self.name_id[index]]


def covered(interval: tuple[float, float], children: list[tuple[float, float]]) -> float:
    """Length of the part of ``interval`` covered by the union of the
    ``children`` intervals (each clipped to ``interval``)."""
    lo, hi = interval
    total = 0.0
    reach = lo
    for start, end in sorted(children):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(recorder: SpanRecorder) -> list[float]:
    """Each span's self time: its duration minus the child-covered part."""
    children: dict[int, list[tuple[float, float]]] = {}
    for index in range(len(recorder)):
        parent = recorder.parent[index]
        if parent >= 0:
            children.setdefault(parent, []).append(
                (recorder.start[index], recorder.end[index])
            )
    out = []
    for index in range(len(recorder)):
        interval = (recorder.start[index], recorder.end[index])
        kids = children.get(index)
        cover = covered(interval, kids) if kids else 0.0
        out.append(interval[1] - interval[0] - cover)
    return out


def layer_totals(
    recorder: SpanRecorder,
) -> dict[tuple[str, str], tuple[int, float]]:
    """``(root name, span name) -> (calls, self seconds)`` over all spans."""
    selfs = self_times(recorder)
    root_name: dict[int, str] = {}
    totals: dict[tuple[str, str], tuple[int, float]] = {}
    for index, own in enumerate(selfs):
        request = recorder.request[index]
        if recorder.parent[index] < 0:
            root_name[request] = recorder.name(index)
        key = (root_name.get(request, ""), recorder.name(index))
        calls, seconds = totals.get(key, (0, 0.0))
        totals[key] = (calls + 1, seconds + own)
    return totals


def _wrap(recorder: SpanRecorder, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        index = recorder.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.close(index)

    return wrapper


def entry_points() -> list[tuple[object, str, str]]:
    """``(owner, attribute, span name)`` for every timed entry point.

    Functions are wrapped where the calling layer binds them (for
    example ``aggregate`` as imported by the planner and by the cube), so
    each span sits exactly at a layer boundary.
    """
    from repro.olap import cube
    from repro.serving import cache, planner, server
    from repro.storage import get_backend, resolve_backend_name
    from repro.streaming import EvolutionView, ExplorationView, store

    backend = get_backend(resolve_backend_name())
    points: list[tuple[object, str, str]] = [
        (server, "parse", "query.parse"),
        (server, "normalize_query", "serving.normalize"),
        (cache.ResultCache, "get", "serving.cache"),
        (cache.ResultCache, "put", "serving.cache"),
        (server, "plan_query", "serving.plan"),
        (server, "execute_plan", "serving.execute"),
        (server, "permute_result", "serving.permute"),
        (cube.TemporalGraphCube, "plan_routes", "olap.plan_routes"),
        (cube.TemporalGraphCube, "execute_route", "olap.execute_route"),
        (cube.TemporalGraphCube, "__init__", "olap.cube_build"),
        (planner, "aggregate_evolution", "evolution"),
        (planner, "explore", "exploration"),
        (planner, "aggregate", "aggregate"),
        (cube, "aggregate", "aggregate"),
        (cube, "union", "operators"),
        (backend, "presence_mask", "storage.presence_mask"),
        (store.StreamingStore, "append_snapshot", "streaming.append"),
        (store, "append_snapshot", "streaming.graph_rebuild"),
        (EvolutionView, "extend", "streaming.view_extend"),
        (ExplorationView, "extend", "streaming.view_extend"),
        (server.QueryServer, "rebind", "streaming.hooks"),
    ]
    points += [
        (planner, op, "operators")
        for op in ("union", "project", "intersection", "difference")
    ]
    return points


_MISSING = object()


@contextmanager
def instrument(recorder: SpanRecorder) -> Iterator[None]:
    """Wrap every entry point for the duration of the block."""
    saved: list[tuple[object, str, object]] = []
    try:
        for owner, attribute, name in entry_points():
            saved.append((owner, attribute, vars(owner).get(attribute, _MISSING)))
            setattr(owner, attribute, _wrap(recorder, name, getattr(owner, attribute)))
        yield
    finally:
        for owner, attribute, own in reversed(saved):
            if own is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, own)


class GcTimer:
    """Interpreter collection time via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.collections = 0
        self._began = 0.0

    def _callback(self, phase: str, info: dict[str, Any]) -> None:
        if phase == "start":
            self._began = perf_counter()
        else:
            self.seconds += perf_counter() - self._began
            self.collections += 1

    @contextmanager
    def running(self) -> Iterator["GcTimer"]:
        gc.callbacks.append(self._callback)
        try:
            yield self
        finally:
            gc.callbacks.remove(self._callback)
