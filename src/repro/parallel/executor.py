"""The executor contract, the inline executor, and the chunk core.

The execution contract is a single method::

    executor.map(fn, tasks, payload=...) -> list[result]

``fn(payload, task)`` must be a module-level function (workers receive
it pickled by reference); ``tasks`` is a sequence of small picklable
task specs; ``payload`` is the large read-only state every task needs —
the temporal graph, a prepared
:class:`~repro.exploration.events.EventCounter`, and so on.

:class:`InlineExecutor` runs everything in the calling process and is
the serial baseline the parity suite diffs against.  The one process
pool is the persistent :class:`~repro.parallel.fabric.ShardedExecutor`;
its workers run every chunk through :func:`_execute_chunk` below.

Results always come back in task order, regardless of completion order:
chunks are gathered by chunk index and flattened with
:func:`repro.parallel.plan.assemble`.  Observability crosses the
process boundary too — each chunk runs under a fresh tracer/metrics
registry, and the parent re-parents the returned span tree into its own
active trace and merges the metric deltas, so a parallel run's trace
and counters match the serial run's.

Failure surfacing: a domain error raised inside ``fn`` (anything from
the :mod:`repro.errors` taxonomy) travels back in a
:class:`_ChunkFailure` and is re-raised in the parent as itself,
keeping differential error parity with the inline executor; any other
worker exception raises a typed :class:`~repro.errors.ParallelError`
carrying the failing task spec.
"""

from __future__ import annotations

import pickle
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any

from ..obs.metrics import MetricsRegistry, set_metrics
from ..obs.trace import Span, Tracer, set_tracer

__all__ = [
    "TaskFn",
    "Executor",
    "InlineExecutor",
    "in_worker",
]

#: The signature of a fan-out work function.
TaskFn = Callable[[Any, Any], Any]

#: True inside a pool worker process; nested fan-outs then run inline.
_IN_WORKER = False


def in_worker() -> bool:
    """Whether this process is a fabric worker."""
    return _IN_WORKER


@dataclass
class _ChunkOutcome:
    """One chunk's results plus its observability delta."""

    results: list[Any]
    span: Span | None
    metrics: dict[str, Any]


@dataclass
class _ChunkFailure:
    """A task inside a chunk raised; the exception travels by value."""

    task: Any
    type_name: str
    message: str
    exception: BaseException | None
    metrics: dict[str, Any]


def _init_worker() -> None:
    """Mark this process as a pool worker, once, before any task runs."""
    # Written once per worker process at startup and only read after;
    # a fork-inherited flag never leaks back into the parent.
    global _IN_WORKER  # lint: ignore[GT009]
    _IN_WORKER = True  # lint: ignore[GT009]


def _picklable(exc: BaseException) -> BaseException | None:
    try:
        pickle.dumps(exc)
    except Exception:
        return None
    return exc


def _execute_chunk(
    fn: TaskFn,
    payload: Any,
    chunk_index: int,
    tasks: Sequence[Any],
    trace_enabled: bool,
) -> _ChunkOutcome | _ChunkFailure:
    """Worker-side chunk loop: fresh observability, then run each task.

    Every chunk runs under its own tracer and metrics registry so the
    outcome carries exactly this chunk's delta; the parent merges the
    deltas in chunk order, which makes parallel traces/counters add up
    to the serial run's.  The persistent fabric workers
    (:mod:`repro.parallel.fabric`) run every chunk through here.
    """
    tracer = Tracer(enabled=trace_enabled)
    registry = MetricsRegistry()
    previous_tracer = set_tracer(tracer)
    previous_metrics = set_metrics(registry)
    try:
        results: list[Any] = []
        with tracer.span("parallel.chunk", chunk=chunk_index, tasks=len(tasks)):
            for task in tasks:
                try:
                    results.append(fn(payload, task))
                except Exception as exc:
                    return _ChunkFailure(
                        task=task,
                        type_name=type(exc).__name__,
                        message=str(exc),
                        exception=_picklable(exc),
                        metrics=registry.dump(),
                    )
        return _ChunkOutcome(
            results=results,
            span=tracer.last_root if trace_enabled else None,
            metrics=registry.dump(),
        )
    finally:
        set_tracer(previous_tracer)
        set_metrics(previous_metrics)


class Executor:
    """The execution contract shared by the inline executor and the pool."""

    #: How many tasks may run concurrently (1 for inline).
    workers: int = 1

    def map(
        self, fn: TaskFn, tasks: Sequence[Any], payload: Any = None
    ) -> list[Any]:
        raise NotImplementedError


class InlineExecutor(Executor):
    """Serial execution in the calling process — the parity baseline.

    No pickling, no observability indirection: spans and counters flow
    into the caller's tracer/registry exactly as a direct call would.
    """

    workers = 1

    def map(
        self, fn: TaskFn, tasks: Sequence[Any], payload: Any = None
    ) -> list[Any]:
        return [fn(payload, task) for task in tasks]

    def __repr__(self) -> str:
        return "InlineExecutor()"
