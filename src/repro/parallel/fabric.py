"""The sharded execution fabric: the one persistent, shard-pinned pool.

Every multi-worker fan-out runs here (:func:`~repro.parallel.get_executor`
resolves to :func:`~repro.parallel.shared_fabric`).
:class:`ShardedExecutor` keeps the :class:`~repro.parallel.Executor`
contract (``map(fn, tasks, payload)``, results bit-identical to
:class:`~repro.parallel.InlineExecutor`, the same failure taxonomy)
while amortizing across calls everything that can be amortized — what
a serving layer issuing many fan-outs against one graph needs:

* **persistent workers** — one long-lived process per worker, created
  lazily on first use and reused across every subsequent call; no
  per-call fork;
* **payload pinning** — a payload (the graph, a prepared
  :class:`~repro.exploration.events.EventCounter`) is shipped to a
  worker once and cached under a parent-assigned key; later calls send
  only the key and the task specs.  Memmap-backed columnar graphs
  pickle as their path (:mod:`repro.storage.columnar`), so every worker
  maps the same read-only pages;
* **shard routing** — each worker owns a fixed fraction of every task
  index space (:mod:`repro.parallel.shards`); task chunks are routed to
  the owner, so the same entity ranges / reference windows keep hitting
  the same warm worker;
* **batched task groups** — all chunks bound for one worker travel in a
  single message and return in a single reply, so IPC round-trips per
  call are ``O(workers)``, not ``O(chunks)``.

Lifecycle robustness: workers are health-checked (:meth:`~ShardedExecutor.health_check`,
plus an optional heartbeat thread), a worker death is detected in-band
and the failed task group is retried on a fresh worker up to
``max_restarts`` times before a typed
:class:`~repro.errors.WorkerCrashError` surfaces; a blown ``timeout``
kills the straggler and raises :class:`~repro.errors.WorkerTimeoutError`
without poisoning the pool; :meth:`~ShardedExecutor.close` drains every
worker and is idempotent.  Domain errors raised inside a shard are never
retried — they re-raise as their taxonomy type, matching the inline
executor bit-for-bit.

``map`` is thread-safe: concurrent callers (the
:class:`~repro.serving.QueryServer` multiplexes many request threads
onto one fabric) serialize per worker and overlap across workers.
:meth:`~ShardedExecutor.bind_store` subscribes to a
:class:`~repro.streaming.StreamingStore`'s invalidation hooks so payload
pins are dropped — and the shard plan recomputed — whenever a new graph
version is published.

Fan-out volume is counted under ``parallel.*`` (maps, tasks
dispatched/completed/failed), pool lifecycle under ``fabric.*``, and
each call opens a ``fabric.map`` span; see ``docs/observability.md``.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from collections.abc import Callable, Sequence
from multiprocessing.connection import Connection
from typing import TYPE_CHECKING, Any

from ..errors import (
    ConfigurationError,
    GraphTempoError,
    ParallelError,
    WorkerCrashError,
    WorkerTimeoutError,
)
from ..obs.metrics import get_metrics
from ..obs.trace import get_tracer, trace_span
from .executor import (
    Executor,
    InlineExecutor,
    TaskFn,
    _ChunkFailure,
    _ChunkOutcome,
    _execute_chunk,
    _init_worker,
    in_worker,
)
from .plan import Chunk, assemble, plan_chunks
from .shards import plan_shards, route_position

if TYPE_CHECKING:  # pragma: no cover - static analysis only
    from ..streaming.store import GraphVersion, StreamingStore

__all__ = ["ShardedExecutor"]

#: How many distinct payloads the parent keeps pinned (strong refs);
#: older pins are evicted LRU and dropped from worker caches via the
#: retain set piggybacked on the next dispatch.
PAYLOAD_CAPACITY = 4

#: Reply wait while draining a worker at close / pinging at health check.
_DRAIN_TIMEOUT_S = 5.0

#: Deadline polls wake at this cadence to re-check worker liveness, so a
#: crash is detected even when EOF never arrives (see _FORK_LOCK below).
_LIVENESS_POLL_S = 1.0

#: Serializes pipe creation + fork across worker slots.  Without it, two
#: concurrent ``start()`` calls interleave so that worker A forks between
#: worker B's ``Pipe()`` and the parent-side ``child_conn.close()`` — A
#: then inherits B's child end, and when B's process dies the pipe never
#: delivers EOF (A's leaked copy keeps it open), turning the crash into a
#: full deadline stall.  ``_reap`` closes connections under the same lock
#: so the stale-connection snapshot taken at fork time stays valid.
_FORK_LOCK = threading.Lock()


def _worker_main(
    conn: Connection,
    worker_index: int,
    stale_conns: tuple[Connection, ...] = (),
) -> None:
    """The persistent worker loop.

    One duplex pipe, strictly request/reply: the parent holds the
    worker's lock across each ``send``/``recv`` pair, so the worker
    never sees interleaved requests.  Payloads install into a local
    cache pruned to the parent's retain set; chunks execute through
    :func:`~repro.parallel.executor._execute_chunk`, which packs each
    chunk's results, spans, metric delta or failure envelope.

    ``stale_conns`` are pipe ends inherited across the fork that belong
    to other workers (plus this worker's own parent end): closing them
    immediately keeps EOF semantics exact — our death closes our only
    child end, and the parent's death closes the only parent end.
    """
    for stale_conn in stale_conns:
        try:
            stale_conn.close()
        except OSError:  # pragma: no cover - already gone
            pass
    _init_worker()  # mark the process; nested fan-outs run inline
    payloads: dict[int, Any] = {}
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):  # parent went away
            break
        kind = message[0]
        if kind == "stop":
            try:
                conn.send(("stopped", worker_index))
            except (OSError, ValueError):  # pragma: no cover - racing close
                pass
            break
        if kind == "ping":
            conn.send(("pong", message[1]))
            continue
        # ("run", group_id, key, retain, fn, trace_enabled, chunk_items,
        #  payload?) — payload present only when the worker lacks the key.
        (_, group_id, key, retain, fn, trace_enabled, chunk_items) = message[:7]
        if len(message) > 7:
            payloads[key] = message[7]
        for stale in [k for k in payloads if k not in retain]:
            del payloads[stale]
        if key not in payloads:
            conn.send(("missing", group_id, key))
            continue
        payload = payloads[key]
        outcomes = [
            (index, _execute_chunk(fn, payload, index, tasks, trace_enabled))
            for index, tasks in chunk_items
        ]
        try:
            conn.send(("done", group_id, outcomes))
        except Exception:
            # An unpicklable result cannot cross the pipe; surface it as
            # a structured failure instead of dying silently.
            first = chunk_items[0][1][0] if chunk_items and chunk_items[0][1] else None
            conn.send(("error", group_id, f"result not picklable for {first!r}"))
    conn.close()


class _WorkerDied(ParallelError):
    """Internal: the worker's pipe broke or its process exited."""


class _WorkerTimedOut(ParallelError):
    """Internal: the worker missed the caller's deadline."""


class _FabricWorker:
    """Parent-side handle for one persistent, shard-pinned worker.

    The lock serializes callers onto the worker's pipe; everything else
    (process, connection, installed payload keys) is owned by whoever
    holds the lock.  ``restarts`` counts lifetime replacements.
    """

    def __init__(self, index: int, ctx: Any) -> None:
        self.index = index
        self._ctx = ctx
        self.lock = threading.Lock()
        self.process: Any = None
        self.conn: Connection | None = None
        self.installed: set[int] = set()
        self.restarts = 0
        #: Sibling slots in the same pool; their live parent connections
        #: leak into our child at fork time and must be closed there.
        self.peers: Sequence["_FabricWorker"] = ()

    # -- lifecycle (caller holds self.lock) -----------------------------

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def start(self) -> None:
        with _FORK_LOCK:
            parent_conn, child_conn = self._ctx.Pipe(duplex=True)
            if self._ctx.get_start_method() == "fork":
                # Snapshot every pipe end the fork will leak into the
                # child; the lock keeps the snapshot valid until then.
                stale_conns = tuple(
                    peer.conn
                    for peer in self.peers
                    if peer is not self and peer.conn is not None
                ) + (parent_conn,)
            else:  # spawn/forkserver children inherit nothing
                stale_conns = ()
            process = self._ctx.Process(
                target=_worker_main,
                args=(child_conn, self.index, stale_conns),
                name=f"repro-fabric-{self.index}",
                daemon=True,
            )
            process.start()
            child_conn.close()
        self.process = process
        self.conn = parent_conn
        self.installed = set()
        get_metrics().inc("fabric.workers_started")

    def ensure_alive(self) -> None:
        if not self.alive:
            if self.process is not None:
                self._reap()
                self.restarts += 1
                get_metrics().inc("fabric.restarts")
            self.start()

    def restart(self) -> None:
        self._reap()
        self.restarts += 1
        get_metrics().inc("fabric.restarts")
        self.start()

    def _reap(self) -> None:
        if self.conn is not None:
            # Under _FORK_LOCK so a sibling's in-flight start() never
            # sees this connection die between snapshot and fork.
            with _FORK_LOCK:
                try:
                    self.conn.close()
                except OSError:  # pragma: no cover - already gone
                    pass
                self.conn = None
        if self.process is not None:
            if self.process.is_alive():
                self.process.terminate()
            self.process.join(timeout=_DRAIN_TIMEOUT_S)
            if self.process.is_alive():  # pragma: no cover - stuck kernel
                self.process.kill()
                self.process.join(timeout=_DRAIN_TIMEOUT_S)
            try:
                self.process.close()
            except ValueError:  # pragma: no cover - see _run_group: a
                # just-killed child can be unreapable for an instant and
                # then still reads as "running"; dropping the handle is
                # safe — the join above already waited for it.
                pass
            self.process = None
        self.installed = set()

    def stop(self) -> None:
        """Drain politely, then reap whatever is left."""
        if self.conn is not None and self.alive:
            try:
                self.conn.send(("stop",))
                if self.conn.poll(_DRAIN_TIMEOUT_S):
                    self.conn.recv()
            except (OSError, EOFError, BrokenPipeError):
                pass
        self._reap()

    # -- protocol (caller holds self.lock) ------------------------------

    def request(self, message: tuple[Any, ...], deadline: float | None) -> Any:
        """One send/recv exchange under the caller's deadline."""
        conn = self.conn
        if conn is None:  # pragma: no cover - defends against misuse
            raise _WorkerDied(f"worker {self.index} has no connection")
        try:
            conn.send(message)
            while True:
                # Poll in short slices and re-check liveness each wake:
                # EOF alone cannot be trusted to signal a crash (a pipe
                # end leaked to a sibling keeps the socket open), and a
                # dead worker must surface as _WorkerDied — retryable —
                # rather than silently eating the caller's deadline.
                if deadline is None:
                    wait = _DRAIN_TIMEOUT_S
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0.0:
                        raise _WorkerTimedOut(
                            f"worker {self.index} missed the deadline"
                        )
                    wait = min(remaining, _LIVENESS_POLL_S)
                if not conn.poll(wait):
                    if not self.alive:
                        raise _WorkerDied(
                            f"worker {self.index} died mid-request"
                        )
                    continue
                return conn.recv()
        except (BrokenPipeError, EOFError, OSError) as exc:
            raise _WorkerDied(
                f"worker {self.index} died mid-request: {exc}"
            ) from exc

    def ping(self, timeout: float) -> bool:
        token = time.monotonic_ns()
        try:
            reply = self.request(("ping", token), time.monotonic() + timeout)
        except ParallelError:
            return False
        return bool(reply == ("pong", token))


class ShardedExecutor(Executor):
    """A persistent, shard-pinned, batching process-pool executor.

    Parameters
    ----------
    workers:
        Pool size (>= 1); ``workers=1`` degrades to inline execution.
    chunk_size:
        Tasks per chunk, ``None`` (default) lets the planner pick.
    timeout:
        Per-``map`` deadline in seconds; blowing it raises
        :class:`~repro.errors.WorkerTimeoutError` and kills the
        straggling worker (the pool stays usable).
    start_method:
        Multiprocessing start method; default prefers ``fork``.
    max_restarts:
        How many times one ``map`` call restarts a crashed worker and
        retries its task group before
        :class:`~repro.errors.WorkerCrashError` surfaces.
    heartbeat_interval:
        Seconds between background health checks (``None`` disables the
        heartbeat thread; crash detection still happens in-band).

    The pool starts cold: no process exists until the first ``map``.
    States are ``cold -> running -> closed`` (:attr:`state`); a closed
    fabric raises :class:`~repro.errors.ParallelError` on ``map``.
    """

    def __init__(
        self,
        workers: int,
        *,
        chunk_size: int | None = None,
        timeout: float | None = None,
        start_method: str | None = None,
        max_restarts: int = 2,
        heartbeat_interval: float | None = None,
    ) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if timeout is not None and timeout <= 0:
            raise ConfigurationError(f"timeout must be positive, got {timeout}")
        if max_restarts < 0:
            raise ConfigurationError(
                f"max_restarts must be >= 0, got {max_restarts}"
            )
        if heartbeat_interval is not None and heartbeat_interval <= 0:
            raise ConfigurationError(
                f"heartbeat interval must be positive, got {heartbeat_interval}"
            )
        available = multiprocessing.get_all_start_methods()
        if start_method is None:
            start_method = "fork" if "fork" in available else available[0]
        elif start_method not in available:
            raise ConfigurationError(
                f"start method {start_method!r} unavailable; "
                f"choose one of {available!r}"
            )
        self.workers = workers
        self.chunk_size = chunk_size
        self.timeout = timeout
        self.start_method = start_method
        self.max_restarts = max_restarts
        self.heartbeat_interval = heartbeat_interval
        ctx = multiprocessing.get_context(start_method)
        self._workers = tuple(_FabricWorker(i, ctx) for i in range(workers))
        for worker in self._workers:
            worker.peers = self._workers
        self._closed = False
        self._started = False
        self._state_lock = threading.Lock()
        # Payload pins: id(payload) -> (key, strong ref).  The strong ref
        # keeps the id stable while pinned; eviction is LRU.
        self._payload_lock = threading.Lock()
        self._payloads: dict[int, tuple[int, Any]] = {}
        self._next_key = 0
        self._group_counter = 0
        self._unsubscribes: list[Callable[[], None]] = []
        self._heartbeat_stop = threading.Event()
        self._heartbeat_thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def state(self) -> str:
        """``cold`` (no processes yet), ``running``, or ``closed``."""
        if self._closed:
            return "closed"
        return "running" if self._started else "cold"

    def worker_pids(self) -> tuple[int | None, ...]:
        """Current worker process ids (``None`` for unstarted slots)."""
        return tuple(
            worker.process.pid if worker.process is not None else None
            for worker in self._workers
        )

    def restarts(self) -> int:
        """Lifetime worker replacements across the pool."""
        return sum(worker.restarts for worker in self._workers)

    def __repr__(self) -> str:
        return (
            f"ShardedExecutor(workers={self.workers}, state={self.state!r}, "
            f"start_method={self.start_method!r})"
        )

    def __enter__(self) -> "ShardedExecutor":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def close(self) -> None:
        """Drain and terminate every worker; idempotent.

        Unsubscribes from any bound streaming stores, stops the
        heartbeat thread, sends each worker a stop message and reaps the
        processes, so no worker can outlive the fabric.
        """
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
        self._heartbeat_stop.set()
        if self._heartbeat_thread is not None:
            self._heartbeat_thread.join(timeout=_DRAIN_TIMEOUT_S)
            self._heartbeat_thread = None
        for unsubscribe in self._unsubscribes:
            unsubscribe()
        self._unsubscribes.clear()
        for worker in self._workers:
            with worker.lock:
                worker.stop()
        with self._payload_lock:
            self._payloads.clear()

    def _ensure_running(self) -> None:
        with self._state_lock:
            if self._closed:
                raise ParallelError("fabric is closed")
            if not self._started:
                self._started = True
                if self.heartbeat_interval is not None:
                    self._heartbeat_thread = threading.Thread(
                        target=self._heartbeat_loop,
                        name="repro-fabric-heartbeat",
                        daemon=True,
                    )
                    self._heartbeat_thread.start()

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------

    def health_check(self, timeout: float = 1.0) -> tuple[bool, ...]:
        """Ping every idle worker; restart the dead, skip the busy.

        Returns one flag per worker: ``True`` when the worker answered
        (or was restarted into a healthy state), ``False`` when it is
        busy serving a request (its liveness is checked in-band there).
        """
        get_metrics().inc("fabric.heartbeats")
        status = []
        for worker in self._workers:
            if not worker.lock.acquire(blocking=False):
                status.append(False)
                continue
            try:
                if worker.process is None:
                    status.append(True)  # cold slot; nothing to check
                    continue
                if not worker.alive or not worker.ping(timeout):
                    worker.restart()
                status.append(True)
            finally:
                worker.lock.release()
        return tuple(status)

    def _heartbeat_loop(self) -> None:
        interval = self.heartbeat_interval
        assert interval is not None
        while not self._heartbeat_stop.wait(interval):
            self.health_check()

    # ------------------------------------------------------------------
    # Streaming integration
    # ------------------------------------------------------------------

    def bind_store(self, store: "StreamingStore") -> Callable[[], None]:
        """Follow a streaming store: every published version invalidates
        the payload pins (the superseded graph will never be mapped
        again) and the next call re-pins — and thereby re-shards —
        against the new version.  Returns an unsubscribe callable; the
        subscription is also torn down by :meth:`close`."""
        _, unsubscribe = store.subscribe(self._on_version)
        self._unsubscribes.append(unsubscribe)
        return unsubscribe

    def _on_version(self, version: "GraphVersion") -> None:
        self.invalidate()

    def invalidate(self) -> None:
        """Drop every payload pin (worker caches prune on next dispatch)."""
        with self._payload_lock:
            self._payloads.clear()
        get_metrics().inc("fabric.invalidations")

    # ------------------------------------------------------------------
    # Payload pinning
    # ------------------------------------------------------------------

    def _pin_payload(self, payload: Any) -> tuple[int, tuple[int, ...]]:
        """The payload's pin key plus the current retain set.

        Pins hold strong references, so ``id(payload)`` cannot be reused
        while its entry lives; eviction is LRU at
        :data:`PAYLOAD_CAPACITY` entries.
        """
        with self._payload_lock:
            ident = id(payload)
            entry = self._payloads.pop(ident, None)
            if entry is None:
                key = self._next_key
                self._next_key += 1
                entry = (key, payload)
            self._payloads[ident] = entry  # move to MRU position
            while len(self._payloads) > PAYLOAD_CAPACITY:
                evicted_ident = next(iter(self._payloads))
                evicted_key = self._payloads.pop(evicted_ident)[0]
                for worker in self._workers:
                    worker.installed.discard(evicted_key)
            retain = tuple(key for key, _ in self._payloads.values())
            return entry[0], retain

    def _next_group_id(self) -> int:
        with self._payload_lock:
            self._group_counter += 1
            return self._group_counter

    # ------------------------------------------------------------------
    # The fan-out
    # ------------------------------------------------------------------

    def map(
        self, fn: TaskFn, tasks: Sequence[Any], payload: Any = None
    ) -> list[Any]:
        tasks = list(tasks)
        metrics = get_metrics()
        metrics.inc("parallel.maps")
        if not tasks:
            return []
        if self.workers == 1 or in_worker():
            # Nested fan-outs and single-worker fabrics run inline,
            # bit-identically, without IPC.  GT007 is enforced at the
            # external submission sites.
            return InlineExecutor().map(fn, tasks, payload)  # lint: ignore[GT007]
        self._ensure_running()
        chunks = plan_chunks(
            len(tasks),
            self.workers,
            self.chunk_size,
            max_chunks=None if self.chunk_size is not None else self.workers * 4,
        )
        groups = self._route(chunks, len(tasks))
        metrics.inc("fabric.task_groups", len(groups))
        metrics.inc("parallel.tasks_dispatched", len(tasks))
        deadline = (
            None if self.timeout is None else time.monotonic() + self.timeout
        )
        with trace_span(
            "fabric.map", tasks=len(tasks), groups=len(groups),
            workers=self.workers,
        ):
            outcomes = self._dispatch(groups, tasks, fn, payload, deadline)
            results: dict[int, list[Any]] = {}
            tracer = get_tracer()
            for chunk in chunks:
                outcome = outcomes[chunk.index]
                if isinstance(outcome, _ChunkFailure):
                    metrics.inc("parallel.tasks_failed")
                    metrics.merge(outcome.metrics)
                    if isinstance(outcome.exception, GraphTempoError):
                        # Domain failures keep their taxonomy type so the
                        # fabric and the inline executor fail identically.
                        raise outcome.exception
                    raise ParallelError(
                        f"task {outcome.task!r} raised "
                        f"{outcome.type_name}: {outcome.message}",
                        task=outcome.task,
                    )
                metrics.merge(outcome.metrics)
                if outcome.span is not None and tracer.enabled:
                    tracer.attach(outcome.span)
                results[chunk.index] = outcome.results
            metrics.inc("parallel.tasks_completed", len(tasks))
            return assemble(chunks, results)

    def _route(
        self, chunks: Sequence[Chunk], n_tasks: int
    ) -> list[tuple[_FabricWorker, list[Chunk]]]:
        """Group chunks by the worker pinned to their index range.

        The shard plan is recomputed per call from ``n_tasks`` (so a
        rebound graph re-shards for free), but it is deterministic: the
        same fan-out shape always routes the same ranges to the same
        workers.
        """
        plan = plan_shards(n_tasks, self.workers)
        grouped: dict[int, list[Chunk]] = {}
        for chunk in chunks:
            owner = route_position(chunk.start, n_tasks, len(plan))
            grouped.setdefault(owner, []).append(chunk)
        return [
            (self._workers[index], grouped[index]) for index in sorted(grouped)
        ]

    def _dispatch(
        self,
        groups: Sequence[tuple[_FabricWorker, list[Chunk]]],
        tasks: Sequence[Any],
        fn: TaskFn,
        payload: Any,
        deadline: float | None,
    ) -> dict[int, _ChunkOutcome | _ChunkFailure]:
        """Run every task group, one batched message per worker.

        Groups overlap across workers via short-lived dispatch threads
        (the last group runs on the calling thread); failures are
        resolved in chunk order so completion order cannot influence
        which error surfaces.
        """
        results: list[dict[int, _ChunkOutcome | _ChunkFailure] | None] = [
            None
        ] * len(groups)
        errors: list[BaseException | None] = [None] * len(groups)

        def run(position: int) -> None:
            worker, chunks = groups[position]
            try:
                results[position] = self._run_group(
                    worker, chunks, tasks, fn, payload, deadline
                )
            except BaseException as exc:  # resolved in chunk order below
                errors[position] = exc

        threads = [
            threading.Thread(
                target=run, args=(position,), name="repro-fabric-dispatch"
            )
            for position in range(len(groups) - 1)
        ]
        for thread in threads:
            thread.start()
        run(len(groups) - 1)
        for thread in threads:
            thread.join()
        # Deterministic error precedence: the group owning the earliest
        # chunk wins, whatever order the groups completed in.
        outcomes: dict[int, _ChunkOutcome | _ChunkFailure] = {}
        for position, (worker, chunks) in sorted(
            enumerate(groups), key=lambda item: item[1][1][0].index
        ):
            error = errors[position]
            if error is not None:
                get_metrics().inc(
                    "parallel.tasks_failed", sum(len(c) for c in chunks)
                )
                raise error
            group_results = results[position]
            assert group_results is not None
            outcomes.update(group_results)
        return outcomes

    def _run_group(
        self,
        worker: _FabricWorker,
        chunks: Sequence[Chunk],
        tasks: Sequence[Any],
        fn: TaskFn,
        payload: Any,
        deadline: float | None,
    ) -> dict[int, _ChunkOutcome | _ChunkFailure]:
        """One worker's batched task group, with bounded restart-retry.

        A dead worker is replaced and the whole group re-submitted (task
        functions are pure — GT011 — so re-execution is safe and
        bit-identical); a missed deadline kills the worker and raises
        immediately; domain failures inside chunks travel back in the
        reply and are never retried.
        """
        metrics = get_metrics()
        first_task = tasks[chunks[0].start]
        chunk_items = [
            (chunk.index, list(tasks[chunk.start : chunk.stop]))
            for chunk in chunks
        ]
        trace_enabled = get_tracer().enabled
        with worker.lock:
            attempts = self.max_restarts + 1
            for attempt in range(attempts):
                if attempt:
                    metrics.inc("fabric.retries")
                worker.ensure_alive()
                key, retain = self._pin_payload(payload)
                message: tuple[Any, ...] = (
                    "run",
                    self._next_group_id(),
                    key,
                    retain,
                    fn,
                    trace_enabled,
                    chunk_items,
                )
                if key not in worker.installed:
                    message = message + (payload,)
                    metrics.inc("fabric.payload_installs")
                else:
                    metrics.inc("fabric.payload_hits")
                try:
                    reply = worker.request(message, deadline)
                except _WorkerTimedOut:
                    worker.restart()
                    raise WorkerTimeoutError(
                        f"task group on worker {worker.index} missed the "
                        f"{self.timeout}s deadline",
                        task=first_task,
                    ) from None
                except _WorkerDied:
                    # Replace the worker unconditionally rather than via
                    # ensure_alive(): a freshly SIGKILLed child can hold
                    # its pipe closed (EOF observed) for a moment before
                    # it is reapable, during which is_alive() still says
                    # True.  restart() joins the corpse properly, so the
                    # retry never runs against a half-dead process.
                    worker.restart()
                    continue
                if reply[0] == "missing":
                    # The worker pruned (or never had) the key — e.g. it
                    # restarted between bookkeeping and dispatch.  Force a
                    # reinstall and retry without burning a restart.
                    worker.installed.discard(reply[2])
                    continue
                if reply[0] == "error":
                    raise ParallelError(str(reply[2]), task=first_task)
                worker.installed.add(key)
                worker.installed &= set(retain)
                return dict(reply[2])
            raise WorkerCrashError(
                f"worker {worker.index} died {attempts} time(s) running the "
                f"same task group; giving up",
                task=first_task,
            )
