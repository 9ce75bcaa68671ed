"""Fault injection on the persistent execution fabric.

The :class:`~repro.parallel.ShardedExecutor` keeps workers alive across
calls, so its failure surface is richer than a one-shot pool's: a
pinned worker can die *between* calls, *during* a call, or hang past
the deadline — and the pool has to keep serving afterwards.  This suite
injects each fault for real (SIGKILL on live worker pids, sleeping
tasks, domain raises inside a shard) and asserts the contract:

* typed errors — :class:`~repro.errors.WorkerCrashError` after the
  restart budget, :class:`~repro.errors.WorkerTimeoutError` on a blown
  deadline, the original taxonomy type for domain errors;
* bounded restart-and-retry — a SIGKILL'd worker is replaced and the
  interrupted task group re-runs, returning a result bit-identical to
  the undisturbed run;
* no orphans — :meth:`~repro.parallel.ShardedExecutor.close` drains
  every worker process, even after crashes and restarts;
* amortization — repeated calls over one payload reuse the workers and
  their pinned payload copy (exact ``fabric.*`` lifecycle counts).
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.errors import (
    AggregationError,
    ConfigurationError,
    GraphTempoError,
    ParallelError,
    WorkerCrashError,
    WorkerTimeoutError,
)
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.parallel import InlineExecutor, ShardedExecutor


# ----------------------------------------------------------------------
# Module-level work functions (shipped to workers by reference)
# ----------------------------------------------------------------------


def _square(payload, task):
    return (payload or 0) + task * task


def _domain_boom(payload, task):
    if task == payload:
        raise AggregationError(f"domain failure on {task}")
    return task


def _sleep(payload, task):
    time.sleep(task)
    return task


def _die_once(payload, task):
    """SIGKILL the worker the first time it sees the flagged task.

    The flag file makes the crash one-shot: the restarted worker finds
    the file and completes normally, exercising the retry path.
    """
    flag, victim = payload
    if task == victim and not os.path.exists(flag):
        with open(flag, "w") as handle:
            handle.write(str(os.getpid()))
        os.kill(os.getpid(), signal.SIGKILL)
    return task * task


def _die_always(payload, task):
    if task == payload:
        os.kill(os.getpid(), signal.SIGKILL)
    return task


def _assert_all_gone(pids):
    """Every pid must be dead (reaped or at least unkillable-0)."""
    deadline = time.monotonic() + 10.0
    pending = [pid for pid in pids if pid]
    while pending and time.monotonic() < deadline:
        still = []
        for pid in pending:
            try:
                os.kill(pid, 0)
                still.append(pid)
            except ProcessLookupError:
                pass
        pending = still
        if pending:
            time.sleep(0.05)
    assert not pending, f"orphaned worker processes: {pending}"


@pytest.fixture()
def fabric():
    executor = ShardedExecutor(2, timeout=60.0)
    yield executor
    pids = executor.worker_pids()
    executor.close()
    _assert_all_gone(pids)


# ----------------------------------------------------------------------
# Crash: SIGKILL a pinned worker
# ----------------------------------------------------------------------


def test_sigkill_between_calls_restarts_and_matches(fabric):
    tasks = list(range(31))
    expected = InlineExecutor().map(_square, tasks, 7)
    assert fabric.map(_square, tasks, 7) == expected
    victim = [pid for pid in fabric.worker_pids() if pid][0]
    os.kill(victim, signal.SIGKILL)
    # The next call detects the dead worker in-band, restarts it, and
    # the retried task group yields a bit-identical result.
    assert fabric.map(_square, tasks, 7) == expected
    assert fabric.restarts() >= 1
    assert victim not in fabric.worker_pids()


def test_sigkill_mid_query_retries_bit_exactly(fabric, tmp_path):
    flag = str(tmp_path / "crashed-once")
    tasks = list(range(24))
    payload = (flag, 20)  # task 20 lands on the second worker's shard
    expected = [task * task for task in tasks]
    assert fabric.map(_die_once, tasks, payload) == expected
    assert os.path.exists(flag), "the crash must actually have happened"
    assert fabric.restarts() >= 1
    # The pool stays warm and correct after the recovery.
    assert fabric.map(_square, tasks, 0) == expected


def test_persistent_crash_exhausts_restart_budget():
    fabric = ShardedExecutor(2, max_restarts=1)
    pids = None
    try:
        tasks = list(range(10))
        with pytest.raises(WorkerCrashError) as excinfo:
            fabric.map(_die_always, tasks, 0)
        assert isinstance(excinfo.value, ParallelError)
        assert excinfo.value.task in tasks
        assert "2 time(s)" in str(excinfo.value)
        # Crashing task gone -> the same pool serves again.
        assert fabric.map(_square, tasks, 0) == [t * t for t in tasks]
        pids = fabric.worker_pids()
    finally:
        fabric.close()
    _assert_all_gone(pids or ())


# ----------------------------------------------------------------------
# Deadline
# ----------------------------------------------------------------------


def test_blown_deadline_raises_typed_timeout():
    fabric = ShardedExecutor(2, timeout=0.5)
    try:
        started = time.monotonic()
        with pytest.raises(WorkerTimeoutError) as excinfo:
            fabric.map(_sleep, [30.0, 30.0], None)
        elapsed = time.monotonic() - started
        assert isinstance(excinfo.value, ParallelError)
        assert elapsed < 20, "timeout must not wait out the sleeping task"
        # The straggler was killed and replaced; the pool still serves.
        assert fabric.map(_square, [1, 2, 3], 0) == [1, 4, 9]
        assert fabric.restarts() >= 1
    finally:
        pids = fabric.worker_pids()
        fabric.close()
        _assert_all_gone(pids)


# ----------------------------------------------------------------------
# Domain errors inside a shard
# ----------------------------------------------------------------------


def test_domain_error_keeps_taxonomy_type_and_pool(fabric):
    tasks = list(range(16))
    with pytest.raises(AggregationError, match="domain failure on 11"):
        fabric.map(_domain_boom, tasks, 11)
    assert isinstance(
        AggregationError("x"), GraphTempoError
    )  # taxonomy sanity
    # No restart happened — a domain error is the task's fault, not the
    # worker's — and the pool keeps serving.
    assert fabric.restarts() == 0
    assert fabric.map(_square, tasks, 0) == [t * t for t in tasks]


def test_domain_error_is_never_retried(fabric, tmp_path):
    counter = tmp_path / "attempts"
    counter.write_text("")

    tasks = list(range(8))
    with pytest.raises(AggregationError):
        fabric.map(_count_and_raise, tasks, str(counter))
    assert len(counter.read_text()) == 1, "domain failure must run once"


def _count_and_raise(payload, task):
    if task == 0:
        with open(payload, "a") as handle:
            handle.write("x")
        raise AggregationError("domain failure, do not retry")
    return task


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------


def test_close_is_idempotent_and_closed_map_raises(fabric):
    fabric.map(_square, list(range(5)), 0)
    pids = fabric.worker_pids()
    fabric.close()
    fabric.close()
    _assert_all_gone(pids)
    assert fabric.state == "closed"
    with pytest.raises(ParallelError, match="closed"):
        fabric.map(_square, [1], 0)


def test_pool_is_lazy_and_persistent(fabric):
    assert fabric.state == "cold"
    assert fabric.worker_pids() == (None, None)
    fabric.map(_square, list(range(9)), 0)
    assert fabric.state == "running"
    pids = fabric.worker_pids()
    assert all(pids)
    fabric.map(_square, list(range(9)), 0)
    assert fabric.worker_pids() == pids, "workers must persist across calls"


def test_payload_pins_amortize_across_maps(fabric):
    """Ten maps of one payload fork each worker once and ship the payload
    to each worker once; every later task group is a pin-cache hit."""
    tasks = list(range(9))
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    try:
        for _ in range(10):
            assert fabric.map(_square, tasks, 7) == [7 + t * t for t in tasks]
    finally:
        set_metrics(previous)
    assert registry.counter("fabric.workers_started") == 2
    assert registry.counter("fabric.payload_installs") == 2
    assert registry.counter("fabric.payload_hits") == 18


def test_health_check_restarts_dead_workers(fabric):
    fabric.map(_square, list(range(8)), 0)
    victim = [pid for pid in fabric.worker_pids() if pid][0]
    os.kill(victim, signal.SIGKILL)
    status = fabric.health_check()
    assert status == (True, True)
    assert victim not in fabric.worker_pids()
    assert all(fabric.worker_pids())
    assert fabric.map(_square, list(range(8)), 0) == [
        t * t for t in range(8)
    ]


def test_heartbeat_thread_replaces_dead_workers():
    fabric = ShardedExecutor(2, heartbeat_interval=0.1)
    try:
        fabric.map(_square, list(range(8)), 0)
        victim = [pid for pid in fabric.worker_pids() if pid][0]
        os.kill(victim, signal.SIGKILL)
        deadline = time.monotonic() + 10.0
        while victim in fabric.worker_pids() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert victim not in fabric.worker_pids(), (
            "heartbeat should have replaced the killed worker"
        )
    finally:
        pids = fabric.worker_pids()
        fabric.close()
        _assert_all_gone(pids)


def test_single_worker_fabric_runs_inline():
    fabric = ShardedExecutor(1)
    try:
        assert fabric.map(_square, list(range(6)), 2) == [
            2 + t * t for t in range(6)
        ]
        assert fabric.state == "cold", "workers=1 must not start processes"
    finally:
        fabric.close()


def test_constructor_validation():
    with pytest.raises(ConfigurationError):
        ShardedExecutor(0)
    with pytest.raises(ConfigurationError):
        ShardedExecutor(2, timeout=0)
    with pytest.raises(ConfigurationError):
        ShardedExecutor(2, max_restarts=-1)
    with pytest.raises(ConfigurationError):
        ShardedExecutor(2, heartbeat_interval=0)
    with pytest.raises(ConfigurationError):
        ShardedExecutor(2, start_method="not-a-method")


def test_empty_task_list_short_circuits(fabric):
    assert fabric.map(_square, [], 0) == []
    assert fabric.state == "cold"


# ----------------------------------------------------------------------
# Fork hygiene: sibling pipe ends must not leak into workers
# ----------------------------------------------------------------------


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs procfs")
def test_workers_hold_no_sibling_pipe_ends(fabric):
    """Concurrent worker starts must not leak pipe fds across siblings.

    A leaked copy of a sibling's pipe end keeps the socket open after
    that sibling is killed, so the parent never sees EOF and a crash
    (retried transparently) degrades into a full deadline stall
    (WorkerTimeoutError, not retried).  The invariant: no worker child
    holds any parent-side connection fd — not a sibling's, not even a
    dup of its own.
    """
    fabric.map(_square, list(range(24)), 0)
    parent_ends = {
        worker.index: os.readlink(
            f"/proc/self/fd/{worker.conn.fileno()}"
        )
        for worker in fabric._workers
    }
    for worker in fabric._workers:
        fd_dir = f"/proc/{worker.process.pid}/fd"
        held = set()
        for fd in os.listdir(fd_dir):
            try:
                held.add(os.readlink(f"{fd_dir}/{fd}"))
            except OSError:  # transient fd churn in the child
                pass
        leaked = held & set(parent_ends.values())
        assert not leaked, (
            f"worker {worker.index} (pid {worker.process.pid}) holds "
            f"parent-side pipe ends {sorted(leaked)}"
        )
