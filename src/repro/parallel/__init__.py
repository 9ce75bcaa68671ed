"""``repro.parallel`` — the dependency-free parallel execution layer.

A chunked task planner (:mod:`repro.parallel.plan`), two executors with
one contract — serial, and the persistent sharded fabric that is the
one process pool (:mod:`repro.parallel.executor`,
:mod:`repro.parallel.fabric`) — shard planning/routing
(:mod:`repro.parallel.shards`), and the resolution rules mapping
``parallelism=N | "auto" | None`` arguments onto them
(:mod:`repro.parallel.config`).  The fan-out sites live with the code
they parallelize: per-entity aggregation partials in
:mod:`repro.core.aggregation`, per-reference exploration chains in
:mod:`repro.exploration.explore`, figure sweeps in
:mod:`repro.bench.experiments`.

Everything the fabric produces is bit-identical to the serial path —
see ``docs/parallelism.md`` for the argument and
``tests/test_parallel_parity.py`` / ``tests/test_fabric_parity.py`` for
the enforcement.
"""

from __future__ import annotations

from .config import (
    ENV_MIN_WORK,
    ENV_WORKERS,
    close_shared_fabrics,
    default_parallelism,
    executor_scope,
    get_executor,
    min_parallel_work,
    parallelism_scope,
    resolve_parallelism,
    shared_fabric,
)
from .executor import Executor, InlineExecutor, in_worker
from .fabric import ShardedExecutor
from .plan import DEFAULT_CHUNKS_PER_WORKER, Chunk, assemble, plan_chunks
from .shards import Shard, plan_shards, route_position, shard_backend

__all__ = [
    "Chunk",
    "plan_chunks",
    "assemble",
    "DEFAULT_CHUNKS_PER_WORKER",
    "Shard",
    "plan_shards",
    "route_position",
    "shard_backend",
    "Executor",
    "InlineExecutor",
    "ShardedExecutor",
    "in_worker",
    "default_parallelism",
    "resolve_parallelism",
    "parallelism_scope",
    "executor_scope",
    "get_executor",
    "min_parallel_work",
    "shared_fabric",
    "close_shared_fabrics",
    "ENV_WORKERS",
    "ENV_MIN_WORK",
]
