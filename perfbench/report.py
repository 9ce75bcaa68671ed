"""The benchmark's metric catalogue and how each metric is computed.

``END_TO_END`` is what a user of the system sees, measured with tracing
off.  ``PER_LAYER`` comes from a separate traced run: span self times
are normalised per read (``/req``) for the read-side layers and per
append (``/append``) for the write-side ones, and program counters are
the deltas of the measured part only.
"""

from __future__ import annotations

from typing import Any

import stats
from spans import SpanRecorder, layer_totals
from workloads import Client, Phase, route_shares

END_TO_END: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("qps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("append_p50_ms", "ms"),
    ("append_p90_ms", "ms"),
)

#: Layers whose self time counts as engine work in the read shares.
ENGINE = ("operators", "aggregate", "evolution", "exploration", "storage.presence_mask")

PER_LAYER: tuple[tuple[str, str], ...] = (
    ("query.parse.calls", "count/req"),
    ("query.parse.self_ms", "ms/req"),
    ("serving.parse_lru.hit_ratio", "ratio"),
    ("serving.normalize.self_ms", "ms/req"),
    ("serving.cache.hit_ratio", "ratio"),
    ("serving.cache.evictions", "count/req"),
    ("serving.cache.self_ms", "ms/req"),
    ("serving.plan.self_ms", "ms/req"),
    ("serving.execute.self_ms", "ms/req"),
    ("serving.permute.self_ms", "ms/req"),
    ("olap.plan_routes.self_ms", "ms/req"),
    ("olap.route.exact_share", "ratio"),
    ("olap.route.rollup_share", "ratio"),
    ("olap.route.time_sum_share", "ratio"),
    ("olap.route.base_share", "ratio"),
    ("olap.execute_route.self_ms", "ms/req"),
    ("olap.cube_builds", "count/append"),
    ("olap.cube_build.self_ms", "ms/append"),
    ("operators.calls", "count/req"),
    ("operators.self_ms", "ms/req"),
    ("aggregate.calls", "count/req"),
    ("aggregate.self_ms", "ms/req"),
    ("algo2.unpivot_rows", "rows/req"),
    ("algo2.merge_rows", "rows/req"),
    ("evolution.calls", "count/req"),
    ("evolution.self_ms", "ms/req"),
    ("exploration.self_ms", "ms/req"),
    ("exploration.chain_steps", "count/req"),
    ("exploration.pruned_share", "ratio"),
    ("storage.presence_mask.calls", "count/req"),
    ("storage.presence_mask.self_ms", "ms/req"),
    ("storage.nbytes", "bytes"),
    ("frames.rows_scanned", "rows/req"),
    ("frames.table_ops", "count/req"),
    ("streaming.append.self_ms", "ms/append"),
    ("streaming.graph_rebuild.self_ms", "ms/append"),
    ("streaming.view_extend.self_ms", "ms/append"),
    ("streaming.hooks.self_ms", "ms/append"),
    ("streaming.versions_retained", "count"),
    ("parallel.maps", "count/req"),
    ("parallel.tasks_dispatched", "count/req"),
    ("runtime.gc_ms", "ms/op"),
    ("runtime.gc_collections", "count/op"),
    ("serving.unattributed_ms", "ms/req"),
    ("engine.read_share", "ratio"),
    ("exploration_evolution.read_share", "ratio"),
    ("trace.overhead_frac", "ratio"),
)


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def end_to_end(
    setup_times: list[float], setup_factors: list[float], client: Client, phase: Phase
) -> dict[str, float]:
    """Every end-to-end metric of one untraced run, each timing divided
    (each rate multiplied) by the host factor of the part that ran it."""
    for samples, q, what in ((client.reads, 99.0, "reads"), (client.appends, 90.0, "appends")):
        if (stats.tail_percentile(len(samples)) or 0.0) < q:
            raise RuntimeError(f"{len(samples)} {what} are too few for a p{q:g}")
    reads, appends = phase.read_host.factor(), phase.append_host.factor()
    return {
        "setup_s": stats.median([t / f for t, f in zip(setup_times, setup_factors)]),
        "qps": len(client.reads) / phase.wall_s * reads,
        "latency_p50_ms": _ms(stats.percentile(client.reads, 50.0)) / reads,
        "latency_p99_ms": _ms(stats.percentile(client.reads, 99.0)) / reads,
        "peak_rss_mb": phase.peak_rss_mb,
        "append_p50_ms": _ms(stats.percentile(client.appends, 50.0)) / appends,
        "append_p90_ms": _ms(stats.percentile(client.appends, 90.0)) / appends,
    }


def per_layer(
    recorder: SpanRecorder,
    client: Client,
    phase: Phase,
    gc_seconds: float,
    gc_collections: int,
    untraced_qps: float,
) -> dict[str, float]:
    """Every per-layer metric of one traced run."""
    totals = layer_totals(recorder)
    reads = max(1, len(client.reads))
    appends = max(1, len(client.appends))

    def calls(root: str, name: str) -> int:
        return totals.get((root, name), (0, 0.0))[0]

    def own(root: str, name: str) -> float:
        return totals.get((root, name), (0, 0.0))[1]

    read_counters = phase.read_counters

    def per_read(counter: str) -> float:
        return read_counters.get(counter, 0) / reads

    shares = route_shares(read_counters)
    read_self = sum(s for (root, _), (_, s) in totals.items() if root == "read") or 1.0
    steps = read_counters.get("exploration.chain_steps", 0)
    pruned = read_counters.get("exploration.pruned_steps", 0)
    traced_qps = len(client.reads) / phase.wall_s * phase.read_host.factor()
    out: dict[str, float] = {
        "query.parse.calls": calls("read", "query.parse") / reads,
        "serving.parse_lru.hit_ratio": 1.0 - calls("read", "query.parse") / reads,
        "serving.cache.hit_ratio": shares["cache.hit_ratio"],
        "serving.cache.evictions": per_read("serving.cache.evictions"),
        "olap.cube_builds": calls("append", "olap.cube_build") / appends,
        "operators.calls": calls("read", "operators") / reads,
        "aggregate.calls": calls("read", "aggregate") / reads,
        "algo2.unpivot_rows": per_read("algo2.unpivot_rows"),
        "algo2.merge_rows": per_read("algo2.merge_rows"),
        "evolution.calls": calls("read", "evolution") / reads,
        "exploration.chain_steps": steps / reads,
        "exploration.pruned_share": pruned / (pruned + steps) if steps else 0.0,
        "storage.presence_mask.calls": calls("read", "storage.presence_mask") / reads,
        "storage.nbytes": float(phase.storage_nbytes),
        "frames.rows_scanned": per_read("frames.rows_scanned"),
        "frames.table_ops": per_read("frames.table_ops"),
        "streaming.versions_retained": float(phase.versions_retained),
        "parallel.maps": per_read("parallel.maps"),
        "parallel.tasks_dispatched": per_read("parallel.tasks_dispatched"),
        "runtime.gc_ms": _ms(gc_seconds) / (reads + len(client.appends)),
        "runtime.gc_collections": gc_collections / (reads + len(client.appends)),
        "serving.unattributed_ms": _ms(own("read", "read")) / reads,
        "engine.read_share": sum(own("read", n) for n in ENGINE) / read_self,
        "exploration_evolution.read_share": (
            own("read", "exploration") + own("read", "evolution")
        ) / read_self,
        "trace.overhead_frac": 1.0 - traced_qps / untraced_qps,
    }
    for route in ("exact", "rollup", "time_sum", "base"):
        out[f"olap.route.{route}_share"] = shares[route]
    for metric, span in (
        ("query.parse.self_ms", "query.parse"),
        ("serving.normalize.self_ms", "serving.normalize"),
        ("serving.cache.self_ms", "serving.cache"),
        ("serving.plan.self_ms", "serving.plan"),
        ("serving.execute.self_ms", "serving.execute"),
        ("serving.permute.self_ms", "serving.permute"),
        ("olap.plan_routes.self_ms", "olap.plan_routes"),
        ("olap.execute_route.self_ms", "olap.execute_route"),
        ("operators.self_ms", "operators"),
        ("aggregate.self_ms", "aggregate"),
        ("evolution.self_ms", "evolution"),
        ("exploration.self_ms", "exploration"),
        ("storage.presence_mask.self_ms", "storage.presence_mask"),
    ):
        out[metric] = _ms(own("read", span)) / reads
    for metric, span in (
        ("olap.cube_build.self_ms", "olap.cube_build"),
        ("streaming.append.self_ms", "streaming.append"),
        ("streaming.graph_rebuild.self_ms", "streaming.graph_rebuild"),
        ("streaming.view_extend.self_ms", "streaming.view_extend"),
        ("streaming.hooks.self_ms", "streaming.hooks"),
    ):
        out[metric] = _ms(own("append", span)) / appends
    return {name: out[name] for name, _ in PER_LAYER}


def as_json_metrics(values: dict[str, float], catalogue: tuple[tuple[str, str], ...]) -> dict[str, Any]:
    units = dict(catalogue)
    return {name: {"value": values[name], "unit": units[name]} for name in values}
