"""Streaming ingestion benchmark: delta-maintained views vs. recompute.

Replays a scaled DBLP history through :class:`repro.streaming.StreamingStore`
and measures, per appended time point, keeping three kinds of derived
state current:

* **totals** — the union-window ALL aggregate
  (:class:`~repro.streaming.AggregateTotalsView`) vs. re-aggregating
  the whole grown window after every append;
* **evolution** — the evolution overlay between the seed window and the
  appended tail (:class:`~repro.streaming.EvolutionView`) vs. a
  from-scratch ``aggregate_evolution`` per append;
* **exploration** — the growing-new-side event chain
  (:class:`~repro.streaming.ExplorationView`) vs. re-walking the full
  :meth:`ChainEvaluator.chain` per append.

Every delta result is checked identical to its recompute twin before
anything is timed, so the speedups can never come from divergent work.
Raw ingestion throughput (appends/s, no views) is recorded alongside.

A fourth arm, **carried state**, times what each new version costs a
reader on a long synthetic timeline (DBLP's recipe stretched to
120 points, 40 with ``--smoke``): the append plus the version's first evolution
read (edge endpoint rows) and first explore (presence bits).  Appends
extend the previous version's label indexes and caches; the simplest
alternative it is timed against is a fresh ``TemporalGraph`` and
backend per version, which rebuilds every index and cache.  Both arms
must return identical results, and the carried arm must be no slower
(``carried_best_s <= fresh_best_s``).

Results land in ``BENCH_streaming.json``.  Run directly::

    PYTHONPATH=src python benchmarks/bench_streaming.py [--smoke]

The gate (every delta path >= {GATE}x its recompute twin on the
full-size run) encodes the point of the subsystem: maintenance must beat
recomputation, and the margin grows with the timeline since recompute is
O(window) per append while the delta step is O(new point).  ``--smoke``
shrinks the workload for CI; the checked-in JSON comes from a full run.
This file is a script, not a pytest module — pytest collects nothing
from it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.bench import measure, speedup
from repro.core import TemporalGraph, Timeline, aggregate, aggregate_evolution
from repro.core.updates import append_snapshot, snapshot_at, split_history
from repro.datasets import dblp_config, generate_dblp
from repro.datasets.synthetic import VaryingAttributeSpec, generate_evolving_graph
from repro.exploration import (
    ChainEvaluator,
    EntityKind,
    EventCounter,
    EventType,
    ExtendSide,
    Goal,
    Semantics,
    explore,
    suggest_threshold,
)
from repro.frames import LabeledFrame
from repro.streaming import (
    AggregateTotalsView,
    EvolutionView,
    ExplorationView,
    StreamingStore,
)

#: Minimum delta-over-recompute speedup for every maintained view on the
#: full-size run.  DBLP's timeline is only 21 points, so the window-size
#: advantage is bounded; the totals path lands near ~1.7x while the
#: chain-walk paths clear 4x.
GATE = 1.5

ATTRS = ["gender"]

#: Timeline length of the carried-state arm (full run / ``--smoke``) and
#: the points loaded before the timed appends begin.
CARRIED_POINTS = 120
CARRIED_POINTS_SMOKE = 40
CARRIED_PREFIX = 20


def grown_graphs(initial, updates):
    """The grown graph after each append, built once and shared by both
    timed paths so only the *maintenance* work differs between them."""
    graphs = []
    graph = initial
    for update in updates:
        graph = append_snapshot(graph, update)
        graphs.append(graph)
    return graphs


def _delta_totals(initial, graphs, updates):
    view = AggregateTotalsView([tuple(ATTRS)])
    view.rebuild(initial)
    for graph, update in zip(graphs, updates):
        view.extend(graph, update)
    return view.union_total(ATTRS)


def _scratch_totals(initial, graphs, updates):
    result = None
    for graph in graphs:
        result = aggregate(graph, ATTRS, distinct=False)
    return result


def _delta_evolution(initial, graphs, updates):
    view = EvolutionView(ATTRS, old_times=initial.timeline.labels)
    view.rebuild(initial)
    result = None
    for graph, update in zip(graphs, updates):
        view.extend(graph, update)
        result = view.current()
    return result


def _scratch_evolution(initial, graphs, updates):
    old = initial.timeline.labels
    result = None
    for graph in graphs:
        new = graph.timeline.labels[len(old):]
        result = aggregate_evolution(graph, old, new, ATTRS)
    return result


def _delta_exploration(initial, graphs, updates):
    view = ExplorationView(EventType.GROWTH, entity=EntityKind.NODES)
    view.rebuild(initial)
    for graph, update in zip(graphs, updates):
        view.extend(graph, update)
    return view.counts()


def _scratch_exploration(initial, graphs, updates):
    reference = len(initial.timeline.labels) - 1
    counts = ()
    for graph in graphs:
        evaluator = ChainEvaluator(
            EventCounter(graph, entity=EntityKind.NODES), EventType.GROWTH
        )
        counts = tuple(
            step.count
            for step in evaluator.chain(
                reference, ExtendSide.NEW, Semantics.UNION
            )
        )
    return counts


def _totals_parity(delta, scratch):
    return (
        dict(delta.node_weights) == dict(scratch.node_weights)
        and dict(delta.edge_weights) == dict(scratch.edge_weights)
    )


WORKLOADS = (
    ("totals", _delta_totals, _scratch_totals, _totals_parity),
    ("evolution", _delta_evolution, _scratch_evolution,
     lambda delta, scratch: delta.diff(scratch) == ()),
    ("exploration", _delta_exploration, _scratch_exploration,
     lambda delta, scratch: delta == scratch),
)


def bench_appends(initial, updates, repeats):
    """Raw ingestion throughput: replay with no registered views."""

    def run():
        store = StreamingStore(initial)
        for update in updates:
            store.append_snapshot(update)
        return store.version

    timing = measure(run, repeats=repeats)
    rate = len(updates) / timing.best if timing.best else float("inf")
    print(
        f"  ingestion: {len(updates)} appends in {timing.best:.4f}s "
        f"({rate:.1f} appends/s)"
    )
    return {
        "appends": len(updates),
        "best_s": timing.best,
        "appends_per_s": rate,
    }


def bench_views(initial, graphs, updates, repeats):
    """Delta vs. recompute timings per maintained view, parity-checked."""
    rows = []
    for name, delta_fn, scratch_fn, parity in WORKLOADS:
        delta_result = delta_fn(initial, graphs, updates)
        scratch_result = scratch_fn(initial, graphs, updates)
        assert parity(delta_result, scratch_result), (
            f"{name}: delta maintenance diverged from recompute"
        )
        scratch = measure(
            lambda: scratch_fn(initial, graphs, updates), repeats=repeats
        )
        delta = measure(
            lambda: delta_fn(initial, graphs, updates), repeats=repeats
        )
        rows.append(
            {
                "workload": name,
                "scratch_best_s": scratch.best,
                "delta_best_s": delta.best,
                "speedup": speedup(scratch, delta),
            }
        )
        print(
            f"  {name:>12}: recompute {scratch.best:.4f}s "
            f"delta {delta.best:.4f}s speedup {rows[-1]['speedup']:.2f}x"
        )
    return rows


def long_timeline(n_points, scale, seed=1):
    """DBLP's recipe at ``scale`` with its yearly node/edge targets and
    publications domain stretched linearly from 21 years to ``n_points``."""
    base = dblp_config(scale=scale, seed=seed)
    years = np.linspace(0, len(base.times) - 1, n_points)
    (publications,) = base.varying_attrs

    def stretch(targets):
        stretched = np.interp(years, np.arange(len(targets)), targets)
        return tuple(int(round(v)) for v in stretched)

    def sampler(rng, node_ids, time_index):
        return publications.sampler(rng, node_ids, int(years[time_index]))

    return generate_evolving_graph(
        replace(
            base,
            times=tuple(range(n_points)),
            node_targets=stretch(base.node_targets),
            edge_targets=stretch(base.edge_targets),
            varying_attrs=(VaryingAttributeSpec(publications.name, sampler),),
        )
    )


def _fresh(graph):
    """The same graph value over freshly built frames (new label indexes,
    copied arrays) with no backend yet: what every version cost before
    appends carried derived state forward."""

    def frame(source):
        return LabeledFrame(source.row_labels, source.col_labels, source.values)

    return TemporalGraph(
        timeline=Timeline(graph.timeline.labels),
        node_presence=frame(graph.node_presence),
        edge_presence=frame(graph.edge_presence),
        static_attrs=frame(graph.static_attrs),
        varying_attrs={n: frame(f) for n, f in graph.varying_attrs.items()},
        validate=False,
        edge_attrs=None if graph.edge_attrs is None else frame(graph.edge_attrs),
    )


def _first_reads(graph, k):
    """A version's first evolution read (the newest point against the ten
    before it) and first explore."""
    labels = graph.timeline.labels
    evolution = aggregate_evolution(graph, labels[-11:-1], labels[-1:], ATTRS)
    found = explore(graph, EventType.GROWTH, Goal.MINIMAL, ExtendSide.NEW, k)
    return evolution, found


def bench_carried_state(n_points, scale, repeats):
    """Append + first reads per version: carried state vs a fresh graph
    and backend per version, parity-checked on every version."""
    graph = long_timeline(n_points, scale)
    labels = graph.timeline.labels
    head = labels[:CARRIED_PREFIX]
    prefix = graph.restricted(
        graph.node_presence.rows_any(head), graph.edge_presence.rows_any(head), head
    )
    updates = [snapshot_at(graph, t) for t in labels[CARRIED_PREFIX:]]
    k = suggest_threshold(prefix, EventType.GROWTH, mode="min")
    versions = []
    current = prefix
    for update in updates:
        current = append_snapshot(current, update)
        versions.append(current)

    def carried():
        current = _fresh(prefix)
        results = [_first_reads(current, k)]
        for update in updates:
            current = append_snapshot(current, update)
            results.append(_first_reads(current, k))
        return results

    def fresh():
        results = [_first_reads(_fresh(prefix), k)]
        for version in versions:
            results.append(_first_reads(_fresh(version), k))
        return results

    for i, (ours, theirs) in enumerate(zip(carried(), fresh())):
        assert ours[0].diff(theirs[0]) == (), f"evolution diverges at version {i}"
        assert ours[1].diff(theirs[1]) == (), f"explore diverges at version {i}"
    fresh_timing = measure(fresh, repeats=repeats)
    carried_timing = measure(carried, repeats=repeats)
    row = {
        "n_points": n_points,
        "n_appends": len(updates),
        "n_nodes": graph.n_nodes,
        "n_edges": graph.n_edges,
        "fresh_best_s": fresh_timing.best,
        "carried_best_s": carried_timing.best,
        "speedup": speedup(fresh_timing, carried_timing),
    }
    print(
        f"  carried state ({n_points} points, {graph.n_nodes} nodes, "
        f"{graph.n_edges} edges): fresh {fresh_timing.best:.4f}s "
        f"carried {carried_timing.best:.4f}s speedup {row['speedup']:.2f}x"
    )
    return row


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny dataset and one repeat (CI); waives the speedup gate",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent
        / "BENCH_streaming.json",
        help="where to write the JSON report",
    )
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--scale", type=float, default=None)
    args = parser.parse_args(argv)
    args.output = args.output.expanduser().resolve()

    if args.smoke:
        scale = args.scale or 0.01
        repeats = args.repeats or 1
    else:
        scale = args.scale or 0.05
        repeats = args.repeats or 3

    graph = generate_dblp(scale=scale)
    initial, updates = split_history(graph)
    print(
        f"streaming (dblp @ scale {scale}: {len(graph.nodes)} nodes, "
        f"{len(updates)} appends):"
    )
    appends_row = bench_appends(initial, updates, repeats)
    rows = bench_views(initial, grown_graphs(initial, updates), updates, repeats)
    carried_row = bench_carried_state(
        CARRIED_POINTS_SMOKE if args.smoke else CARRIED_POINTS,
        0.01 if args.smoke else 0.02,
        repeats,
    )

    report = {
        "meta": {
            "smoke": args.smoke,
            "repeats": repeats,
            "scale": scale,
            "dataset": "dblp",
            "n_appends": len(updates),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "gate": GATE,
            "cpu_count": os.cpu_count(),
        },
        "ingestion": appends_row,
        "speedups": rows,
        "carried_state": carried_row,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")

    if carried_row["carried_best_s"] > carried_row["fresh_best_s"]:
        print("WARNING: carried derived state is slower than a fresh rebuild")
        return 1
    if args.smoke:
        # Smoke timelines are too short for maintenance to pay off;
        # only the full-size run says anything about the gate.
        return 0
    worst = min(row["speedup"] for row in rows)
    if worst < GATE:
        print(
            f"WARNING: slowest delta path is {worst:.2f}x recompute, "
            f"below the {GATE}x gate"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
