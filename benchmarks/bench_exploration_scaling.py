"""Exploration kernel vs. per-step chain walk scaling benchmark.

Measures what the frontier-batched exploration kernel behind
:func:`~repro.exploration.explore` buys over the simplest alternative,
the per-step :class:`~repro.exploration.ChainEvaluator` walk
(:func:`repro.testing.reference_explore`, one Python ``ChainStep`` per
evaluated pair), and over the seed's naive per-pair re-reduction:

* **synthetic scaling** — pruned ``explore`` on growing synthetic
  timelines: kernel (``new``) vs. the incremental per-step walk
  (``old``), plus the naive walk (``naive_best_s``);
* **varying-attribute fallback** — the vectorized tuple-code appearance
  counting vs. a faithful reimplementation of the seed's nested Python
  loop, driven through identical chain walks;
* **paper configurations** — the Figure 13 (MovieLens) and Figure 14
  (DBLP) exploration cases at their Section-3.5 thresholds, kernel vs.
  the incremental and naive walks;
* **time-varying DBLP** — ``EventCounter`` construction and one
  ``explore`` by ``publications`` for nodes and edges, recorded without
  a gate.

Gates: the kernel is at least as fast as the per-step walk on every
synthetic and paper row (:data:`KERNEL_GATE`), and the best 50+-point
synthetic row is at least :data:`LONG_TIMELINE_GATE` times the walk.

Results land in ``BENCH_explore.json`` (see ``docs/benchmarks.md``).
Run directly::

    PYTHONPATH=src python benchmarks/bench_exploration_scaling.py [--smoke]

``--smoke`` shrinks every dataset so CI finishes in seconds; the
checked-in JSON comes from a full run.  This file is a script, not a
pytest-benchmark module — pytest collects nothing from it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.bench import measure, speedup
from repro.datasets import (
    EvolvingGraphConfig,
    StaticAttributeSpec,
    VaryingAttributeSpec,
    generate_dblp,
    generate_evolving_graph,
    generate_movielens,
)
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
from repro.testing import reference_explore
from repro.testing.reference_explore import seed_appearance_count

FF = (("f",), ("f",))
#: The kernel must never lose to the per-step walk it replaced.
KERNEL_GATE = 1.0
#: Best kernel-over-walk speedup required on a 50+-point timeline.
LONG_TIMELINE_GATE = 3.0


class _SeedEventCounter(EventCounter):
    """EventCounter with the seed's nested-loop appearance counting.

    The honest "old" baseline for time-varying attributes: one
    ``_node_tuple_table`` call and a Python loop over entities x window
    per count (:func:`repro.testing.reference_explore.seed_appearance_count`).
    """

    def _count_appearances(self, event, old, new, mask):  # type: ignore[override]
        return seed_appearance_count(self, event, old, new, mask)


def synthetic_graph(n_times: int, nodes: int, edges: int, seed: int = 7):
    def level(rng, node_ids, t):
        return (node_ids % 4 + 1).astype(object)

    config = EvolvingGraphConfig(
        times=tuple(range(n_times)),
        node_targets=(nodes,) * n_times,
        edge_targets=(edges,) * n_times,
        node_survival=0.8,
        node_return=0.3,
        edge_repeat=0.5,
        static_attrs=(StaticAttributeSpec("color", ("red", "blue", "green")),),
        varying_attrs=(VaryingAttributeSpec("level", level),),
        seed=seed,
    )
    return generate_evolving_graph(config)


def _drain_chains(counter: EventCounter, incremental: bool) -> int:
    """Consume every extension chain of every reference point — the
    exhaustive exploration workload, stripped of result bookkeeping."""
    total = 0
    for event, semantics, extend in (
        (EventType.STABILITY, Semantics.INTERSECTION, ExtendSide.NEW),
        (EventType.GROWTH, Semantics.UNION, ExtendSide.OLD),
    ):
        evaluator = ChainEvaluator(counter, event, incremental=incremental)
        n_times = len(counter.graph.timeline)
        for reference in range(n_times - 1):
            for step in evaluator.chain(reference, extend, semantics):
                total += step.count
    return total


#: Minimum wall time of one timed batch of calls.
BATCH_S = 0.02
#: The timed arms of every exploration row.
ARMS = ("kernel", "walk", "naive")


def _timed_batch(fn, batch):
    start = time.perf_counter()
    for _ in range(batch):
        result = fn()
    return (time.perf_counter() - start) / batch, result


def _three_arms(run, repeats):
    """Time the kernel, the incremental walk and the naive walk of one
    exploration call; ``run(arm)`` takes an :data:`ARMS` name.

    Each arm's time is its best per-call mean over ``repeats`` batches
    of calls lasting at least :data:`BATCH_S` (sized from one warm-up
    call), so sub-millisecond calls are not bound by timer resolution.
    The arms' batches interleave, rotating the order every repeat, so a
    noisy spell on the host hits every arm alike.  All three arms must
    report the same result.
    """
    batches = {}
    results = {}
    for arm in ARMS:
        warm, results[arm] = _timed_batch(lambda: run(arm), 1)
        batches[arm] = max(1, int(BATCH_S / max(warm, 1e-6)))
    assert results["kernel"] == results["walk"] == results["naive"]
    best = dict.fromkeys(ARMS, float("inf"))
    for repeat in range(repeats):
        turn = repeat % len(ARMS)
        for arm in ARMS[turn:] + ARMS[:turn]:
            per_call, _ = _timed_batch(lambda: run(arm), batches[arm])
            best[arm] = min(best[arm], per_call)
    kernel = results["kernel"]
    return {
        "old_best_s": best["walk"],
        "new_best_s": best["kernel"],
        "speedup": best["walk"] / best["kernel"],
        "naive_best_s": best["naive"],
        "speedup_vs_naive": best["naive"] / best["kernel"],
        "evaluations": kernel.evaluations,
        "pairs": len(kernel.pairs),
    }


def _explorer(mode, graph, *args, **kwargs):
    if mode == "kernel":
        return explore(graph, *args, **kwargs)
    return reference_explore(graph, *args, incremental=mode == "walk", **kwargs)


def bench_synthetic_scaling(lengths, nodes, edges, repeats):
    rows = []
    for n_times in lengths:
        graph = synthetic_graph(n_times, nodes, edges)
        arms = _three_arms(
            lambda mode: _explorer(
                mode, graph, EventType.STABILITY, Goal.MAXIMAL, ExtendSide.NEW, 1
            ),
            repeats,
        )
        rows.append(
            {
                "workload": "explore",
                "n_times": n_times,
                "n_nodes": graph.n_nodes,
                "n_edges": graph.n_edges,
                **arms,
            }
        )
        print(
            f"  synthetic explore n={n_times:>3}: "
            f"walk {arms['old_best_s'] * 1e3:.3f}ms "
            f"kernel {arms['new_best_s'] * 1e3:.3f}ms speedup {arms['speedup']:.1f}x "
            f"(naive {arms['naive_best_s'] * 1e3:.3f}ms, "
            f"{arms['speedup_vs_naive']:.1f}x)"
        )
    return rows


def bench_varying_fallback(lengths, nodes, edges, repeats):
    rows = []
    for n_times in lengths:
        graph = synthetic_graph(n_times, nodes, edges)
        seed_counter = _SeedEventCounter(graph, attributes=["level"])
        vec_counter = EventCounter(graph, attributes=["level"])
        old = measure(lambda: _drain_chains(seed_counter, False), repeats=repeats)
        new = measure(lambda: _drain_chains(vec_counter, True), repeats=repeats)
        assert new.result == old.result
        rows.append(
            {
                "workload": "chain_counts_varying_attr",
                "n_times": n_times,
                "n_edges": graph.n_edges,
                "old_best_s": old.best,
                "new_best_s": new.best,
                "speedup": speedup(old, new),
            }
        )
        print(
            f"  varying-attr chains n={n_times:>3}: "
            f"old {old.best:.4f}s new {new.best:.4f}s "
            f"speedup {rows[-1]['speedup']:.1f}x"
        )
    return rows


def bench_varying_dblp(graph, repeats):
    """Exploration by DBLP's time-varying ``publications``, nodes and
    edges: ``EventCounter`` construction (the tuple-code build) and one
    stability/maximal/extend-new ``explore`` (construction included).
    Recorded only; no gate binds these rows."""
    rows = []
    for entity in (EntityKind.NODES, EntityKind.EDGES):
        counter = measure(
            lambda: EventCounter(graph, entity=entity, attributes=["publications"]),
            repeats=repeats,
        )
        run = measure(
            lambda: explore(
                graph, EventType.STABILITY, Goal.MAXIMAL, ExtendSide.NEW, 1,
                entity=entity, attributes=["publications"],
            ),
            repeats=repeats,
        )
        rows.append(
            {
                "dataset": "dblp",
                "attribute": "publications",
                "entity": str(entity),
                "case": "stability_maximal",
                "k": 1,
                "n_times": len(graph.timeline),
                "n_nodes": graph.n_nodes,
                "n_edges": graph.n_edges,
                "counter_best_s": counter.best,
                "explore_best_s": run.best,
                "evaluations": run.result.evaluations,
                "pairs": len(run.result.pairs),
            }
        )
        print(
            f"  dblp publications {entity}: counter {counter.best * 1e3:.1f}ms "
            f"explore {run.best * 1e3:.1f}ms"
        )
    return rows


# The Figure 13/14 exploration cases: (name, event, goal, extend, mode).
PAPER_CASES = (
    ("stability_maximal", EventType.STABILITY, Goal.MAXIMAL, ExtendSide.NEW, "max"),
    ("growth_minimal", EventType.GROWTH, Goal.MINIMAL, ExtendSide.NEW, "max"),
    ("shrinkage_minimal", EventType.SHRINKAGE, Goal.MINIMAL, ExtendSide.OLD, "min"),
)


def bench_paper_configs(dataset, graph, repeats):
    rows = []
    for name, event, goal, extend, mode in PAPER_CASES:
        k = suggest_threshold(
            graph, event, mode, attributes=["gender"], key=FF
        )
        arms = _three_arms(
            lambda arm: _explorer(
                arm, graph, event, goal, extend, k, attributes=["gender"], key=FF
            ),
            repeats,
        )
        rows.append(
            {
                "dataset": dataset,
                "case": name,
                "k": k,
                "n_times": len(graph.timeline),
                "n_edges": graph.n_edges,
                **arms,
            }
        )
        print(
            f"  {dataset} {name:>18} k={k:>4}: walk {arms['old_best_s'] * 1e3:.3f}ms "
            f"kernel {arms['new_best_s'] * 1e3:.3f}ms speedup {arms['speedup']:.1f}x "
            f"(naive {arms['naive_best_s'] * 1e3:.3f}ms)"
        )
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny datasets and one repeat (CI)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_explore.json",
        help="where to write the JSON report",
    )
    parser.add_argument("--repeats", type=int, default=None)
    args = parser.parse_args(argv)
    # A relative --output must mean "relative to where the run started",
    # even if dataset generation or a harness chdirs before the write.
    args.output = args.output.expanduser().resolve()

    if args.smoke:
        lengths, nodes, edges = [8, 12], 80, 160
        varying_lengths = [8, 12]
        ml_scale, dblp_scale = 0.02, 0.01
        varying_dblp_scale = 0.01
        repeats = args.repeats or 1
    else:
        lengths, nodes, edges = [12, 25, 50, 60, 90], 300, 600
        varying_lengths = [12, 25]
        ml_scale, dblp_scale = 0.05, 0.02
        varying_dblp_scale = 0.25
        repeats = args.repeats or 7

    print("synthetic scaling (static path):")
    synthetic = bench_synthetic_scaling(lengths, nodes, edges, repeats)
    print("varying-attribute fallback (tuple codes vs nested loop):")
    varying = bench_varying_fallback(varying_lengths, nodes, edges, repeats)
    print("paper exploration configurations:")
    movielens = bench_paper_configs(
        "movielens", generate_movielens(scale=ml_scale), repeats
    )
    dblp = bench_paper_configs("dblp", generate_dblp(scale=dblp_scale), repeats)
    print("time-varying exploration (DBLP publications, recorded only):")
    varying_dblp = bench_varying_dblp(
        generate_dblp(scale=varying_dblp_scale), min(repeats, 3)
    )

    report = {
        "meta": {
            "smoke": args.smoke,
            "repeats": repeats,
            "cpu_count": os.cpu_count(),
            "kernel_gate": KERNEL_GATE,
            "long_timeline_gate": LONG_TIMELINE_GATE,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "synthetic_size": {"nodes_per_t": nodes, "edges_per_t": edges},
            "movielens_scale": ml_scale,
            "dblp_scale": dblp_scale,
            "varying_dblp_scale": varying_dblp_scale,
        },
        "synthetic_scaling": synthetic,
        "varying_fallback": varying,
        "paper_configs": movielens + dblp,
        "varying_dblp": varying_dblp,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")

    status = 0
    # Smoke sizes run in well under a millisecond, where the kernel's
    # fixed per-call cost dominates; the gates bind on full runs.
    for row in [] if args.smoke else synthetic + movielens + dblp:
        if row["speedup"] < KERNEL_GATE:
            where = row.get("case", row.get("workload"))
            print(
                f"WARNING: kernel loses to the per-step walk on {where} "
                f"(n_times={row['n_times']}): {row['speedup']:.2f}x"
            )
            status = 1
    best_long = max(
        (r["speedup"] for r in synthetic if r["n_times"] >= 50),
        default=None,
    )
    if best_long is not None and best_long < LONG_TIMELINE_GATE:
        print(
            f"WARNING: best 50+-point speedup {best_long:.1f}x is below "
            f"{LONG_TIMELINE_GATE:.0f}x"
        )
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
