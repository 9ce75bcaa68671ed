"""Differential laws: every engine/store/strategy variant must agree.

The repo deliberately keeps several independently-optimized code paths
per operation — the literal Algorithm 2 transcription vs the vectorized
engine, fresh aggregation vs the cube's derivation routes, the exploration
kernel vs the per-step chain walk.  These laws run one random workload
through *all* variants and diff the results bit-exactly (via the ``diff`` hooks
on :class:`~repro.core.AggregateGraph` and
:class:`~repro.exploration.explore.ExplorationResult`).  On hostile
graphs the engines must also *fail* identically: same taxonomy error
type from every variant.

Importing this module registers the laws; :mod:`repro.testing`'s
``__init__`` does so eagerly.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

import numpy as np

from ..core import (
    MEASURES,
    Interval,
    TemporalGraph,
    aggregate,
    aggregate_edge_measure,
    aggregate_evolution,
    aggregate_measure,
    presence_signature,
)
from ..errors import GraphTempoError
from ..exploration.events import EntityKind, EventCounter, EventType, event_mask_from
from ..exploration.explore import (
    ExplorationResult,
    ExtendSide,
    Goal,
    exhaustive_explore,
    explore,
)
from ..obs.metrics import get_metrics
from ..olap.cube import ROUTE_EXACT, ROUTE_ROLLUP, ROUTE_TIME_SUM, TemporalGraphCube
from ..streaming import AggregateTotalsView, StreamingStore
from .algorithm2 import aggregate_evolution_reference, aggregation_engines
from ..exploration.lattice import Semantics, Side
from .generators import random_time_sets
from .laws import register_law
from .reference_explore import reference_explore, seed_appearance_count
from .reference_measures import (
    measure_diff,
    numeric_attributes,
    reference_edge_measure,
    reference_measure,
    with_random_measures,
)

__all__ = ["DIFFERENTIAL_LAW_NAMES"]

#: Names of the laws this module registers, in registration order.
DIFFERENTIAL_LAW_NAMES = (
    "engines-agree",
    "evolution-engines-agree",
    "union-store-agrees",
    "incremental-replay-agrees",
    "exploration-variants-agree",
    "serving-cache-transparency",
    "backend-storage",
    "measures-engines-agree",
    "exploration-varying-counts-match-seed",
)


def _pick_attributes(
    rng: np.random.Generator, graph: TemporalGraph, static_only: bool = False
) -> list[str]:
    names = [
        a
        for a in graph.attribute_names
        if not static_only or graph.is_static(a)
    ]
    if not names:
        return []
    order = rng.permutation(len(names))
    k = int(rng.integers(1, len(names) + 1))
    return [names[i] for i in order[:k]]


@register_law(
    "engines-agree",
    "all aggregation engines return identical aggregates — or raise the "
    "same taxonomy error",
)
def _engines_agree(graph: TemporalGraph, rng: np.random.Generator) -> str | None:
    attrs = _pick_attributes(rng, graph)
    distinct = bool(rng.integers(2))
    times = (
        None
        if rng.integers(2)
        else random_time_sets(rng, graph, n=1, hostile=bool(rng.integers(2)))[0]
    )
    results = {}
    errors = {}
    for name, engine in aggregation_engines().items():
        try:
            results[name] = engine(graph, attrs, distinct=distinct, times=times)
        except GraphTempoError as exc:
            errors[name] = type(exc).__name__
    if errors and results:
        return (
            f"engines split on {attrs!r}/{times!r}: {sorted(errors)} raised "
            f"{sorted(set(errors.values()))}, {sorted(results)} returned"
        )
    if errors:
        if len(set(errors.values())) != 1:
            return f"engines raised different error types: {errors!r}"
        return None
    names = sorted(results)
    baseline = results[names[0]]
    for other in names[1:]:
        problems = baseline.diff(results[other])
        if problems:
            return (
                f"{names[0]} vs {other} on {attrs!r}/{times!r}: {problems[0]}"
            )
    return None


@register_law(
    "evolution-engines-agree",
    "the vectorized evolution aggregate equals the set-based reference; "
    "dangling edges are skipped, never raised on",
)
def _evolution_engines_agree(
    graph: TemporalGraph, rng: np.random.Generator
) -> str | None:
    attrs = _pick_attributes(rng, graph)
    if not attrs:
        return None
    old, new = random_time_sets(rng, graph, n=2, hostile=bool(rng.integers(2)))
    try:
        vectorized = aggregate_evolution(graph, old, new, attrs)
    except GraphTempoError as exc:
        return (
            f"aggregate_evolution raised {type(exc).__name__} on "
            f"{attrs!r}/{old!r}/{new!r}: {exc}"
        )
    reference = aggregate_evolution_reference(graph, old, new, attrs)
    problems = vectorized.diff(reference)
    if problems:
        return (
            f"vectorized vs reference evolution on {attrs!r}/{old!r}/{new!r}: "
            f"{problems[0]}"
        )
    return None


@register_law(
    "union-store-agrees",
    "the cube's time_sum route over warm per-point cuboids equals fresh "
    "ALL aggregation, and one-point DIST/ALL roll-ups from a cached "
    "superset equal fresh aggregates",
    hostile_safe=False,
)
def _union_store_agrees(
    graph: TemporalGraph, rng: np.random.Generator
) -> str | None:
    picked = set(_pick_attributes(rng, graph))
    attrs = [a for a in graph.attribute_names if a in picked]  # cube order
    window = random_time_sets(rng, graph, n=1, hostile=True)[0]
    cube = TemporalGraphCube(graph)
    cube.materialize(attrs, times=window, per_time_point=True)
    expected = ROUTE_TIME_SUM if len(set(window)) > 1 else ROUTE_EXACT
    route = cube.plan_routes(attrs, times=window)[0]
    if route.kind != expected:
        return f"warm per-point cuboids planned {route.describe()}, not {expected}"
    derived = cube.execute_route(route)
    fresh = aggregate(graph, attrs, distinct=False, times=window)
    problems = derived.diff(fresh)
    if problems:
        return f"time_sum derivation diverges over {window!r}: {problems[0]}"
    subset = attrs if len(attrs) < len(cube.dimensions) else attrs[:-1]
    if not subset:
        return None
    point = (window[int(rng.integers(len(window)))],)
    rolled = TemporalGraphCube(graph)
    for distinct in (True, False):
        rolled.materialize(cube.dimensions, times=point, distinct=distinct)
        route = rolled.plan_routes(subset, times=point, distinct=distinct)[0]
        if route.kind != ROUTE_ROLLUP:
            return f"cached superset planned {route.describe()}, not rollup"
        derived = rolled.execute_route(route)
        fresh = aggregate(graph, subset, distinct=distinct, times=point)
        problems = derived.diff(fresh)
        if problems:
            return f"rollup derivation diverges at {point!r}: {problems[0]}"
    return None


@register_law(
    "incremental-replay-agrees",
    "replaying the graph's history through a StreamingStore with an "
    "AggregateTotalsView reproduces the whole-graph view and the direct "
    "aggregate",
    hostile_safe=False,
)
def _incremental_replay_agrees(
    graph: TemporalGraph, rng: np.random.Generator
) -> str | None:
    attrs = tuple(_pick_attributes(rng, graph))
    replayed = AggregateTotalsView([attrs])
    store = StreamingStore.from_history(graph, views=[replayed])
    if store.graph.timeline.labels != graph.timeline.labels:
        return (
            f"replayed timeline {store.graph.timeline.labels!r} != "
            f"{graph.timeline.labels!r}"
        )
    if presence_signature(store.graph) != presence_signature(graph):
        return "replayed graph's presence diverges from the original"
    fresh = AggregateTotalsView([attrs])
    StreamingStore(graph, views=[fresh])
    for index in range(len(graph.timeline)):
        problems = replayed.timepoint_aggregate(attrs, index).diff(
            fresh.timepoint_aggregate(attrs, index)
        )
        if problems:
            return f"replayed point {index} diverges: {problems[0]}"
    problems = replayed.union_total(attrs).diff(fresh.union_total(attrs))
    if problems:
        return f"replayed union total diverges: {problems[0]}"
    direct = aggregate(graph, list(attrs), distinct=False)
    problems = fresh.union_total(attrs).diff(direct)
    if problems:
        return f"view union total diverges from direct aggregate: {problems[0]}"
    return None


_EXPLORATION_COUNTERS = (
    "exploration.runs",
    "exploration.chains",
    "exploration.chain_steps",
    "exploration.pruned_steps",
)


def _counted(
    run: Callable[[], ExplorationResult],
) -> tuple[ExplorationResult, tuple[int, ...]]:
    """Run one explorer; return its result and ``exploration.*`` deltas."""
    metrics = get_metrics()
    before = [metrics.counter(name) for name in _EXPLORATION_COUNTERS]
    result = run()
    after = [metrics.counter(name) for name in _EXPLORATION_COUNTERS]
    return result, tuple(b - a for a, b in zip(before, after))


def _kernel_vs_walks(
    graph: TemporalGraph,
    case: tuple[EventType, Goal, ExtendSide, int],
    entity: EntityKind,
    attrs: list[str],
    key: Any,
) -> str | None:
    """The kernel against the reference walk in both modes: identical
    pairs (in order), counts, ``evaluations`` and counter deltas."""
    kernel, kernel_counts = _counted(
        lambda: explore(graph, *case, entity, attrs, key)
    )
    for incremental in (True, False):
        walk, walk_counts = _counted(
            lambda: reference_explore(
                graph, *case, entity, attrs, key, incremental=incremental
            )
        )
        mode = "incremental" if incremental else "naive"
        where = f"{'/'.join(map(str, case))} {entity} attrs={attrs!r} key={key!r}"
        if kernel.pairs != walk.pairs:
            problems = kernel.diff(walk) or ("same pairs in a different order",)
            return f"kernel vs {mode} walk on {where}: {problems[0]}"
        if kernel.evaluations != walk.evaluations:
            return (
                f"kernel vs {mode} walk on {where}: evaluations "
                f"{kernel.evaluations} != {walk.evaluations}"
            )
        if kernel_counts != walk_counts:
            return (
                f"kernel vs {mode} walk on {where}: counters "
                f"{kernel_counts} != {walk_counts} {_EXPLORATION_COUNTERS}"
            )
    return None


def _random_case(
    rng: np.random.Generator,
) -> tuple[tuple[EventType, Goal, ExtendSide, int], EntityKind]:
    event = tuple(EventType)[int(rng.integers(3))]
    goal = tuple(Goal)[int(rng.integers(2))]
    extend = tuple(ExtendSide)[int(rng.integers(2))]
    entity = EntityKind.EDGES if rng.integers(2) else EntityKind.NODES
    return (event, goal, extend, int(rng.integers(1, 4))), entity


@register_law(
    "exploration-variants-agree",
    "the exploration kernel, the per-step reference walk (incremental and "
    "naive) and exhaustive exploration report the same pairs",
    hostile_safe=False,
)
def _exploration_variants_agree(
    graph: TemporalGraph, rng: np.random.Generator
) -> str | None:
    if len(graph.timeline) < 2:
        return None
    case, entity = _random_case(rng)
    # Monotonicity (which the pruned strategies rely on) holds for
    # mask-sum counts: static attributes only, with or without a key.
    attrs = (
        _pick_attributes(rng, graph, static_only=True)
        if rng.integers(2)
        else []
    )
    key = None
    if attrs and rng.integers(2):
        column = graph.static_attrs.column(attrs[0])
        value = column[int(rng.integers(len(column)))]
        node_key = tuple(
            value if i == 0 else graph.static_attrs.column(a)[0]
            for i, a in enumerate(attrs)
        )
        key = node_key if entity is EntityKind.NODES else (node_key, node_key)
    problem = _kernel_vs_walks(graph, case, entity, attrs, key)
    if problem:
        return problem
    kernel = explore(graph, *case, entity, attrs, key)
    problems = kernel.diff(exhaustive_explore(graph, *case, entity, attrs, key))
    if problems:
        return (
            f"kernel vs exhaustive on {'/'.join(map(str, case))} "
            f"attrs={attrs!r} key={key!r}: {problems[0]}"
        )
    return None


@register_law(
    "exploration-kernel-matches-walk",
    "with any attributes — time-varying included, keyed or not — the "
    "exploration kernel reproduces the per-step walk's pairs, counts, "
    "evaluations and counters, or both raise the same taxonomy error",
)
def _exploration_kernel_matches_walk(
    graph: TemporalGraph, rng: np.random.Generator
) -> str | None:
    case, entity = _random_case(rng)
    attrs = _pick_attributes(rng, graph)
    key = None
    if attrs and rng.integers(2):
        key = _random_key(rng, graph, attrs, entity)
    errors = {}
    for name, run in (
        ("kernel", lambda: explore(graph, *case, entity, attrs, key)),
        ("walk", lambda: reference_explore(graph, *case, entity, attrs, key)),
    ):
        try:
            run()
        except GraphTempoError as exc:
            errors[name] = type(exc).__name__
    if errors:
        if len(errors) != 2 or len(set(errors.values())) != 1:
            return f"explorers split on errors: {errors!r}"
        return None
    return _kernel_vs_walks(graph, case, entity, attrs, key)


def _random_key(
    rng: np.random.Generator,
    graph: TemporalGraph,
    attrs: list[str],
    entity: EntityKind,
) -> Any:
    """A node tuple seen at some present cell — or, one time in four, a
    tuple that never occurs."""
    present = np.argwhere(graph.node_presence.values)
    if not len(present) or rng.integers(4) == 0:
        node_key: tuple[Any, ...] = tuple("never-seen" for _ in attrs)
    else:
        row, col = present[int(rng.integers(len(present)))]
        node_key = tuple(
            graph.static_attrs.values[row, graph.static_attrs.col_position(a)]
            if graph.is_static(a)
            else graph.varying_attrs[a].values[row, col]
            for a in attrs
        )
    return node_key if entity is EntityKind.NODES else (node_key, node_key)


@register_law(
    "backend-storage",
    "every registered storage backend round-trips the graph bit-exactly "
    "and serves identical presence masks, aggregates and taxonomy errors",
)
def _backend_storage(graph: TemporalGraph, rng: np.random.Generator) -> str | None:
    from ..storage import backend_names, get_backend

    variants: dict[str, TemporalGraph] = {}
    for name in backend_names():
        variant = get_backend(name).from_graph(graph).to_graph()
        if presence_signature(variant) != presence_signature(graph):
            return f"backend {name!r} does not round-trip presence bit-exactly"
        variants[name] = variant

    window = random_time_sets(rng, graph, n=1, hostile=bool(rng.integers(2)))[0]
    for entity in ("nodes", "edges"):
        for mode in ("any", "all", "none"):
            masks = {}
            mask_errors = {}
            for name, variant in variants.items():
                try:
                    masks[name] = variant.presence_mask(entity, window, mode)
                except GraphTempoError as exc:
                    mask_errors[name] = type(exc).__name__
            if mask_errors and masks:
                return (
                    f"backends split on {entity}/{mode} mask over {window!r}: "
                    f"{sorted(mask_errors)} raised, {sorted(masks)} returned"
                )
            if mask_errors:
                if len(set(mask_errors.values())) != 1:
                    return (
                        f"backends raised different {entity}/{mode} mask "
                        f"errors: {mask_errors!r}"
                    )
                continue
            names = sorted(masks)
            reference = masks[names[0]]
            for other in names[1:]:
                if not np.array_equal(reference, masks[other]):
                    return (
                        f"{names[0]} vs {other}: {entity}/{mode} mask differs "
                        f"over {window!r}"
                    )

    attrs = _pick_attributes(rng, graph)
    distinct = bool(rng.integers(2))
    times = None if rng.integers(2) else window
    results = {}
    errors = {}
    for name, variant in variants.items():
        try:
            results[name] = aggregate(
                variant, attrs, distinct=distinct, times=times
            )
        except GraphTempoError as exc:
            errors[name] = type(exc).__name__
    if errors and results:
        return (
            f"backends split on aggregate {attrs!r}/{times!r}: "
            f"{sorted(errors)} raised {sorted(set(errors.values()))}, "
            f"{sorted(results)} returned"
        )
    if errors:
        if len(set(errors.values())) != 1:
            return f"backends raised different aggregate errors: {errors!r}"
        return None
    result_names = sorted(results)
    baseline = results[result_names[0]]
    for other in result_names[1:]:
        problems = baseline.diff(results[other])
        if problems:
            return (
                f"{result_names[0]} vs {other} on {attrs!r}/{times!r}: "
                f"{problems[0]}"
            )
    return None


def _served_matches(served: object, naive: object) -> str | None:
    """Bit-exact comparison across the result types queries produce."""
    if isinstance(served, TemporalGraph) and isinstance(naive, TemporalGraph):
        if presence_signature(served) != presence_signature(naive):
            return "served temporal graph's presence diverges"
        return None
    problems = served.diff(naive)  # type: ignore[attr-defined]
    return problems[0] if problems else None


@register_law(
    "serving-cache-transparency",
    "served results (normalizer + planner + result cache + permutation) "
    "are bit-identical to from-scratch evaluation — or raise the same "
    "taxonomy error",
    hostile_safe=False,
)
def _serving_cache_transparency(
    graph: TemporalGraph, rng: np.random.Generator
) -> str | None:
    from ..query.ast import (
        AggregateExpr,
        EvolutionExpr,
        OperatorExpr,
        QueryExpr,
        WindowExpr,
    )
    from ..query.evaluator import evaluate
    from ..serving import QueryServer

    labels = graph.timeline.labels

    def window() -> WindowExpr:
        i = int(rng.integers(len(labels)))
        j = int(rng.integers(len(labels)))
        if rng.integers(2):
            return WindowExpr(labels[i])
        lo, hi = sorted((i, j))
        return WindowExpr(labels[lo], labels[hi])

    def operator() -> OperatorExpr:
        name = ("union", "project", "intersection", "difference")[
            int(rng.integers(4))
        ]
        n = 2 if name in ("intersection", "difference") else int(rng.integers(1, 3))
        return OperatorExpr(name, tuple(window() for _ in range(n)))

    exprs: list[QueryExpr] = []
    for _ in range(3):
        attrs = tuple(_pick_attributes(rng, graph))
        choice = int(rng.integers(3))
        if choice == 0 or not attrs:
            exprs.append(operator())
        elif choice == 1:
            exprs.append(AggregateExpr(attrs, bool(rng.integers(2)), operator()))
        else:
            exprs.append(EvolutionExpr(window(), window(), attrs))
        last = exprs[-1]
        if len(attrs) > 1 and not isinstance(last, OperatorExpr):
            # The same query with the attribute list written in reverse:
            # it shares the canonical cache entry and must still match
            # its own from-scratch evaluation after permutation.
            swapped = tuple(reversed(attrs))
            if isinstance(last, AggregateExpr):
                exprs.append(AggregateExpr(swapped, last.distinct, last.source))
            else:
                exprs.append(EvolutionExpr(last.old, last.new, swapped))

    server = QueryServer(graph)
    for expr in exprs:
        # Twice: first populates the result cache, second must serve the
        # cached entry — both observably identical to naive evaluation.
        for attempt in ("cold", "cached"):
            served_error = naive_error = None
            served = naive = None
            try:
                served = server.serve_expr(expr).result
            except GraphTempoError as exc:
                served_error = type(exc).__name__
            try:
                naive = evaluate(graph, expr)
            except GraphTempoError as exc:
                naive_error = type(exc).__name__
            if served_error or naive_error:
                if served_error != naive_error:
                    return (
                        f"{attempt} serve of {str(expr)!r} raised "
                        f"{served_error!r} but naive evaluation raised "
                        f"{naive_error!r}"
                    )
                continue
            problem = _served_matches(served, naive)
            if problem:
                return f"{attempt} serve of {str(expr)!r} diverges: {problem}"
    return None


def _outcome(run: Callable[[], Any]) -> Any:
    """A call's result, or the name of the taxonomy error it raised."""
    try:
        return run()
    except GraphTempoError as exc:
        return type(exc).__name__


@register_law(
    "measures-engines-agree",
    "aggregate_measure and aggregate_edge_measure on the engine's codes "
    "equal the per-cell reference loops bit-exactly (all reducers, DIST "
    "and ALL, float values, missing values, dangling edges)",
)
def _measures_engines_agree(
    graph: TemporalGraph, rng: np.random.Generator
) -> str | None:
    measured, score, weight = with_random_measures(graph, rng)
    candidates = numeric_attributes(measured)
    target = candidates[int(rng.integers(len(candidates)))]
    attrs = [a for a in _pick_attributes(rng, measured) if a != target]
    if rng.integers(4) == 0:
        attrs = []
    times = (
        None
        if rng.integers(2)
        else random_time_sets(rng, graph, n=1, hostile=bool(rng.integers(2)))[0]
    )
    for distinct in (True, False):
        for measure in MEASURES:
            for name, engine, reference, attribute in (
                ("aggregate_measure", aggregate_measure, reference_measure, target),
                (
                    "aggregate_edge_measure",
                    aggregate_edge_measure,
                    reference_edge_measure,
                    weight,
                ),
            ):
                args = (measured, attrs, attribute, measure, distinct, times)
                ours = _outcome(lambda: engine(*args))
                theirs = _outcome(lambda: reference(*args))
                where = (
                    f"{name} {measure}({attribute}) by {attrs!r} "
                    f"distinct={distinct} times={times!r}"
                )
                if isinstance(ours, str) or isinstance(theirs, str):
                    if ours != theirs:
                        return f"{where}: engine {ours!r} vs reference {theirs!r}"
                    continue
                problems = measure_diff(ours, theirs)
                if problems:
                    return f"{where}: {problems[0]}"
    return None


def _random_side(rng: np.random.Generator, n_times: int) -> Side:
    start, stop = sorted(int(i) for i in rng.integers(n_times, size=2))
    return Side(Interval(start, stop), tuple(Semantics)[int(rng.integers(2))])


@register_law(
    "exploration-varying-counts-match-seed",
    "with a time-varying attribute, EventCounter's code-based counts equal "
    "the seed's nested-loop count for nodes and edges, keyed (including a "
    "never-seen key) and unkeyed",
    hostile_safe=False,
)
def _exploration_varying_counts_match_seed(
    graph: TemporalGraph, rng: np.random.Generator
) -> str | None:
    varying = graph.varying_attribute_names
    if not varying:
        return None
    attrs = _pick_attributes(rng, graph)
    if not any(a in varying for a in attrs):
        attrs.append(varying[int(rng.integers(len(varying)))])
    n_times = len(graph.timeline)
    for entity in EntityKind:
        frame = (
            graph.node_presence if entity is EntityKind.NODES else graph.edge_presence
        )
        presence = frame.values.astype(bool)

        def qualify(side: Side) -> np.ndarray:
            window = presence[:, side.interval.start : side.interval.stop + 1]
            if side.semantics is Semantics.UNION:
                return window.any(axis=1)
            return window.all(axis=1)

        never = tuple("never-seen" for _ in attrs)
        seen = [_random_key(rng, graph, attrs, EntityKind.NODES) for _ in "st"]
        for key in (
            None,
            seen[0] if entity is EntityKind.NODES else tuple(seen),
            never if entity is EntityKind.NODES else (seen[0], never),
        ):
            counter = EventCounter(graph, entity=entity, attributes=attrs, key=key)
            for _ in range(3):
                old, new = _random_side(rng, n_times), _random_side(rng, n_times)
                for event in EventType:
                    mask = event_mask_from(event, qualify(old), qualify(new))
                    got = counter.count(event, old, new)
                    want = seed_appearance_count(counter, event, old, new, mask)
                    if got != want:
                        return (
                            f"{event} {entity} attrs={attrs!r} key={key!r} "
                            f"{old}/{new}: codes count {got} != seed {want}"
                        )
    return None
