"""The metamorphic-law registry.

Each :class:`Law` encodes one identity the paper's algebra promises —
operator laws over time sets (Definitions 2.2-2.5), DIST/ALL aggregation
relations (Definition 2.6), evolution-graph consistency (Definition 2.7,
Fig. 4b), semi-lattice monotonicity (Section 3) and granularity/rollup
equalities (Section 4.3).  A law's ``check`` receives a random graph and
a dedicated RNG (for picking windows, attributes and thresholds) and
returns ``None`` on success or a human-readable violation message.

Laws marked ``hostile_safe=False`` assume a well-formed graph and are
skipped on hostile inputs (dangling edges); the differential laws in
:mod:`repro.testing.oracle` cover hostility by asserting that every
engine rejects it identically.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..core import (
    MEASURES,
    Interval,
    TemporalGraph,
    TimeHierarchy,
    aggregate,
    aggregate_edge_measure,
    aggregate_evolution,
    aggregate_measure,
    coarsen,
    difference,
    intersection,
    ordered_times,
    presence_signature,
    project,
    union,
)
from ..core.evolution import EvolutionWeights
from ..core.updates import SnapshotUpdate, append_snapshot, split_history
from ..errors import ConfigurationError
from ..frames import LabeledFrame
from ..exploration.events import ChainEvaluator, EntityKind, EventCounter, EventType
from ..exploration.lattice import ExtendSide, Semantics, Side
from ..streaming import (
    AggregateTotalsView,
    EvolutionView,
    ExplorationView,
    StreamingStore,
)
from .asserts import carried_state_problem
from .generators import graph_to_maps, random_time_sets
from .reference_measures import measure_diff, with_random_measures

__all__ = ["Law", "register_law", "law_registry", "get_laws"]

CheckFn = Callable[[TemporalGraph, np.random.Generator], "str | None"]


@dataclass(frozen=True)
class Law:
    """One registered algebraic identity."""

    name: str
    description: str
    check: CheckFn
    hostile_safe: bool = True


_REGISTRY: dict[str, Law] = {}


def register_law(
    name: str, description: str, hostile_safe: bool = True
) -> Callable[[CheckFn], CheckFn]:
    """Decorator registering a check function as a named law."""

    def wrap(check: CheckFn) -> CheckFn:
        if name in _REGISTRY:
            raise ConfigurationError(f"law {name!r} is already registered")
        _REGISTRY[name] = Law(name, description, check, hostile_safe)
        return check

    return wrap


def law_registry() -> dict[str, Law]:
    """A copy of the full registry (name -> law), registration order."""
    return dict(_REGISTRY)


def get_laws(names: Sequence[str] | None = None) -> tuple[Law, ...]:
    """Resolve law names (``None`` = every registered law)."""
    if names is None:
        return tuple(_REGISTRY.values())
    missing = [n for n in names if n not in _REGISTRY]
    if missing:
        raise ConfigurationError(
            f"unknown laws {missing!r}; known: {sorted(_REGISTRY)}"
        )
    return tuple(_REGISTRY[n] for n in names)


# ----------------------------------------------------------------------
# Shared pickers
# ----------------------------------------------------------------------


def _one_window(rng: np.random.Generator, graph: TemporalGraph) -> tuple:
    return random_time_sets(rng, graph, n=1)[0]


def _some_attributes(
    rng: np.random.Generator, graph: TemporalGraph
) -> list[str]:
    names = list(graph.attribute_names)
    order = rng.permutation(len(names))
    k = int(rng.integers(1, len(names) + 1))
    return [names[i] for i in order[:k]]


def _random_point(rng: np.random.Generator, graph: TemporalGraph):
    labels = graph.timeline.labels
    return labels[int(rng.integers(len(labels)))]


def _entity_sets(graph: TemporalGraph) -> tuple[set, set]:
    return set(graph.nodes), set(graph.edges)


# ----------------------------------------------------------------------
# Operator laws (Definitions 2.2-2.5)
# ----------------------------------------------------------------------


@register_law(
    "union-idempotent",
    "union(T, T) is the same graph as union(T) (Definition 2.3)",
)
def _union_idempotent(graph: TemporalGraph, rng: np.random.Generator) -> str | None:
    window = _one_window(rng, graph)
    a = presence_signature(union(graph, window, window))
    b = presence_signature(union(graph, window))
    if a != b:
        return f"union(T, T) != union(T) over {window!r}"
    return None


@register_law(
    "union-commutes",
    "union(T1, T2) == union(T2, T1) (Definition 2.3)",
)
def _union_commutes(graph: TemporalGraph, rng: np.random.Generator) -> str | None:
    w1, w2 = random_time_sets(rng, graph, n=2)
    if presence_signature(union(graph, w1, w2)) != presence_signature(
        union(graph, w2, w1)
    ):
        return f"union not commutative over {w1!r}, {w2!r}"
    return None


@register_law(
    "intersection-commutes",
    "intersection(T1, T2) == intersection(T2, T1) (Definition 2.4)",
)
def _intersection_commutes(
    graph: TemporalGraph, rng: np.random.Generator
) -> str | None:
    w1, w2 = random_time_sets(rng, graph, n=2)
    if presence_signature(intersection(graph, w1, w2)) != presence_signature(
        intersection(graph, w2, w1)
    ):
        return f"intersection not commutative over {w1!r}, {w2!r}"
    return None


@register_law(
    "intersection-within-union",
    "entities of the intersection graph are a subset of the union graph's",
)
def _intersection_within_union(
    graph: TemporalGraph, rng: np.random.Generator
) -> str | None:
    w1, w2 = random_time_sets(rng, graph, n=2)
    inter_nodes, inter_edges = _entity_sets(intersection(graph, w1, w2))
    union_nodes, union_edges = _entity_sets(union(graph, w1, w2))
    if not inter_nodes <= union_nodes:
        return f"intersection nodes escape the union: {inter_nodes - union_nodes!r}"
    if not inter_edges <= union_edges:
        return f"intersection edges escape the union: {inter_edges - union_edges!r}"
    return None


@register_law(
    "projection-within-intersection",
    "project(T1 | T2) entities are a subset of intersection(T1, T2)'s",
)
def _projection_within_intersection(
    graph: TemporalGraph, rng: np.random.Generator
) -> str | None:
    w1, w2 = random_time_sets(rng, graph, n=2)
    window = ordered_times(graph, w1, w2)
    proj_nodes, proj_edges = _entity_sets(project(graph, window))
    inter_nodes, inter_edges = _entity_sets(intersection(graph, w1, w2))
    if not proj_nodes <= inter_nodes:
        return f"projected nodes escape the intersection: {proj_nodes - inter_nodes!r}"
    if not proj_edges <= inter_edges:
        return f"projected edges escape the intersection: {proj_edges - inter_edges!r}"
    return None


@register_law(
    "difference-disjoint",
    "T1-T2, T2-T1 and the intersection have pairwise disjoint edge sets",
)
def _difference_disjoint(
    graph: TemporalGraph, rng: np.random.Generator
) -> str | None:
    w1, w2 = random_time_sets(rng, graph, n=2)
    d12 = set(difference(graph, w1, w2).edges)
    d21 = set(difference(graph, w2, w1).edges)
    both = set(intersection(graph, w1, w2).edges)
    overlaps = (d12 & d21) | (d12 & both) | (d21 & both)
    if overlaps:
        return f"edge sets not pairwise disjoint: {sorted(overlaps)!r}"
    return None


@register_law(
    "union-partition",
    "union edges = intersection edges + (T1-T2) edges + (T2-T1) edges",
)
def _union_partition(graph: TemporalGraph, rng: np.random.Generator) -> str | None:
    w1, w2 = random_time_sets(rng, graph, n=2)
    whole = set(union(graph, w1, w2).edges)
    parts = (
        set(intersection(graph, w1, w2).edges)
        | set(difference(graph, w1, w2).edges)
        | set(difference(graph, w2, w1).edges)
    )
    if whole != parts:
        return (
            f"union edges {sorted(whole ^ parts)!r} not covered exactly by "
            "the three-way partition"
        )
    return None


# ----------------------------------------------------------------------
# Aggregation laws (Definition 2.6, Section 4.3)
# ----------------------------------------------------------------------


@register_law(
    "distinct-le-all",
    "every DIST weight is bounded by its ALL weight (Definition 2.6)",
    hostile_safe=False,
)
def _distinct_le_all(graph: TemporalGraph, rng: np.random.Generator) -> str | None:
    attrs = _some_attributes(rng, graph)
    window = _one_window(rng, graph)
    dist = aggregate(graph, attrs, distinct=True, times=window)
    full = aggregate(graph, attrs, distinct=False, times=window)
    for kind, ours, theirs in (
        ("node", dist.node_weights, full.node_weights),
        ("edge", dist.edge_weights, full.edge_weights),
    ):
        for key, weight in ours.items():
            if weight > theirs.get(key, 0):  # type: ignore[call-overload]
                return (
                    f"{kind} {key!r}: DIST {weight} exceeds "
                    f"ALL {theirs.get(key, 0)}"  # type: ignore[call-overload]
                )
    return None


@register_law(
    "single-point-dist-equals-all",
    "at one time point DIST and ALL aggregation coincide",
    hostile_safe=False,
)
def _single_point_dist_equals_all(
    graph: TemporalGraph, rng: np.random.Generator
) -> str | None:
    attrs = _some_attributes(rng, graph)
    point = [_random_point(rng, graph)]
    dist = aggregate(graph, attrs, distinct=True, times=point)
    full = aggregate(graph, attrs, distinct=False, times=point)
    if dict(dist.node_weights) != dict(full.node_weights):
        return f"node weights differ at single point {point!r}"
    if dict(dist.edge_weights) != dict(full.edge_weights):
        return f"edge weights differ at single point {point!r}"
    return None


@register_law(
    "all-sums-over-points",
    "ALL aggregation over a window is the pointwise sum of its points "
    "(T-distributivity, Section 4.3)",
    hostile_safe=False,
)
def _all_sums_over_points(
    graph: TemporalGraph, rng: np.random.Generator
) -> str | None:
    attrs = _some_attributes(rng, graph)
    window = _one_window(rng, graph)
    whole = aggregate(graph, attrs, distinct=False, times=window)
    total = None
    for t in window:
        point = aggregate(graph, attrs, distinct=False, times=[t])
        total = point if total is None else total.combine(point)
    assert total is not None
    problems = whole.diff(total)
    if problems:
        return f"pointwise sums diverge over {window!r}: {problems[0]}"
    return None


@register_law(
    "attribute-permutation",
    "permuting the attribute list permutes keys without changing weights",
    hostile_safe=False,
)
def _attribute_permutation(
    graph: TemporalGraph, rng: np.random.Generator
) -> str | None:
    names = list(graph.attribute_names)
    if len(names) < 2:
        return None
    attrs = _some_attributes(rng, graph)
    if len(attrs) < 2:
        attrs = names[:2]
    perm = [attrs[i] for i in rng.permutation(len(attrs))]
    if perm == attrs:
        perm = list(reversed(attrs))
    distinct = bool(rng.integers(2))
    window = _one_window(rng, graph)
    base = aggregate(graph, attrs, distinct=distinct, times=window)
    permuted = aggregate(graph, perm, distinct=distinct, times=window)
    positions = [attrs.index(p) for p in perm]

    def remap(key: tuple) -> tuple:
        return tuple(key[p] for p in positions)

    expected_nodes = {remap(k): w for k, w in base.node_weights.items()}
    if expected_nodes != dict(permuted.node_weights):
        return f"node weights not permutation-covariant for {perm!r}"
    expected_edges = {
        (remap(s), remap(t)): w for (s, t), w in base.edge_weights.items()
    }
    if expected_edges != dict(permuted.edge_weights):
        return f"edge weights not permutation-covariant for {perm!r}"
    return None


@register_law(
    "duplicate-times-invariant",
    "duplicated/unordered time arguments normalize to the same result "
    "(operators, aggregates and measures)",
    hostile_safe=False,
)
def _duplicate_times_invariant(
    graph: TemporalGraph, rng: np.random.Generator
) -> str | None:
    hostile = random_time_sets(rng, graph, n=1, hostile=True)[0]
    normalized = ordered_times(graph, hostile)
    if presence_signature(union(graph, hostile)) != presence_signature(
        union(graph, normalized)
    ):
        return f"union differs for duplicated times {hostile!r}"
    attrs = _some_attributes(rng, graph)
    distinct = bool(rng.integers(2))
    problems = aggregate(graph, attrs, distinct=distinct, times=hostile).diff(
        aggregate(graph, attrs, distinct=distinct, times=normalized)
    )
    if problems:
        return f"aggregate differs for duplicated times {hostile!r}: {problems[0]}"
    measured, score, weight = with_random_measures(graph, rng)
    measure = sorted(MEASURES)[int(rng.integers(len(MEASURES)))]
    for name, engine, attribute in (
        ("aggregate_measure", aggregate_measure, score),
        ("aggregate_edge_measure", aggregate_edge_measure, weight),
    ):
        problems = measure_diff(
            engine(measured, attrs, attribute, measure, distinct, hostile),
            engine(measured, attrs, attribute, measure, distinct, normalized),
        )
        if problems:
            return (
                f"{name} {measure} differs for duplicated times {hostile!r}: "
                f"{problems[0]}"
            )
    return None


@register_law(
    "aggregate-union-in-place",
    "aggregating the union graph equals aggregating in place over T1 | T2",
    hostile_safe=False,
)
def _aggregate_union_in_place(
    graph: TemporalGraph, rng: np.random.Generator
) -> str | None:
    w1, w2 = random_time_sets(rng, graph, n=2)
    window = ordered_times(graph, w1, w2)
    attrs = _some_attributes(rng, graph)
    distinct = bool(rng.integers(2))
    on_union = aggregate(union(graph, w1, w2), attrs, distinct=distinct)
    in_place = aggregate(graph, attrs, distinct=distinct, times=window)
    problems = on_union.diff(in_place)
    if problems:
        return f"union-graph aggregation diverges over {window!r}: {problems[0]}"
    return None


@register_law(
    "aggregate-project-point",
    "aggregating the single-point projection equals aggregating that point",
    hostile_safe=False,
)
def _aggregate_project_point(
    graph: TemporalGraph, rng: np.random.Generator
) -> str | None:
    point = _random_point(rng, graph)
    attrs = _some_attributes(rng, graph)
    distinct = bool(rng.integers(2))
    projected = aggregate(project(graph, [point]), attrs, distinct=distinct)
    in_place = aggregate(graph, attrs, distinct=distinct, times=[point])
    problems = projected.diff(in_place)
    if problems:
        return f"projection aggregation diverges at {point!r}: {problems[0]}"
    return None


# ----------------------------------------------------------------------
# Evolution laws (Definition 2.7, Fig. 4b)
# ----------------------------------------------------------------------


@register_law(
    "evolution-partition",
    "stability+shrinkage recovers the old window's DIST aggregate, "
    "stability+growth the new one's",
    hostile_safe=False,
)
def _evolution_partition(
    graph: TemporalGraph, rng: np.random.Generator
) -> str | None:
    attrs = _some_attributes(rng, graph)
    old, new = random_time_sets(rng, graph, n=2)
    ev = aggregate_evolution(graph, old, new, attrs)
    for window, pick in ((old, "shrinkage"), (new, "growth")):
        dist = aggregate(graph, attrs, distinct=True, times=window)
        keys = set(ev.node_weights) | set(dist.node_weights)
        for key in keys:
            weights = ev.node(key)
            expected = dist.node_weights.get(key, 0)  # type: ignore[call-overload]
            got = weights.stability + getattr(weights, pick)
            if got != expected:
                return (
                    f"node {key!r}: stability+{pick}={got} but DIST over "
                    f"{window!r} is {expected}"
                )
        edge_keys = set(ev.edge_weights) | set(dist.edge_weights)
        for key in edge_keys:
            weights = ev.edge(key[0], key[1])
            expected = dist.edge_weights.get(key, 0)  # type: ignore[call-overload]
            got = weights.stability + getattr(weights, pick)
            if got != expected:
                return (
                    f"edge {key!r}: stability+{pick}={got} but DIST over "
                    f"{window!r} is {expected}"
                )
    return None


@register_law(
    "evolution-symmetry",
    "swapping the intervals swaps growth and shrinkage, stability fixed",
)
def _evolution_symmetry(
    graph: TemporalGraph, rng: np.random.Generator
) -> str | None:
    attrs = _some_attributes(rng, graph)
    old, new = random_time_sets(rng, graph, n=2)
    forward = aggregate_evolution(graph, old, new, attrs)
    backward = aggregate_evolution(graph, new, old, attrs)
    for kind, ours, theirs in (
        ("node", forward.node_weights, backward.node_weights),
        ("edge", forward.edge_weights, backward.edge_weights),
    ):
        for key in set(ours) | set(theirs):
            a = ours.get(key, EvolutionWeights())  # type: ignore[call-overload]
            b = theirs.get(key, EvolutionWeights())  # type: ignore[call-overload]
            if (a.stability, a.growth, a.shrinkage) != (
                b.stability,
                b.shrinkage,
                b.growth,
            ):
                return f"{kind} {key!r}: {a} is not the mirror of {b}"
    return None


# ----------------------------------------------------------------------
# Exploration laws (Section 3)
# ----------------------------------------------------------------------

#: (event, extend) pairs whose counts are monotone along extension
#: chains: non-decreasing under union semantics, non-increasing under
#: intersection — the Table-1 rows U-/I-Explore pruning relies on.
_MONOTONE_CASES = (
    (EventType.STABILITY, ExtendSide.OLD),
    (EventType.STABILITY, ExtendSide.NEW),
    (EventType.GROWTH, ExtendSide.NEW),
    (EventType.SHRINKAGE, ExtendSide.OLD),
)


@register_law(
    "lattice-monotone",
    "event counts are monotone along semi-lattice extension chains",
)
def _lattice_monotone(graph: TemporalGraph, rng: np.random.Generator) -> str | None:
    n_times = len(graph.timeline)
    if n_times < 2:
        return None
    event, extend = _MONOTONE_CASES[int(rng.integers(len(_MONOTONE_CASES)))]
    entity = (
        EntityKind.NODES if rng.integers(2) else EntityKind.EDGES
    )
    counter = EventCounter(graph, entity=entity)
    evaluator = ChainEvaluator(counter, event, incremental=bool(rng.integers(2)))
    reference = int(rng.integers(n_times - 1))
    for semantics, keep in (
        (Semantics.UNION, lambda prev, cur: cur >= prev),
        (Semantics.INTERSECTION, lambda prev, cur: cur <= prev),
    ):
        counts = [
            step.count for step in evaluator.chain(reference, extend, semantics)
        ]
        for prev, cur in zip(counts, counts[1:]):
            if not keep(prev, cur):
                return (
                    f"{event}/{extend} counts {counts!r} not monotone under "
                    f"{semantics} from reference {reference}"
                )
    return None


@register_law(
    "event-counts-match-operators",
    "event edge counts equal the n_edges of the matching operator graphs",
)
def _event_counts_match_operators(
    graph: TemporalGraph, rng: np.random.Generator
) -> str | None:
    n_times = len(graph.timeline)
    if n_times < 2:
        return None

    def random_side() -> Side:
        start = int(rng.integers(n_times))
        stop = int(rng.integers(start, n_times))
        return Side(Interval(start, stop), Semantics.UNION)

    old, new = random_side(), random_side()
    old_labels = old.labels(graph.timeline)
    new_labels = new.labels(graph.timeline)
    counter = EventCounter(graph, entity=EntityKind.EDGES)
    cases = (
        (EventType.STABILITY, intersection(graph, old_labels, new_labels)),
        (EventType.GROWTH, difference(graph, new_labels, old_labels)),
        (EventType.SHRINKAGE, difference(graph, old_labels, new_labels)),
    )
    for event, operator_graph in cases:
        counted = counter.count(event, old, new)
        if counted != operator_graph.n_edges:
            return (
                f"{event} count {counted} != operator n_edges "
                f"{operator_graph.n_edges} for {old}/{new}"
            )
    node_counter = EventCounter(graph, entity=EntityKind.NODES)
    stable_nodes = node_counter.count(EventType.STABILITY, old, new)
    operator_nodes = intersection(graph, old_labels, new_labels).n_nodes
    if stable_nodes != operator_nodes:
        return (
            f"stability node count {stable_nodes} != intersection n_nodes "
            f"{operator_nodes} for {old}/{new}"
        )
    return None


# ----------------------------------------------------------------------
# Granularity laws (Section 4.2)
# ----------------------------------------------------------------------


@register_law(
    "coarsen-union-consistency",
    "a union-coarsened unit aggregates like its member window",
    hostile_safe=False,
)
def _coarsen_union_consistency(
    graph: TemporalGraph, rng: np.random.Generator
) -> str | None:
    attrs = list(graph.static_attribute_names)
    if not attrs:
        return None
    labels = graph.timeline.labels
    width = int(rng.integers(1, len(labels) + 1))
    hierarchy = TimeHierarchy.regular(labels, width)
    coarse = coarsen(graph, hierarchy, "union")
    units = hierarchy.unit_labels
    unit = units[int(rng.integers(len(units)))]
    on_coarse = aggregate(coarse, attrs, distinct=True, times=[unit])
    on_base = aggregate(
        graph, attrs, distinct=True, times=hierarchy.members(unit)
    )
    if dict(on_coarse.node_weights) != dict(on_base.node_weights):
        return f"unit {unit!r}: coarse node weights diverge from member window"
    if dict(on_coarse.edge_weights) != dict(on_base.edge_weights):
        return f"unit {unit!r}: coarse edge weights diverge from member window"
    return None


# ----------------------------------------------------------------------
# Analyzer self-law: linting is deterministic and read-only
# ----------------------------------------------------------------------


@functools.lru_cache(maxsize=1)
def _lint_determinism_verdict() -> str | None:
    """Lint ``src/repro`` twice; compare violations and file stats.

    Cached so the (comparatively expensive) double pass runs once per
    process no matter how many fuzz cases invoke the law.
    """
    import repro
    from ..lint import lint_paths, load_config

    package_dir = Path(repro.__file__).parent
    pyproject = package_dir.parent.parent / "pyproject.toml"
    config = load_config(pyproject if pyproject.is_file() else None)
    root = package_dir.parent.parent

    def stats() -> dict[str, tuple[int, int]]:
        return {
            str(path): (path.stat().st_mtime_ns, path.stat().st_size)
            for path in sorted(package_dir.rglob("*.py"))
        }

    before = stats()
    first = lint_paths([package_dir], config, root=root)
    second = lint_paths([package_dir], config, root=root)
    after = stats()
    if first != second:
        return (
            f"lint is nondeterministic: {len(first)} violations on the "
            f"first pass, {len(second)} on the second"
        )
    if before != after:
        changed = sorted(
            path for path in before
            if before[path] != after.get(path)
        )
        return f"lint mutated source files: {changed[:3]}"
    return None


@register_law(
    "lint-deterministic-readonly",
    "a lint pass over src/repro is deterministic and mutates no files",
)
def _lint_deterministic_readonly(
    graph: TemporalGraph, rng: np.random.Generator
) -> str | None:
    del graph, rng  # the analyzer's input is the source tree itself
    return _lint_determinism_verdict()


# ----------------------------------------------------------------------
# Streaming replay identity (ROADMAP item 1)
# ----------------------------------------------------------------------


@register_law(
    "streaming-replay-identity",
    "replaying split_history through a StreamingStore rebuilds the graph "
    "bit-exactly, publishes one monotonic version per append, and keeps "
    "delta-maintained totals equal to the direct aggregate",
    hostile_safe=False,
)
def _streaming_replay_identity(
    graph: TemporalGraph, rng: np.random.Generator
) -> str | None:
    attrs = tuple(_some_attributes(rng, graph))
    initial, updates = split_history(graph)
    totals = AggregateTotalsView([attrs])
    store = StreamingStore(initial, views=[totals])
    fired: list[int] = []
    store.on_append(lambda version: fired.append(version.version))
    for update in updates:
        store.append_snapshot(update)
    if graph_to_maps(store.graph) != graph_to_maps(graph):
        return "replayed graph diverges from the original"
    if store.version != len(updates) or fired != list(range(1, len(updates) + 1)):
        return (
            f"append versions not monotonic: latest {store.version}, "
            f"hooks saw {fired!r}"
        )
    direct = aggregate(graph, list(attrs), distinct=False)
    problems = totals.union_total(attrs).diff(direct)
    if problems:
        return f"delta-maintained union total diverges: {problems[0]}"
    # The same frozen updates must replay a second time verbatim — the
    # regression the SnapshotUpdate freeze exists for.
    second = StreamingStore(initial)
    for update in updates:
        second.append_snapshot(update)
    if graph_to_maps(second.graph) != graph_to_maps(store.graph):
        return "second replay of the same updates diverges (updates not frozen?)"
    return None


@register_law(
    "streaming-evolution-delta",
    "an EvolutionView extended one appended point at a time, and one "
    "rebuilt over the appended points, equal the from-scratch evolution "
    "aggregate over the same windows",
    hostile_safe=False,
)
def _streaming_evolution_delta(
    graph: TemporalGraph, rng: np.random.Generator
) -> str | None:
    labels = graph.timeline.labels
    if len(labels) < 2:
        return None
    attrs = _some_attributes(rng, graph)
    split = int(rng.integers(1, len(labels)))
    initial, updates = split_history(graph)
    store = StreamingStore(initial)
    for update in updates[: split - 1]:
        store.append_snapshot(update)
    view = EvolutionView(attrs)
    store.register_view(view)
    for update in updates[split - 1 :]:
        store.append_snapshot(update)
    direct = aggregate_evolution(graph, labels[:split], labels[split:], attrs)
    problems = view.current().diff(direct)
    if problems:
        return (
            f"delta-maintained evolution diverges at split {split}: "
            f"{problems[0]}"
        )
    # A rollback rebuilds over the appended points: same counters.
    view.rebuild(store.graph)
    problems = view.current().diff(direct)
    if problems:
        return f"rebuilt evolution view diverges at split {split}: {problems[0]}"
    return None


@register_law(
    "streaming-exploration-delta",
    "an ExplorationView grown one OR/AND per appended point matches "
    "ChainEvaluator's chain over the final graph, early masks padded for "
    "entities that did not exist yet",
    hostile_safe=False,
)
def _streaming_exploration_delta(
    graph: TemporalGraph, rng: np.random.Generator
) -> str | None:
    labels = graph.timeline.labels
    if len(labels) < 2:
        return None
    event = tuple(EventType)[int(rng.integers(3))]
    semantics = Semantics.UNION if rng.integers(2) else Semantics.INTERSECTION
    entity = EntityKind.EDGES if rng.integers(2) else EntityKind.NODES
    static_names = [a for a in graph.attribute_names if graph.is_static(a)]
    attrs: list[str] = []
    key = None
    if static_names and rng.integers(2):
        attrs = [static_names[int(rng.integers(len(static_names)))]]
        if rng.integers(2):
            column = graph.static_attrs.column(attrs[0])
            value = column[int(rng.integers(len(column)))]
            key = (
                ((value,), (value,))
                if entity is EntityKind.EDGES
                else (value,)
            )
    reference = int(rng.integers(0, len(labels) - 1))
    initial, updates = split_history(graph)
    store = StreamingStore(initial)
    for update in updates[:reference]:
        store.append_snapshot(update)
    view = ExplorationView(
        event, semantics, entity, attributes=attrs, key=key
    )
    store.register_view(view)
    for update in updates[reference:]:
        store.append_snapshot(update)
    counter = EventCounter(store.graph, entity, attrs, key)
    chain = list(
        ChainEvaluator(counter, event).chain(
            reference, ExtendSide.NEW, semantics
        )
    )
    steps = view.steps()
    if len(chain) != len(steps):
        return f"step counts diverge: {len(chain)} != {len(steps)}"
    for i, (expected, got) in enumerate(zip(chain, steps)):
        if (expected.old, expected.new) != (got.old, got.new):
            return f"step {i} sides diverge: {(got.old, got.new)!r}"
        if expected.count != got.count:
            return (
                f"step {i} counts diverge: expected {expected.count}, "
                f"view kept {got.count}"
            )
        padded = np.zeros(expected.mask.shape[0], dtype=bool)
        padded[: got.mask.shape[0]] = got.mask
        if not np.array_equal(expected.mask, padded):
            return f"step {i} masks diverge"
    return None


def _with_dangling_edge(
    initial: TemporalGraph, updates: Sequence[SnapshotUpdate]
) -> TemporalGraph:
    """``initial`` plus one never-active edge from its first node to a
    node that only arrives in a later update — the ``validate=False``
    dangling endpoint an append must resolve once the node exists."""
    late = next(
        (n for u in updates for n in u.nodes if not initial.node_presence.has_row(n)),
        None,
    )
    if late is None or not initial.nodes:
        return initial
    edge = (initial.nodes[0], late)

    def grow(frame: LabeledFrame, value: object) -> LabeledFrame:
        row = np.full((1, frame.n_cols), value, dtype=frame.values.dtype)
        return frame.concat_rows(LabeledFrame([edge], frame.col_labels, row))

    return TemporalGraph(
        timeline=initial.timeline,
        node_presence=initial.node_presence,
        edge_presence=grow(initial.edge_presence, 0),
        static_attrs=initial.static_attrs,
        varying_attrs=initial.varying_attrs,
        validate=False,
        edge_attrs=(
            None if initial.edge_attrs is None else grow(initial.edge_attrs, None)
        ),
        storage=initial.storage_name,
    )


@register_law(
    "streaming-carried-state",
    "every appended version's carried label indexes, edge endpoint rows "
    "and presence bits equal a from-scratch build bit-exactly, on every "
    "storage backend, whichever versions read their caches and when a "
    "dangling edge endpoint arrives in a later update",
    hostile_safe=False,
)
def _streaming_carried_state(
    graph: TemporalGraph, rng: np.random.Generator
) -> str | None:
    from ..storage import backend_names

    names = backend_names()
    backend = names[int(rng.integers(len(names)))]
    # Which versions read their caches before the next append: every
    # one, none, or every other one (carried state extended unread).
    pattern = int(rng.integers(3))
    initial, updates = split_history(graph)
    if rng.integers(2):
        initial = _with_dangling_edge(initial, updates)
    versions = [initial.with_storage(backend)]
    for i, update in enumerate(updates):
        current = versions[-1]
        if pattern == 0 or (pattern == 2 and i % 2 == 0):
            current.storage.edge_endpoint_rows()
            current.storage.presence_bits("nodes")
            current.storage.presence_bits("edges")
        versions.append(append_snapshot(current, update))
    if pattern == 1 and any(v.built_storage is not None for v in versions[1:]):
        return "an append built a backend although no version read one"
    for i, version in enumerate(versions):
        problem = carried_state_problem(version)
        if problem is not None:
            return f"{backend} version {i} of {len(versions) - 1}: {problem}"
    return None
