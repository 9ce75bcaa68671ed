"""Reference engines: the literal Algorithm 2 and set-based evolution.

:func:`repro.core.aggregate` and :func:`repro.core.aggregate_evolution`
are vectorized kernels over integer codes.  This module keeps their
slow, obviously-right twins, which the differential laws in
:mod:`repro.testing.oracle` diff them against bit-exactly:

* :func:`aggregate_algorithm2` transcribes the paper's Algorithm 2 —
  unpivot the presence and attribute arrays into long
  ``(id, t, tuple)`` rows, merge edges with their endpoints' tuples,
  deduplicate (DIST) and group-count — over the relational
  :class:`~repro.frames.Table`.  Its step sizes are counted under
  ``algo2.*`` and each step runs in its own ``algorithm2.*`` span;
* :func:`aggregate_evolution_reference` builds the Fig. 4b appearance
  sets per window and reduces them with Python set algebra.

Both read appearances through ``_node_tuple_table``, the per-cell
unpivot the production engines replaced with integer tuple codes.

:func:`aggregation_engines` is the registry the ``engines-agree`` law
iterates.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence
from typing import Any, Protocol

from ..core import TemporalGraph, aggregate
from ..core.aggregation import (
    AggregateGraph,
    AttributeTuple,
    EdgeKey,
    check_no_dangling_edges,
    validated_window,
)
from ..core.evolution import EvolutionAggregate, EvolutionWeights
from ..core.intervals import TimeSet
from ..core.operators import ordered_times
from ..errors import ValidationError
from ..frames import Table
from ..obs.metrics import get_metrics
from ..obs.trace import trace_span

__all__ = [
    "AggregationEngine",
    "aggregate_algorithm2",
    "aggregate_evolution_reference",
    "aggregation_engines",
]


class AggregationEngine(Protocol):
    """The call signature every interchangeable aggregation engine has."""

    def __call__(
        self,
        graph: TemporalGraph,
        attributes: Sequence[str],
        distinct: bool = True,
        times: Iterable[Hashable] | None = None,
    ) -> AggregateGraph: ...


def _node_tuple_table(
    graph: TemporalGraph,
    attributes: Sequence[str],
    times: TimeSet,
    rows: Iterable[int] | None = None,
) -> Table:
    """The long table of ``(node, t, attribute tuple)`` appearances.

    One row per (node, time point) where the node is present, carrying the
    node's attribute tuple at that time — the merged, unpivoted ``A'`` of
    Algorithm 2 (before any deduplication).  The Algorithm-2 oracle, the
    reference measures and the seed exploration count build on it.
    ``rows`` restricts the scan to a subset of node row indices; ``None``
    scans every node.
    """
    time_positions = [graph.timeline.index_of(t) for t in times]
    static_positions = {
        name: graph.static_attrs.col_position(name)
        for name in attributes
        if graph.is_static(name)
    }
    rows_out: list[tuple[Any, ...]] = []
    presence = graph.node_presence.values
    varying_values = {
        name: graph.varying_attrs[name].values
        for name in attributes
        if name not in static_positions
    }
    static_values = graph.static_attrs.values
    node_labels = graph.node_presence.row_labels
    row_indices = range(len(node_labels)) if rows is None else rows
    for row_idx in row_indices:
        node = node_labels[row_idx]
        static_part = {
            name: static_values[row_idx, pos]
            for name, pos in static_positions.items()
        }
        for t, t_pos in zip(times, time_positions):
            if not presence[row_idx, t_pos]:
                continue
            values = tuple(
                static_part[name]
                if name in static_part
                else varying_values[name][row_idx, t_pos]
                for name in attributes
            )
            rows_out.append((node, t, values))
    return Table(("id", "t", "tuple"), rows_out)


def _appearance_sets(
    graph: TemporalGraph,
    attributes: Sequence[str],
    times: TimeSet,
) -> tuple[
    set[tuple[Hashable, AttributeTuple]],
    set[tuple[tuple[Hashable, Hashable], EdgeKey]],
]:
    """Distinct (entity, tuple) appearances over a time window, as sets.

    The set-based form of Fig. 4b's unit of counting, which the
    reference evolution engine reduces.
    """
    node_table = _node_tuple_table(graph, attributes, times)
    node_appearances = {(node, values) for node, _, values in node_table.rows}
    lookup = {(node, t): values for node, t, values in node_table.rows}
    edge_appearances: set[tuple[tuple[Hashable, Hashable], EdgeKey]] = set()
    time_positions = [graph.timeline.index_of(t) for t in times]
    presence = graph.edge_presence.values
    for row_idx, edge in enumerate(graph.edge_presence.row_labels):
        u, v = edge  # type: ignore[misc]
        for t, t_pos in zip(times, time_positions):
            if not presence[row_idx, t_pos]:
                continue
            source = lookup.get((u, t))
            target = lookup.get((v, t))
            if source is None or target is None:
                continue
            edge_appearances.add((edge, (source, target)))  # type: ignore[arg-type]
    return node_appearances, edge_appearances


def aggregate_algorithm2(
    graph: TemporalGraph,
    attributes: Sequence[str],
    distinct: bool = True,
    times: Iterable[Hashable] | None = None,
) -> AggregateGraph:
    """Algorithm 2, step by step, as the paper writes it.

    Validates arguments and rejects dangling edges exactly like
    :func:`repro.core.aggregate`, so the two fail identically as well as
    agreeing on every weight.
    """
    window = validated_window(graph, attributes, times)
    for name in attributes:
        graph.is_static(name)  # validates names
    with trace_span(
        "algorithm2",
        distinct=distinct,
        attributes=tuple(attributes),
        n_times=len(window),
    ):
        check_no_dangling_edges(graph)
        return _algorithm2(graph, attributes, window, distinct)


def _algorithm2(
    graph: TemporalGraph,
    attributes: Sequence[str],
    times: TimeSet,
    distinct: bool,
) -> AggregateGraph:
    metrics = get_metrics()
    with trace_span("algorithm2.unpivot"):
        node_table = _node_tuple_table(graph, attributes, times)
    metrics.inc("algo2.unpivot_rows", len(node_table))
    lookup: dict[tuple[Any, Any], AttributeTuple] = {
        (node, t): values for node, t, values in node_table.rows
    }
    if distinct:
        with trace_span("algorithm2.dedup"):
            node_table = node_table.deduplicate(["id", "tuple"])
        metrics.inc("algo2.dedup_rows", len(node_table))
    with trace_span("algorithm2.group_count"):
        node_weights = {
            key[0]: count
            for key, count in node_table.groupby_count(["tuple"]).items()
        }
    metrics.inc("algo2.group_count_groups", len(node_weights))

    with trace_span("algorithm2.merge"):
        edge_rows: list[tuple[Any, ...]] = []
        edge_presence = graph.edge_presence.values
        time_positions = [graph.timeline.index_of(t) for t in times]
        for row_idx, edge in enumerate(graph.edge_presence.row_labels):
            u, v = edge  # type: ignore[misc]
            for t, t_pos in zip(times, time_positions):
                if not edge_presence[row_idx, t_pos]:
                    continue
                source = lookup.get((u, t))
                target = lookup.get((v, t))
                if source is None or target is None:
                    continue  # endpoint absent at t; cannot happen on valid graphs
                edge_rows.append((edge, source, target))
        edge_table = Table(("edge", "source", "target"), edge_rows)
    metrics.inc("algo2.merge_rows", len(edge_table))
    if distinct:
        with trace_span("algorithm2.dedup"):
            edge_table = edge_table.deduplicate(["edge", "source", "target"])
        metrics.inc("algo2.dedup_rows", len(edge_table))
    with trace_span("algorithm2.group_count"):
        edge_weights = {
            (key[0], key[1]): count
            for key, count in edge_table.groupby_count(["source", "target"]).items()
        }
    metrics.inc("algo2.group_count_groups", len(edge_weights))
    return AggregateGraph(tuple(attributes), node_weights, edge_weights, distinct=distinct)


def _weights_from_appearances(
    old: set[tuple[Any, Any]],
    new: set[tuple[Any, Any]],
) -> dict[Any, EvolutionWeights]:
    """Per-tuple event weights from two (entity, tuple) appearance sets:
    stability for pairs in both windows, growth for new-only, shrinkage
    for old-only, each keyed by the appearance's attribute tuple."""
    counters: dict[Any, dict[str, int]] = {}

    def bump(pairs: set[tuple[Any, Any]], kind: str) -> None:
        for _, key in pairs:
            counters.setdefault(
                key, {"stability": 0, "growth": 0, "shrinkage": 0}
            )[kind] += 1

    bump(old & new, "stability")
    bump(new - old, "growth")
    bump(old - new, "shrinkage")
    return {key: EvolutionWeights(**counts) for key, counts in counters.items()}


def aggregate_evolution_reference(
    graph: TemporalGraph,
    old_times: Iterable[Hashable],
    new_times: Iterable[Hashable],
    attributes: Sequence[str],
) -> EvolutionAggregate:
    """Set-based twin of :func:`repro.core.aggregate_evolution`."""
    if not attributes:
        raise ValidationError("evolution aggregation needs at least one attribute")
    old = ordered_times(graph, old_times)
    new = ordered_times(graph, new_times)
    if not old or not new:
        raise ValidationError("evolution aggregation requires two non-empty time sets")
    old_nodes, old_edges = _appearance_sets(graph, attributes, old)
    new_nodes, new_edges = _appearance_sets(graph, attributes, new)
    return EvolutionAggregate(
        attributes=tuple(attributes),
        old_times=old,
        new_times=new,
        node_weights=_weights_from_appearances(old_nodes, new_nodes),
        edge_weights=_weights_from_appearances(old_edges, new_edges),
    )


#: The interchangeable aggregation engines, keyed by name: the
#: production kernel and the literal Algorithm 2.  Both must produce
#: identical aggregates — and raise the same taxonomy errors — on every
#: input; the differential fuzz oracle enforces this on random graphs.
_ENGINES: dict[str, AggregationEngine] = {
    "aggregate": aggregate,
    "algorithm2": aggregate_algorithm2,
}


def aggregation_engines() -> dict[str, AggregationEngine]:
    """A copy of the engine registry (name -> drop-in callable)."""
    return dict(_ENGINES)
