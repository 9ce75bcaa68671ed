"""Aggregate measures beyond COUNT.

Section 2.2 of the paper fixes COUNT as the aggregation function but
notes "other aggregations may be supported".  This module supplies them:
given grouping attributes and a numeric *measure* attribute, it computes
SUM / AVG / MIN / MAX over the measure's values per aggregate node, and
per aggregate edge (over the endpoint values of each edge appearance).

Semantics mirror the COUNT variants: with ``distinct=True`` each
``(entity, grouping tuple, measure value)`` appearance contributes once;
with ``distinct=False`` every (entity, time) appearance contributes.

Both functions run on the aggregation engine's appearance codes
(:func:`repro.core.aggregation._tuple_codes` and ``_edge_appearances``):
grouping tuples are integer codes, DIST keeps each key's first
appearance, and every reducer gets its group's values as a list in
row-major appearance order — the order the per-cell reference in
:mod:`repro.testing.reference_measures` feeds them in, so float SUM and
AVG agree bit for bit.
"""

from __future__ import annotations

import numbers
from collections.abc import Hashable, Iterable, Sequence
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .aggregation import (
    AttributeTuple,
    EdgeKey,
    _appearance_values,
    _check_attribute_names,
    _edge_appearances,
    _edge_pairs,
    _factorize,
    _tuple_codes,
    _window_positions,
)
from .graph import TemporalGraph
from .operators import ordered_times
from ..errors import AggregationError, UnknownLabelError

__all__ = ["MeasureGraph", "aggregate_measure", "aggregate_edge_measure", "MEASURES"]


def _average(values: list[float]) -> float:
    return sum(values) / len(values)


#: Supported measure names and their reducers.
MEASURES: dict[str, Callable[[list[float]], float]] = {
    "sum": sum,
    "avg": _average,
    "min": min,
    "max": max,
}


@dataclass(frozen=True)
class MeasureGraph:
    """An aggregate graph whose weights are a measure over an attribute.

    ``node_values`` maps each grouping tuple to the reduced measure of
    its member appearances; ``edge_values`` maps grouped edges to the
    reduction over both endpoints' measure values across the edge's
    appearances.
    """

    attributes: tuple[str, ...]
    measure_attribute: str
    measure: str
    node_values: dict[AttributeTuple, float]
    edge_values: dict[EdgeKey, float]

    def node(self, key: Sequence[Any]) -> float | None:
        """Measure value of one aggregate node (None when absent)."""
        return self.node_values.get(tuple(key))

    def edge(self, source: Sequence[Any], target: Sequence[Any]) -> float | None:
        """Measure value of one aggregate edge (None when absent)."""
        return self.edge_values.get((tuple(source), tuple(target)))

    def __repr__(self) -> str:
        return (
            f"MeasureGraph({self.measure}({self.measure_attribute}) by "
            f"{self.attributes!r}: {len(self.node_values)} nodes, "
            f"{len(self.edge_values)} edges)"
        )


def _require_numeric(values: Iterable[Any], attribute: str) -> None:
    """Raise :class:`~repro.errors.AggregationError` naming ``attribute``
    when a value about to be reduced is not a real number."""
    for value in values:
        if value is not None and not isinstance(value, numbers.Real):
            raise AggregationError(
                f"measure attribute {attribute!r} is not numeric: "
                f"{value!r} ({type(value).__name__})"
            )


def _first_occurrences(*keys: np.ndarray) -> np.ndarray:
    """Ascending indices of each distinct key combination's first
    occurrence (one integer array per key component)."""
    _, first = np.unique(np.stack(keys, axis=1), axis=0, return_index=True)
    return np.sort(first)


def _reduce_groups(
    groups: np.ndarray,
    values: np.ndarray,
    labels: Sequence[Any],
    reducer: Callable[[list[Any]], Any],
) -> dict[Any, Any]:
    """``labels[group] -> reducer(values of that group)``.

    Each group's values keep their order in ``values``, and groups come
    in order of first appearance.
    """
    if not len(groups):
        return {}
    order = np.argsort(groups, kind="stable")
    ranked = groups[order]
    starts = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])
    stops = np.r_[starts[1:], len(ranked)]
    ordered = values[order].tolist()
    runs = sorted(zip(order[starts].tolist(), starts.tolist(), stops.tolist()))
    return {
        labels[groups[first]]: reducer(ordered[start:stop])
        for first, start, stop in runs
    }


def aggregate_measure(
    graph: TemporalGraph,
    attributes: Sequence[str],
    measure_attribute: str,
    measure: str = "avg",
    distinct: bool = True,
    times: Iterable[Hashable] | None = None,
) -> MeasureGraph:
    """Aggregate a numeric attribute per attribute group.

    Parameters
    ----------
    graph:
        The temporal graph (typically an operator output).
    attributes:
        Grouping attributes, as in :func:`repro.core.aggregate`.
    measure_attribute:
        The numeric attribute to reduce.  Must not be one of the
        grouping attributes.
    measure:
        One of ``"sum"``, ``"avg"``, ``"min"``, ``"max"``.
    distinct:
        Whether repeated identical appearances of the same entity
        contribute once (DIST) or per time point (ALL).
    times:
        Aggregation window; defaults to the graph's whole timeline.

    Examples
    --------
    Average publications per gender on the paper's example graph::

        >>> from repro.datasets import paper_example
        >>> g = paper_example()
        >>> mg = aggregate_measure(g, ["gender"], "publications",
        ...                        measure="avg", times=["t0"])
        >>> mg.node(("m",))
        3.0
    """
    _check_attribute_names(attributes)
    if measure not in MEASURES:
        raise AggregationError(
            f"unknown measure {measure!r}; choose from {sorted(MEASURES)}"
        )
    if measure_attribute in attributes:
        raise AggregationError(
            f"measure attribute {measure_attribute!r} cannot also be a "
            "grouping attribute"
        )
    window = graph.timeline.labels if times is None else ordered_times(graph, times)
    positions = _window_positions(graph, window)
    codes = _tuple_codes(graph, attributes, positions)
    cells = _appearance_values(graph, measure_attribute, codes, positions)
    value_codes, pool = _factorize(cells)
    _require_numeric(pool, measure_attribute)
    valued = np.array([value is not None for value in pool], dtype=bool)
    valued = valued[value_codes]

    kept = np.flatnonzero(valued)
    if distinct:
        keys = (codes.entity[kept], codes.codes[kept], value_codes[kept])
        kept = kept[_first_occurrences(*keys)]
    node_values = _reduce_groups(
        codes.codes[kept], cells[kept], codes.tuples, MEASURES[measure]
    )

    edge_rows, _, sources, targets = _edge_appearances(graph, codes, positions)
    both = valued[sources] & valued[targets]
    edge_rows, sources, targets = edge_rows[both], sources[both], targets[both]
    pair_codes, pairs = _edge_pairs(codes, sources, targets)
    if distinct:
        keys = (edge_rows, pair_codes, value_codes[sources], value_codes[targets])
        first = _first_occurrences(*keys)
        sources, targets, pair_codes = sources[first], targets[first], pair_codes[first]
    # Each appearance contributes its source value, then its target value.
    endpoint_values = np.column_stack((cells[sources], cells[targets]))
    edge_values = _reduce_groups(
        np.repeat(pair_codes, 2), endpoint_values.reshape(-1), pairs, MEASURES[measure]
    )
    return MeasureGraph(
        attributes=tuple(attributes),
        measure_attribute=measure_attribute,
        measure=measure,
        node_values=node_values,
        edge_values=edge_values,
    )


def aggregate_edge_measure(
    graph: TemporalGraph,
    attributes: Sequence[str],
    edge_attribute: str,
    measure: str = "sum",
    distinct: bool = True,
    times: Iterable[Hashable] | None = None,
) -> MeasureGraph:
    """Aggregate a numeric *edge* attribute per grouped edge.

    This is the aggregation the paper's Section 2.2 gestures at with
    "other aggregations may be supported, if edges are attributed as
    well": edges grouped by their endpoints' attribute tuples, weighted
    by a static edge attribute (e.g. the SUM of co-authored papers
    between gender groups, instead of the COUNT of collaborating pairs).

    ``distinct=True`` counts each edge's attribute value once per
    grouped pair; ``distinct=False`` counts it once per appearance (per
    time point the edge is active).
    """
    _check_attribute_names(attributes)
    if graph.edge_attrs is None:
        raise AggregationError("this graph has no edge attributes")
    if measure not in MEASURES:
        raise AggregationError(
            f"unknown measure {measure!r}; choose from {sorted(MEASURES)}"
        )
    if edge_attribute not in {str(c) for c in graph.edge_attrs.col_labels}:
        raise UnknownLabelError(
            f"unknown edge attribute {edge_attribute!r}; graph has "
            f"{graph.edge_attribute_names!r}"
        )
    window = graph.timeline.labels if times is None else ordered_times(graph, times)
    positions = _window_positions(graph, window)
    codes = _tuple_codes(graph, attributes, positions)
    column = graph.edge_attrs.values[:, graph.edge_attrs.col_position(edge_attribute)]
    valued = np.array([value is not None for value in column], dtype=bool)
    edge_rows, _, sources, targets = _edge_appearances(graph, codes, positions)
    keep = valued[edge_rows]
    pair_codes, pairs = _edge_pairs(codes, sources[keep], targets[keep])
    edge_rows = edge_rows[keep]
    _require_numeric(column[edge_rows], edge_attribute)
    if distinct:
        # An edge's value is static, so (edge, pair) is the whole key.
        first = _first_occurrences(edge_rows, pair_codes)
        edge_rows, pair_codes = edge_rows[first], pair_codes[first]
    edge_values = _reduce_groups(
        pair_codes, column[edge_rows], pairs, MEASURES[measure]
    )
    return MeasureGraph(
        attributes=tuple(attributes),
        measure_attribute=edge_attribute,
        measure=measure,
        node_values={},
        edge_values=edge_values,
    )
