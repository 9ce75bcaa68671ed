"""Reference measures: the per-cell loops behind SUM/AVG/MIN/MAX.

:func:`repro.core.aggregate_measure` and
:func:`repro.core.aggregate_edge_measure` run on the aggregation
engine's integer tuple codes.  This module keeps the slow,
obviously-right twins they replaced: one Python row per
``(node, time)`` appearance from ``_node_tuple_table``, a dict lookup per
``(edge, time)`` cell, first-occurrence deduplication over Python sets
(DIST) and reducers fed each group's values in row-major appearance
order.  The ``measures-engines-agree`` law diffs the two with
:func:`measure_diff`.

Only the window is normalized the way the engine normalizes it: a
repeated or unordered time point does not change a measure.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence
from typing import Any

import numpy as np

from ..core import TemporalGraph
from ..core.aggregation import AttributeTuple, EdgeKey
from ..core.intervals import TimeSet
from ..core.measures import MEASURES, MeasureGraph, _require_numeric
from ..core.operators import ordered_times
from ..errors import AggregationError, UnknownLabelError
from ..frames import LabeledFrame
from .algorithm2 import _node_tuple_table

__all__ = [
    "reference_measure",
    "reference_edge_measure",
    "measure_diff",
    "numeric_attributes",
    "with_random_measures",
]


def _window(graph: TemporalGraph, times: Iterable[Hashable] | None) -> TimeSet:
    if times is None:
        return graph.timeline.labels
    return ordered_times(graph, times)


def reference_measure(
    graph: TemporalGraph,
    attributes: Sequence[str],
    measure_attribute: str,
    measure: str = "avg",
    distinct: bool = True,
    times: Iterable[Hashable] | None = None,
) -> MeasureGraph:
    """Per-cell twin of :func:`repro.core.aggregate_measure`."""
    if measure not in MEASURES:
        raise AggregationError(
            f"unknown measure {measure!r}; choose from {sorted(MEASURES)}"
        )
    if measure_attribute in attributes:
        raise AggregationError(
            f"measure attribute {measure_attribute!r} cannot also be a "
            "grouping attribute"
        )
    window = _window(graph, times)
    reducer = MEASURES[measure]

    combined = _node_tuple_table(
        graph, list(attributes) + [measure_attribute], window
    )
    node_rows = [
        (node, t, values[:-1], values[-1])
        for node, t, values in combined.rows
        if values[-1] is not None
    ]
    _require_numeric((value for *_, value in node_rows), measure_attribute)
    if distinct:
        seen = set()
        deduped = []
        for node, t, group, value in node_rows:
            key = (node, group, value)
            if key not in seen:
                seen.add(key)
                deduped.append((node, t, group, value))
        node_rows = deduped
    node_groups: dict[AttributeTuple, list[float]] = {}
    for _, _, group, value in node_rows:
        node_groups.setdefault(group, []).append(value)
    node_values = {
        group: reducer(values) for group, values in node_groups.items()
    }

    lookup = {
        (node, t): (values[:-1], values[-1])
        for node, t, values in combined.rows
    }
    edge_rows = []
    presence = graph.edge_presence.values
    time_positions = [graph.timeline.index_of(t) for t in window]
    for row_idx, edge in enumerate(graph.edge_presence.row_labels):
        u, v = edge  # type: ignore[misc]
        for t, t_pos in zip(window, time_positions):
            if not presence[row_idx, t_pos]:
                continue
            source = lookup.get((u, t))
            target = lookup.get((v, t))
            if source is None or target is None:
                continue
            if source[1] is None or target[1] is None:
                continue
            edge_rows.append((edge, (source[0], target[0]), source[1], target[1]))
    if distinct:
        seen = set()
        deduped = []
        for edge, pair, sv, tv in edge_rows:
            key = (edge, pair, sv, tv)
            if key not in seen:
                seen.add(key)
                deduped.append((edge, pair, sv, tv))
        edge_rows = deduped
    edge_groups: dict[EdgeKey, list[float]] = {}
    for _, pair, sv, tv in edge_rows:
        edge_groups.setdefault(pair, []).extend((sv, tv))
    edge_values = {
        pair: reducer(values) for pair, values in edge_groups.items()
    }
    return MeasureGraph(
        attributes=tuple(attributes),
        measure_attribute=measure_attribute,
        measure=measure,
        node_values=node_values,
        edge_values=edge_values,
    )


def reference_edge_measure(
    graph: TemporalGraph,
    attributes: Sequence[str],
    edge_attribute: str,
    measure: str = "sum",
    distinct: bool = True,
    times: Iterable[Hashable] | None = None,
) -> MeasureGraph:
    """Per-cell twin of :func:`repro.core.aggregate_edge_measure`."""
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
    window = _window(graph, times)
    reducer = MEASURES[measure]

    node_table = _node_tuple_table(graph, attributes, window)
    lookup = {
        (node, t): values for node, t, values in node_table.rows
    }
    presence = graph.edge_presence.values
    time_positions = [graph.timeline.index_of(t) for t in window]
    attr_position = graph.edge_attrs.col_position(edge_attribute)
    edge_attr_values = graph.edge_attrs.values

    rows: list[tuple[Any, EdgeKey, Any]] = []
    for row_idx, edge in enumerate(graph.edge_presence.row_labels):
        value = edge_attr_values[row_idx, attr_position]
        if value is None:
            continue
        u, v = edge  # type: ignore[misc]
        for t, t_pos in zip(window, time_positions):
            if not presence[row_idx, t_pos]:
                continue
            source = lookup.get((u, t))
            target = lookup.get((v, t))
            if source is None or target is None:
                continue
            rows.append((edge, (source, target), value))
    _require_numeric((value for *_, value in rows), edge_attribute)
    if distinct:
        seen: set[tuple[Any, EdgeKey, Any]] = set()
        deduped = []
        for item in rows:
            if item not in seen:
                seen.add(item)
                deduped.append(item)
        rows = deduped
    groups: dict[EdgeKey, list[Any]] = {}
    for _, pair, value in rows:
        groups.setdefault(pair, []).append(value)
    edge_values = {pair: reducer(values) for pair, values in groups.items()}
    return MeasureGraph(
        attributes=tuple(attributes),
        measure_attribute=edge_attribute,
        measure=measure,
        node_values={},
        edge_values=edge_values,
    )


def measure_diff(ours: MeasureGraph, theirs: MeasureGraph) -> tuple[str, ...]:
    """Human-readable differences between two measure graphs.

    Bit-exact: every group must carry a value of the same type and
    ``repr`` (so ``3 != 3.0`` and float summation order shows), and the
    groups must come in the same first-appearance order.
    """
    problems: list[str] = []
    for field in ("attributes", "measure_attribute", "measure"):
        a, b = getattr(ours, field), getattr(theirs, field)
        if a != b:
            problems.append(f"{field} differs: {a!r} != {b!r}")
    for kind, mine, other in (
        ("node", ours.node_values, theirs.node_values),
        ("edge", ours.edge_values, theirs.edge_values),
    ):
        for key in sorted(set(mine) | set(other), key=repr):
            a, b = mine.get(key), other.get(key)
            if (type(a), repr(a)) != (type(b), repr(b)):
                problems.append(f"{kind} value {key!r}: {a!r} != {b!r}")
        if not problems and list(mine) != list(other):
            problems.append(f"{kind} groups come in a different order")
    return tuple(problems)


def numeric_attributes(graph: TemporalGraph) -> tuple[str, ...]:
    """Node attributes whose every non-``None`` value is an ``int`` or
    ``float`` — the ones every reducer accepts."""
    frames = [
        (name, graph.static_attrs.column(name))
        for name in graph.static_attribute_names
    ] + [
        (name, graph.varying_attrs[name].values.ravel())
        for name in graph.varying_attribute_names
    ]
    return tuple(
        name
        for name, values in frames
        if all(
            isinstance(value, (int, float))
            for value in values
            if value is not None
        )
    )


def _fresh_name(stem: str, taken: Iterable[str]) -> str:
    taken = set(taken)
    name = stem
    while name in taken:
        name += "_"
    return name


def with_random_measures(
    graph: TemporalGraph, rng: np.random.Generator
) -> tuple[TemporalGraph, str, str]:
    """``graph`` plus a float time-varying node attribute and a float
    static edge attribute, each ``None`` on about a fifth of its cells.

    Returns ``(graph, node attribute, edge attribute)``.  Full-precision
    floats make float SUM/AVG depend on summation order, which is what a
    measure engine must reproduce exactly.
    """
    node_name = _fresh_name("score", graph.attribute_names)
    edge_name = _fresh_name("weight", graph.edge_attribute_names)

    def draw(shape: tuple[int, ...], where: np.ndarray) -> np.ndarray:
        values = np.full(shape, None, dtype=object)
        drawn = rng.uniform(-10.0, 10.0, size=shape)
        keep = where & (rng.random(shape) >= 0.2)
        values[keep] = [float(v) for v in drawn[keep]]
        return values

    nodes = graph.node_presence
    varying = dict(graph.varying_attrs)
    varying[node_name] = LabeledFrame(
        nodes.row_labels,
        nodes.col_labels,
        draw(nodes.values.shape, nodes.values.astype(bool)),
    )
    labels = graph.edge_presence.row_labels
    column = draw((len(labels), 1), np.ones((len(labels), 1), dtype=bool))
    if graph.edge_attrs is None:
        edge_attrs = LabeledFrame(labels, (edge_name,), column)
    else:
        edge_attrs = LabeledFrame(
            labels,
            tuple(graph.edge_attrs.col_labels) + (edge_name,),
            np.concatenate([graph.edge_attrs.values.astype(object), column], axis=1),
        )
    measured = TemporalGraph(
        graph.timeline,
        graph.node_presence,
        graph.edge_presence,
        graph.static_attrs,
        varying,
        validate=False,
        edge_attrs=edge_attrs,
    )
    return measured, node_name, edge_name
