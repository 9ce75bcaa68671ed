"""Assertion helpers shared by the repo's suite and downstream users."""

from __future__ import annotations

import numpy as np

from ..core import AggregateGraph, TemporalGraph
from ..core.operators import presence_signature
from ..frames import LabelIndex

__all__ = ["assert_same_aggregate", "assert_same_graph", "carried_state_problem"]


def assert_same_aggregate(a: AggregateGraph, b: AggregateGraph) -> None:
    """Assert two aggregate graphs are identical in every observable way."""
    assert a.attributes == b.attributes, (a.attributes, b.attributes)
    assert a.distinct == b.distinct
    assert dict(a.node_weights) == dict(b.node_weights)
    assert dict(a.edge_weights) == dict(b.edge_weights)


def assert_same_graph(a: TemporalGraph, b: TemporalGraph) -> None:
    """Assert two temporal graphs are observably equal.

    Compares timelines, presence signatures (row order does not matter)
    and every attribute value at every active cell — the equivalence the
    incremental-replay laws rely on.
    """
    assert a.timeline.labels == b.timeline.labels, (
        a.timeline.labels,
        b.timeline.labels,
    )
    assert presence_signature(a) == presence_signature(b)
    assert a.static_attribute_names == b.static_attribute_names
    assert a.varying_attribute_names == b.varying_attribute_names
    for node in a.nodes:
        for name in a.static_attribute_names:
            assert a.attribute_value(node, name) == b.attribute_value(node, name), (
                node,
                name,
            )
        for name in a.varying_attribute_names:
            for t in a.node_times(node):
                assert a.attribute_value(node, name, t) == b.attribute_value(
                    node, name, t
                ), (node, name, t)


def carried_state_problem(graph: TemporalGraph) -> str | None:
    """How a graph's derived state differs from a from-scratch build.

    An appended graph carries its predecessor's derived state forward
    (:func:`~repro.core.updates.append_snapshot`).  This diffs, bit for
    bit, every frame's row and column label index against one freshly
    built from the same labels and — when the graph's storage backend
    has been built — its ``edge_endpoint_rows()`` and ``presence_bits()``
    against a fresh ``from_graph`` backend of the same class (values,
    dtype, shape and the read-only flag).  Returns ``None`` when all
    agree.  Reading the caches computes any the backend lacks, so check
    a version only after every later version has been appended.
    """
    frames = [
        ("node_presence", graph.node_presence),
        ("edge_presence", graph.edge_presence),
        ("static_attrs", graph.static_attrs),
        *((f"varying_attrs[{n!r}]", f) for n, f in graph.varying_attrs.items()),
    ]
    if graph.edge_attrs is not None:
        frames.append(("edge_attrs", graph.edge_attrs))
    for name, frame in frames:
        for axis, index in (("row", frame.row_index), ("column", frame.col_index)):
            fresh_index = LabelIndex.build(index.labels, axis)
            if list(index.positions.items()) != list(fresh_index.positions.items()):
                return f"{name} {axis} index differs from a fresh build"
    backend = graph.built_storage
    if backend is None:
        return None
    fresh = type(backend).from_graph(graph)
    endpoints = zip(backend.edge_endpoint_rows(), fresh.edge_endpoint_rows())
    arrays = [
        (f"edge_endpoint_rows[{i}]", carried, rebuilt)
        for i, (carried, rebuilt) in enumerate(endpoints)
    ]
    arrays += [
        (f"presence_bits({e!r})", backend.presence_bits(e), fresh.presence_bits(e))
        for e in ("nodes", "edges")
    ]
    for name, carried, rebuilt in arrays:
        if carried.dtype != rebuilt.dtype or not np.array_equal(carried, rebuilt):
            return f"{backend.name} {name} differs from a fresh build"
        if carried.flags.writeable:
            return f"{backend.name} {name} is writable"
    return None
