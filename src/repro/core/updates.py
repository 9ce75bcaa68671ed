"""Appending new time points to a temporal graph.

Evolving graphs grow at the end of their timeline; re-generating the
whole graph per tick would defeat the paper's materialization story.
:func:`append_snapshot` extends a :class:`TemporalGraph` with one new
time point — new nodes, returning nodes, their time-varying values, and
the snapshot's edges — producing a new graph value (inputs are never
mutated).  :class:`repro.streaming.StreamingStore` builds on this to
publish versions and keep registered views (such as per-point aggregates
and running union totals) current as the graph grows.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..frames import LabeledFrame
from ..storage.base import StorageFrames
from .graph import EdgeId, NodeId, TemporalGraph
from .intervals import Timeline
from ..errors import UnknownLabelError, ValidationError

__all__ = ["SnapshotUpdate", "append_snapshot", "snapshot_at", "split_history"]


@dataclass(frozen=True)
class SnapshotUpdate:
    """One new time point's content.

    Parameters
    ----------
    time:
        The new time-point label; must not already be on the timeline.
    nodes:
        ``node id -> {varying attribute: value}`` for every node present
        at the new time point (an empty dict for nodes of a graph
        without time-varying attributes).
    static:
        Static attribute values for nodes appearing for the *first*
        time; values for known nodes are ignored (static values cannot
        change) but attribute *names* are always validated.
    edges:
        Directed edges active at the new time point.  Both endpoints
        must be present in ``nodes``.
    edge_attrs:
        Static edge-attribute values for edges appearing for the first
        time.  As with ``static``, names are validated for every entry;
        a graph without edge attributes rejects any supplied name.

    All fields are frozen into owned tuples/dicts on construction, so an
    update built from generators or shared mutable mappings stays
    replayable: appending it twice (or into two stores) sees identical
    content.
    """

    time: Hashable
    nodes: Mapping[NodeId, Mapping[str, Any]]
    static: Mapping[NodeId, Mapping[str, Any]] = field(default_factory=dict)
    edges: Iterable[EdgeId] = ()
    edge_attrs: Mapping[EdgeId, Mapping[str, Any]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Freeze every field into owned containers: a generator passed as
        # ``edges`` would otherwise be consumed on first use, so replaying
        # the same update into a second store (or retrying after a failed
        # append) would silently drop every edge.  Plain dicts/tuples (not
        # MappingProxyType) keep updates picklable.
        object.__setattr__(self, "edges", tuple(self.edges))
        object.__setattr__(
            self, "nodes", {n: dict(v) for n, v in self.nodes.items()}
        )
        object.__setattr__(
            self, "static", {n: dict(v) for n, v in self.static.items()}
        )
        object.__setattr__(
            self, "edge_attrs", {e: dict(v) for e, v in self.edge_attrs.items()}
        )


def append_snapshot(graph: TemporalGraph, update: SnapshotUpdate) -> TemporalGraph:
    """A new graph whose timeline ends with the update's time point.

    Version *n+1* extends version *n*'s derived state instead of rebuilding
    it from the whole history: the label indexes are the input's indexes
    plus the new labels (one node, one edge and one time index, each
    shared by every frame over that axis), and when the input's storage
    backend has been built, the new graph's backend is seeded from it
    (:meth:`~repro.storage.GraphStorageBackend.extended`), carrying every
    cache the input had computed.  Each structure stays bit-identical to
    a from-scratch build of the same graph.
    """
    if update.time in graph.timeline:
        raise ValidationError(f"time point {update.time!r} already exists")
    times = graph.node_presence.col_index.extended([update.time], "column")
    new_times = times.labels

    incoming = dict(update.nodes)
    known_nodes = graph.node_presence.row_index
    new_node_ids = [n for n in incoming if n not in known_nodes.positions]
    nodes = known_nodes.extended(new_node_ids)
    node_pos = nodes.positions
    n_nodes = len(nodes.labels)

    varying_names = graph.varying_attribute_names
    for node, values in incoming.items():
        unknown = set(values) - set(varying_names)
        if unknown:
            raise UnknownLabelError(
                f"unknown time-varying attributes for {node!r}: {sorted(unknown)}"
            )

    # Attribute *names* are validated for every entry the update carries,
    # not just first-appearance nodes/edges — values for known entities
    # are still ignored, but a misspelled name never passes silently.
    static_name_set = {str(c) for c in graph.static_attrs.col_labels}
    for node, provided in update.static.items():
        unknown = set(provided) - static_name_set
        if unknown:
            raise UnknownLabelError(
                f"unknown static attributes for {node!r}: {sorted(unknown)}"
            )
    edge_attr_names = (
        {str(c) for c in graph.edge_attrs.col_labels}
        if graph.edge_attrs is not None
        else set()
    )
    for edge, provided in update.edge_attrs.items():
        unknown = set(provided) - edge_attr_names
        if unknown:
            raise UnknownLabelError(
                f"unknown edge attributes for {edge!r}: {sorted(unknown)}"
            )

    edges = list(update.edges)
    for u, v in edges:
        if u not in incoming or v not in incoming:
            raise ValidationError(
                f"edge {(u, v)!r} references a node absent from the snapshot"
            )

    present_rows = [node_pos[node] for node in incoming]
    node_values = np.zeros((n_nodes, len(new_times)), dtype=np.uint8)
    node_values[: graph.n_nodes, :-1] = graph.node_presence.values
    node_values[present_rows, -1] = 1
    node_presence = LabeledFrame.from_index(nodes, times, node_values)

    static_names = graph.static_attrs.col_index
    static_values = np.empty((n_nodes, len(static_names.labels)), dtype=object)
    static_values[: graph.n_nodes] = graph.static_attrs.values
    for i, node in enumerate(new_node_ids):
        provided = dict(update.static.get(node, {}))
        for col, name in enumerate(static_names.labels):
            static_values[graph.n_nodes + i, col] = provided.get(str(name))
    static_attrs = LabeledFrame.from_index(nodes, static_names, static_values)

    varying_attrs: dict[str, LabeledFrame] = {}
    for name in varying_names:
        # numpy fills a new object array with None, the absent cell.
        values = np.empty((n_nodes, len(new_times)), dtype=object)
        values[: graph.n_nodes, :-1] = graph.varying_attrs[name].values
        for node, node_values_map in incoming.items():
            if name in node_values_map:
                values[node_pos[node], -1] = node_values_map[name]
        varying_attrs[name] = LabeledFrame.from_index(nodes, times, values)

    known_edges = graph.edge_presence.row_index
    new_edge_ids = [
        e for e in dict.fromkeys(edges) if e not in known_edges.positions
    ]
    edge_index = known_edges.extended(new_edge_ids)
    edge_values = np.zeros((len(edge_index.labels), len(new_times)), dtype=np.uint8)
    edge_values[: graph.n_edges, :-1] = graph.edge_presence.values
    edge_values[[edge_index.positions[edge] for edge in edges], -1] = 1
    edge_presence = LabeledFrame.from_index(edge_index, times, edge_values)

    edge_attr_frame: LabeledFrame | None = None
    if graph.edge_attrs is not None:
        names = graph.edge_attrs.col_index
        attr_values = np.empty((len(edge_index.labels), len(names.labels)), dtype=object)
        attr_values[: graph.n_edges] = graph.edge_attrs.values
        for i, edge in enumerate(new_edge_ids):
            provided = dict(update.edge_attrs.get(edge, {}))
            for col, name in enumerate(names.labels):
                attr_values[graph.n_edges + i, col] = provided.get(str(name))
        edge_attr_frame = LabeledFrame.from_index(edge_index, names, attr_values)

    frames = StorageFrames(
        times=new_times,
        node_presence=node_presence,
        edge_presence=edge_presence,
        static_attrs=static_attrs,
        varying_attrs=varying_attrs,
        edge_attrs=edge_attr_frame,
    )
    # Keep the input graph's backend *selection*; a backend the input has
    # already built seeds the new one (earlier versions keep their own,
    # untouched), otherwise the new graph builds its layout lazily.
    previous = graph.built_storage
    return TemporalGraph(
        timeline=Timeline(new_times),
        node_presence=node_presence,
        edge_presence=edge_presence,
        static_attrs=static_attrs,
        varying_attrs=varying_attrs,
        validate=False,
        edge_attrs=edge_attr_frame,
        storage=(
            previous.extended(frames) if previous is not None else graph.storage_name
        ),
    )


def snapshot_at(graph: TemporalGraph, time: Hashable) -> SnapshotUpdate:
    """The :class:`SnapshotUpdate` that reconstructs one existing point.

    Raises :class:`~repro.errors.UnknownLabelError` for a time point not
    on the timeline.  Static values are included for *every* node present
    at the point (``append_snapshot`` ignores them for known nodes), so
    the update is replayable regardless of when each node first appeared.
    """
    pos = graph.timeline.index_of(time)
    varying_names = graph.varying_attribute_names
    nodes: dict[NodeId, dict[str, Any]] = {}
    node_values = graph.node_presence.values
    for row, node in enumerate(graph.node_presence.row_labels):
        if not node_values[row, pos]:
            continue
        values: dict[str, Any] = {}
        for name in varying_names:
            value = graph.varying_attrs[name].values[row, pos]
            if value is not None:
                values[name] = value
        nodes[node] = values

    static_names = [str(c) for c in graph.static_attrs.col_labels]
    static: dict[NodeId, dict[str, Any]] = {}
    for row, node in enumerate(graph.static_attrs.row_labels):
        if node not in nodes:
            continue
        static[node] = {
            name: graph.static_attrs.values[row, col]
            for col, name in enumerate(static_names)
        }

    edge_values = graph.edge_presence.values
    edges = tuple(
        edge
        for row, edge in enumerate(graph.edge_presence.row_labels)
        if edge_values[row, pos]
    )

    edge_attrs: dict[EdgeId, dict[str, Any]] = {}
    if graph.edge_attrs is not None:
        names = [str(c) for c in graph.edge_attrs.col_labels]
        edge_set = set(edges)
        for row, edge in enumerate(graph.edge_attrs.row_labels):
            if edge not in edge_set:
                continue
            edge_attrs[edge] = {  # type: ignore[index]
                name: graph.edge_attrs.values[row, col]
                for col, name in enumerate(names)
            }
    return SnapshotUpdate(
        time=time, nodes=nodes, static=static, edges=edges, edge_attrs=edge_attrs
    )


def split_history(
    graph: TemporalGraph,
) -> tuple[TemporalGraph, list[SnapshotUpdate]]:
    """Decompose a graph into its first point plus per-point updates.

    Replaying the updates through :func:`append_snapshot` (or
    :meth:`repro.streaming.StreamingStore.from_history`) rebuilds a graph
    observably equal to the input — the replay identity the differential
    fuzz laws check for the streaming store.  No snapshot carries a node
    or edge present at no time point, so the first point keeps those,
    together with the endpoints of such edges.
    """
    labels = graph.timeline.labels
    first = labels[0]
    node_presence, edge_presence = graph.node_presence, graph.edge_presence
    edges = edge_presence.any_mask([first]) | ~edge_presence.any_mask()
    nodes = node_presence.any_mask([first]) | ~node_presence.any_mask()
    sources, targets = graph.storage.edge_endpoint_rows()
    for rows in (sources[edges], targets[edges]):
        nodes[rows[rows >= 0]] = True
    initial = graph.restricted(
        [label for label, keep in zip(node_presence.row_labels, nodes) if keep],
        [label for label, keep in zip(edge_presence.row_labels, edges) if keep],
        [first],
    )
    return initial, [snapshot_at(graph, t) for t in labels[1:]]
