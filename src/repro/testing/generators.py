"""Seedable random temporal-graph factories.

The fuzz harness needs graphs nobody hand-picked: arbitrary presence
patterns, several time points, static and time-varying attributes, and —
when asked — *hostile* inputs (dangling edges, duplicated/unordered time
arguments) that well-formed fixtures never exercise.  Everything here is
driven by a :class:`numpy.random.Generator`, so a ``(seed, case)`` pair
fully determines a graph and any failure is replayable.

:func:`graph_from_maps` is the inverse direction: it builds a graph from
plain literal mappings, which is what shrunk-counterexample reproducer
snippets embed.  Its validation raises from the :mod:`repro.errors`
taxonomy so inconsistent presence/attribute inputs fail loudly and
typed.
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..core import SnapshotUpdate, TemporalGraph, Timeline
from ..errors import UnknownLabelError, ValidationError
from ..frames import LabeledFrame

__all__ = [
    "GraphSpec",
    "random_temporal_graph",
    "random_time_sets",
    "graph_from_maps",
    "graph_from_updates",
    "graph_to_maps",
]


@dataclass(frozen=True)
class GraphSpec:
    """Shape parameters for :func:`random_temporal_graph`.

    ``dangling_edges > 0`` switches on hostile mode: that many edges
    reference nodes absent from the node set (the graph is built without
    validation, as a buggy ingestion pipeline would).  Laws that require
    well-formed graphs declare themselves ``hostile_safe=False`` and are
    skipped on such inputs; the remaining laws assert that every engine
    rejects or tolerates the hostility *identically*.

    ``missing_values > 0`` blanks that share of the present time-varying
    cells to ``None``: a node that exists at a time point without a value
    there, as a sparse export would deliver it.  The graph stays
    well-formed; Algorithm 2 groups such cells under a ``None`` value.
    """

    n_times: int = 4
    n_nodes: int = 6
    edge_density: float = 0.4
    presence_density: float = 0.6
    static_attrs: Mapping[str, Sequence[Any]] = field(
        default_factory=lambda: {"gender": ("m", "f")}
    )
    varying_attrs: Mapping[str, Sequence[Any]] = field(
        default_factory=lambda: {"level": (1, 2, 3)}
    )
    dangling_edges: int = 0
    missing_values: float = 0.0

    def __post_init__(self) -> None:
        if self.n_times < 1:
            raise ValidationError(f"n_times must be >= 1, got {self.n_times}")
        if self.n_nodes < 1:
            raise ValidationError(f"n_nodes must be >= 1, got {self.n_nodes}")
        for name, value in (
            ("edge_density", self.edge_density),
            ("presence_density", self.presence_density),
            ("missing_values", self.missing_values),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValidationError(f"{name} must be in [0, 1], got {value}")
        if self.dangling_edges < 0:
            raise ValidationError(
                f"dangling_edges must be >= 0, got {self.dangling_edges}"
            )


def _resolve_rng(
    seed: int | None, rng: np.random.Generator | None
) -> np.random.Generator:
    if rng is not None:
        return rng
    return np.random.default_rng(seed)


def random_temporal_graph(
    spec: GraphSpec = GraphSpec(),
    seed: int | None = None,
    rng: np.random.Generator | None = None,
) -> TemporalGraph:
    """A random temporal attributed graph matching ``spec``.

    Invariants guaranteed unless ``spec.dangling_edges > 0``: every node
    and edge is present somewhere, edges are active only when both
    endpoints are, attribute values exist only where the entity does —
    and, unless ``spec.missing_values > 0``, exactly there.
    """
    generator = _resolve_rng(seed, rng)
    n_times, n_nodes = spec.n_times, spec.n_nodes
    times = tuple(f"t{i}" for i in range(n_times))
    node_ids = tuple(f"u{i}" for i in range(n_nodes))

    presence = (
        generator.random((n_nodes, n_times)) < spec.presence_density
    ).astype(np.uint8)
    for row in range(n_nodes):
        if not presence[row].any():
            presence[row, int(generator.integers(n_times))] = 1
    node_presence = LabeledFrame(node_ids, times, presence)

    static_names = tuple(spec.static_attrs)
    static_values = np.empty((n_nodes, len(static_names)), dtype=object)
    for col, name in enumerate(static_names):
        pool = tuple(spec.static_attrs[name])
        for row in range(n_nodes):
            static_values[row, col] = pool[int(generator.integers(len(pool)))]
    static = LabeledFrame(node_ids, static_names, static_values)

    varying: dict[str, LabeledFrame] = {}
    for name, values_pool in spec.varying_attrs.items():
        pool = tuple(values_pool)
        values = np.full((n_nodes, n_times), None, dtype=object)
        for row in range(n_nodes):
            for col in range(n_times):
                if presence[row, col]:
                    values[row, col] = pool[int(generator.integers(len(pool)))]
        if spec.missing_values > 0:
            values[generator.random((n_nodes, n_times)) < spec.missing_values] = None
        varying[name] = LabeledFrame(node_ids, times, values)

    edge_ids: list[tuple[str, str]] = []
    edge_rows: list[np.ndarray] = []
    for i in range(n_nodes):
        for j in range(n_nodes):
            if i == j or generator.random() >= spec.edge_density:
                continue
            allowed = presence[i] & presence[j]
            if not allowed.any():
                continue
            row = (
                generator.random(n_times) < max(spec.presence_density, 0.3)
            ).astype(np.uint8) & allowed
            if not row.any():
                row = allowed.copy()
            edge_ids.append((node_ids[i], node_ids[j]))
            edge_rows.append(row)

    for ghost in range(spec.dangling_edges):
        anchor = node_ids[int(generator.integers(n_nodes))]
        phantom = f"ghost{ghost}"
        pair = (anchor, phantom) if generator.random() < 0.5 else (phantom, anchor)
        row = np.zeros(n_times, dtype=np.uint8)
        row[int(generator.integers(n_times))] = 1
        edge_ids.append(pair)
        edge_rows.append(row)

    edge_presence = LabeledFrame(
        tuple(edge_ids),
        times,
        np.array(edge_rows, dtype=np.uint8).reshape(len(edge_ids), n_times),
    )
    return TemporalGraph(
        Timeline(times),
        node_presence,
        edge_presence,
        static,
        varying,
        validate=spec.dangling_edges == 0,
    )


def random_time_sets(
    rng: np.random.Generator,
    graph: TemporalGraph,
    n: int = 2,
    hostile: bool = False,
) -> tuple[tuple[Hashable, ...], ...]:
    """``n`` non-empty time-label selections from the graph's timeline.

    Benign mode returns subsets in timeline order; hostile mode shuffles
    and duplicates labels — arguments the operators and aggregation
    engines promise to normalize identically.
    """
    labels = graph.timeline.labels
    picks: list[tuple[Hashable, ...]] = []
    for _ in range(n):
        mask = rng.random(len(labels)) < 0.6
        if not mask.any():
            mask[int(rng.integers(len(labels)))] = True
        chosen = [t for t, keep in zip(labels, mask) if keep]
        if hostile:
            chosen = chosen + [
                chosen[int(rng.integers(len(chosen)))]
                for _ in range(int(rng.integers(1, 3)))
            ]
            rng.shuffle(chosen)  # type: ignore[arg-type]
        picks.append(tuple(chosen))
    return tuple(picks)


def graph_from_maps(
    times: Sequence[Hashable],
    node_times: Mapping[Hashable, Sequence[Hashable]],
    edge_times: Mapping[tuple[Hashable, Hashable], Sequence[Hashable]] | None = None,
    static: Mapping[Hashable, Mapping[str, Any]] | None = None,
    varying: Mapping[Hashable, Mapping[str, Mapping[Hashable, Any]]] | None = None,
    allow_dangling: bool = False,
    storage: str | None = None,
) -> TemporalGraph:
    """Build a graph from literal presence/attribute mappings.

    The constructor reproducer snippets call: every argument is a plain
    ``repr``-able mapping.  Inconsistent inputs raise from the
    :mod:`repro.errors` taxonomy:

    * a presence or attribute time absent from ``times`` —
      :class:`~repro.errors.UnknownLabelError`;
    * an attribute entry for an unknown node —
      :class:`~repro.errors.UnknownLabelError`;
    * a varying value at a time the node is absent, or an edge endpoint
      missing from ``node_times`` without ``allow_dangling`` —
      :class:`~repro.errors.ValidationError`.

    ``storage`` optionally pins the rebuilt graph to a named storage
    backend (:mod:`repro.storage`), so a reproducer replays the failure
    on the same physical layout it was found on.
    """
    timeline = tuple(times)
    if not timeline:
        raise ValidationError("graph_from_maps needs at least one time point")
    time_pos = {t: i for i, t in enumerate(timeline)}
    edge_times = edge_times or {}
    static = static or {}
    varying = varying or {}

    node_ids = tuple(node_times)
    node_pos = {n: i for i, n in enumerate(node_ids)}
    for mapping_name, keys in (("static", static), ("varying", varying)):
        unknown_nodes = set(keys) - set(node_pos)
        if unknown_nodes:
            raise UnknownLabelError(
                f"{mapping_name} values given for unknown nodes: "
                f"{sorted(map(repr, unknown_nodes))}"
            )

    presence = np.zeros((len(node_ids), len(timeline)), dtype=np.uint8)
    for node, active in node_times.items():
        for t in active:
            if t not in time_pos:
                raise UnknownLabelError(
                    f"node {node!r} presence at unknown time {t!r}"
                )
            presence[node_pos[node], time_pos[t]] = 1
    node_presence = LabeledFrame(node_ids, timeline, presence)

    static_names = tuple(
        sorted({name for values in static.values() for name in values})
    )
    static_values = np.empty((len(node_ids), len(static_names)), dtype=object)
    for row, node in enumerate(node_ids):
        provided = static.get(node, {})
        for col, name in enumerate(static_names):
            static_values[row, col] = provided.get(name)
    static_frame = LabeledFrame(node_ids, static_names, static_values)

    varying_names = tuple(
        sorted({name for values in varying.values() for name in values})
    )
    varying_frames: dict[str, LabeledFrame] = {}
    for name in varying_names:
        values = np.full((len(node_ids), len(timeline)), None, dtype=object)
        for node, node_attrs in varying.items():
            for t, value in node_attrs.get(name, {}).items():
                if t not in time_pos:
                    raise UnknownLabelError(
                        f"varying {name!r} for {node!r} at unknown time {t!r}"
                    )
                if not presence[node_pos[node], time_pos[t]]:
                    raise ValidationError(
                        f"varying {name!r} for {node!r} at {t!r}, but the "
                        "node is absent there: presence and attribute "
                        "frames are inconsistent"
                    )
                values[node_pos[node], time_pos[t]] = value
        varying_frames[name] = LabeledFrame(node_ids, timeline, values)

    edge_ids = tuple(edge_times)
    edge_values = np.zeros((len(edge_ids), len(timeline)), dtype=np.uint8)
    for row, (edge, active) in enumerate(edge_times.items()):
        u, v = edge
        if (u not in node_pos or v not in node_pos) and not allow_dangling:
            missing = u if u not in node_pos else v
            raise ValidationError(
                f"edge {edge!r} references node {missing!r} absent from "
                "node_times (pass allow_dangling=True to build a "
                "deliberately broken graph)"
            )
        for t in active:
            if t not in time_pos:
                raise UnknownLabelError(
                    f"edge {edge!r} presence at unknown time {t!r}"
                )
            edge_values[row, time_pos[t]] = 1
    edge_presence = LabeledFrame(edge_ids, timeline, edge_values)

    return TemporalGraph(
        Timeline(timeline),
        node_presence,
        edge_presence,
        static_frame,
        varying_frames,
        validate=False,
        storage=storage,
    )


def graph_to_maps(graph: TemporalGraph) -> dict[str, Any]:
    """The literal-mapping representation :func:`graph_from_maps` accepts.

    ``repr`` of the result is valid Python for the label types the
    generators produce (strings, ints) — the substrate of reproducer
    snippets.  Every read goes through the graph's storage backend
    (:mod:`repro.storage`), so reproducers extract identically from any
    registered physical layout — dense, columnar or memmapped.
    """
    backend = graph.storage
    times = backend.times

    def presence_map(entity: str) -> dict[Hashable, list[Hashable]]:
        matrix = backend.presence_matrix(entity)
        return {
            label: [t for t, flag in zip(times, matrix[row]) if flag]
            for row, label in enumerate(backend.entity_labels(entity))
        }

    static: dict[Hashable, dict[str, Any]] = {
        node: {} for node in backend.node_labels
    }
    for name in graph.static_attribute_names:
        column = backend.attribute_column(name)
        for node, value in zip(backend.node_labels, column):
            static[node][str(name)] = value
    varying: dict[Hashable, dict[str, dict[Hashable, Any]]] = {}
    for name in graph.varying_attribute_names:
        for t in times:
            column = backend.attribute_column(name, t)
            for node, value in zip(backend.node_labels, column):
                if value is not None:
                    varying.setdefault(node, {}).setdefault(name, {})[t] = value
    return {
        "times": list(times),
        "node_times": presence_map("nodes"),
        "edge_times": presence_map("edges"),
        "static": static,
        "varying": varying,
    }


def graph_from_updates(
    initial: TemporalGraph,
    updates: Sequence[SnapshotUpdate],
    storage: str | None = None,
) -> TemporalGraph:
    """The graph ``updates`` appended to ``initial`` describe, built from
    scratch.

    The updates' content is folded into :func:`graph_to_maps`'s mappings
    and built by :func:`graph_from_maps` -- never through
    :func:`~repro.core.updates.append_snapshot` -- so it is the oracle
    an appended version is diffed against.  Node and edge rows keep
    first-appearance order, as an append does.  Edge attributes are not
    carried (the literal mappings have none).
    """
    maps = graph_to_maps(initial)
    static_names = [str(n) for n in initial.static_attribute_names]
    for update in updates:
        t = update.time
        maps["times"].append(t)
        for node, values in update.nodes.items():
            if node not in maps["node_times"]:
                provided = update.static.get(node, {})
                maps["node_times"][node] = []
                maps["static"][node] = {n: provided.get(n) for n in static_names}
            maps["node_times"][node].append(t)
            for name, value in values.items():
                if value is not None:
                    maps["varying"].setdefault(node, {}).setdefault(name, {})[t] = value
        for edge in dict.fromkeys(update.edges):
            maps["edge_times"].setdefault(edge, []).append(t)
    return graph_from_maps(**maps, storage=storage)
