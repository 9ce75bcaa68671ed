"""Attribute aggregation of temporal graphs (Definition 2.6).

Aggregation groups nodes by the values of one or more attributes and
builds weighted aggregate nodes/edges with COUNT weights.  Two variants
exist (Section 2.2):

* **distinct** (``DIST``) — every appearance of an attribute tuple *on the
  same node* counts once; duplicates are removed before counting
  (Algorithm 2's ``deduplicate`` steps);
* **non-distinct** (``ALL``) — every appearance at every time point
  counts.

:func:`aggregate` is a vectorized engine over integer codes, following
the single-machine array model of Kairos rather than Algorithm 2's
relational pipeline.  The present ``(node, time)`` cells of the window
are found with one ``nonzero`` over the presence block; only those cells
are factorized, attribute by attribute, and the per-attribute codes are
folded into one dense tuple code per appearance.  DIST deduplication is
then a ``numpy.unique`` over ``(entity, tuple code)`` keys and counting
is a ``numpy.bincount``; edges look their endpoints' appearances up in a
``(node row, time)`` grid.  Every key stays below the square of the
number of appearances, so wide attribute domains cannot overflow.
Measures (:mod:`repro.core.measures`), evolution, exploration's
time-varying counts and the streaming evolution view read the same
appearance codes.

The literal Algorithm 2 transcription (unpivot / merge / deduplicate /
group-count over relational tables) lives in :mod:`repro.testing` as the
differential oracle this engine is fuzzed against.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import Any, NamedTuple

import numpy as np

from ..frames import Table
from ..obs.metrics import get_metrics
from ..obs.trace import trace_span
from ..parallel import Executor, InlineExecutor, get_executor, plan_chunks
from .graph import TemporalGraph
from .intervals import TimeSet
from .operators import ordered_times
from ..errors import AggregationError, UnknownLabelError

__all__ = [
    "AggregateGraph",
    "aggregate",
    "check_no_dangling_edges",
    "validated_window",
    "AttributeTuple",
    "EdgeKey",
]


def check_no_dangling_edges(graph: TemporalGraph) -> None:
    """Raise :class:`AggregationError` if any edge lacks a node row.

    The aggregation engine and its Algorithm-2 oracle share this
    contract: a dangling edge is a structural defect of the graph and
    fails loudly, independently of whether the edge happens to be present
    inside the aggregation window.  (The differential fuzz oracle relies
    on the engines agreeing on errors as much as on weights.)

    The check reads the storage backend's cached
    :meth:`~repro.storage.GraphStorageBackend.edge_endpoint_rows`, so it
    costs one array scan per call on any registered layout and names the
    backend it ran on.
    """
    backend = graph.storage
    sources, targets = backend.edge_endpoint_rows()
    broken = np.flatnonzero((sources < 0) | (targets < 0))
    if not broken.size:
        return
    row = int(broken[0])
    edge = backend.edge_labels[row]
    if not (isinstance(edge, tuple) and len(edge) == 2):
        raise AggregationError(
            f"edge {edge!r} is not a (source, target) pair "
            f"(storage backend {backend.name!r})"
        )
    missing = edge[0] if sources[row] < 0 else edge[1]
    raise AggregationError(
        f"edge {edge!r} references node {missing!r} absent from "
        "node presence; the graph has dangling edges "
        f"(storage backend {backend.name!r})"
    )


#: One aggregate node: the tuple of attribute values that defines it.
AttributeTuple = tuple[Any, ...]
#: One aggregate edge: source tuple -> target tuple.
EdgeKey = tuple[AttributeTuple, AttributeTuple]


@dataclass(frozen=True)
class AggregateGraph:
    """A weighted aggregate graph ``G'(V', E', W_V', W_E', A')``.

    ``node_weights`` maps each distinct attribute tuple to its COUNT
    weight; ``edge_weights`` maps ``(source tuple, target tuple)`` pairs.
    ``distinct`` records which variant produced the weights, because only
    non-distinct aggregates may be summed across time (T-distributivity,
    Section 4.3).
    """

    attributes: tuple[str, ...]
    node_weights: Mapping[AttributeTuple, int]
    edge_weights: Mapping[EdgeKey, int]
    distinct: bool = True

    # ------------------------------------------------------------------
    # Reading weights
    # ------------------------------------------------------------------

    @property
    def n_aggregate_nodes(self) -> int:
        return len(self.node_weights)

    @property
    def n_aggregate_edges(self) -> int:
        return len(self.edge_weights)

    def node_weight(self, key: Sequence[Any]) -> int:
        """Weight of one aggregate node (0 when the tuple never occurs)."""
        return self.node_weights.get(tuple(key), 0)

    def edge_weight(self, source: Sequence[Any], target: Sequence[Any]) -> int:
        """Weight of one aggregate edge (0 when the pair never occurs)."""
        return self.edge_weights.get((tuple(source), tuple(target)), 0)

    def total_node_weight(self) -> int:
        return sum(self.node_weights.values())

    def total_edge_weight(self) -> int:
        return sum(self.edge_weights.values())

    # ------------------------------------------------------------------
    # Derivation without the base graph (Section 4.3)
    # ------------------------------------------------------------------

    def rollup(self, attributes: Sequence[str]) -> "AggregateGraph":
        """Aggregate on a subset of this graph's attributes.

        COUNT is D-distributive w.r.t. top-down aggregation: grouping this
        graph's entities by the projected tuples and summing weights gives
        the aggregate on the attribute subset without touching the
        original temporal graph.  ``attributes`` must be a subset of this
        aggregate's attributes (any order; output tuples follow the
        requested order).
        """
        positions = []
        for name in attributes:
            try:
                positions.append(self.attributes.index(name))
            except ValueError:
                raise UnknownLabelError(
                    f"attribute {name!r} is not part of this aggregate "
                    f"({self.attributes!r})"
                ) from None
        node_weights: dict[AttributeTuple, int] = {}
        for key, weight in self.node_weights.items():
            projected = tuple(key[p] for p in positions)
            node_weights[projected] = node_weights.get(projected, 0) + weight
        edge_weights: dict[EdgeKey, int] = {}
        for (source, target), weight in self.edge_weights.items():
            projected = (
                tuple(source[p] for p in positions),
                tuple(target[p] for p in positions),
            )
            edge_weights[projected] = edge_weights.get(projected, 0) + weight
        return AggregateGraph(
            tuple(attributes), node_weights, edge_weights, distinct=self.distinct
        )

    def combine(self, other: "AggregateGraph") -> "AggregateGraph":
        """Pointwise weight sum — the T-distributive roll-up of Section 4.3.

        Valid only for non-distinct aggregates over the same attributes:
        summing per-time-point ALL aggregates yields the ALL aggregate of
        the union of the time points.  Distinct aggregates are rejected
        because distinct nodes cannot be identified across summands.
        """
        if self.attributes != other.attributes:
            raise AggregationError(
                f"cannot combine aggregates on {self.attributes!r} and "
                f"{other.attributes!r}"
            )
        if self.distinct or other.distinct:
            raise AggregationError(
                "distinct aggregates are not T-distributive; "
                "recompute from the temporal graph instead"
            )
        node_weights = dict(self.node_weights)
        for key, weight in other.node_weights.items():
            node_weights[key] = node_weights.get(key, 0) + weight
        edge_weights = dict(self.edge_weights)
        for key, weight in other.edge_weights.items():
            edge_weights[key] = edge_weights.get(key, 0) + weight
        return AggregateGraph(self.attributes, node_weights, edge_weights, distinct=False)

    def __add__(self, other: "AggregateGraph") -> "AggregateGraph":
        return self.combine(other)

    # ------------------------------------------------------------------
    # Comparison (the differential oracle's unit of observation)
    # ------------------------------------------------------------------

    def diff(self, other: "AggregateGraph") -> tuple[str, ...]:
        """Human-readable differences from another aggregate.

        Empty when the two are identical in every observable way
        (attributes, variant, and every node/edge weight).  Weight maps
        are compared key by key, so a mismatch names the first divergent
        aggregate entity instead of just "not equal" — this is what the
        differential fuzz oracle reports when two engines disagree.
        """
        problems: list[str] = []
        if self.attributes != other.attributes:
            problems.append(
                f"attributes differ: {self.attributes!r} != {other.attributes!r}"
            )
        if self.distinct != other.distinct:
            problems.append(
                f"variant differs: distinct={self.distinct} != {other.distinct}"
            )
        for kind, ours, theirs in (
            ("node", self.node_weights, other.node_weights),
            ("edge", self.edge_weights, other.edge_weights),
        ):
            for key in sorted(set(ours) | set(theirs), key=repr):
                a, b = ours.get(key, 0), theirs.get(key, 0)
                if a != b:
                    problems.append(f"{kind} weight {key!r}: {a} != {b}")
        return tuple(problems)

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------

    def to_tables(self) -> tuple[Table, Table]:
        """``(nodes, edges)`` tables sorted by descending weight."""
        nodes = Table(tuple(self.attributes) + ("weight",))
        for key, weight in sorted(
            self.node_weights.items(), key=lambda item: (-item[1], str(item[0]))
        ):
            nodes.append(key + (weight,))
        edges = Table(("source", "target", "weight"))
        for (source, target), weight in sorted(
            self.edge_weights.items(), key=lambda item: (-item[1], str(item[0]))
        ):
            edges.append((source, target, weight))
        return nodes, edges

    def __repr__(self) -> str:
        mode = "DIST" if self.distinct else "ALL"
        return (
            f"AggregateGraph({mode} on {self.attributes!r}: "
            f"{self.n_aggregate_nodes} nodes, {self.n_aggregate_edges} edges)"
        )


# ----------------------------------------------------------------------
# The vectorized kernel
# ----------------------------------------------------------------------

#: Mixed-radix tuple codes are re-densified before a multiplication
#: could leave int64.
_CODE_LIMIT = 1 << 62


class _TupleCodes(NamedTuple):
    """Dense attribute-tuple codes of the present node appearances.

    One entry per present ``(node row, window column)`` cell, in
    row-major order.  ``entity`` numbers the distinct present nodes
    ``0..n-1`` (the DIST deduplication unit); ``codes`` are dense tuple
    codes ``0..len(tuples)-1`` and ``tuples[code]`` decodes one.
    """

    rows: np.ndarray
    cols: np.ndarray
    entity: np.ndarray
    codes: np.ndarray
    tuples: list[AttributeTuple]


def _window_positions(graph: TemporalGraph, window: TimeSet) -> np.ndarray:
    """Timeline column index of every window label."""
    return np.fromiter(
        (graph.timeline.index_of(t) for t in window),
        dtype=np.intp,
        count=len(window),
    )


def _factorize(values: np.ndarray) -> tuple[np.ndarray, list[Any]]:
    """First-seen integer codes of a 1-D value array, plus the values.

    ``None`` is a value like any other: a present node without a
    time-varying value is grouped under ``None``, as Algorithm 2 groups
    it.  Values are matched by equality, as Algorithm 2's relational
    group-by matches them.
    """
    mapping: dict[Any, int] = {}
    codes = np.fromiter(
        (mapping.setdefault(value, len(mapping)) for value in values.tolist()),
        dtype=np.int64,
        count=len(values),
    )
    return codes, list(mapping)


def _tuple_codes(
    graph: TemporalGraph,
    attributes: Sequence[str],
    positions: np.ndarray,
    rows: np.ndarray | None = None,
) -> _TupleCodes:
    """Factorize the present appearances of ``rows`` (default: every
    node) over the timeline columns ``positions``.

    Only present cells are read.  A static attribute is factorized once
    per present node and broadcast to that node's appearances; a
    time-varying one per appearance.  The per-attribute codes are folded
    into one mixed-radix code and densified with ``numpy.unique``, which
    also yields one representative appearance per tuple to decode.
    """
    presence = graph.node_presence.values
    block = (
        presence[:, positions]
        if rows is None
        else presence[np.ix_(rows, positions)]
    )
    local, cols = np.nonzero(block)
    present = block.any(axis=1)
    entity = (np.cumsum(present) - 1)[local]
    present_rows = np.flatnonzero(present)
    if rows is not None:
        local = rows[local]
        present_rows = rows[present_rows]

    layers: list[tuple[np.ndarray, list[Any]]] = []
    for name in attributes:
        if graph.is_static(name):
            column = graph.static_attrs.values[
                present_rows, graph.static_attrs.col_position(name)
            ]
            codes, values = _factorize(column)
            layers.append((codes[entity], values))
        else:
            cells = graph.varying_attrs[name].values[local, positions[cols]]
            layers.append(_factorize(cells))

    combined = np.zeros(len(local), dtype=np.int64)
    ceiling = 1
    for codes, values in layers:
        radix = max(len(values), 1)
        if ceiling > _CODE_LIMIT // radix:
            _, combined = np.unique(combined, return_inverse=True)
            ceiling = len(local)
        combined = combined * radix + codes
        ceiling *= radix
    _, first, dense = np.unique(combined, return_index=True, return_inverse=True)
    decoded = [
        [values[code] for code in codes[first].tolist()]
        for codes, values in layers
    ]
    return _TupleCodes(
        rows=local,
        cols=cols,
        entity=entity,
        codes=dense.reshape(-1),
        # No attributes: every appearance carries the empty tuple.
        tuples=list(zip(*decoded)) if layers else [()] * len(first),
    )


def _appearance_values(
    graph: TemporalGraph,
    name: str,
    node_codes: _TupleCodes,
    positions: np.ndarray,
) -> np.ndarray:
    """The value of attribute ``name`` at every appearance of
    ``node_codes``, in appearance order (the cells themselves, not
    factorized representatives)."""
    if graph.is_static(name):
        frame = graph.static_attrs
        return frame.values[node_codes.rows, frame.col_position(name)]
    return graph.varying_attrs[name].values[
        node_codes.rows, positions[node_codes.cols]
    ]


def _edge_appearances(
    graph: TemporalGraph,
    node_codes: _TupleCodes,
    positions: np.ndarray,
    start: int = 0,
    stop: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(edge row, window column, source, target)`` per edge appearance
    of edge rows ``[start, stop)`` over ``positions``, in row-major
    order; ``source`` and ``target`` index the endpoints' appearances in
    ``node_codes``.

    An appearance is kept when both endpoints are present at that time
    in ``node_codes``.  A dangling endpoint (row ``-1``) is skipped, as
    is an endpoint absent at the edge's time: Algorithm 2's merge finds
    no tuple for either.
    """
    sources, targets = graph.storage.edge_endpoint_rows()
    sources, targets = sources[start:stop], targets[start:stop]
    block = graph.edge_presence.values[start:stop][:, positions]
    edge_rows, cols = np.nonzero(block)
    known = (sources[edge_rows] >= 0) & (targets[edge_rows] >= 0)
    edge_rows, cols = edge_rows[known], cols[known]
    grid = np.full((graph.n_nodes, len(positions)), -1, dtype=np.int64)
    grid[node_codes.rows, node_codes.cols] = np.arange(len(node_codes.rows))
    source = grid[sources[edge_rows], cols]
    target = grid[targets[edge_rows], cols]
    keep = (source >= 0) & (target >= 0)
    return edge_rows[keep] + start, cols[keep], source[keep], target[keep]


def _edge_pairs(
    node_codes: _TupleCodes, sources: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, list[EdgeKey]]:
    """Dense ``(source tuple, target tuple)`` pair code per edge
    appearance (endpoints as :func:`_edge_appearances` returns them),
    plus the decoded pairs."""
    tuples = node_codes.tuples
    radix = max(len(tuples), 1)
    pairs, dense = np.unique(
        node_codes.codes[sources] * radix + node_codes.codes[targets],
        return_inverse=True,
    )
    decoded = (part.tolist() for part in np.divmod(pairs, radix))
    return dense.reshape(-1), [
        (tuples[source], tuples[target]) for source, target in zip(*decoded)
    ]


def _count(
    entity: np.ndarray, codes: np.ndarray, radix: int, distinct: bool
) -> np.ndarray:
    """COUNT per code; DIST counts each ``(entity, code)`` pair once."""
    if not radix:
        return np.zeros(0, dtype=np.int64)
    if distinct:
        codes = np.unique(entity.astype(np.int64) * radix + codes) % radix
    return np.bincount(codes, minlength=radix)


def _weights(
    graph: TemporalGraph,
    attributes: Sequence[str],
    window: TimeSet,
    distinct: bool,
    task: _PartialTask | None = None,
) -> tuple[dict[AttributeTuple, int], dict[EdgeKey, int]]:
    """The kernel: ``(node weights, edge weights)`` of the whole graph, or
    of one ``(kind, start, stop)`` row-range task.

    A ``"node"`` task counts node rows ``[start, stop)`` only; an
    ``"edge"`` task counts edge rows ``[start, stop)`` only and
    factorizes just their endpoint node rows.
    """
    kind, start, stop = task or ("all", 0, graph.n_edges)
    positions = _window_positions(graph, window)
    rows: np.ndarray | None = None
    if kind == "node":
        rows = np.arange(start, stop)
    elif kind == "edge":
        sources, targets = graph.storage.edge_endpoint_rows()
        rows = np.unique(
            np.concatenate((sources[start:stop], targets[start:stop]))
        )
        rows = rows[rows >= 0]
    metrics = get_metrics()
    with trace_span("aggregate.factorize"):
        node_codes = _tuple_codes(graph, attributes, positions, rows)
    radix = len(node_codes.tuples)
    node_counts = pair_counts = np.zeros(0, dtype=np.int64)
    pairs: list[EdgeKey] = []
    with trace_span("aggregate.count"):
        if kind != "edge":
            metrics.inc("aggregate.appearances", len(node_codes.codes))
            node_counts = _count(
                node_codes.entity, node_codes.codes, radix, distinct
            )
        if kind != "node":
            edge_rows, _, sources, targets = _edge_appearances(
                graph, node_codes, positions, start, stop
            )
            metrics.inc("aggregate.appearances", len(edge_rows))
            pair_codes, pairs = _edge_pairs(node_codes, sources, targets)
            pair_counts = _count(edge_rows, pair_codes, len(pairs), distinct)
    with trace_span("aggregate.assemble"):
        node_weights = dict(zip(node_codes.tuples, node_counts.tolist()))
        edge_weights = dict(zip(pairs, pair_counts.tolist()))
    return node_weights, edge_weights


# ----------------------------------------------------------------------
# Parallel partials
#
# The kernel decomposes over *entity rows*: a node's (or edge's)
# contribution to the weight maps depends only on its own presence row
# and attribute values, and DIST deduplication is always intra-entity.
# Partitioning the row range therefore never splits a dedup group across
# chunks, and partial weight dicts merge by plain summation for DIST and
# ALL alike — which is what makes the parallel result bit-identical to
# the serial one.
# ----------------------------------------------------------------------

#: ``(graph, attributes, window, distinct)`` — the read-only payload
#: shared with every partial worker.
_PartialPayload = tuple[TemporalGraph, tuple[str, ...], TimeSet, bool]
#: ``(kind, start, stop)`` — one slice of node or edge row indices.
_PartialTask = tuple[str, int, int]


def _partial_weights(
    payload: _PartialPayload, task: _PartialTask
) -> tuple[dict[AttributeTuple, int], dict[EdgeKey, int]]:
    """Chunk worker: the weights contributed by one slice of entity rows.

    Module-level (and closed over nothing) so the process pool can pickle
    it; :class:`~repro.parallel.InlineExecutor` runs the very same
    function, which is what the parity suite leans on.
    """
    graph, attributes, window, distinct = payload
    return _weights(graph, attributes, window, distinct, task)


def _weights_parallel(
    graph: TemporalGraph,
    attributes: Sequence[str],
    window: TimeSet,
    distinct: bool,
    executor: Executor,
) -> tuple[dict[AttributeTuple, int], dict[EdgeKey, int]]:
    """Fan the kernel out over entity-row slices and merge."""
    tasks: list[_PartialTask] = [
        ("node", chunk.start, chunk.stop)
        for chunk in plan_chunks(graph.n_nodes, executor.workers)
    ]
    tasks += [
        ("edge", chunk.start, chunk.stop)
        for chunk in plan_chunks(graph.n_edges, executor.workers)
    ]
    payload: _PartialPayload = (graph, tuple(attributes), window, distinct)
    node_weights: dict[AttributeTuple, int] = {}
    edge_weights: dict[EdgeKey, int] = {}
    for partial_nodes, partial_edges in executor.map(
        _partial_weights, tasks, payload
    ):
        for key, weight in partial_nodes.items():
            node_weights[key] = node_weights.get(key, 0) + weight
        for edge_key, weight in partial_edges.items():
            edge_weights[edge_key] = edge_weights.get(edge_key, 0) + weight
    return node_weights, edge_weights


def aggregate(
    graph: TemporalGraph,
    attributes: Sequence[str],
    distinct: bool = True,
    times: Iterable[Hashable] | None = None,
    *,
    parallelism: int | str | None = None,
) -> AggregateGraph:
    """Aggregate a temporal graph on the given attributes (Definition 2.6).

    Parameters
    ----------
    graph:
        The temporal graph (typically the output of a temporal operator).
    attributes:
        Attribute names to group by, static and/or time-varying, in the
        order the output tuples should carry them.
    distinct:
        ``True`` for DIST semantics, ``False`` for ALL (Section 2.2).
    times:
        Time points to aggregate over; defaults to the graph's whole
        timeline (which, for operator outputs, is the operator's interval).
        Aggregating a graph over a window equals aggregating its union
        over that window.
    parallelism:
        ``None`` (ambient default — see :mod:`repro.parallel`), a worker
        count, or ``"auto"``.  Implicit defaults only engage the pool
        when the graph is large enough to amortize startup; the result
        is bit-identical either way.

    Returns
    -------
    AggregateGraph
        COUNT-weighted aggregate nodes and edges.
    """
    window = validated_window(graph, attributes, times)
    for name in attributes:
        graph.is_static(name)  # validates names
    get_metrics().inc("aggregate.calls")
    n_entities = len(graph.node_presence.row_labels) + len(
        graph.edge_presence.row_labels
    )
    executor = get_executor(
        parallelism, task_hint=n_entities * max(1, len(window))
    )
    with trace_span(
        "aggregate",
        distinct=distinct,
        attributes=tuple(attributes),
        n_times=len(window),
        workers=executor.workers,
    ):
        # Structural validation happens parent-side before any dispatch,
        # so a dangling edge raises the same error with or without a pool.
        check_no_dangling_edges(graph)
        if isinstance(executor, InlineExecutor):
            node_weights, edge_weights = _weights(
                graph, attributes, window, distinct
            )
        else:
            node_weights, edge_weights = _weights_parallel(
                graph, attributes, window, distinct, executor
            )
        get_metrics().inc(
            "aggregate.groups", len(node_weights) + len(edge_weights)
        )
        return AggregateGraph(
            tuple(attributes), node_weights, edge_weights, distinct=distinct
        )


def validated_window(
    graph: TemporalGraph,
    attributes: Sequence[str],
    times: Iterable[Hashable] | None,
) -> TimeSet:
    """Shared argument validation for the engine and its oracles.

    Checks the attribute list is non-empty and duplicate-free, and
    normalizes ``times`` to timeline order without duplicates: repeated
    or unordered time points must not change weights (ALL mode would
    otherwise double-count every repeated point).
    """
    if not attributes:
        raise AggregationError("aggregation needs at least one attribute")
    if len(set(attributes)) != len(attributes):
        raise AggregationError(f"duplicate aggregation attributes: {attributes!r}")
    if times is None:
        return graph.timeline.labels
    return ordered_times(graph, times)
