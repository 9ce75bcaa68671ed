"""Delta-maintained views over a streaming store.

A :class:`StreamingView` is state derived from the store's graph that is
kept current *incrementally*: each snapshot append hands the view the
new graph plus the update that produced it, and the view folds in the
new time point in O(new point) instead of recomputing from scratch.
Two maintenance strategies the base :class:`IncrementalStore` does not
cover live here:

* :class:`EvolutionView` — the evolution overlay (Definition 2.7 /
  Fig. 4b) between a pinned old window and the growing tail of appended
  points.  Appearance sets are per-point unions, so each append reads
  only the appended snapshot and moves per-tuple event counters; the
  maintained aggregate is bit-identical to
  :func:`~repro.core.evolution.aggregate_evolution` from scratch.
* :class:`ExplorationView` — incremental exploration state: the
  qualification mask of the growing new side is extended by exactly one
  OR (union semantics) or AND (intersection semantics) per appended
  point, the same single-column step :class:`ChainEvaluator` performs
  along a semi-lattice chain, preserving the U-/I-Explore pruning
  structure (counts stay monotone along the maintained chain).

Both exploit the append-only shape of the store: earlier presence
columns never change, and entities introduced later are absent from
every earlier column, so masks recorded before an entity existed are
extended exactly by padding with ``False``.

``rebuild(graph)`` reconstructs the full view state from a graph alone
(the store uses it at registration and to roll views back if an append
fails partway), and ``extend(graph, update)`` is the per-append delta
step; for every view here, ``rebuild`` equals the fold of ``extend``
over the appended points — the replay identity the fuzz laws check.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence
from typing import Any

import numpy as np

from ..core import TemporalGraph
from ..core.aggregation import (
    _edge_appearances,
    _edge_pairs,
    _tuple_codes,
    _window_positions,
)
from ..core.evolution import EvolutionAggregate, EvolutionWeights
from ..core.intervals import Interval
from ..core.operators import ordered_times
from ..core.updates import SnapshotUpdate
from ..errors import ExplorationError, ValidationError
from ..exploration.events import (
    ChainStep,
    EntityKind,
    EventType,
    event_mask_from,
    static_match_mask,
)
from ..exploration.lattice import Semantics, Side

__all__ = ["StreamingView", "EvolutionView", "ExplorationView"]


class StreamingView:
    """The contract a delta-maintained view implements.

    ``rebuild`` must reconstruct the complete state from the graph alone
    and ``extend`` must fold in exactly one appended time point, such
    that rebuilding on a grown graph equals extending point by point.
    """

    def rebuild(self, graph: TemporalGraph) -> None:
        """Reconstruct the view's state from scratch over ``graph``."""
        raise NotImplementedError

    def extend(self, graph: TemporalGraph, update: SnapshotUpdate) -> None:
        """Fold one appended point into the state; ``graph`` is the
        post-append graph and ``update`` the snapshot that produced it."""
        raise NotImplementedError


class EvolutionView(StreamingView):
    """Delta-maintained evolution overlay between a pinned old window
    and the growing window of appended points.

    Parameters
    ----------
    attributes:
        Aggregation attributes (Fig. 4b counts appearances of their
        tuples); at least one is required.
    old_times:
        The pinned old window ``T1``.  ``None`` pins the registration
        graph's whole timeline.

    Earlier columns never change, so the new window's appearance set is
    exactly the union of its per-point sets.  Each append reads the
    appended point's ``(entity, tuple)`` appearances straight from the
    :class:`~repro.core.SnapshotUpdate` — node tuples from the update's
    values plus the node's static row, edge tuples from its endpoints —
    and folds the ones not seen before into per-tuple
    ``[stability, growth, shrinkage]`` counters: an appearance already
    in the old window moves from shrinkage to stability, any other one
    is growth.  :meth:`current` then costs one pass over the counters;
    :meth:`rebuild` reads the appearances off the aggregation engine's
    tuple codes.
    """

    def __init__(
        self,
        attributes: Sequence[str],
        old_times: Sequence[Hashable] | None = None,
    ) -> None:
        if not attributes:
            raise ValidationError(
                "evolution view needs at least one attribute"
            )
        self.attributes = tuple(attributes)
        self._requested_old = tuple(old_times) if old_times is not None else None
        self._initial_labels: frozenset[Hashable] | None = None
        self._graph: TemporalGraph | None = None
        self._old_times: tuple[Hashable, ...] = ()
        self._new_labels: list[Hashable] = []
        self._nodes = _EventCounters(set())
        self._edges = _EventCounters(set())

    def rebuild(self, graph: TemporalGraph) -> None:
        if self._initial_labels is None:
            # First rebuild (view registration): pin the old window and
            # remember which labels predate streaming, so later rebuilds
            # can tell appended points apart from registration-time ones.
            self._initial_labels = frozenset(graph.timeline.labels)
        requested = (
            self._requested_old
            if self._requested_old is not None
            else tuple(t for t in graph.timeline.labels if t in self._initial_labels)
        )
        old = ordered_times(graph, requested)
        if not old:
            raise ValidationError("evolution view requires a non-empty old window")
        self._graph = graph
        self._old_times = old
        self._new_labels = [
            t for t in graph.timeline.labels if t not in self._initial_labels
        ]
        # One factorization over old ∪ new: the old window's distinct
        # appearances seed the counters, and each appended point's are
        # folded in timeline order, as ``extend`` folds them.
        window = ordered_times(graph, old, self._new_labels)
        positions = _window_positions(graph, window)
        codes = _tuple_codes(graph, self.attributes, positions)
        edge_rows, edge_cols, sources, targets = _edge_appearances(
            graph, codes, positions
        )
        pair_codes, pairs = _edge_pairs(codes, sources, targets)
        node_labels = graph.node_presence.row_labels
        nodes = (node_labels, codes.rows, codes.cols, codes.codes, codes.tuples)
        edge_labels = graph.edge_presence.row_labels
        edges = (edge_labels, edge_rows, edge_cols, pair_codes, pairs)
        in_old = np.isin(positions, _window_positions(graph, old))
        self._nodes = _EventCounters(_appearance_set(*nodes, in_old))
        self._edges = _EventCounters(_appearance_set(*edges, in_old))
        for label in self._new_labels:
            point = positions == graph.timeline.index_of(label)
            self._nodes.fold(_appearance_set(*nodes, point))
            self._edges.fold(_appearance_set(*edges, point))

    def extend(self, graph: TemporalGraph, update: SnapshotUpdate) -> None:
        static = graph.static_attrs
        static_cols = {
            name: static.col_position(name)
            for name in self.attributes
            if graph.is_static(name)
        }
        tuples = {
            node: tuple(
                static.values[static.row_position(node), static_cols[name]]
                if name in static_cols
                else values.get(name)
                for name in self.attributes
            )
            for node, values in update.nodes.items()
        }
        self._nodes.fold(tuples.items())
        self._edges.fold(
            (edge, (tuples[edge[0]], tuples[edge[1]])) for edge in update.edges
        )
        self._graph = graph
        self._new_labels.append(update.time)

    @property
    def old_times(self) -> tuple[Hashable, ...]:
        """The pinned old window ``T1`` (timeline order)."""
        return tuple(self._old_times)

    @property
    def new_times(self) -> tuple[Hashable, ...]:
        """The appended points forming the growing new window ``T2``."""
        return tuple(self._new_labels)

    def current(self) -> EvolutionAggregate:
        """The evolution aggregate between the pinned old window and the
        appended points, read off the maintained counters.

        Bit-identical to ``aggregate_evolution(graph, old, appended,
        attributes)`` on the current graph — the delta identity the
        ``streaming-evolution-delta`` fuzz law checks.  Raises
        :class:`~repro.errors.ValidationError` before the first append
        (the new window is still empty).
        """
        if self._graph is None:
            raise ValidationError("evolution view was never rebuilt")
        if not self._new_labels:
            raise ValidationError(
                "evolution view has no appended points yet; "
                "the new window is empty"
            )
        return EvolutionAggregate(
            attributes=self.attributes,
            old_times=self._old_times,
            new_times=ordered_times(self._graph, self._new_labels),
            node_weights=self._nodes.weights(),
            edge_weights=self._edges.weights(),
        )


def _appearance_set(
    labels: Sequence[Hashable],
    rows: np.ndarray,
    cols: np.ndarray,
    codes: np.ndarray,
    tuples: Sequence[Any],
    columns: np.ndarray,
) -> set[tuple[Any, Any]]:
    """The distinct ``(entity label, tuple)`` appearances among coded
    ones (entity row, window column, tuple code each) whose column is
    flagged in the boolean ``columns``."""
    radix = max(len(tuples), 1)
    selected = columns[cols]
    keys = np.unique(rows[selected].astype(np.int64) * radix + codes[selected])
    return {
        (labels[row], tuples[code])
        for row, code in zip(*(part.tolist() for part in np.divmod(keys, radix)))
    }


class _EventCounters:
    """Per-tuple ``[stability, growth, shrinkage]`` counts of one entity
    kind, kept current as new-window appearances arrive.

    Every old-window appearance starts as shrinkage.  A new-window
    appearance is counted once, the first time it is folded in: as
    stability (moved out of shrinkage) when the old window holds it too,
    else as growth.  A tuple's total never drops, so every tracked tuple
    keeps a non-zero weight.
    """

    def __init__(self, old: set[tuple[Any, Any]]) -> None:
        self._old = old
        self._new: set[tuple[Any, Any]] = set()
        self._counts: dict[Any, list[int]] = {}
        for _, key in old:
            self._counts.setdefault(key, [0, 0, 0])[2] += 1

    def fold(self, appearances: Iterable[tuple[Any, Any]]) -> None:
        for appearance in appearances:
            if appearance in self._new:
                continue
            self._new.add(appearance)
            counts = self._counts.setdefault(appearance[1], [0, 0, 0])
            if appearance in self._old:
                counts[0] += 1
                counts[2] -= 1
            else:
                counts[1] += 1

    def weights(self) -> dict[Any, EvolutionWeights]:
        return {
            key: EvolutionWeights(*counts) for key, counts in self._counts.items()
        }


def _padded(mask: np.ndarray, n_rows: int) -> np.ndarray:
    """The mask grown to ``n_rows`` with ``False`` for appended rows.

    Exact, not approximate: ``append_snapshot`` adds new entity rows at
    the end, and a row appended at point ``k`` is absent from every
    column before ``k`` — its from-scratch mask value over any earlier
    window is ``False`` under either semantics.
    """
    if mask.shape[0] == n_rows:
        return mask
    padded = np.zeros(n_rows, dtype=bool)
    padded[: mask.shape[0]] = mask
    return padded


class ExplorationView(StreamingView):
    """Incremental exploration state over the appended tail.

    Watches one event kind between a pinned reference point (the old
    side) and the growing window of appended points (the new side) —
    the streaming analogue of one :meth:`ChainEvaluator.chain` walk with
    ``ExtendSide.NEW``.  Per append, the new side's qualification mask
    is extended by a single OR/AND with the appended presence column,
    and the event count is re-reduced from the two masks; nothing is
    recomputed over the window.  Counts along the maintained chain keep
    the semi-lattice monotonicity U-/I-Explore prune by
    (:meth:`first_reaching`).

    Parameters
    ----------
    event, semantics, entity:
        The event kind counted, the new side's window semantics, and
        whether node or edge events are counted.
    attributes, key:
        As for :class:`~repro.exploration.EventCounter`, but restricted
        to *static* attributes — time-varying tuples would need the
        whole window's values per count, which is exactly the
        recomputation this view exists to avoid.
    reference:
        Timeline index of the pinned reference point; ``None`` pins the
        registration graph's last point.
    """

    def __init__(
        self,
        event: EventType,
        semantics: Semantics = Semantics.UNION,
        entity: EntityKind = EntityKind.EDGES,
        attributes: Sequence[str] = (),
        key: Any = None,
        reference: int | None = None,
    ) -> None:
        if key is not None and not attributes:
            raise ExplorationError("a key filter requires aggregation attributes")
        self.event = event
        self.semantics = semantics
        self.entity = entity
        self.attributes = tuple(attributes)
        self.key = key
        self._requested_reference = reference
        self._reference: int | None = None
        self._old_mask: np.ndarray = np.zeros(0, dtype=bool)
        self._new_mask: np.ndarray | None = None
        self._match: np.ndarray | None = None
        self._steps: list[ChainStep] = []

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def _presence(self, graph: TemporalGraph) -> np.ndarray:
        """The raw (``uint8``) presence matrix of the watched entity."""
        if self.entity is EntityKind.NODES:
            return graph.node_presence.values
        return graph.edge_presence.values

    def _entity_labels(self, graph: TemporalGraph) -> tuple[Hashable, ...]:
        if self.entity is EntityKind.NODES:
            return graph.node_presence.row_labels
        return graph.edge_presence.row_labels

    def rebuild(self, graph: TemporalGraph) -> None:
        for name in self.attributes:
            if not graph.is_static(name):
                raise ExplorationError(
                    f"exploration view attribute {name!r} is time-varying; "
                    "only static attributes are delta-maintainable"
                )
        n_times = len(graph.timeline.labels)
        if self._reference is None:
            reference = (
                self._requested_reference
                if self._requested_reference is not None
                else n_times - 1
            )
            if not 0 <= reference < n_times:
                raise ExplorationError(
                    f"view reference {reference} out of range 0..{n_times - 1}"
                )
            self._reference = reference
        presence = self._presence(graph).astype(bool)
        self._old_mask = presence[:, self._reference].copy()
        self._match = (
            static_match_mask(graph, self.entity, self.attributes, self.key)
            if self.key is not None
            else None
        )
        self._new_mask = None
        self._steps = []
        for index in range(self._reference + 1, n_times):
            self._absorb(presence[:, index], index)

    def extend(self, graph: TemporalGraph, update: SnapshotUpdate) -> None:
        labels = self._entity_labels(graph)
        n_rows = len(labels)
        previous_rows = self._old_mask.shape[0]
        self._old_mask = _padded(self._old_mask, n_rows)
        if self._new_mask is not None:
            self._new_mask = _padded(self._new_mask, n_rows)
        if self._match is not None and n_rows > previous_rows:
            # Delta path: resolve static tuples only for the rows this
            # append introduced, never over the whole entity set.
            appended = static_match_mask(
                graph,
                self.entity,
                self.attributes,
                self.key,
                entities=labels[previous_rows:],
            )
            self._match = np.concatenate([self._match, appended])
        index = len(graph.timeline.labels) - 1
        self._absorb(self._presence(graph)[:, index].astype(bool), index)

    def _absorb(self, column: np.ndarray, index: int) -> None:
        """One chain step: extend the new-side mask by ``column``."""
        if self._new_mask is None:
            new_mask = column.copy()
        elif self.semantics is Semantics.UNION:
            new_mask = self._new_mask | column
        else:
            new_mask = self._new_mask & column
        self._new_mask = new_mask
        mask = event_mask_from(self.event, self._old_mask, new_mask)
        if self._match is not None:
            count = int((mask & self._match).sum())
        else:
            count = int(mask.sum())
        assert self._reference is not None
        self._steps.append(
            ChainStep(
                Side.point(self._reference),
                Side(Interval(self._reference + 1, index), self.semantics),
                count,
                mask,
            )
        )

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    @property
    def reference(self) -> int | None:
        """The pinned reference index (``None`` before first rebuild)."""
        return self._reference

    def steps(self) -> tuple[ChainStep, ...]:
        """Every maintained chain step, oldest first — the same
        ``(old, new, count, mask)`` records ``ChainEvaluator.chain``
        yields for this reference on the current graph (early-step masks
        padded with ``False`` for entities that did not exist yet)."""
        return tuple(self._steps)

    def counts(self) -> tuple[int, ...]:
        """The event count after each append, oldest first."""
        return tuple(step.count for step in self._steps)

    def current_count(self) -> int:
        """The event count between the reference and the full appended
        window; raises before the first append."""
        if not self._steps:
            raise ExplorationError(
                "exploration view has no appended points yet"
            )
        return self._steps[-1].count

    def first_reaching(self, threshold: int) -> int | None:
        """Index of the earliest step whose count meets ``threshold``.

        Under union semantics the maintained counts are monotone along
        the chain for growth/stability events, so once a step reaches
        the threshold every later step does too — the U-Explore pruning
        rule, answered here without evaluating anything new.
        """
        for i, step in enumerate(self._steps):
            if step.count >= threshold:
                return i
        return None
