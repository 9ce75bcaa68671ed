"""Event definition and counting (``result(G)``, Section 3).

Three event kinds are derived from an ordered pair of sides
``(old, new)``:

* **stability** — entities qualifying on both sides (the intersection
  graph of the pair);
* **growth** — entities qualifying on the new side but not the old
  (``T_new - T_old``);
* **shrinkage** — entities qualifying on the old side but not the new
  (``T_old - T_new``).

``result(G)`` is the number of events of interest in the aggregate of the
event graph: either the total entity count, or — as in the paper's
Figures 13/14, which track female-female edges — the DIST weight of one
aggregate entity.  :class:`EventCounter` reads the counted entity's
presence from storage and precomputes per-entity tuple matches (static
attributes) and integer tuple-code matrices (time-varying attributes),
so a single count is a handful of vectorized mask operations;
exploration runs thousands of counts.  :meth:`EventCounter.count_packed`
counts many pairs at once from packed ``uint64`` event masks — the entry
point of the exploration kernel in :mod:`repro.exploration.explore`.

:class:`ChainEvaluator` is the per-pair walk: along one semi-lattice
extension chain, consecutive pairs differ by exactly one base time
point, so the extended side's qualification mask is maintained with a
single OR/AND per step instead of re-reducing the whole growing window.
Threshold suggestion, two-sided exploration and the reference explorer
in :mod:`repro.testing.reference_explore` walk it.
"""

from __future__ import annotations

import enum
from collections.abc import Hashable, Iterator, Sequence
from dataclasses import dataclass
from typing import Any, cast

import numpy as np

from ..core import Interval, TemporalGraph
from ..core.aggregation import _factorize, _tuple_codes
from .lattice import ExtendSide, Semantics, Side
from ..errors import ExplorationError
from ..obs.metrics import get_metrics

__all__ = [
    "EventType",
    "EntityKind",
    "EventCounter",
    "ChainEvaluator",
    "ChainStep",
    "event_mask_from",
    "static_match_mask",
]

#: Sentinel tuple code for a key whose tuple never occurs in the graph:
#: distinct from every assigned code (>= 0) and from the "entity absent"
#: marker (-1), so comparisons against it match nothing.
_UNSEEN_CODE = -2


class EventType(enum.Enum):
    """The three evolution event kinds (Section 3)."""

    STABILITY = "stability"
    GROWTH = "growth"
    SHRINKAGE = "shrinkage"

    def __str__(self) -> str:
        return self.value


class EntityKind(enum.Enum):
    """Which entities an exploration counts events over."""

    NODES = "nodes"
    EDGES = "edges"

    def __str__(self) -> str:
        return self.value


def event_mask_from(
    event: EventType, old_mask: np.ndarray, new_mask: np.ndarray
) -> np.ndarray:
    """Combine two side-qualification masks into the event-entity mask.

    Public because it *is* the lattice-to-operator correspondence the
    metamorphic laws check: stability is the intersection mask, growth
    the ``new - old`` difference mask, shrinkage the reverse.
    """
    if event is EventType.STABILITY:
        return old_mask & new_mask
    if event is EventType.GROWTH:
        return new_mask & ~old_mask
    return old_mask & ~new_mask


def static_match_mask(
    graph: TemporalGraph,
    entity: EntityKind,
    attributes: Sequence[str],
    key: Any,
    entities: Sequence[Hashable] | None = None,
) -> np.ndarray:
    """Per-entity boolean mask: static attribute tuple matches ``key``.

    ``entities`` restricts the mask to a subset of entity ids (in the
    given order) — the delta path :class:`repro.streaming.ExplorationView`
    uses to extend its match mask with only the rows a snapshot append
    introduced, instead of rebuilding over the whole entity set.  With
    ``entities=None`` the mask covers every row of the entity's presence
    frame, in row order (what :class:`EventCounter` precomputes).

    Each attribute column is factorized once into integer codes, so the
    key becomes one code comparison per attribute, gathered through the
    edge endpoint rows for edge entities.  An edge with a dangling
    endpoint raises :class:`~repro.errors.ExplorationError`.
    """
    matches = _static_key_matches(graph, attributes, _key_tuples(entity, key))
    if entity is EntityKind.NODES:
        (match,) = matches
        if entities is not None:
            frame = graph.node_presence
            match = match[[frame.row_position(node) for node in entities]]
        return match
    source_match, target_match = matches
    sources, targets = _edge_endpoint_rows(graph, entities)
    return source_match[sources] & target_match[targets]


def _key_tuples(entity: EntityKind, key: Any) -> tuple[tuple[Any, ...], ...]:
    """The node tuples a key names: ``(key,)`` for a node key, ``(source,
    target)`` for an edge key.  A malformed key raises
    :class:`~repro.errors.ExplorationError`."""
    try:
        if entity is EntityKind.NODES:
            return (tuple(key),)
        source, target = key
        return (tuple(source), tuple(target))
    except (TypeError, ValueError):
        shape = (
            "an attribute tuple"
            if entity is EntityKind.NODES
            else "a (source tuple, target tuple) pair"
        )
        raise ExplorationError(f"{entity} key {key!r} is not {shape}") from None


def _code_of(values: Sequence[Any], value: Any) -> int:
    """The position of ``value`` in ``values`` (matched by equality), or
    :data:`_UNSEEN_CODE` when it never occurs."""
    try:
        return values.index(value)
    except ValueError:
        return _UNSEEN_CODE


def _static_key_matches(
    graph: TemporalGraph, attributes: Sequence[str], keys: Sequence[Any]
) -> list[np.ndarray]:
    """Per key tuple, which nodes' static attribute tuple equals it.

    Values match by equality, as tuples compare element-wise: each
    column is factorized once and every key element resolved to its
    code (a never-seen element matches no node).
    """
    attributes = tuple(attributes)
    matches = [
        np.full(graph.n_nodes, len(key) == len(attributes)) for key in keys
    ]
    frame = graph.static_attrs
    for position, name in enumerate(attributes):
        codes, values = _factorize(frame.values[:, frame.col_position(name)])
        for match, key in zip(matches, keys):
            if position < len(key):
                match &= codes == _code_of(values, key[position])
    return matches


def _edge_endpoint_rows(
    graph: TemporalGraph, edges: Sequence[Hashable] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Node rows of each edge's endpoints, raising from the taxonomy on
    a dangling edge instead of leaking a bare ``KeyError``.

    ``edges=None`` reads the storage's cached
    :meth:`~repro.storage.GraphStorageBackend.edge_endpoint_rows`;
    a subset resolves only its own endpoints.
    """
    if edges is None:
        labels = graph.edge_presence.row_labels
        sources, targets = graph.storage.edge_endpoint_rows()
    else:
        labels = tuple(edges)
        frame = graph.node_presence
        rows = np.array(
            [
                [frame.row_position(n) if frame.has_row(n) else -1 for n in edge]
                for edge in cast("tuple[tuple[Hashable, ...], ...]", labels)
            ],
            dtype=np.intp,
        ).reshape(len(labels), 2)
        sources, targets = rows[:, 0], rows[:, 1]
    broken = np.flatnonzero((sources < 0) | (targets < 0))
    if broken.size:
        row = int(broken[0])
        edge = labels[row]
        if not (isinstance(edge, tuple) and len(edge) == 2):
            raise ExplorationError(f"edge {edge!r} is not a (source, target) pair")
        node = edge[0] if sources[row] < 0 else edge[1]
        raise ExplorationError(
            f"edge {edge!r} references node {node!r} absent from "
            "node presence; the graph has dangling edges"
        )
    return sources, targets


def _unpack(bits: np.ndarray, n_entities: int) -> np.ndarray:
    """Boolean ``(rows, n_entities)`` view of packed ``uint64`` rows."""
    return np.unpackbits(
        bits.view(np.uint8), axis=-1, count=n_entities, bitorder="little"
    ).view(bool)


#: ``np.bitwise_count`` (numpy >= 2.0), else ``None``.
_BITWISE_COUNT = getattr(np, "bitwise_count", None)


def _row_popcount(words: np.ndarray) -> np.ndarray:
    """Set bits per row of a ``(rows, n_words)`` ``uint64`` matrix."""
    if _BITWISE_COUNT is not None:
        return np.add.reduce(_BITWISE_COUNT(words), axis=1, dtype=np.int64)
    return np.add.reduce(
        np.unpackbits(words.view(np.uint8), axis=1), axis=1, dtype=np.int64
    )


class EventCounter:
    """Counts events of one kind of entity between two sides.

    Parameters
    ----------
    graph:
        The temporal graph being explored.
    entity:
        Count node events or edge events.
    attributes:
        Aggregation attributes; empty means "count raw entities".
    key:
        The aggregate entity whose weight is the result.  For nodes, an
        attribute tuple (e.g. ``("f",)``); for edges, a
        ``(source tuple, target tuple)`` pair (e.g. ``(("f",), ("f",))``
        for female-female edges).  ``None`` counts all entities.

    Static-attribute keys are resolved once into a boolean per-entity
    match mask.  Time-varying attributes fall back to counting distinct
    ``(entity, tuple)`` appearances inside the event window; to keep
    that path vectorized, the per-``(node, t)`` attribute tuples are
    factorized once at construction into an integer code matrix, so each
    count is a masked numpy reduction instead of a Python loop over
    entities x window.
    """

    def __init__(
        self,
        graph: TemporalGraph,
        entity: EntityKind = EntityKind.EDGES,
        attributes: Sequence[str] = (),
        key: Any = None,
    ) -> None:
        self.graph = graph
        self.entity = entity
        self.attributes = tuple(attributes)
        self.key = key
        if key is not None and not self.attributes:
            raise ExplorationError("a key filter requires aggregation attributes")
        #: The node tuples ``key`` names (one per endpoint for edges).
        self._key = _key_tuples(entity, key) if key is not None else None
        # Presence is read from the graph's storage backend, and only
        # for the counted entity: the exploration kernel ORs/ANDs the
        # cached time-major bits directly, and the boolean matrix the
        # per-pair paths index is unpacked from them on first use.
        self._n_entities = (
            graph.n_nodes if entity is EntityKind.NODES else graph.n_edges
        )
        self._presence_matrix: np.ndarray | None = None
        self._all_static = all(graph.is_static(a) for a in self.attributes)
        self._match_mask = self._build_match_mask() if self._all_static else None
        self._match_bits: np.ndarray | None = None
        #: Integer tuple code per (entity row, time column); -1 marks an
        #: absent entity.  Only built for the time-varying fallback.
        self._entity_codes: np.ndarray | None = None
        #: Row stride for building distinct (entity, code) ids.
        self._code_stride = 1
        #: Resolved code of ``key`` (pair code for edges), or ``None``
        #: when no key applies on the time-varying path.
        self._key_code: int | None = None
        if self.attributes and not self._all_static:
            self._build_tuple_codes()

    # ------------------------------------------------------------------
    # Precomputation
    # ------------------------------------------------------------------

    def _build_match_mask(self) -> np.ndarray | None:
        """Per-entity boolean: does this entity's static tuple match key?"""
        if self.key is None:
            return None
        return static_match_mask(
            self.graph, self.entity, self.attributes, self.key
        )

    def _build_tuple_codes(self) -> None:
        """Lay the aggregation engine's appearance codes out as a dense
        ``(node, t)`` tuple-code matrix; absent cells stay ``-1``.

        One factorization over the whole timeline, amortized over every
        subsequent count.  For edge entities the endpoint codes are
        further combined into a single pair code per ``(edge, t)`` cell,
        so distinct-appearance counting is one ``np.unique`` over masked
        ids.
        """
        graph = self.graph
        n_times = len(graph.timeline)
        appearances = _tuple_codes(graph, self.attributes, np.arange(n_times))
        codes = np.full((graph.n_nodes, n_times), -1, dtype=np.int64)
        codes[appearances.rows, appearances.cols] = appearances.codes
        base = max(1, len(appearances.tuples))
        key_codes = (
            [_code_of(appearances.tuples, node_key) for node_key in self._key]
            if self._key is not None
            else []
        )
        if self.entity is EntityKind.NODES:
            self._entity_codes = codes
            self._code_stride = base
            if key_codes:
                (self._key_code,) = key_codes
            return
        source_rows, target_rows = _edge_endpoint_rows(graph)
        source_codes = codes[source_rows]
        target_codes = codes[target_rows]
        defined = (source_codes >= 0) & (target_codes >= 0)
        self._entity_codes = np.where(
            defined, source_codes * base + target_codes, -1
        )
        self._code_stride = base * base
        if key_codes:
            source_code, target_code = key_codes
            self._key_code = (
                source_code * base + target_code
                if source_code >= 0 and target_code >= 0
                else _UNSEEN_CODE
            )

    # ------------------------------------------------------------------
    # Side qualification
    # ------------------------------------------------------------------

    def presence_bits(self) -> np.ndarray:
        """The counted entity's time-major packed presence (see
        :meth:`~repro.storage.GraphStorageBackend.presence_bits`)."""
        return self.graph.storage.presence_bits(self.entity.value)

    def _presence(self) -> np.ndarray:
        """Boolean ``(n_entities, n_times)`` presence of the counted
        entity, unpacked once from :meth:`presence_bits`."""
        if self._presence_matrix is None:
            self._presence_matrix = _unpack(
                self.presence_bits(), self._n_entities
            ).T
        return self._presence_matrix

    def _qualify(self, side: Side) -> np.ndarray:
        """Boolean entity mask: qualifies on this side (ANY vs ALL)."""
        window = self._presence()[:, side.interval.start : side.interval.stop + 1]
        if side.semantics is Semantics.UNION:
            return window.any(axis=1)
        return window.all(axis=1)

    def event_mask(self, event: EventType, old: Side, new: Side) -> np.ndarray:
        """Boolean mask of entities participating in the event."""
        return event_mask_from(event, self._qualify(old), self._qualify(new))

    def event_entities(
        self, event: EventType, old: Side, new: Side
    ) -> tuple[Hashable, ...]:
        """The entity ids participating in the event."""
        mask = self.event_mask(event, old, new)
        labels = (
            self.graph.node_presence.row_labels
            if self.entity is EntityKind.NODES
            else self.graph.edge_presence.row_labels
        )
        return tuple(label for label, keep in zip(labels, mask) if keep)

    # ------------------------------------------------------------------
    # result(G)
    # ------------------------------------------------------------------

    def count(self, event: EventType, old: Side, new: Side) -> int:
        """``result(G)`` for the event graph of ``(old, new)``."""
        return self.count_for_mask(
            event, old, new, self.event_mask(event, old, new)
        )

    def count_for_mask(
        self, event: EventType, old: Side, new: Side, mask: np.ndarray
    ) -> int:
        """``result(G)`` given a precomputed event-entity mask.

        The mask must be the one :meth:`event_mask` would return for the
        same pair; :class:`ChainEvaluator` maintains it incrementally
        along extension chains instead of recomputing it per pair.
        """
        if self._match_mask is not None:
            return int((mask & self._match_mask).sum())
        if self._all_static:
            return int(mask.sum())
        return self._count_appearances(event, old, new, mask)

    @property
    def counts_windows(self) -> bool:
        """Whether a count reads the pair's time windows (time-varying
        attributes) rather than only its event mask."""
        return not self._all_static

    @property
    def match_bits(self) -> np.ndarray | None:
        """The static key match packed like one row of
        :meth:`presence_bits` (``None`` when no static key applies)."""
        if self._match_bits is None and self._match_mask is not None:
            packed = np.packbits(self._match_mask, bitorder="little")
            words = np.zeros(-(-packed.size // 8) * 8, dtype=np.uint8)
            words[: packed.size] = packed
            self._match_bits = words.view(np.uint64)
        return self._match_bits

    def count_packed(
        self,
        event: EventType,
        masks: np.ndarray,
        sides: Sequence[tuple[Side, Side]] | None = None,
    ) -> np.ndarray:
        """``result(G)`` for each row of packed event masks.

        ``masks`` is ``(n_pairs, n_words)`` ``uint64`` in the
        :meth:`presence_bits` layout, already ANDed with
        :attr:`match_bits` when a static key applies.  Mask-sum counts
        are one popcount per row; when :attr:`counts_windows`, ``sides``
        gives each row's ``(old, new)`` pair and every row is unpacked
        and reduced through the appearance counting
        :meth:`count_for_mask` uses.
        """
        if self._all_static:
            return _row_popcount(masks)
        if sides is None:
            raise ExplorationError("time-varying counts need each row's sides")
        rows = _unpack(masks, self._n_entities)
        return np.fromiter(
            (
                self._count_appearances(event, old, new, row)
                for (old, new), row in zip(sides, rows)
            ),
            dtype=np.int64,
            count=len(rows),
        )

    def _event_window_indices(
        self, event: EventType, old: Side, new: Side
    ) -> list[int]:
        """Timeline indices whose attribute values define the event's
        tuples, deduplicated (overlapping stability sides would repeat
        indices) and in timeline order."""
        if event is EventType.GROWTH:
            return list(new.interval.indices())
        if event is EventType.SHRINKAGE:
            return list(old.interval.indices())
        return sorted(set(old.interval.indices()) | set(new.interval.indices()))

    def _event_window(self, event: EventType, old: Side, new: Side) -> list[Hashable]:
        """Time points whose attribute values define the event's tuples."""
        labels = self.graph.timeline.labels
        return [labels[i] for i in self._event_window_indices(event, old, new)]

    def _count_appearances(
        self, event: EventType, old: Side, new: Side, mask: np.ndarray
    ) -> int:
        """Fallback for time-varying attributes: distinct (entity, tuple)
        appearances in the event window, optionally filtered by key.

        Pure masked numpy reductions over the precomputed tuple-code
        matrix: a key count is one equality + ``any`` per entity row, a
        keyless count one ``np.unique`` over the masked (entity, code)
        ids.
        """
        codes = self._entity_codes
        if codes is None:  # pragma: no cover - guarded by count_for_mask
            raise ExplorationError("tuple codes were not built for this counter")
        window = self._event_window_indices(event, old, new)
        window_codes = codes[:, window]
        valid = (
            self._presence()[:, window]
            & (window_codes >= 0)
            & mask[:, None]
        )
        if self.key is not None:
            hits = valid & (window_codes == self._key_code)
            return int(hits.any(axis=1).sum())
        rows, cols = np.nonzero(valid)
        ids = rows * self._code_stride + window_codes[rows, cols]
        return int(np.unique(ids).size)


@dataclass(frozen=True)
class ChainStep:
    """One evaluated interval pair along an extension chain."""

    old: Side
    new: Side
    count: int
    #: The event-entity mask the count was reduced from (parity-tested
    #: against :meth:`EventCounter.event_mask`).
    mask: np.ndarray


class ChainEvaluator:
    """Incremental ``result(G)`` evaluation along semi-lattice chains.

    One exploration run evaluates thousands of interval pairs, but the
    pairs are not independent: along one extension chain the reference
    side never changes and the extended side grows by exactly one base
    time point per step.  The evaluator exploits both facts —

    * the reference side's qualification mask is computed **once per
      chain** instead of once per pair;
    * the extended side's mask is maintained **incrementally**: each
      semi-lattice extension is a single OR (union semantics) or AND
      (intersection semantics) with one presence column, O(entities)
      instead of O(entities x span).

    ``incremental=False`` recomputes both side masks from scratch at
    every step — the naive per-pair path the seed implementation used.
    Both modes produce bit-identical masks and counts (asserted by the
    parity suite); the flag exists for the reference explorer's naive
    mode in :mod:`repro.testing.reference_explore`.
    """

    def __init__(
        self,
        counter: EventCounter,
        event: EventType,
        incremental: bool = True,
    ) -> None:
        self.counter = counter
        self.event = event
        self.incremental = incremental

    # ------------------------------------------------------------------
    # Mask primitives (also used by the two-sided explorer)
    # ------------------------------------------------------------------

    def _presence(self) -> np.ndarray:
        return self.counter._presence()

    def point_mask(self, index: int) -> np.ndarray:
        """The presence column of one base time point."""
        return self._presence()[:, index]

    def side_mask(self, side: Side) -> np.ndarray:
        """A side's qualification mask, reduced from scratch."""
        return self.counter._qualify(side)

    def extend_side_mask(
        self, mask: np.ndarray, index: int, semantics: Semantics
    ) -> np.ndarray:
        """The mask of a side extended by the base point ``index`` —
        one OR/AND with a single presence column."""
        column = self.point_mask(index)
        if semantics is Semantics.UNION:
            return mask | column
        return mask & column

    def _step(
        self,
        old: Side,
        new: Side,
        old_mask: np.ndarray | None,
        new_mask: np.ndarray | None,
    ) -> ChainStep:
        if not self.incremental or old_mask is None or new_mask is None:
            old_mask = self.counter._qualify(old)
            new_mask = self.counter._qualify(new)
        mask = event_mask_from(self.event, old_mask, new_mask)
        count = self.counter.count_for_mask(self.event, old, new, mask)
        get_metrics().inc("exploration.chain_steps")
        return ChainStep(old, new, count, mask)

    def pair_count(
        self,
        old: Side,
        new: Side,
        old_mask: np.ndarray | None = None,
        new_mask: np.ndarray | None = None,
    ) -> int:
        """``result(G)`` for one explicit pair, reusing caller-maintained
        side masks when given (the two-sided explorer's entry point)."""
        return self._step(old, new, old_mask, new_mask).count

    # ------------------------------------------------------------------
    # Chain walks (the Table-1 strategies' inner loops)
    # ------------------------------------------------------------------

    def chain(
        self, reference: int, extend: ExtendSide, semantics: Semantics
    ) -> Iterator[ChainStep]:
        """The extension chain of one reference point, lazily evaluated.

        Extending NEW: the reference is the old point ``reference`` and
        the new side runs ``[reference+1]``, ``[reference+1..reference+2]``,
        ...  Extending OLD: the reference is the new point
        ``reference + 1`` and the old side runs ``[reference]``,
        ``[reference-1..reference]``, ...  Laziness matters: U-Explore
        and I-Explore prune the tail of the chain, and no pruned step is
        ever evaluated.
        """
        presence = self._presence()
        n_times = presence.shape[1]
        if not 0 <= reference < n_times - 1:
            raise ExplorationError(
                f"chain reference {reference} out of range 0..{n_times - 2}"
            )
        get_metrics().inc("exploration.chains")
        if extend is ExtendSide.NEW:
            old = Side.point(reference)
            reference_mask = presence[:, reference]
            extended = presence[:, reference + 1]
            for stop in range(reference + 1, n_times):
                if stop > reference + 1:
                    extended = self.extend_side_mask(extended, stop, semantics)
                yield self._step(
                    old,
                    Side(Interval(reference + 1, stop), semantics),
                    reference_mask,
                    extended,
                )
        else:
            new = Side.point(reference + 1)
            reference_mask = presence[:, reference + 1]
            extended = presence[:, reference]
            for start in range(reference, -1, -1):
                if start < reference:
                    extended = self.extend_side_mask(extended, start, semantics)
                yield self._step(
                    Side(Interval(start, reference), semantics),
                    new,
                    extended,
                    reference_mask,
                )

    def consecutive(
        self, start: int = 0, stop: int | None = None
    ) -> Iterator[ChainStep]:
        """Consecutive point pairs ``(T_i, T_{i+1})`` — threshold
        initialization (Section 3.5) and the degenerate minimal cases.
        Each presence column is sliced once and shared by its two pairs.
        ``start``/``stop`` bound the reference indices ``i`` (defaults:
        every pair), letting the parallel explorer hand each chunk a
        slice of the references."""
        presence = self._presence()
        last = presence.shape[1] - 1 if stop is None else stop
        for i in range(start, last):
            yield self._step(
                Side.point(i),
                Side.point(i + 1),
                presence[:, i],
                presence[:, i + 1],
            )

    def longest(
        self, extend: ExtendSide, start: int = 0, stop: int | None = None
    ) -> Iterator[ChainStep]:
        """Per reference point, the longest intersection-semantics
        extension — the degenerate maximal cases of Table 1.  The
        prefix/suffix ANDs are accumulated incrementally, one column per
        reference, instead of re-reducing each full-length window.

        ``start``/``stop`` bound the reference indices.  A ranged call
        seeds the prefix (and trims the suffix precomputation) with the
        same left-to-right / right-to-left column order as the full
        walk, so every step's mask is bit-identical to the serial one.
        """
        presence = self._presence()
        n_times = presence.shape[1]
        last = n_times - 1 if stop is None else stop
        if extend is ExtendSide.OLD:
            accumulated = presence[:, 0] if n_times else None
            if accumulated is not None:
                for column in range(1, start + 1):
                    accumulated = accumulated & presence[:, column]
            for i in range(start, last):
                if i > start and accumulated is not None:
                    accumulated = accumulated & presence[:, i]
                yield self._step(
                    Side(Interval(0, i), Semantics.INTERSECTION),
                    Side.point(i + 1),
                    accumulated,
                    presence[:, i + 1],
                )
        else:
            suffix: list[np.ndarray | None] = [None] * n_times
            if self.incremental and n_times > 1:
                running = presence[:, n_times - 1]
                suffix[n_times - 1] = running
                for column in range(n_times - 2, start, -1):
                    running = presence[:, column] & running
                    suffix[column] = running
            for i in range(start, last):
                yield self._step(
                    Side.point(i),
                    Side(Interval(i + 1, n_times - 1), Semantics.INTERSECTION),
                    presence[:, i],
                    suffix[i + 1],
                )
