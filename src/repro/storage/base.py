"""The pluggable graph-storage contract (ROADMAP item 2).

GraphTempo's operators (Definitions 2.2-2.5), the aggregation engine
and the exploration lattice (Section 3) all reduce to four physical
primitives over the Section-4 arrays:

* boolean **presence reductions** over a time window
  (:meth:`GraphStorageBackend.presence_mask`);
* **time slicing** — restricting every array to a window
  (:meth:`GraphStorageBackend.slice_time`);
* **attribute column reads** (:meth:`GraphStorageBackend.attribute_column`);
* **edge endpoint rows** resolving edge endpoints to node rows
  (:meth:`GraphStorageBackend.edge_endpoint_rows`);
* **time-major presence bits** — one packed ``uint64`` row of entity
  bits per time point (:meth:`GraphStorageBackend.presence_bits`), the
  layout the exploration kernel ORs/ANDs whole chains over.

A :class:`GraphStorageBackend` implements those primitives over some
physical layout and round-trips losslessly to the dense
:class:`~repro.frames.LabeledFrame` representation
(:meth:`GraphStorageBackend.to_frames`), so readers stay oblivious to
the layout — the TVA-style separation of logical model from physical
storage.  Backends register by name; selection threads through
``TemporalGraph(storage=...)``, ``GraphTempoSession(storage=...)`` and
the ``REPRO_STORAGE_BACKEND`` environment default.

Every registered backend is held to the same oracle: the conformance
suite (``tests/test_storage_conformance.py``) runs the Table-1 cases,
every registered fuzz law, exploration mask bit-equality and streaming
replay identity against each backend, and the ``backend-storage``
differential law keeps fuzzing them forever after.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from collections.abc import Hashable, Iterator, Sequence
from typing import TYPE_CHECKING, Any, ClassVar, NamedTuple

import numpy as np

from ..errors import StorageError
from ..frames import LabeledFrame
from ..frames._buffer import AppendBuffer, grown

if TYPE_CHECKING:  # pragma: no cover - static analysis only
    from ..core.graph import TemporalGraph

__all__ = [
    "ENV_BACKEND",
    "GraphStorageBackend",
    "StorageFrames",
    "backend_names",
    "frames_of",
    "get_backend",
    "register_backend",
    "resolve_backend_name",
]

#: Environment variable naming the default backend for graphs that do
#: not pin one explicitly.
ENV_BACKEND = "REPRO_STORAGE_BACKEND"


class StorageFrames(NamedTuple):
    """The dense Section-4 representation every backend round-trips to.

    This is exactly the constructor payload of
    :class:`~repro.core.graph.TemporalGraph` (minus the timeline object,
    recoverable from ``times``), so ``frames -> backend -> to_frames``
    identity is a meaningful bit-exactness statement.
    """

    times: tuple[Hashable, ...]
    node_presence: LabeledFrame
    edge_presence: LabeledFrame
    static_attrs: LabeledFrame
    varying_attrs: dict[str, LabeledFrame]
    edge_attrs: LabeledFrame | None


def frames_of(graph: "TemporalGraph") -> StorageFrames:
    """The :class:`StorageFrames` view of a graph (shared, not copied)."""
    return StorageFrames(
        times=graph.timeline.labels,
        node_presence=graph.node_presence,
        edge_presence=graph.edge_presence,
        static_attrs=graph.static_attrs,
        varying_attrs=dict(graph.varying_attrs),
        edge_attrs=graph.edge_attrs,
    )


class GraphStorageBackend(ABC):
    """Abstract physical layout of one temporal attributed graph.

    Subclasses set :attr:`name` and implement the abstract primitives.
    All implementations must be **bit-exact** peers: identical masks,
    identical reconstructed frames, identical taxonomy errors on the
    same inputs.  Backends are value-like once constructed — nothing in
    the reader API mutates them — so a backend instance may be shared
    between a graph and its restrictions.
    """

    #: Registry key; subclasses override.
    name: ClassVar[str] = "abstract"

    #: :meth:`presence_bits` per entity, filled on first read.
    _presence_bits: dict[str, np.ndarray]

    #: The append buffer behind each carried :meth:`presence_bits` array.
    _bits_buffers: dict[str, AppendBuffer]

    # ------------------------------------------------------------------
    # Construction / round-trip
    # ------------------------------------------------------------------

    @classmethod
    @abstractmethod
    def from_frames(cls, frames: StorageFrames) -> "GraphStorageBackend":
        """Build the backend's physical layout from dense frames."""

    @classmethod
    def from_graph(cls, graph: "TemporalGraph") -> "GraphStorageBackend":
        """Build from a :class:`~repro.core.graph.TemporalGraph`."""
        return cls.from_frames(frames_of(graph))

    def extended(self, frames: StorageFrames) -> "GraphStorageBackend":
        """The next graph version's backend, seeded from this one.

        ``frames`` must be this backend's graph after one
        :func:`~repro.core.updates.append_snapshot`: the same entity rows
        followed by the new ones, and one more time point at the end.
        The new layout is built from ``frames``; every cache this backend
        has already computed is carried over by extension (O(new point)
        work: a carried array grows in an append buffer it shares with
        this one, :mod:`repro.frames._buffer`) and caches it never
        computed stay lazy, so an append never computes from scratch what
        nobody read.  No cell of this backend's arrays is written, and
        every carried array is bit-identical to what the new backend
        would compute.
        """
        if (
            len(frames.times) != len(self.times) + 1
            or frames.node_presence.n_rows < len(self.node_labels)
            or frames.edge_presence.n_rows < len(self.edge_labels)
        ):
            raise StorageError(
                "extended() needs the frames of this graph plus one appended point"
            )
        backend = type(self).from_frames(frames)
        # A copy: a reader of this version may be filling the cache.
        carried = dict(getattr(self, "_presence_bits", None) or {})
        if carried:
            buffers = getattr(self, "_bits_buffers", {})
            backend._presence_bits = {}
            backend._bits_buffers = {}
            for entity, bits in carried.items():
                presence = (
                    frames.node_presence if entity == "nodes" else frames.edge_presence
                )
                (
                    backend._presence_bits[entity],
                    backend._bits_buffers[entity],
                ) = _append_time_row(bits, buffers.get(entity), presence.values[:, -1])
        return backend

    @abstractmethod
    def to_frames(self) -> StorageFrames:
        """Reconstruct the dense frames, bit-exactly."""

    def to_graph(self, validate: bool = False) -> "TemporalGraph":
        """Materialize a :class:`~repro.core.graph.TemporalGraph` whose
        ``storage`` is this backend instance."""
        from ..core.graph import TemporalGraph

        frames = self.to_frames()
        return TemporalGraph(
            timeline=_timeline(frames.times),
            node_presence=frames.node_presence,
            edge_presence=frames.edge_presence,
            static_attrs=frames.static_attrs,
            varying_attrs=frames.varying_attrs,
            validate=validate,
            edge_attrs=frames.edge_attrs,
            storage=self,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    @abstractmethod
    def times(self) -> tuple[Hashable, ...]:
        """Time-point labels, in timeline order."""

    @property
    @abstractmethod
    def node_labels(self) -> tuple[Hashable, ...]:
        """Node identifiers, in storage order."""

    @property
    @abstractmethod
    def edge_labels(self) -> tuple[Hashable, ...]:
        """Edge identifiers, in storage order."""

    def entity_labels(self, entity: str) -> tuple[Hashable, ...]:
        """Labels of one entity axis (``"nodes"`` or ``"edges"``)."""
        if entity == "nodes":
            return self.node_labels
        if entity == "edges":
            return self.edge_labels
        raise StorageError(
            f"unknown entity {entity!r}; expected 'nodes' or 'edges'"
        )

    # ------------------------------------------------------------------
    # Physical primitives
    # ------------------------------------------------------------------

    @abstractmethod
    def presence_mask(
        self,
        entity: str,
        times: Sequence[Hashable] | None = None,
        mode: str = "any",
    ) -> np.ndarray:
        """Boolean per-entity mask over a time window.

        ``mode="any"`` — present at *some* window point (union rule);
        ``mode="all"`` — present at *every* window point (intersection
        rule, vacuously true on an empty window); ``mode="none"`` —
        absent throughout (difference rule).  ``times=None`` means the
        whole timeline.  Unknown time labels raise
        :class:`~repro.errors.LabelError`; unknown modes raise
        :class:`~repro.errors.StorageError`.  Semantics — including
        duplicate and unordered window labels — must match
        :meth:`repro.frames.LabeledFrame.any_mask` and friends exactly.
        """

    @abstractmethod
    def presence_matrix(self, entity: str) -> np.ndarray:
        """The full boolean presence matrix ``(n_entities, n_times)``.

        Always a fresh, writable array the caller may own.
        """

    @abstractmethod
    def slice_time(self, times: Sequence[Hashable]) -> "GraphStorageBackend":
        """A new backend restricted to the given time columns, in the
        given order, keeping every entity row (the storage-level time
        projection of Section 4.1)."""

    @abstractmethod
    def attribute_column(
        self, name: str, time: Hashable | None = None
    ) -> np.ndarray:
        """One attribute's per-node values as an object array.

        Static attributes take ``time=None``; time-varying attributes
        require a time point (``None`` raises
        :class:`~repro.errors.StorageError`, matching the
        ``TemporalGraph.attribute_value`` contract).  Unknown names
        raise :class:`~repro.errors.LabelError`.
        """

    @abstractmethod
    def edge_endpoint_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """``(sources, targets)``: each edge's endpoint node rows.

        Two read-only integer arrays aligned with :attr:`edge_labels`;
        node rows index :attr:`node_labels`.  A dangling endpoint (or a
        malformed edge label) is reported as ``-1`` — resolving never
        raises, callers decide the severity.  Backends compute the arrays
        at most once, so the aggregation engine and the dangling-edge
        check share one pass per graph.
        """

    def presence_bits(self, entity: str) -> np.ndarray:
        """Time-major packed presence: ``(n_times, ceil(n_entities / 64))``.

        Row ``t`` holds the presence column of time point ``t`` as
        ``uint64`` words; entity ``i`` is bit ``i % 64`` of word
        ``i // 64`` in little bit order, so ``bits.view(np.uint8)``
        equals ``np.packbits(presence_matrix(entity).T, axis=1,
        bitorder="little")`` followed by zero padding bytes.  Padding
        bits past the last entity are always zero.  The array is
        read-only and computed at most once per backend, lazily on the
        first call, so readers of one graph version share it; a graph
        version appended after the first call inherits it extended by one
        row (:meth:`extended`), as a strided view of a buffer shared with
        this version (each row's words stay contiguous).
        """
        cache: dict[str, np.ndarray] | None = getattr(self, "_presence_bits", None)
        if cache is None:
            cache = self._presence_bits = {}
        bits = cache.get(entity)
        if bits is None:
            bits = cache[entity] = _pack_time_major(self.presence_matrix(entity))
        elif bits.flags.writeable:
            # Unpickling a copy of the backend drops the read-only
            # flag; restore it before handing the array out.
            bits.flags.writeable = False
        return bits

    def adjacency_scan(self) -> Iterator[tuple[Any, int, int]]:
        """Yield ``(edge_label, source_row, target_row)`` per edge, in
        storage order — :meth:`edge_endpoint_rows` one edge at a time."""
        sources, targets = self.edge_endpoint_rows()
        yield from zip(self.edge_labels, sources.tolist(), targets.tolist())

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    @abstractmethod
    def nbytes(self) -> int:
        """Bytes of array payload this layout holds resident.

        Used by ``benchmarks/bench_storage.py`` for the machine-independent
        footprint comparison; label/index overhead (shared by all
        backends) is excluded.
        """

    # ------------------------------------------------------------------
    # Shared helpers for subclasses
    # ------------------------------------------------------------------

    @staticmethod
    def _check_mode(mode: str) -> str:
        if mode not in ("any", "all", "none"):
            raise StorageError(
                f"unknown presence mode {mode!r}; expected 'any', 'all' or 'none'"
            )
        return mode

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({len(self.node_labels)} nodes, "
            f"{len(self.edge_labels)} edges, {len(self.times)} time points)"
        )


def _pack_time_major(presence: np.ndarray) -> np.ndarray:
    """Pack an ``(n_entities, n_times)`` boolean matrix into the
    read-only, zero-padded ``(n_times, n_words)`` ``uint64`` layout of
    :meth:`GraphStorageBackend.presence_bits`."""
    bits = _pack_rows(presence.T)
    bits.flags.writeable = False
    return bits


def _pack_rows(rows: np.ndarray) -> np.ndarray:
    """Pack each row of a ``(k, n_entities)`` array of presence flags
    into ``ceil(n_entities / 64)`` little-bit-order ``uint64`` words,
    padding bits zero."""
    k, n_entities = rows.shape
    padded = np.zeros((k, -(-n_entities // 64) * 64), dtype=bool)
    padded[:, :n_entities] = rows
    return np.packbits(padded, axis=1, bitorder="little").view(np.uint64)


def _append_time_row(
    bits: np.ndarray, buffer: AppendBuffer | None, column: np.ndarray
) -> tuple[np.ndarray, AppendBuffer]:
    """``bits`` widened to ``column``'s entities plus one packed row for
    ``column`` (the appended point's presence): what
    :func:`_pack_time_major` gives for the appended presence matrix, since
    entities new at the appended point are absent from every earlier one.

    The result is a read-only view of the append buffer ``bits`` shares
    (or of a new one): only the new row is written, and the new words of
    earlier rows are the buffer's zero fill."""
    n_times = bits.shape[0]
    packed = np.packbits(column.astype(bool), bitorder="little")
    shape = (n_times + 1, -(-column.shape[0] // 64))
    grown_bits, buffer = grown(bits, buffer, shape, np.uint64)
    # The new row is past every published view, so it still holds the
    # zero fill: only its leading bytes need writing.
    grown_bits[n_times].view(np.uint8)[: packed.shape[0]] = packed
    grown_bits.flags.writeable = False
    return grown_bits, buffer


def _timeline(times: Sequence[Hashable]) -> Any:
    from ..core.intervals import Timeline

    return Timeline(times)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, type[GraphStorageBackend]] = {}


def register_backend(
    cls: type[GraphStorageBackend],
) -> type[GraphStorageBackend]:
    """Class decorator registering a backend under ``cls.name``."""
    name = cls.name
    if name in _REGISTRY:
        raise StorageError(f"storage backend {name!r} is already registered")
    _REGISTRY[name] = cls
    return cls


def backend_names() -> tuple[str, ...]:
    """Registered backend names, in registration order."""
    return tuple(_REGISTRY)


def get_backend(name: str) -> type[GraphStorageBackend]:
    """The backend class registered under ``name``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise StorageError(
            f"unknown storage backend {name!r}; registered: "
            f"{sorted(_REGISTRY)}"
        ) from None


def resolve_backend_name(name: str | None = None) -> str:
    """Resolve an explicit name, the env default, or ``"dense"``.

    The resolved name is validated against the registry so typos in
    ``REPRO_STORAGE_BACKEND`` fail loudly at first use instead of
    silently falling back.
    """
    resolved = name or os.environ.get(ENV_BACKEND) or "dense"
    get_backend(resolved)
    return resolved
