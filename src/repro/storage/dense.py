"""The dense backend: the existing ``LabeledFrame`` path, unchanged.

This backend *is* the Section-4 layout — it wraps the graph's frames
without copying and delegates every primitive to the frame methods the
operators have always used, so it is bit-exact with the pre-substrate
behavior by construction.  It exists to anchor the conformance suite:
every other backend is measured against this one.
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping, Sequence
from typing import Any, ClassVar

import numpy as np

from ..errors import LabelError, StorageError
from ..frames._buffer import AppendBuffer, grown
from .base import GraphStorageBackend, StorageFrames, register_backend

__all__ = ["DenseBackend"]


@register_backend
class DenseBackend(GraphStorageBackend):
    """Dense row-major presence matrices and object attribute arrays."""

    name: ClassVar[str] = "dense"

    def __init__(self, frames: StorageFrames) -> None:
        self._frames = frames
        self._endpoints: tuple[np.ndarray, np.ndarray] | None = None
        #: The append buffers behind carried ``_endpoints`` (if any).
        self._endpoint_buffers: tuple[AppendBuffer, AppendBuffer] | None = None

    # ------------------------------------------------------------------
    # Construction / round-trip
    # ------------------------------------------------------------------

    @classmethod
    def from_frames(cls, frames: StorageFrames) -> "DenseBackend":
        return cls(frames)

    def to_frames(self) -> StorageFrames:
        frames = self._frames
        return StorageFrames(
            times=frames.times,
            node_presence=frames.node_presence,
            edge_presence=frames.edge_presence,
            static_attrs=frames.static_attrs,
            varying_attrs=dict(frames.varying_attrs),
            edge_attrs=frames.edge_attrs,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def times(self) -> tuple[Hashable, ...]:
        return self._frames.times

    @property
    def node_labels(self) -> tuple[Hashable, ...]:
        return self._frames.node_presence.row_labels

    @property
    def edge_labels(self) -> tuple[Hashable, ...]:
        return self._frames.edge_presence.row_labels

    # ------------------------------------------------------------------
    # Physical primitives
    # ------------------------------------------------------------------

    def _presence_frame(self, entity: str) -> Any:
        if entity == "nodes":
            return self._frames.node_presence
        if entity == "edges":
            return self._frames.edge_presence
        raise StorageError(
            f"unknown entity {entity!r}; expected 'nodes' or 'edges'"
        )

    def presence_mask(
        self,
        entity: str,
        times: Sequence[Hashable] | None = None,
        mode: str = "any",
    ) -> np.ndarray:
        self._check_mode(mode)
        frame = self._presence_frame(entity)
        if mode == "any":
            return frame.any_mask(times)
        if mode == "all":
            return frame.all_mask(times)
        return frame.none_mask(times)

    def presence_matrix(self, entity: str) -> np.ndarray:
        return self._presence_frame(entity).values.astype(bool)

    def slice_time(self, times: Sequence[Hashable]) -> "DenseBackend":
        frames = self._frames
        return DenseBackend(
            StorageFrames(
                times=tuple(times),
                node_presence=frames.node_presence.restrict_cols(times),
                edge_presence=frames.edge_presence.restrict_cols(times),
                static_attrs=frames.static_attrs,
                varying_attrs={
                    name: frame.restrict_cols(times)
                    for name, frame in frames.varying_attrs.items()
                },
                edge_attrs=frames.edge_attrs,
            )
        )

    def attribute_column(
        self, name: str, time: Hashable | None = None
    ) -> np.ndarray:
        frames = self._frames
        if name in frames.varying_attrs:
            if time is None:
                raise StorageError(
                    f"attribute {name!r} is time-varying; a time point is required"
                )
            return frames.varying_attrs[name].column(time)
        if frames.static_attrs.has_col(name):
            if time is not None:
                raise StorageError(
                    f"attribute {name!r} is static; time must be None"
                )
            return frames.static_attrs.column(name)
        raise LabelError(f"unknown attribute {name!r}")

    def edge_endpoint_rows(self) -> tuple[np.ndarray, np.ndarray]:
        if self._endpoints is None:
            frames = self._frames
            self._endpoints = _frozen(
                *_resolve_endpoints(
                    frames.edge_presence.row_labels,
                    frames.node_presence.row_index.positions,
                )
            )
        return self._endpoints

    def extended(self, frames: StorageFrames) -> "DenseBackend":
        backend = super().extended(frames)
        assert isinstance(backend, DenseBackend)
        if self._endpoints is not None:
            backend._endpoints, backend._endpoint_buffers = _extend_endpoints(
                self._endpoints, self._endpoint_buffers, len(self.node_labels), frames
            )
        return backend

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def nbytes(self) -> int:
        frames = self._frames
        total = int(frames.node_presence.values.nbytes)
        total += int(frames.edge_presence.values.nbytes)
        total += _object_array_nbytes(frames.static_attrs.values)
        for frame in frames.varying_attrs.values():
            total += _object_array_nbytes(frame.values)
        if frames.edge_attrs is not None:
            total += _object_array_nbytes(frames.edge_attrs.values)
        return total


def _resolve_endpoints(
    edges: Sequence[Hashable], index: Mapping[Hashable, int]
) -> tuple[np.ndarray, np.ndarray]:
    """Each edge label's endpoint rows in ``index`` (``-1`` when dangling
    or when the label is not a ``(u, v)`` pair)."""
    pairs = [
        (index.get(edge[0], -1), index.get(edge[1], -1))
        if isinstance(edge, tuple) and len(edge) == 2
        else (-1, -1)
        for edge in edges
    ]
    rows = np.array(pairs, dtype=np.intp).reshape(len(pairs), 2)
    return rows[:, 0].copy(), rows[:, 1].copy()


def _extend_endpoints(
    endpoints: tuple[np.ndarray, np.ndarray],
    buffers: tuple[AppendBuffer, AppendBuffer] | None,
    n_old_nodes: int,
    frames: StorageFrames,
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[AppendBuffer, AppendBuffer] | None]:
    """The previous version's endpoint rows plus the appended edges' rows,
    and the append buffers they view.

    Node rows never move on append, so old entries stay valid and the new
    rows are written into the append buffers the previous arrays share.
    Only a ``-1`` can change, when the dangling endpoint (possible in a
    ``validate=False`` graph) is one of the nodes this append introduced:
    that rewrites old cells, so the arrays are copied instead (no buffer).
    """
    old_sources, old_targets = endpoints
    n_old = old_sources.shape[0]
    labels = frames.edge_presence.row_labels
    index = frames.node_presence.row_index.positions
    new_sources, new_targets = _resolve_endpoints(labels[n_old:], index)
    if len(index) > n_old_nodes:
        dangling = np.flatnonzero((old_sources < 0) | (old_targets < 0)).tolist()
        if dangling:
            sources = np.concatenate([old_sources, new_sources])
            targets = np.concatenate([old_targets, new_targets])
            sources[dangling], targets[dangling] = _resolve_endpoints(
                [labels[row] for row in dangling], index
            )
            return _frozen(sources, targets), None
    shape = (len(labels),)
    source_buffer, target_buffer = buffers if buffers is not None else (None, None)
    sources, source_buffer = grown(old_sources, source_buffer, shape, np.intp)
    targets, target_buffer = grown(old_targets, target_buffer, shape, np.intp)
    sources[n_old:] = new_sources
    targets[n_old:] = new_targets
    return _frozen(sources, targets), (source_buffer, target_buffer)


def _frozen(
    sources: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    sources.flags.writeable = False
    targets.flags.writeable = False
    return sources, targets


def _object_array_nbytes(values: np.ndarray) -> int:
    """Array payload plus the boxed objects the cells point to.

    An ``object`` array's ``nbytes`` counts only the pointers; the boxed
    values dominate the resident footprint, so each *distinct* boxed
    object is counted once via ``sys.getsizeof`` — interning shared by
    the columnar pool is thereby credited to both layouts consistently.
    """
    import sys

    total = int(values.nbytes)
    if values.dtype == object:
        seen: set[int] = set()
        for value in values.ravel():
            if value is not None and id(value) not in seen:
                seen.add(id(value))
                total += sys.getsizeof(value)
    return total
