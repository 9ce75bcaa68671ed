"""Append-only capacity buffers shared by the versions of one append lineage.

A graph that gains one time point (and a few entity rows) per version
would copy its whole history into every version if each version owned
its arrays.  An :class:`AppendBuffer` instead holds one over-allocated
array per lineage: version *n* reads the read-only view
``data[:rows_n, :cols_n]``, and version *n+1* writes only cells outside
that view, so every published view stays bit-stable.  Capacity doubles
on each axis that runs out, so an append costs amortized O(new cells).

Ownership rule: the buffer records the shape its newest version sees
(the *frontier*) under a lock.  :func:`grown` writes in place only when
the array it extends is the view at the frontier and the new shape fits
the capacity; any other extension -- a branch from an older version, a
second append to the same version, a full buffer -- copies the visible
region into a new, larger buffer.  Cells outside the frontier are never
written, so they still hold the allocation fill (``0``, or ``None`` for
``object`` arrays), which is exactly what new rows hold in earlier
columns.
"""

from __future__ import annotations

import threading
from typing import Any

import numpy as np

__all__ = ["AppendBuffer", "grown"]


class AppendBuffer:
    """One lineage's capacity array plus its filled frontier.

    Private to the append path: callers hold a buffer only next to the
    view it backs, and go through :func:`grown`.
    """

    __slots__ = ("_data", "_frontier", "_lock")

    def __init__(self, data: np.ndarray, frontier: tuple[int, ...] | None) -> None:
        self._data = data
        self._frontier = frontier
        self._lock = threading.Lock()

    def __reduce__(self) -> tuple[Any, ...]:
        # An unpickled version's arrays are owned copies, not views of
        # this buffer: the copy gets a detached handle that never claims,
        # so its next append copies instead of shipping the capacity.
        empty = np.zeros((0,) * self._data.ndim, dtype=self._data.dtype)
        return (AppendBuffer, (empty, None))

    def _claim(self, visible: np.ndarray, shape: tuple[int, ...], dtype: Any) -> bool:
        """Advance the frontier from ``visible`` to ``shape`` if ``visible``
        is the frontier view and ``shape`` fits; ``False`` otherwise."""
        data = self._data
        if visible.base is not data or data.dtype != dtype:
            return False
        for n, c in zip(shape, data.shape):
            if n > c:
                return False
        with self._lock:
            if visible.shape != self._frontier:
                return False
            self._frontier = shape
        return True


def grown(
    visible: np.ndarray,
    buffer: AppendBuffer | None,
    shape: tuple[int, ...],
    dtype: Any,
) -> tuple[np.ndarray, AppendBuffer]:
    """A writable ``shape`` array starting with ``visible``, and its buffer.

    ``visible`` is a published version's array and ``buffer`` the handle
    that came with it (``None`` for an array no buffer backs).  Every
    axis of ``shape`` is at least ``visible``'s.  Cells past ``visible``
    hold ``0`` (``None`` for ``object``) until the caller writes them;
    the caller then marks the array read-only and publishes it with the
    returned buffer.  Nothing any published version can see is written.
    """
    region = tuple(slice(0, n) for n in shape)
    if buffer is not None and buffer._claim(visible, shape, dtype):
        return buffer._data[region], buffer
    held = buffer._data.shape if buffer is not None else visible.shape
    capacity = []
    for n, seen, kept in zip(shape, visible.shape, held):
        c = max(seen, kept)
        capacity.append(c if n <= c else max(n, 2 * c))
    if np.dtype(dtype) == object:
        # A new ``object`` array already reads ``None`` in every cell.
        data = np.empty(capacity, dtype)
    else:
        data = np.zeros(capacity, dtype)
    data[tuple(slice(0, n) for n in visible.shape)] = visible
    return data[region], AppendBuffer(data, shape)
