"""Pluggable columnar storage substrate (ROADMAP item 2).

``repro.storage`` separates GraphTempo's logical graph model from its
physical layout.  The :class:`GraphStorageBackend` contract defines the
primitives every reader needs (presence reductions, time slicing,
attribute columns, adjacency scans, time-major presence bits) plus a
lossless ``to_frames`` round-trip; two implementations ship:

* :class:`DenseBackend` — the existing :class:`~repro.frames.LabeledFrame`
  arrays, wrapped without copies (bit-exact with the pre-substrate code
  by construction);
* :class:`ColumnarBackend` — bit-packed presence (``np.packbits``),
  time-sorted event CSR indices, factorized attribute codes, CSR-style
  adjacency, and optional ``np.memmap`` on-disk persistence.

Select a backend per graph (``TemporalGraph(storage="columnar")``), per
session (``GraphTempoSession(storage=...)``) or process-wide via the
``REPRO_STORAGE_BACKEND`` environment variable.  Registering a new
backend (``@register_backend``) automatically subjects it to the
conformance suite in ``tests/test_storage_conformance.py`` and the
``backend-storage`` fuzz law — see ``docs/storage.md``.
"""

from __future__ import annotations

from .base import (
    ENV_BACKEND,
    GraphStorageBackend,
    StorageFrames,
    backend_names,
    frames_of,
    get_backend,
    register_backend,
    resolve_backend_name,
)
from .columnar import ColumnarBackend
from .dense import DenseBackend

__all__ = [
    "ENV_BACKEND",
    "ColumnarBackend",
    "DenseBackend",
    "GraphStorageBackend",
    "StorageFrames",
    "backend_names",
    "frames_of",
    "get_backend",
    "register_backend",
    "resolve_backend_name",
]
