"""Streaming ingestion with versioned reads and delta-maintained views.

The append-only layer under ROADMAP item 1: per-entity events batch
into :class:`~repro.core.SnapshotUpdate`\\ s (:func:`batch_events`),
each append publishes an immutable :class:`GraphVersion` readers can
pin while writers advance (:class:`StreamingStore`), and registered
views — per-point aggregates with running union totals
(:class:`AggregateTotalsView`), the evolution overlay
(:class:`EvolutionView`) and incremental exploration state
(:class:`ExplorationView`) — are extended in O(new point) per append
instead of recomputed.  See ``docs/streaming.md``.
"""

from .events import EdgeEvent, NodeEvent, StreamEvent, batch_events
from .store import GraphVersion, StreamingStore
from .views import (
    AggregateTotalsView,
    EvolutionView,
    ExplorationView,
    StreamingView,
)

__all__ = [
    "NodeEvent",
    "EdgeEvent",
    "StreamEvent",
    "batch_events",
    "GraphVersion",
    "StreamingStore",
    "StreamingView",
    "AggregateTotalsView",
    "EvolutionView",
    "ExplorationView",
]
