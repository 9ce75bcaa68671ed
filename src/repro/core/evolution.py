"""The evolution graph (Definition 2.7) and its aggregation (Fig. 4b).

Between two time sets ``T1`` (old) and ``T2`` (new) the evolution graph
overlays three operator results:

* the intersection graph — **stability**,
* the difference ``T1 - T2`` — **shrinkage** (deleted entities),
* the difference ``T2 - T1`` — **growth** (new entities).

Aggregating an evolution graph labels each aggregate entity with three
weights.  As the paper's Figure 4b example shows, the unit of counting is
an *appearance*: the pair (node, attribute tuple).  A node that exists in
both intervals but whose time-varying attributes changed contributes a
shrinkage appearance for its old tuple and a growth appearance for the
new one — exactly how node ``u4``'s move from ``(f, 2)`` to ``(f, 1)``
is scored in the paper.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from .aggregation import (
    AttributeTuple,
    EdgeKey,
    _edge_appearances,
    _edge_pairs,
    _tuple_codes,
    _window_positions,
)
from .graph import TemporalGraph
from .intervals import TimeSet
from .operators import difference, intersection, ordered_times
from ..errors import ValidationError
from ..obs.metrics import get_metrics
from ..obs.trace import trace_span

__all__ = [
    "EvolutionGraph",
    "EvolutionWeights",
    "EvolutionAggregate",
    "evolution",
    "aggregate_evolution",
]


@dataclass(frozen=True)
class EvolutionGraph:
    """The three-way overlay ``G_>`` between ``T1`` and ``T2``.

    ``stable``, ``shrunk`` and ``grown`` are the operator outputs named in
    Definition 2.7 (``G_∩``, ``G_-`` on ``T1 - T2`` and ``G_-`` on
    ``T2 - T1``); ``old_times`` / ``new_times`` record the intervals the
    overlay was built on.
    """

    old_times: TimeSet
    new_times: TimeSet
    stable: TemporalGraph
    shrunk: TemporalGraph
    grown: TemporalGraph

    def node_kinds(self) -> dict[Hashable, set[str]]:
        """Map each node to the event kinds it participates in.

        Kinds are ``"stability"``, ``"shrinkage"`` and ``"growth"``; a
        node may carry several (e.g. a surviving node that lost an edge is
        both stable and a member of the shrinkage component, per the
        second disjunct of Definition 2.5).
        """
        kinds: dict[Hashable, set[str]] = {}
        for node in self.stable.nodes:
            kinds.setdefault(node, set()).add("stability")
        for node in self.shrunk.nodes:
            kinds.setdefault(node, set()).add("shrinkage")
        for node in self.grown.nodes:
            kinds.setdefault(node, set()).add("growth")
        return kinds

    def edge_kinds(self) -> dict[tuple[Hashable, Hashable], set[str]]:
        """Map each edge to its event kinds (disjoint by construction:
        an edge is in exactly one of the three components)."""
        kinds: dict[tuple[Hashable, Hashable], set[str]] = {}
        for edge in self.stable.edges:
            kinds.setdefault(edge, set()).add("stability")
        for edge in self.shrunk.edges:
            kinds.setdefault(edge, set()).add("shrinkage")
        for edge in self.grown.edges:
            kinds.setdefault(edge, set()).add("growth")
        return kinds

    @property
    def n_nodes(self) -> int:
        """Distinct nodes across the three components (``|V_>|``)."""
        return len(self.node_kinds())

    @property
    def n_edges(self) -> int:
        return len(self.edge_kinds())


def evolution(
    graph: TemporalGraph,
    old_times: Iterable[Hashable],
    new_times: Iterable[Hashable],
) -> EvolutionGraph:
    """Build the evolution graph between two time sets (Definition 2.7)."""
    old = ordered_times(graph, old_times)
    new = ordered_times(graph, new_times)
    if not old or not new:
        raise ValidationError("evolution requires two non-empty time sets")
    return EvolutionGraph(
        old_times=old,
        new_times=new,
        stable=intersection(graph, old, new),
        shrunk=difference(graph, old, new),
        grown=difference(graph, new, old),
    )


@dataclass(frozen=True)
class EvolutionWeights:
    """The three event weights attached to one aggregate entity."""

    stability: int = 0
    growth: int = 0
    shrinkage: int = 0

    @property
    def total(self) -> int:
        return self.stability + self.growth + self.shrinkage

    def ratio(self, kind: str) -> float:
        """Share of one event kind in this entity's total (0.0 if empty).

        This is the "distribution of each entity w.r.t. stability, growth
        and shrinkage" plotted in the paper's Figure 12.
        """
        if kind not in ("stability", "growth", "shrinkage"):
            raise ValidationError(f"unknown event kind: {kind!r}")
        if self.total == 0:
            return 0.0
        return getattr(self, kind) / self.total


@dataclass(frozen=True)
class EvolutionAggregate:
    """Aggregation of an evolution graph: per-tuple event weights."""

    attributes: tuple[str, ...]
    old_times: TimeSet
    new_times: TimeSet
    node_weights: dict[AttributeTuple, EvolutionWeights]
    edge_weights: dict[EdgeKey, EvolutionWeights]

    def node(self, key: Sequence[Any]) -> EvolutionWeights:
        """Event weights of one aggregate node (zeros if absent)."""
        return self.node_weights.get(tuple(key), EvolutionWeights())

    def edge(self, source: Sequence[Any], target: Sequence[Any]) -> EvolutionWeights:
        """Event weights of one aggregate edge (zeros if absent)."""
        return self.edge_weights.get(
            (tuple(source), tuple(target)), EvolutionWeights()
        )

    def diff(self, other: "EvolutionAggregate") -> tuple[str, ...]:
        """Human-readable differences from another evolution aggregate.

        Empty when both carry the same attributes, intervals and the
        same (stability, growth, shrinkage) weights for every aggregate
        node and edge — the comparison unit of the differential fuzz
        oracle for Fig. 4b semantics.
        """
        problems: list[str] = []
        if self.attributes != other.attributes:
            problems.append(
                f"attributes differ: {self.attributes!r} != {other.attributes!r}"
            )
        if (self.old_times, self.new_times) != (other.old_times, other.new_times):
            problems.append(
                f"intervals differ: {(self.old_times, self.new_times)!r} != "
                f"{(other.old_times, other.new_times)!r}"
            )
        zero = EvolutionWeights()
        for kind, ours, theirs in (
            ("node", self.node_weights, other.node_weights),
            ("edge", self.edge_weights, other.edge_weights),
        ):
            for key in sorted(set(ours) | set(theirs), key=repr):
                a = ours.get(key, zero)  # type: ignore[arg-type]
                b = theirs.get(key, zero)  # type: ignore[arg-type]
                if a != b:
                    problems.append(f"{kind} weights {key!r}: {a} != {b}")
        return tuple(problems)

    def totals(self) -> EvolutionWeights:
        """Summed node weights across all aggregate nodes."""
        return EvolutionWeights(
            stability=sum(w.stability for w in self.node_weights.values()),
            growth=sum(w.growth for w in self.node_weights.values()),
            shrinkage=sum(w.shrinkage for w in self.node_weights.values()),
        )

    def edge_totals(self) -> EvolutionWeights:
        """Summed edge weights across all aggregate edges."""
        return EvolutionWeights(
            stability=sum(w.stability for w in self.edge_weights.values()),
            growth=sum(w.growth for w in self.edge_weights.values()),
            shrinkage=sum(w.shrinkage for w in self.edge_weights.values()),
        )


def _event_weights(
    keys: np.ndarray,
    in_old: np.ndarray,
    in_new: np.ndarray,
    labels: Sequence[Any],
) -> dict[Any, EvolutionWeights]:
    """Per-label event weights from ``entity * len(labels) + code`` keys.

    ``in_old`` / ``in_new`` flag which appearances fall in each window.
    The distinct keys of each window are split into stability (both),
    growth (new only) and shrinkage (old only), and each class is counted
    per code with one ``bincount``; ``labels[code]`` names the code.
    """
    radix = len(labels)
    if not radix:
        return {}
    old = np.unique(keys[in_old])
    new = np.unique(keys[in_new])
    stability, growth, shrinkage = (
        np.bincount(members % radix, minlength=radix).tolist()
        for members in (
            np.intersect1d(old, new, assume_unique=True),
            np.setdiff1d(new, old, assume_unique=True),
            np.setdiff1d(old, new, assume_unique=True),
        )
    )
    return {
        label: EvolutionWeights(*counts)
        for label, *counts in zip(labels, stability, growth, shrinkage)
        if any(counts)
    }


def aggregate_evolution(
    graph: TemporalGraph,
    old_times: Iterable[Hashable],
    new_times: Iterable[Hashable],
    attributes: Sequence[str],
) -> EvolutionAggregate:
    """Aggregate the evolution between two time sets (Fig. 4b semantics).

    An appearance ``(entity, attribute tuple)`` that occurs in both
    windows scores *stability* for its tuple; one occurring only in the
    old window scores *shrinkage*; only in the new window, *growth*.
    Counting is distinct (each appearance once), matching the weights the
    paper reads off Figures 4b and 12.

    Vectorized over the aggregation engine's integer codes: attribute
    tuples are factorized once over ``old ∪ new``, each window's distinct
    ``(entity, tuple code)`` keys come from ``numpy.unique``, and the
    three event classes are set operations over those keys.  Edges with a
    dangling endpoint are skipped, not rejected: no tuple exists for them.
    """
    if not attributes:
        raise ValidationError("evolution aggregation needs at least one attribute")
    old = ordered_times(graph, old_times)
    new = ordered_times(graph, new_times)
    if not old or not new:
        raise ValidationError("evolution aggregation requires two non-empty time sets")
    get_metrics().inc("evolution.calls")
    with trace_span(
        "evolution", attributes=tuple(attributes), n_old=len(old), n_new=len(new)
    ):
        window = ordered_times(graph, old, new)
        positions = _window_positions(graph, window)
        in_old = np.isin(positions, _window_positions(graph, old))
        in_new = np.isin(positions, _window_positions(graph, new))
        codes = _tuple_codes(graph, attributes, positions)
        tuples = codes.tuples
        node_weights = _event_weights(
            codes.entity.astype(np.int64) * len(tuples) + codes.codes,
            in_old[codes.cols],
            in_new[codes.cols],
            tuples,
        )
        edge_rows, edge_cols, sources, targets = _edge_appearances(
            graph, codes, positions
        )
        pair_codes, edge_keys = _edge_pairs(codes, sources, targets)
        edge_weights = _event_weights(
            edge_rows.astype(np.int64) * len(edge_keys) + pair_codes,
            in_old[edge_cols],
            in_new[edge_cols],
            edge_keys,
        )
    return EvolutionAggregate(
        attributes=tuple(attributes),
        old_times=old,
        new_times=new,
        node_weights=node_weights,
        edge_weights=edge_weights,
    )
