"""Reference explorer: the per-step :class:`ChainEvaluator` walk.

:func:`repro.exploration.explore` runs every Table-1 case through one
frontier-batched kernel over packed presence bits.  This module keeps
the slow, obviously-right twin it replaced: each strategy walks one
reference point at a time through
:class:`~repro.exploration.events.ChainEvaluator`, one Python
``ChainStep`` per evaluated pair, either incrementally (one OR/AND per
step) or naively (both sides re-reduced per pair).

The walk records the same ``exploration.*`` counters as the kernel —
``runs``, ``chains``, ``chain_steps`` and ``pruned_steps`` — so the
parity suite and the ``exploration-variants-agree`` law can diff pairs,
counts, ``evaluations`` *and* counters bit-exactly.

Both explorers count time-varying attributes through
:class:`~repro.exploration.events.EventCounter`'s tuple codes, so they
cannot disagree about a code.  :func:`seed_appearance_count` is the
independent reference for those counts: the seed's nested loop over a
``_node_tuple_table`` and the edges x window cells, with no codes at all.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

from ..core import TemporalGraph
from ..errors import ExplorationError
from ..exploration.events import ChainEvaluator, EntityKind, EventCounter, EventType
from ..exploration.explore import (
    ExplorationResult,
    Goal,
    IntervalPairResult,
    Strategy,
    table1_strategy,
)
from ..exploration.lattice import ExtendSide, Semantics, Side
from ..obs.metrics import get_metrics
from .algorithm2 import _node_tuple_table

__all__ = ["reference_explore", "seed_appearance_count"]


def seed_appearance_count(
    counter: EventCounter,
    event: EventType,
    old: Side,
    new: Side,
    mask: Any,
) -> int:
    """``result(G)`` of ``counter`` for one pair, the seed's way.

    Counts the distinct ``(entity, tuple)`` appearances of the entities
    flagged in ``mask`` inside the event window (the new side for
    growth, the old side for shrinkage, both for stability), keeping
    only those equal to ``counter.key`` when one is set.
    """
    labels = counter.graph.timeline.labels
    if event is EventType.GROWTH:
        window = [labels[i] for i in new.interval.indices()]
    elif event is EventType.SHRINKAGE:
        window = [labels[i] for i in old.interval.indices()]
    else:
        window = [
            labels[i]
            for i in sorted(
                set(old.interval.indices()) | set(new.interval.indices())
            )
        ]
    node_table = _node_tuple_table(
        counter.graph, counter.attributes, tuple(window)
    )
    if counter.entity is EntityKind.NODES:
        kept = {
            node
            for node, keep in zip(
                counter.graph.node_presence.row_labels, mask
            )
            if keep
        }
        appearances = {
            (node, values)
            for node, _, values in node_table.rows
            if node in kept
        }
        if counter.key is None:
            return len(appearances)
        wanted = tuple(counter.key)
        return sum(1 for _, values in appearances if values == wanted)
    lookup = {(node, t): values for node, t, values in node_table.rows}
    positions = [counter.graph.timeline.index_of(t) for t in window]
    presence = counter.graph.edge_presence.values
    edge_appearances = set()
    for row, edge in enumerate(counter.graph.edge_presence.row_labels):
        if not mask[row]:
            continue
        u, v = edge
        for t, pos in zip(window, positions):
            if not presence[row, pos]:
                continue
            source = lookup.get((u, t))
            target = lookup.get((v, t))
            if source is None or target is None:
                continue
            edge_appearances.add((edge, (source, target)))
    if counter.key is None:
        return len(edge_appearances)
    wanted_pair = (tuple(counter.key[0]), tuple(counter.key[1]))
    return sum(1 for _, pair in edge_appearances if pair == wanted_pair)


def _record_pruning(
    n_times: int, reference: int, extend: ExtendSide, taken: int
) -> None:
    """Credit the monotonicity pruning with the chain steps it skipped."""
    capacity = n_times - 1 - reference if extend is ExtendSide.NEW else reference + 1
    if capacity > taken:
        get_metrics().inc("exploration.pruned_steps", capacity - taken)


def _u_walk(
    evaluator: ChainEvaluator, extend: ExtendSide, k: int, n_times: int
) -> tuple[list[IntervalPairResult], int]:
    """U-Explore: each chain stops at its first passing pair."""
    pairs: list[IntervalPairResult] = []
    evaluations = 0
    for reference in range(n_times - 1):
        taken = 0
        for step in evaluator.chain(reference, extend, Semantics.UNION):
            taken += 1
            evaluations += 1
            if step.count >= k:
                pairs.append(IntervalPairResult(step.old, step.new, step.count))
                break
        _record_pruning(n_times, reference, extend, taken)
    return pairs, evaluations


def _i_walk(
    evaluator: ChainEvaluator, extend: ExtendSide, k: int, n_times: int
) -> tuple[list[IntervalPairResult], int]:
    """I-Explore: each chain extends while it passes; the last passing
    pair is reported."""
    pairs: list[IntervalPairResult] = []
    evaluations = 0
    for reference in range(n_times - 1):
        candidate: IntervalPairResult | None = None
        taken = 0
        for step in evaluator.chain(reference, extend, Semantics.INTERSECTION):
            taken += 1
            evaluations += 1
            if step.count < k:
                break
            candidate = IntervalPairResult(step.old, step.new, step.count)
        _record_pruning(n_times, reference, extend, taken)
        if candidate is not None:
            pairs.append(candidate)
    return pairs, evaluations


def reference_explore(
    graph: TemporalGraph,
    event: EventType,
    goal: Goal,
    extend: ExtendSide,
    k: int,
    entity: EntityKind = EntityKind.EDGES,
    attributes: Sequence[str] = (),
    key: Any = None,
    *,
    incremental: bool = True,
) -> ExplorationResult:
    """:func:`repro.exploration.explore`, walked one ``ChainStep`` at a
    time.  ``incremental=False`` re-reduces both sides of every pair."""
    if k < 1:
        raise ExplorationError(f"threshold k must be positive, got {k}")
    get_metrics().inc("exploration.runs")
    counter = EventCounter(graph, entity=entity, attributes=attributes, key=key)
    evaluator = ChainEvaluator(counter, event, incremental=incremental)
    n_times = len(graph.timeline)
    strategy = table1_strategy(event, goal, extend)
    if strategy is Strategy.U_EXPLORE:
        pairs, evaluations = _u_walk(evaluator, extend, k, n_times)
    elif strategy is Strategy.I_EXPLORE:
        pairs, evaluations = _i_walk(evaluator, extend, k, n_times)
    else:
        steps = list(
            evaluator.consecutive()
            if strategy is Strategy.CONSECUTIVE
            else evaluator.longest(extend)
        )
        evaluations = len(steps)
        pairs = [
            IntervalPairResult(step.old, step.new, step.count)
            for step in steps
            if step.count >= k
        ]
    return ExplorationResult(event, goal, extend, k, tuple(pairs), evaluations)
