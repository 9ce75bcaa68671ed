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
from ..exploration.lattice import ExtendSide, Semantics
from ..obs.metrics import get_metrics

__all__ = ["reference_explore"]


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
