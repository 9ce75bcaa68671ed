"""U-Explore, I-Explore and the eight exploration cases of Table 1.

The exploration problem (Definition 3.6): given a threshold ``k``, find
the *minimal* (under union-semantics extension) or *maximal* (under
intersection-semantics extension) interval pairs between which at least
``k`` events of one kind occurred.

Every case fixes one end of the pair as a reference time point and
extends the other end through the appropriate semi-lattice:

===========  =======  ===========  ==================  =================
Event        Goal     Extended     Monotonicity        Strategy
===========  =======  ===========  ==================  =================
stability    minimal  old or new   increasing          U-Explore
stability    maximal  old or new   decreasing          I-Explore
growth       minimal  new (∪)      increasing          U-Explore
growth       minimal  old (∪)      decreasing          consecutive pairs
growth       maximal  old (∩)      increasing          longest interval
growth       maximal  new (∩)      decreasing          I-Explore
shrinkage    minimal  old (∪)      increasing          U-Explore
shrinkage    minimal  new (∪)      decreasing          consecutive pairs
shrinkage    maximal  new (∩)      increasing          longest interval
shrinkage    maximal  old (∩)      decreasing          I-Explore
===========  =======  ===========  ==================  =================

The two degenerate strategies are the paper's shortcuts: when extension
can only lower the count, only the shortest pairs can be minimal (steps
1-2 of U-Explore); when extension can only raise it, only the longest
extension can be maximal.

All four strategies run through one kernel over the storage's
time-major presence bits: every live reference's chain advances one
level per numpy op (see the kernel section below).  The per-pair
:class:`~repro.exploration.events.ChainEvaluator` walk survives as the
reference explorer in :mod:`repro.testing.reference_explore`, which the
parity suite and the ``exploration-variants-agree`` law diff the kernel
against, and behind :func:`exhaustive_explore`, the unpruned oracle.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..core import Interval, TemporalGraph
from .events import (
    ChainEvaluator,
    ChainStep,
    EntityKind,
    EventCounter,
    EventType,
    event_mask_from,
)
from .lattice import ExtendSide, Semantics, Side
from ..errors import ExplorationError
from ..obs.metrics import get_metrics
from ..obs.trace import trace_span

__all__ = [
    "Goal",
    "Strategy",
    "ExtendSide",
    "IntervalPairResult",
    "ExplorationResult",
    "u_explore",
    "i_explore",
    "explore",
    "exhaustive_explore",
    "table1_strategy",
]


class Goal(enum.Enum):
    """Minimal pairs (union-semantics extension) or maximal pairs
    (intersection-semantics extension)."""

    MINIMAL = "minimal"
    MAXIMAL = "maximal"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class IntervalPairResult:
    """One reported interval pair and its event count."""

    old: Side
    new: Side
    count: int

    def __str__(self) -> str:
        return f"({self.old}, {self.new}): {self.count}"


@dataclass(frozen=True)
class ExplorationResult:
    """The outcome of one exploration run.

    ``evaluations`` counts how many ``result(G)`` computations were
    performed — the cost metric the monotonicity pruning reduces (used by
    the pruning-ablation benchmark).
    """

    event: EventType
    goal: Goal
    extend: ExtendSide
    k: int
    pairs: tuple[IntervalPairResult, ...]
    evaluations: int

    def best(self) -> IntervalPairResult | None:
        """The pair with the highest count (ties: first)."""
        if not self.pairs:
            return None
        return max(self.pairs, key=lambda pair: pair.count)

    def diff(self, other: "ExplorationResult") -> tuple[str, ...]:
        """Human-readable differences from another exploration result.

        Compares the problem parameters and the *set* of reported
        ``(old, new, count)`` pairs; ``evaluations`` is deliberately
        ignored — it is the cost metric strategies legitimately differ
        on, not part of the answer the differential oracle diffs.
        """
        problems: list[str] = []
        for field_name in ("event", "goal", "extend", "k"):
            ours = getattr(self, field_name)
            theirs = getattr(other, field_name)
            if ours != theirs:
                problems.append(f"{field_name} differs: {ours} != {theirs}")
        mine = {(str(p.old), str(p.new)): p.count for p in self.pairs}
        yours = {(str(p.old), str(p.new)): p.count for p in other.pairs}
        for key in sorted(set(mine) | set(yours)):
            a = mine.get(key)
            b = yours.get(key)
            if a != b:
                problems.append(f"pair {key!r}: count {a} != {b}")
        return tuple(problems)

    def __str__(self) -> str:
        pairs = ", ".join(str(p) for p in self.pairs) or "none"
        return (
            f"{self.event}/{self.goal} extending {self.extend} with k={self.k}: "
            f"{pairs} [{self.evaluations} evaluations]"
        )


def _pair(step: ChainStep) -> IntervalPairResult:
    return IntervalPairResult(step.old, step.new, step.count)


class Strategy(enum.Enum):
    """How a Table-1 case walks its reference points (see the module
    table): pruned union/intersection chains, or one of the two
    degenerate single-pair-per-reference shortcuts."""

    U_EXPLORE = "u-explore"
    I_EXPLORE = "i-explore"
    CONSECUTIVE = "consecutive"
    LONGEST = "longest"

    def __str__(self) -> str:
        return self.value


def table1_strategy(event: EventType, goal: Goal, extend: ExtendSide) -> Strategy:
    """The strategy Table 1 assigns to one ``(event, goal, extend)`` case."""
    if event is EventType.STABILITY:
        return Strategy.U_EXPLORE if goal is Goal.MINIMAL else Strategy.I_EXPLORE
    # Shrinkage mirrors growth with the sides swapped.
    growing = ExtendSide.NEW if event is EventType.GROWTH else ExtendSide.OLD
    if goal is Goal.MINIMAL:
        return Strategy.U_EXPLORE if extend is growing else Strategy.CONSECUTIVE
    return Strategy.I_EXPLORE if extend is growing else Strategy.LONGEST


# ----------------------------------------------------------------------
# The exploration kernel
#
# Every Table-1 strategy iterates independent reference points.  The
# kernel advances all references together, one chain level per numpy
# op, over the storage's time-major presence bits
# (``GraphStorageBackend.presence_bits``): each level ORs/ANDs one
# gathered time row into every live chain's extended side and counts the
# whole level with one popcount.  Rows leave the live set under the
# U-/I-Explore stopping rules, so the evaluated pairs — and hence
# ``evaluations`` and the ``exploration.*`` counters — are exactly those
# of the per-step walk (``repro.testing.reference_explore``).
#
# The kernel walks a reference range ``[start, stop)``; every strategy
# runs it once over ``(0, references)`` and gets ``(pairs,
# evaluations)`` back.
# ----------------------------------------------------------------------

_KernelResult = tuple[list[IntervalPairResult], int]


def _references(counter: EventCounter) -> int:
    """How many reference points a chain can start from."""
    return max(0, len(counter.graph.timeline) - 1)


def _run_strategy(
    counter: EventCounter,
    event: EventType,
    strategy: Strategy,
    extend: ExtendSide,
    k: int,
) -> tuple[tuple[IntervalPairResult, ...], int]:
    """The exploration kernel over every reference point."""
    references = _references(counter)
    if not references:
        return (), 0
    if strategy is Strategy.U_EXPLORE or strategy is Strategy.I_EXPLORE:
        pairs, evaluations = _walk_chains(
            counter, event, strategy is Strategy.U_EXPLORE, extend, k, 0, references
        )
    else:
        pairs, evaluations = _walk_degenerate(
            counter, event, strategy, extend, k, 0, references
        )
    get_metrics().inc("exploration.chain_steps", evaluations)
    return tuple(pairs), evaluations


def _chain_sides(
    reference: int, level: int, extend: ExtendSide, semantics: Semantics
) -> tuple[Side, Side]:
    """The pair at ``level`` (0-based) of one reference's chain."""
    if extend is ExtendSide.NEW:
        return Side.point(reference), Side(
            Interval(reference + 1, reference + 1 + level), semantics
        )
    return Side(Interval(reference - level, reference), semantics), Side.point(
        reference + 1
    )


def _fixed_term(
    event: EventType,
    extend: ExtendSide,
    fixed: np.ndarray,
    match: np.ndarray | None,
) -> tuple[np.ndarray, bool]:
    """Fold the event and the key match into the chains' fixed side.

    Returns ``(term, negate)``: every level's packed event mask is
    ``term & extended`` (``negate``: ``term & ~extended``), so a level
    costs one AND however the event combines the two sides.
    """
    negate = False
    if event is not EventType.STABILITY:
        # growth = new & ~old, shrinkage = old & ~new: the fixed side is
        # the negated one when it is growth's old or shrinkage's new.
        if (event is EventType.GROWTH) is (extend is ExtendSide.NEW):
            fixed = ~fixed
        else:
            negate = True
    if match is not None:
        fixed = fixed & match
    return fixed, negate


def _walk_chains(
    counter: EventCounter,
    event: EventType,
    union: bool,
    extend: ExtendSide,
    k: int,
    start: int,
    stop: int,
) -> _KernelResult:
    """U-Explore (``union``) or I-Explore, level-synchronous.

    ``refs`` lists the live chains' reference points in ascending order;
    ``fixed`` holds their reference side (folded with the event and the
    key by :func:`_fixed_term`) and ``extended`` their extended side,
    compacted together.  U-Explore drops a row at its first passing pair
    (the minimal one); I-Explore keeps a row while it passes and reports
    its last passing pair (the maximal one).  Chains run out of time
    points largest-reference-first when extending NEW and
    smallest-first when extending OLD, so exhausted rows are always a
    suffix (NEW) or prefix (OLD) of ``refs`` and leave by slicing.
    """
    bits = counter.presence_bits()
    n_times = bits.shape[0]
    semantics = Semantics.UNION if union else Semantics.INTERSECTION
    refs = np.arange(start, stop)
    n_refs = stop - start
    if extend is ExtendSide.NEW:
        fixed, extended = bits[refs], bits[refs + 1]
        capacity = n_refs * (n_times - 1) - (start + stop - 1) * n_refs // 2
    else:
        fixed, extended = bits[refs + 1], bits[refs]
        capacity = (start + stop + 1) * n_refs // 2
    fixed, negate = _fixed_term(event, extend, fixed, counter.match_bits)
    hit_level = np.full(stop - start, -1, dtype=np.int64)
    hit_count = np.zeros(stop - start, dtype=np.int64)
    evaluations = 0
    level = 0
    while refs.size:
        masks = fixed & ~extended if negate else fixed & extended
        sides = (
            [_chain_sides(r, level, extend, semantics) for r in refs.tolist()]
            if counter.counts_windows
            else None
        )
        counts = counter.count_packed(event, masks, sides)
        evaluations += refs.size
        passing = counts >= k
        n_passing = np.count_nonzero(passing)
        if n_passing:
            if n_passing < refs.size:
                rows, counts = refs[passing] - start, counts[passing]
            else:
                rows = refs - start
            hit_level[rows] = level
            hit_count[rows] = counts
        # U-Explore keeps the failing rows, I-Explore the passing ones.
        n_keep = refs.size - n_passing if union else n_passing
        if not n_keep:
            break
        if n_keep < refs.size:
            keep = ~passing if union else passing
            refs, fixed, extended = refs[keep], fixed[keep], extended[keep]
        level += 1
        if extend is ExtendSide.NEW:
            cut = int(refs.searchsorted(n_times - 1 - level))
            refs, fixed, extended = refs[:cut], fixed[:cut], extended[:cut]
            column = bits[refs + (1 + level)]
        else:
            cut = int(refs.searchsorted(level))
            refs, fixed, extended = refs[cut:], fixed[cut:], extended[cut:]
            column = bits[refs - level]
        if union:
            extended |= column
        else:
            extended &= column
    metrics = get_metrics()
    metrics.inc("exploration.chains", stop - start)
    if capacity > evaluations:
        metrics.inc("exploration.pruned_steps", capacity - evaluations)
    rows = np.flatnonzero(hit_level >= 0)
    pairs = [
        IntervalPairResult(*_chain_sides(start + row, lvl, extend, semantics), c)
        for row, lvl, c in zip(
            rows.tolist(), hit_level[rows].tolist(), hit_count[rows].tolist()
        )
    ]
    return pairs, evaluations


def _degenerate_sides(
    strategy: Strategy, extend: ExtendSide, reference: int, n_times: int
) -> tuple[Side, Side]:
    """The single pair the degenerate strategies evaluate per reference."""
    if strategy is Strategy.CONSECUTIVE:
        return Side.point(reference), Side.point(reference + 1)
    if extend is ExtendSide.OLD:
        return (
            Side(Interval(0, reference), Semantics.INTERSECTION),
            Side.point(reference + 1),
        )
    return Side.point(reference), Side(
        Interval(reference + 1, n_times - 1), Semantics.INTERSECTION
    )


def _walk_degenerate(
    counter: EventCounter,
    event: EventType,
    strategy: Strategy,
    extend: ExtendSide,
    k: int,
    start: int,
    stop: int,
) -> _KernelResult:
    """Consecutive pairs (one ``W[:-1]``/``W[1:]`` op) or longest
    intersection extensions (one ``bitwise_and.accumulate``)."""
    bits = counter.presence_bits()
    n_times = bits.shape[0]
    if strategy is Strategy.CONSECUTIVE:
        old_bits, new_bits = bits[start:stop], bits[start + 1 : stop + 1]
    elif extend is ExtendSide.OLD:
        old_bits = np.bitwise_and.accumulate(bits[:stop], axis=0)[start:]
        new_bits = bits[start + 1 : stop + 1]
    else:
        # Suffix ANDs of rows start+1 .. n_times-1, nearest-first.
        suffix = np.bitwise_and.accumulate(bits[:start:-1], axis=0)[::-1]
        old_bits, new_bits = bits[start:stop], suffix[: stop - start]
    masks = event_mask_from(event, old_bits, new_bits)
    match = counter.match_bits
    if match is not None:
        masks &= match
    sides = (
        [
            _degenerate_sides(strategy, extend, reference, n_times)
            for reference in range(start, stop)
        ]
        if counter.counts_windows
        else None
    )
    counts = counter.count_packed(event, masks, sides)
    pairs = [
        IntervalPairResult(
            *_degenerate_sides(strategy, extend, start + int(row), n_times),
            int(counts[row]),
        )
        for row in np.flatnonzero(counts >= k)
    ]
    return pairs, stop - start


def u_explore(
    counter: EventCounter,
    event: EventType,
    extend: ExtendSide,
    k: int,
) -> ExplorationResult:
    """Union Exploration (Section 3.2): minimal pairs with >= k events.

    The extended side walks its union semi-lattice; counts are
    monotonically increasing along the chain, so the first pair reaching
    ``k`` is the minimal one for its reference point and the rest of the
    chain is pruned.
    """
    pairs, evaluations = _run_strategy(
        counter, event, Strategy.U_EXPLORE, extend, k
    )
    return ExplorationResult(event, Goal.MINIMAL, extend, k, pairs, evaluations)


def i_explore(
    counter: EventCounter,
    event: EventType,
    extend: ExtendSide,
    k: int,
) -> ExplorationResult:
    """Intersection Exploration (Section 3.2): maximal pairs with >= k.

    The extended side walks its intersection semi-lattice; counts are
    monotonically decreasing, so each extension that still passes
    replaces its predecessor in the candidate set, and the chain stops at
    the first failure.  References whose shortest pair already fails are
    pruned entirely (step 2 of the paper's algorithm).
    """
    pairs, evaluations = _run_strategy(
        counter, event, Strategy.I_EXPLORE, extend, k
    )
    return ExplorationResult(event, Goal.MAXIMAL, extend, k, pairs, evaluations)


def explore(
    graph: TemporalGraph,
    event: EventType,
    goal: Goal,
    extend: ExtendSide,
    k: int,
    entity: EntityKind = EntityKind.EDGES,
    attributes: Sequence[str] = (),
    key: Any = None,
) -> ExplorationResult:
    """Run one of the eight Table-1 exploration cases.

    Parameters
    ----------
    graph:
        The temporal graph to explore.
    event, goal, extend:
        Which Table-1 row to run (:func:`table1_strategy` names the
        strategy it selects).
    k:
        The event-count threshold (see
        :func:`repro.exploration.thresholds.suggest_threshold`).
    entity, attributes, key:
        What to count — e.g. ``entity=EDGES, attributes=["gender"],
        key=(("f",), ("f",))`` counts female-female edges as in the
        paper's Figures 13/14.
    """
    if k < 1:
        raise ExplorationError(f"threshold k must be positive, got {k}")
    get_metrics().inc("exploration.runs")
    with trace_span(
        "explore", event=str(event), goal=str(goal), extend=str(extend), k=k
    ):
        counter = EventCounter(graph, entity=entity, attributes=attributes, key=key)
        pairs, evaluations = _run_strategy(
            counter, event, table1_strategy(event, goal, extend), extend, k
        )
        return ExplorationResult(event, goal, extend, k, pairs, evaluations)


def _exhaustive_walk(
    counter: EventCounter,
    event: EventType,
    goal: Goal,
    extend: ExtendSide,
    k: int,
    incremental: bool,
) -> _KernelResult:
    """The oracle explorer's unpruned walk over every reference point."""
    evaluator = ChainEvaluator(counter, event, incremental=incremental)
    semantics = Semantics.UNION if goal is Goal.MINIMAL else Semantics.INTERSECTION
    pairs: list[IntervalPairResult] = []
    evaluations = 0
    for reference in range(_references(counter)):
        passing: list[IntervalPairResult] = []
        for step in evaluator.chain(reference, extend, semantics):
            evaluations += 1
            if step.count >= k:
                passing.append(_pair(step))
        if not passing:
            continue
        if goal is Goal.MINIMAL:
            # Definition 3.4: the shortest passing extension — no proper
            # sub-extension passes.  Chains yield in increasing length,
            # so that is the first passing pair.
            pairs.append(passing[0])
        else:
            # Definition 3.5: the longest passing extension — no proper
            # super-extension passes.  That is the last passing pair.
            pairs.append(passing[-1])
    return pairs, evaluations


def exhaustive_explore(
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
    """Oracle explorer: evaluates *every* pair in the case's candidate
    space and selects minimal/maximal pairs by definition.

    Used to validate the pruned strategies in tests, and as the baseline
    of the pruning-ablation benchmark.  The semantics of the extended
    side follow the goal (union for minimal, intersection for maximal),
    exactly as in :func:`explore`.
    """
    if k < 1:
        raise ExplorationError(f"threshold k must be positive, got {k}")
    get_metrics().inc("exploration.runs")
    with trace_span(
        "explore.exhaustive",
        event=str(event),
        goal=str(goal),
        extend=str(extend),
        k=k,
    ):
        counter = EventCounter(graph, entity=entity, attributes=attributes, key=key)
        pairs, evaluations = _exhaustive_walk(
            counter, event, goal, extend, k, incremental
        )
        return ExplorationResult(
            event, goal, extend, k, tuple(pairs), evaluations
        )
