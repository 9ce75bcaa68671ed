"""Parity suite: the exploration kernel vs. the per-step chain walk.

The frontier-batched kernel behind ``explore`` (packed presence bits,
one OR/AND per chain level for every live reference) must be
*bit-identical* to the reference explorer's per-step
:class:`ChainEvaluator` walk — incremental and naive — across all eight
Table-1 strategy cases, on the example graph and on the MovieLens/DBLP
fixtures, with static and time-varying attributes, with and without
keys.  The chain evaluator's incremental masks must in turn equal the
naive per-pair reduction.  Any drift here is a correctness bug, not a
tolerance issue.
"""

import itertools

import numpy as np
import pytest

from repro.core import Interval
from repro.exploration import (
    ChainEvaluator,
    EntityKind,
    EventCounter,
    EventType,
    ExtendSide,
    Goal,
    Semantics,
    Side,
    consecutive_event_counts,
    exhaustive_explore,
    explore,
)
from repro.testing import reference_explore
from repro.testing.reference_explore import seed_appearance_count

TABLE1_CASES = list(itertools.product(EventType, Goal, ExtendSide))

# (fixture name, [(entity, attributes, key), ...]) — static-only,
# time-varying, keyed and keyless configurations per dataset.
COUNTER_CONFIGS = {
    "paper_graph": [
        (EntityKind.EDGES, (), None),
        (EntityKind.NODES, ("gender",), ("f",)),
        (EntityKind.EDGES, ("gender",), (("f",), ("f",))),
        (EntityKind.NODES, ("gender", "publications"), ("f", 1)),
        (EntityKind.EDGES, ("publications",), None),
    ],
    "small_movielens": [
        (EntityKind.EDGES, (), None),
        (EntityKind.EDGES, ("gender",), (("f",), ("f",))),
        (EntityKind.EDGES, ("gender", "rating"), None),
    ],
    "small_dblp": [
        (EntityKind.EDGES, (), None),
        (EntityKind.NODES, ("gender",), ("f",)),
        (EntityKind.EDGES, ("publications",), None),
    ],
}

DATASETS = sorted(COUNTER_CONFIGS)


def _graph(request, name):
    return request.getfixturevalue(name)


class TestExploreParity:
    """explore() — all eight Table-1 cases, kernel vs. both walks."""

    @pytest.mark.parametrize("event,goal,extend", TABLE1_CASES)
    @pytest.mark.parametrize("dataset", DATASETS)
    def test_table1_case(self, request, dataset, event, goal, extend):
        graph = _graph(request, dataset)
        kernel = explore(graph, event, goal, extend, 1)
        for incremental in (True, False):
            walk = reference_explore(
                graph, event, goal, extend, 1, incremental=incremental
            )
            assert kernel == walk

    @pytest.mark.parametrize("dataset", DATASETS)
    def test_attribute_configs(self, request, dataset):
        graph = _graph(request, dataset)
        for entity, attributes, key in COUNTER_CONFIGS[dataset]:
            for event, goal, extend in (
                (EventType.STABILITY, Goal.MAXIMAL, ExtendSide.NEW),
                (EventType.GROWTH, Goal.MINIMAL, ExtendSide.OLD),
                (EventType.SHRINKAGE, Goal.MAXIMAL, ExtendSide.OLD),
            ):
                kwargs = dict(entity=entity, attributes=attributes, key=key)
                kernel = explore(graph, event, goal, extend, 1, **kwargs)
                walk = reference_explore(
                    graph, event, goal, extend, 1, incremental=False, **kwargs
                )
                assert kernel == walk, (entity, attributes, key, event, goal, extend)


class TestExhaustiveParity:
    @pytest.mark.parametrize("event,goal,extend", TABLE1_CASES)
    def test_paper_graph(self, paper_graph, event, goal, extend):
        fast = exhaustive_explore(
            paper_graph, event, goal, extend, 1, incremental=True
        )
        slow = exhaustive_explore(
            paper_graph, event, goal, extend, 1, incremental=False
        )
        assert fast == slow

    @pytest.mark.parametrize("dataset", ["small_movielens", "small_dblp"])
    @pytest.mark.parametrize("extend", ExtendSide)
    def test_fixtures(self, request, dataset, extend):
        graph = _graph(request, dataset)
        fast = exhaustive_explore(
            graph, EventType.STABILITY, Goal.MAXIMAL, extend, 1,
            incremental=True,
        )
        slow = exhaustive_explore(
            graph, EventType.STABILITY, Goal.MAXIMAL, extend, 1,
            incremental=False,
        )
        assert fast == slow


class TestChainStepMasks:
    """Every incremental chain step's mask and count must equal what the
    counter computes from scratch for the same pair."""

    @pytest.mark.parametrize("dataset", DATASETS)
    @pytest.mark.parametrize("extend", ExtendSide)
    @pytest.mark.parametrize("semantics", Semantics)
    def test_chain_masks_bit_identical(self, request, dataset, extend, semantics):
        graph = _graph(request, dataset)
        entity, attributes, key = COUNTER_CONFIGS[dataset][1]
        counter = EventCounter(
            graph, entity=entity, attributes=attributes, key=key
        )
        for event in EventType:
            evaluator = ChainEvaluator(counter, event)
            for reference in range(min(len(graph.timeline) - 1, 4)):
                for step in evaluator.chain(reference, extend, semantics):
                    expected_mask = counter.event_mask(event, step.old, step.new)
                    assert np.array_equal(step.mask, expected_mask)
                    assert step.count == counter.count(event, step.old, step.new)

    @pytest.mark.parametrize("dataset", DATASETS)
    def test_consecutive_and_longest(self, request, dataset):
        graph = _graph(request, dataset)
        counter = EventCounter(graph)
        for event in EventType:
            evaluator = ChainEvaluator(counter, event)
            for walk in (
                evaluator.consecutive(),
                evaluator.longest(ExtendSide.OLD),
                evaluator.longest(ExtendSide.NEW),
            ):
                for step in walk:
                    expected = counter.event_mask(event, step.old, step.new)
                    assert np.array_equal(step.mask, expected)
                    assert step.count == counter.count(event, step.old, step.new)

    def test_evaluations_match_between_modes(self, small_dblp):
        """Pruning decisions are identical, so the kernel and both walk
        modes evaluate the same number of pairs."""
        for event, goal, extend in TABLE1_CASES:
            kernel = explore(small_dblp, event, goal, extend, 2)
            for incremental in (True, False):
                walk = reference_explore(
                    small_dblp, event, goal, extend, 2, incremental=incremental
                )
                assert kernel.evaluations == walk.evaluations


class TestVectorizedAppearanceParity:
    """The tuple-code counting path vs. the seed's nested-loop count
    (:func:`repro.testing.reference_explore.seed_appearance_count`)."""

    @pytest.mark.parametrize(
        "entity,attributes,key",
        [
            (EntityKind.NODES, ("publications",), None),
            (EntityKind.NODES, ("gender", "publications"), ("f", 1)),
            (EntityKind.EDGES, ("publications",), None),
            (EntityKind.EDGES, ("gender", "publications"), (("f", 1), ("f", 1))),
        ],
    )
    def test_paper_graph_all_pairs(self, paper_graph, entity, attributes, key):
        counter = EventCounter(
            paper_graph, entity=entity, attributes=attributes, key=key
        )
        n = len(paper_graph.timeline)
        spans = list(itertools.combinations(range(n + 1), 2))
        for (a, b), (c, d) in itertools.product(spans, repeat=2):
            for semantics in Semantics:
                old = Side(Interval(a, b - 1), semantics)
                new = Side(Interval(c, d - 1), semantics)
                for event in EventType:
                    mask = counter.event_mask(event, old, new)
                    assert counter.count(event, old, new) == seed_appearance_count(
                        counter, event, old, new, mask
                    )

    @pytest.mark.parametrize("dataset", ["small_movielens", "small_dblp"])
    def test_fixtures_spot_pairs(self, request, dataset):
        graph = _graph(request, dataset)
        attrs = ("rating",) if dataset == "small_movielens" else ("publications",)
        for entity in EntityKind:
            counter = EventCounter(graph, entity=entity, attributes=attrs)
            n = len(graph.timeline)
            pairs = [
                (Side.point(0), Side.point(1)),
                (Side(Interval(0, 1), Semantics.UNION),
                 Side(Interval(2, min(3, n - 1)), Semantics.UNION)),
                (Side(Interval(0, 2), Semantics.INTERSECTION),
                 Side(Interval(1, min(3, n - 1)), Semantics.INTERSECTION)),
            ]
            for old, new in pairs:
                for event in EventType:
                    mask = counter.event_mask(event, old, new)
                    assert counter.count(event, old, new) == seed_appearance_count(
                        counter, event, old, new, mask
                    )


class TestDownstreamParity:
    def test_consecutive_counts_match_manual(self, small_dblp):
        for event in EventType:
            counter = EventCounter(small_dblp)
            manual = [
                counter.count(event, Side.point(i), Side.point(i + 1))
                for i in range(len(small_dblp.timeline) - 1)
            ]
            assert consecutive_event_counts(small_dblp, event) == manual

    def test_two_sided_counts_match_counter(self, paper_graph):
        from repro.exploration import two_sided_counts

        for event in EventType:
            for semantics in Semantics:
                counter = EventCounter(paper_graph)
                for pair in two_sided_counts(paper_graph, event, semantics):
                    expected = counter.count(
                        event,
                        Side(pair.old, semantics),
                        Side(pair.new, semantics),
                    )
                    assert pair.count == expected
