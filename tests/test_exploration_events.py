"""Tests for EventCounter: side semantics and result(G) counting."""

import pytest

from repro.core import Interval
from repro.errors import ExplorationError
from repro.exploration import (
    EntityKind,
    EventCounter,
    EventType,
    ExtendSide,
    Goal,
    Semantics,
    Side,
    explore,
)


@pytest.fixture()
def edge_counter(paper_graph):
    return EventCounter(paper_graph, entity=EntityKind.EDGES)


@pytest.fixture()
def node_counter(paper_graph):
    return EventCounter(paper_graph, entity=EntityKind.NODES)


class TestSideQualification:
    def test_point_sides(self, edge_counter):
        mask = edge_counter.event_mask(
            EventType.STABILITY, Side.point(0), Side.point(1)
        )
        assert mask.sum() == 1  # only (u1, u2) is stable t0 -> t1

    def test_union_side_any_semantics(self, node_counter):
        # Old = t0; new = [t1..t2] under union: u5 qualifies (exists at t2).
        old = Side.point(0)
        new = Side(Interval(1, 2), Semantics.UNION)
        entities = node_counter.event_entities(EventType.GROWTH, old, new)
        assert "u5" in entities

    def test_intersection_side_all_semantics(self, node_counter):
        # New = [t1..t2] under intersection: u5 (only at t2) fails, u1
        # (only at t1) fails; u2/u4 pass.
        old = Side.point(0)
        new = Side(Interval(1, 2), Semantics.INTERSECTION)
        entities = node_counter.event_entities(EventType.STABILITY, old, new)
        assert set(entities) == {"u2", "u4"}

    def test_shrinkage_entities(self, edge_counter):
        old, new = Side.point(0), Side.point(1)
        entities = edge_counter.event_entities(EventType.SHRINKAGE, old, new)
        assert set(entities) == {("u2", "u3"), ("u1", "u4")}

    def test_growth_entities(self, edge_counter):
        old, new = Side.point(0), Side.point(1)
        entities = edge_counter.event_entities(EventType.GROWTH, old, new)
        assert set(entities) == {("u4", "u2")}


class TestStaticKeyCounting:
    def test_node_key(self, paper_graph):
        counter = EventCounter(
            paper_graph, entity=EntityKind.NODES,
            attributes=["gender"], key=("f",),
        )
        # Stable nodes t0->t1: u1, u2, u4 of which f: u2, u4.
        assert counter.count(EventType.STABILITY, Side.point(0), Side.point(1)) == 2

    def test_edge_key(self, paper_graph):
        counter = EventCounter(
            paper_graph, attributes=["gender"], key=(("f",), ("f",)),
        )
        # New f-f edges t0->t1: (u4,u2).
        assert counter.count(EventType.GROWTH, Side.point(0), Side.point(1)) == 1

    def test_key_requires_attributes(self, paper_graph):
        with pytest.raises(ValueError):
            EventCounter(paper_graph, key=("f",))

    def test_no_key_counts_everything(self, edge_counter):
        old, new = Side.point(0), Side.point(1)
        total = edge_counter.count(EventType.SHRINKAGE, old, new)
        assert total == 2

    def test_static_attributes_without_key(self, paper_graph):
        counter = EventCounter(paper_graph, attributes=["gender"])
        old, new = Side.point(0), Side.point(1)
        # Without a key the count is the raw entity count.
        assert counter.count(EventType.SHRINKAGE, old, new) == 2


class TestMalformedKeys:
    """A key that is not a (source tuple, target tuple) pair for edges,
    or not a tuple for nodes, raises ExplorationError on the static and
    the time-varying path alike — never a bare unpacking error."""

    @pytest.mark.parametrize("attributes", [["gender"], ["publications"]])
    @pytest.mark.parametrize("key", [("f",), (("f",),), (("f",), ("f",), ("f",)), 5])
    def test_edge_key_through_counter(self, paper_graph, attributes, key):
        with pytest.raises(ExplorationError, match="source tuple, target tuple"):
            EventCounter(
                paper_graph, EntityKind.EDGES, attributes, key=key
            )

    @pytest.mark.parametrize("attributes", [["gender"], ["publications"]])
    def test_edge_key_through_explore(self, paper_graph, attributes):
        with pytest.raises(ExplorationError, match="source tuple, target tuple"):
            explore(
                paper_graph,
                EventType.STABILITY,
                Goal.MAXIMAL,
                ExtendSide.NEW,
                1,
                entity=EntityKind.EDGES,
                attributes=attributes,
                key=("f",),
            )

    @pytest.mark.parametrize("attributes", [["gender"], ["publications"]])
    def test_node_key_through_counter_and_explore(self, paper_graph, attributes):
        with pytest.raises(ExplorationError, match="attribute tuple"):
            EventCounter(paper_graph, EntityKind.NODES, attributes, key=5)
        with pytest.raises(ExplorationError, match="attribute tuple"):
            explore(
                paper_graph,
                EventType.GROWTH,
                Goal.MINIMAL,
                ExtendSide.NEW,
                1,
                entity=EntityKind.NODES,
                attributes=attributes,
                key=5,
            )

    @pytest.mark.parametrize("attributes", [["gender"], ["publications"]])
    @pytest.mark.parametrize(
        "entity, key",
        [
            (EntityKind.EDGES, ("female", "f")),
            (EntityKind.EDGES, ("f", "f")),
            (EntityKind.EDGES, (("f",), "m")),
            (EntityKind.EDGES, (b"f", ("m",))),
            (EntityKind.NODES, "f"),
            (EntityKind.NODES, b"f"),
        ],
    )
    def test_string_where_a_tuple_is_wanted(
        self, paper_graph, attributes, entity, key
    ):
        """``tuple("female")`` would split the string into characters
        that match nothing; a string key or endpoint is rejected."""
        with pytest.raises(ExplorationError, match="is not"):
            EventCounter(paper_graph, entity, attributes, key=key)
        with pytest.raises(ExplorationError, match="is not"):
            explore(
                paper_graph,
                EventType.STABILITY,
                Goal.MAXIMAL,
                ExtendSide.NEW,
                1,
                entity=entity,
                attributes=attributes,
                key=key,
            )

    @pytest.mark.parametrize("attributes", [["gender"], ["publications"]])
    def test_well_formed_key_of_wrong_length_matches_nothing(
        self, paper_graph, attributes
    ):
        counter = EventCounter(
            paper_graph, EntityKind.EDGES, attributes, key=(("f", 1), ("f",))
        )
        assert counter.count(EventType.STABILITY, Side.point(0), Side.point(1)) == 0


class TestVaryingAttributeCounting:
    def test_node_appearances(self, paper_graph):
        counter = EventCounter(
            paper_graph,
            entity=EntityKind.NODES,
            attributes=["gender", "publications"],
            key=("f", 1),
        )
        old, new = Side.point(0), Side.point(1)
        # Growth of (f,1) appearances: u4 newly carries (f,1) at t1 but
        # u4 itself exists at t0 -> not a growth *node*.  Node-level
        # growth events count nodes in the growth set; only their
        # appearances inside the window are tuple-filtered.
        assert counter.count(EventType.GROWTH, old, new) == 0

    def test_shrinkage_node_appearances(self, paper_graph):
        counter = EventCounter(
            paper_graph,
            entity=EntityKind.NODES,
            attributes=["gender", "publications"],
            key=("f", 1),
        )
        old, new = Side.point(0), Side.point(1)
        # u3 disappears; its t0 appearance is (f, 1).
        assert counter.count(EventType.SHRINKAGE, old, new) == 1

    def test_edge_appearances(self, paper_graph):
        counter = EventCounter(
            paper_graph,
            attributes=["gender", "publications"],
            key=(("f", 1), ("f", 1)),
        )
        old, new = Side.point(1), Side.point(2)
        # (u4,u2) is stable t1->t2 and both carry (f,1) throughout.
        assert counter.count(EventType.STABILITY, old, new) == 1

    def test_varying_without_key_counts_appearances(self, paper_graph):
        counter = EventCounter(
            paper_graph,
            entity=EntityKind.NODES,
            attributes=["publications"],
        )
        old, new = Side.point(0), Side.point(1)
        # Stable nodes: u1, u2, u4; appearances over the window {t0, t1}:
        # u1 -> {3, 1}, u2 -> {1}, u4 -> {2, 1}: 5 distinct pairs.
        assert counter.count(EventType.STABILITY, old, new) == 5


class TestMonotonicityOfCounts:
    """Lemma 3.3 and Lemmas 3.9/3.10 as structural facts of the counter."""

    def test_union_extension_increases_stability(self, small_dblp):
        counter = EventCounter(small_dblp)
        old = Side.point(0)
        counts = [
            counter.count(
                EventType.STABILITY,
                old,
                Side(Interval(1, stop), Semantics.UNION),
            )
            for stop in range(1, len(small_dblp.timeline))
        ]
        assert counts == sorted(counts)

    def test_intersection_extension_decreases_stability(self, small_dblp):
        counter = EventCounter(small_dblp)
        old = Side.point(0)
        counts = [
            counter.count(
                EventType.STABILITY,
                old,
                Side(Interval(1, stop), Semantics.INTERSECTION),
            )
            for stop in range(1, len(small_dblp.timeline))
        ]
        assert counts == sorted(counts, reverse=True)

    def test_growth_decreases_when_old_extends_by_union(self, small_dblp):
        counter = EventCounter(small_dblp)
        n = len(small_dblp.timeline)
        new = Side.point(n - 1)
        counts = [
            counter.count(
                EventType.GROWTH,
                Side(Interval(start, n - 2), Semantics.UNION),
                new,
            )
            for start in range(n - 2, -1, -1)
        ]
        assert counts == sorted(counts, reverse=True)

    def test_growth_increases_when_old_extends_by_intersection(self, small_dblp):
        counter = EventCounter(small_dblp)
        n = len(small_dblp.timeline)
        new = Side.point(n - 1)
        counts = [
            counter.count(
                EventType.GROWTH,
                Side(Interval(start, n - 2), Semantics.INTERSECTION),
                new,
            )
            for start in range(n - 2, -1, -1)
        ]
        assert counts == sorted(counts)

    def test_shrinkage_decreases_when_new_extends_by_union(self, small_dblp):
        counter = EventCounter(small_dblp)
        old = Side.point(0)
        counts = [
            counter.count(
                EventType.SHRINKAGE,
                old,
                Side(Interval(1, stop), Semantics.UNION),
            )
            for stop in range(1, len(small_dblp.timeline))
        ]
        assert counts == sorted(counts, reverse=True)


class TestEventWindow:
    """Regression: the STABILITY event window dedupes duplicate time
    labels when the two sides overlap, preserving timeline order."""

    def test_overlapping_stability_sides_deduped(self, paper_graph):
        counter = EventCounter(
            paper_graph, entity=EntityKind.NODES, attributes=["publications"]
        )
        old = Side(Interval(0, 1), Semantics.UNION)
        new = Side(Interval(1, 2), Semantics.UNION)
        window = counter._event_window(EventType.STABILITY, old, new)
        assert window == list(paper_graph.timeline.labels)
        assert len(window) == len(set(window))

    def test_window_is_in_timeline_order(self, paper_graph):
        counter = EventCounter(
            paper_graph, entity=EntityKind.NODES, attributes=["publications"]
        )
        # Even with the sides given "backwards", the window follows the
        # timeline, not the concatenation order of the sides.
        old = Side(Interval(1, 2), Semantics.UNION)
        new = Side(Interval(0, 1), Semantics.UNION)
        window = counter._event_window(EventType.STABILITY, old, new)
        assert window == list(paper_graph.timeline.labels)

    def test_growth_window_is_new_side(self, paper_graph):
        counter = EventCounter(paper_graph, attributes=["publications"])
        old = Side.point(0)
        new = Side(Interval(1, 2), Semantics.UNION)
        labels = paper_graph.timeline.labels
        assert counter._event_window(EventType.GROWTH, old, new) == [
            labels[1], labels[2]
        ]
        assert counter._event_window(EventType.SHRINKAGE, old, new) == [labels[0]]

    def test_overlap_count_matches_brute_force(self, tiny_graph):
        """Varying-attribute counts over an overlapping pair equal the
        brute-force distinct-appearance count over the deduped window."""
        counter = EventCounter(
            tiny_graph, entity=EntityKind.NODES, attributes=["level"]
        )
        old = Side(Interval(0, 2), Semantics.UNION)
        new = Side(Interval(1, 3), Semantics.UNION)
        mask = counter.event_mask(EventType.STABILITY, old, new)
        labels = tiny_graph.timeline.labels
        window = [labels[i] for i in range(4)]  # deduped union of the sides
        presence = tiny_graph.node_presence.values
        appearances = set()
        for row, node in enumerate(tiny_graph.node_presence.row_labels):
            if not mask[row]:
                continue
            for t in window:
                col = tiny_graph.timeline.index_of(t)
                if presence[row, col]:
                    value = tiny_graph.attribute_value(node, "level", t)
                    appearances.add((node, value))
        assert counter.count(EventType.STABILITY, old, new) == len(appearances)
