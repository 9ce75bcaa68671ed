"""Tests for the temporal operators (Definitions 2.2-2.5) on the paper's
running example."""

import pytest

from repro.core import difference, intersection, ordered_times, project, union
from repro.errors import TemporalError


class TestOrderedTimes:
    def test_orders_by_timeline(self, paper_graph):
        assert ordered_times(paper_graph, ["t2", "t0"]) == ("t0", "t2")

    def test_merges_sets(self, paper_graph):
        assert ordered_times(paper_graph, ["t1"], ["t0", "t1"]) == ("t0", "t1")

    def test_unknown_time_rejected(self, paper_graph):
        with pytest.raises(KeyError):
            ordered_times(paper_graph, ["t9"])

    def test_bare_string_time_set_rejected(self, paper_graph):
        with pytest.raises(TemporalError, match="time set .* bare string 't0'"):
            ordered_times(paper_graph, ["t1"], "t0")


class TestProject:
    def test_single_point(self, paper_graph):
        sub = project(paper_graph, ["t2"])
        assert set(sub.nodes) == {"u2", "u4", "u5"}
        assert set(sub.edges) == {("u4", "u2"), ("u5", "u4"), ("u5", "u2")}

    def test_requires_presence_throughout(self, paper_graph):
        sub = project(paper_graph, ["t0", "t1", "t2"])
        assert set(sub.nodes) == {"u2", "u4"}  # present at all three points

    def test_timeline_restricted(self, paper_graph):
        sub = project(paper_graph, ["t1"])
        assert sub.timeline.labels == ("t1",)

    def test_attributes_restricted(self, paper_graph):
        sub = project(paper_graph, ["t1"])
        assert sub.attribute_value("u4", "publications", "t1") == 1

    def test_empty_times_rejected(self, paper_graph):
        with pytest.raises(ValueError):
            project(paper_graph, [])


class TestUnion:
    def test_figure2_union(self, paper_graph):
        """Figure 2: the union graph on (t0, t1)."""
        result = union(paper_graph, ["t0"], ["t1"])
        assert set(result.nodes) == {"u1", "u2", "u3", "u4"}
        assert set(result.edges) == {
            ("u1", "u2"), ("u2", "u3"), ("u1", "u4"), ("u4", "u2"),
        }

    def test_presence_restricted_to_window(self, paper_graph):
        result = union(paper_graph, ["t0"], ["t1"])
        assert result.node_times("u2") == ("t0", "t1")

    def test_single_set_window(self, paper_graph):
        result = union(paper_graph, ["t0", "t1", "t2"])
        assert result.n_nodes == 5
        assert result.n_edges == 6

    def test_union_is_symmetric(self, paper_graph):
        a = union(paper_graph, ["t0"], ["t2"])
        b = union(paper_graph, ["t2"], ["t0"])
        assert a == b

    def test_union_empty_rejected(self, paper_graph):
        with pytest.raises(ValueError):
            union(paper_graph, [], [])


class TestIntersection:
    def test_stable_part(self, paper_graph):
        result = intersection(paper_graph, ["t0"], ["t1"])
        assert set(result.nodes) == {"u1", "u2", "u4"}
        assert set(result.edges) == {("u1", "u2")}

    def test_timeline_is_union_of_windows(self, paper_graph):
        result = intersection(paper_graph, ["t0"], ["t2"])
        assert result.timeline.labels == ("t0", "t2")

    def test_presence_keeps_both_sides(self, paper_graph):
        result = intersection(paper_graph, ["t0"], ["t1"])
        assert result.node_times("u1") == ("t0", "t1")

    def test_some_point_semantics(self, paper_graph):
        # u5 exists only at t2: intersect {t0,t1} with {t2} keeps nodes
        # existing at some point of each set.
        result = intersection(paper_graph, ["t0", "t1"], ["t2"])
        assert set(result.nodes) == {"u2", "u4"}

    def test_symmetric_node_sets(self, paper_graph):
        a = intersection(paper_graph, ["t0"], ["t2"])
        b = intersection(paper_graph, ["t2"], ["t0"])
        assert set(a.nodes) == set(b.nodes)
        assert set(a.edges) == set(b.edges)

    def test_empty_side_rejected(self, paper_graph):
        with pytest.raises(ValueError):
            intersection(paper_graph, ["t0"], [])


class TestDifference:
    def test_deletions(self, paper_graph):
        """t0 - t1: what disappeared between t0 and t1."""
        result = difference(paper_graph, ["t0"], ["t1"])
        # u3 disappears entirely; edges (u2,u3) and (u1,u4) are deleted.
        assert set(result.edges) == {("u2", "u3"), ("u1", "u4")}
        # u1, u2, u4 survive but lose an edge -> kept by the edge clause.
        assert set(result.nodes) == {"u1", "u2", "u3", "u4"}

    def test_additions(self, paper_graph):
        """t1 - t0: what is new at t1."""
        result = difference(paper_graph, ["t1"], ["t0"])
        assert set(result.edges) == {("u4", "u2")}
        assert set(result.nodes) == {"u2", "u4"}

    def test_node_without_lost_edge_excluded(self, paper_graph):
        # t2 - t1: u5 is new; (u5,u4), (u5,u2) are new edges; u4->u2
        # persists, so u4/u2 appear only as endpoints of new edges.
        result = difference(paper_graph, ["t2"], ["t1"])
        assert set(result.nodes) == {"u5", "u4", "u2"}
        assert set(result.edges) == {("u5", "u4"), ("u5", "u2")}

    def test_defined_on_first_interval(self, paper_graph):
        result = difference(paper_graph, ["t0"], ["t1"])
        assert result.timeline.labels == ("t0",)

    def test_not_symmetric(self, paper_graph):
        forward = difference(paper_graph, ["t0"], ["t1"])
        backward = difference(paper_graph, ["t1"], ["t0"])
        assert set(forward.edges) != set(backward.edges)

    def test_difference_with_empty_right(self, paper_graph):
        # T2 empty: nothing to subtract; everything in T1 remains.
        result = difference(paper_graph, ["t0"], [])
        assert set(result.nodes) == set(paper_graph.nodes_at("t0"))

    def test_empty_left_rejected(self, paper_graph):
        with pytest.raises(ValueError):
            difference(paper_graph, [], ["t0"])

    def test_interval_difference(self, paper_graph):
        # [t0,t1] - t2: edges present somewhere in t0/t1 and not at t2.
        result = difference(paper_graph, ["t0", "t1"], ["t2"])
        assert set(result.edges) == {("u1", "u2"), ("u2", "u3"), ("u1", "u4")}


class TestOperatorAlgebra:
    def test_union_contains_intersection(self, paper_graph):
        u = union(paper_graph, ["t0"], ["t1"])
        i = intersection(paper_graph, ["t0"], ["t1"])
        assert set(i.nodes) <= set(u.nodes)
        assert set(i.edges) <= set(u.edges)

    def test_union_is_intersection_plus_differences_for_edges(self, paper_graph):
        """E_union = E_inter | E_(t0-t1) | E_(t1-t0) — the evolution
        graph's edge decomposition."""
        u = set(union(paper_graph, ["t0"], ["t1"]).edges)
        i = set(intersection(paper_graph, ["t0"], ["t1"]).edges)
        d1 = set(difference(paper_graph, ["t0"], ["t1"]).edges)
        d2 = set(difference(paper_graph, ["t1"], ["t0"]).edges)
        assert u == i | d1 | d2
        assert not (i & d1) and not (i & d2) and not (d1 & d2)

    def test_project_subset_of_intersection(self, paper_graph):
        p = project(paper_graph, ["t0", "t1"])
        i = intersection(paper_graph, ["t0"], ["t1"])
        assert set(p.nodes) == set(i.nodes)
        assert set(p.edges) == set(i.edges)

    def test_operators_do_not_mutate_input(self, paper_graph):
        before = paper_graph.node_presence.values.copy()
        union(paper_graph, ["t0"], ["t1"])
        intersection(paper_graph, ["t0"], ["t1"])
        difference(paper_graph, ["t0"], ["t1"])
        assert (paper_graph.node_presence.values == before).all()
