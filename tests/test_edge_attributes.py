"""Tests for static edge attributes and edge-measure aggregation."""

import pytest

from repro.core import (
    SnapshotUpdate,
    TemporalGraph,
    TemporalGraphBuilder,
    Timeline,
    aggregate_edge_measure,
    append_snapshot,
    union,
)
from repro.frames import LabeledFrame


@pytest.fixture()
def weighted_graph():
    """A small collaboration graph whose edges carry a paper count."""
    builder = TemporalGraphBuilder(
        ["t0", "t1"], static=["gender"], edge_static=["papers"]
    )
    for node, gender in [("a", "m"), ("b", "f"), ("c", "f"), ("d", "m")]:
        builder.add_node(node, {"gender": gender})
        builder.set_node_presence(node, "t0")
        builder.set_node_presence(node, "t1")
    builder.add_edge("a", "b", ["t0", "t1"], static={"papers": 3})
    builder.add_edge("b", "c", ["t0"], static={"papers": 5})
    builder.add_edge("a", "d", ["t1"], static={"papers": 2})
    builder.add_edge("c", "b", ["t1"], static={"papers": 1})
    return builder.build()


class TestBuilderEdgeAttributes:
    def test_values_stored(self, weighted_graph):
        assert weighted_graph.edge_attribute_value(("a", "b"), "papers") == 3
        assert weighted_graph.edge_attribute_names == ("papers",)

    def test_unknown_edge_attribute_rejected(self):
        builder = TemporalGraphBuilder(["t0"], edge_static=["papers"])
        builder.add_node("a")
        builder.add_node("b")
        builder.set_node_presence("a", "t0")
        builder.set_node_presence("b", "t0")
        with pytest.raises(KeyError):
            builder.add_edge("a", "b", ["t0"], static={"venues": 2})

    def test_no_edge_attributes_declared(self, paper_graph):
        assert paper_graph.edge_attrs is None
        assert paper_graph.edge_attribute_names == ()
        with pytest.raises(KeyError):
            paper_graph.edge_attribute_value(("u1", "u2"), "papers")

    def test_schema_mismatch_rejected(self):
        times = ("t0",)
        nodes = LabeledFrame(["a", "b"], times, [[1], [1]])
        edges = LabeledFrame([("a", "b")], times, [[1]])
        static = LabeledFrame(["a", "b"], (), [[], []])
        bad_attrs = LabeledFrame([("b", "a")], ["papers"], [[1]])
        from repro.core import GraphIntegrityError

        with pytest.raises(GraphIntegrityError):
            TemporalGraph(
                Timeline(times), nodes, edges, static, {},
                edge_attrs=bad_attrs,
            )


class TestPropagation:
    def test_restricted_keeps_attrs(self, weighted_graph):
        sub = weighted_graph.restricted(
            ["a", "b"], [("a", "b")], ["t0"]
        )
        assert sub.edge_attribute_value(("a", "b"), "papers") == 3

    def test_operators_keep_attrs(self, weighted_graph):
        window = union(weighted_graph, ["t0"], ["t1"])
        assert window.edge_attribute_value(("b", "c"), "papers") == 5

    def test_equality_includes_attrs(self, weighted_graph):
        other = TemporalGraph(
            timeline=weighted_graph.timeline,
            node_presence=weighted_graph.node_presence,
            edge_presence=weighted_graph.edge_presence,
            static_attrs=weighted_graph.static_attrs,
            varying_attrs=weighted_graph.varying_attrs,
            edge_attrs=None,
        )
        assert weighted_graph != other

    def test_append_snapshot_extends_attrs(self, weighted_graph):
        update = SnapshotUpdate(
            time="t2",
            nodes={"a": {}, "b": {}},
            edges=[("b", "a")],
            edge_attrs={("b", "a"): {"papers": 7}},
        )
        extended = append_snapshot(weighted_graph, update)
        assert extended.edge_attribute_value(("b", "a"), "papers") == 7
        assert extended.edge_attribute_value(("a", "b"), "papers") == 3

    def test_append_snapshot_unknown_edge_attr(self, weighted_graph):
        update = SnapshotUpdate(
            time="t2",
            nodes={"a": {}, "b": {}},
            edges=[("b", "a")],
            edge_attrs={("b", "a"): {"venues": 7}},
        )
        with pytest.raises(KeyError):
            append_snapshot(weighted_graph, update)

    def test_append_snapshot_unknown_attr_for_known_edge(self, weighted_graph):
        # Regression: names used to be validated only for first-appearance
        # edges; a misspelled name on a known edge passed silently.
        update = SnapshotUpdate(
            time="t2",
            nodes={"a": {}, "b": {}},
            edges=[("a", "b")],
            edge_attrs={("a", "b"): {"venues": 7}},
        )
        with pytest.raises(KeyError):
            append_snapshot(weighted_graph, update)


class TestEdgeMeasure:
    def test_sum_distinct(self, weighted_graph):
        result = aggregate_edge_measure(
            weighted_graph, ["gender"], "papers", measure="sum"
        )
        # m->f: (a,b) 3; f->f: (b,c) 5 + (c,b) 1; m->m: (a,d) 2.
        assert result.edge(("m",), ("f",)) == 3
        assert result.edge(("f",), ("f",)) == 6
        assert result.edge(("m",), ("m",)) == 2

    def test_sum_all_counts_appearances(self, weighted_graph):
        result = aggregate_edge_measure(
            weighted_graph, ["gender"], "papers", measure="sum", distinct=False
        )
        # (a,b) active twice -> 3 counted twice.
        assert result.edge(("m",), ("f",)) == 6

    def test_window_restriction(self, weighted_graph):
        result = aggregate_edge_measure(
            weighted_graph, ["gender"], "papers", measure="sum", times=["t0"]
        )
        assert result.edge(("m",), ("m",)) is None
        assert result.edge(("f",), ("f",)) == 5

    def test_repeated_time_points_count_once(self, weighted_graph):
        result = aggregate_edge_measure(
            weighted_graph, ["gender"], "papers", measure="sum",
            distinct=False, times=["t1", "t0", "t1"],
        )
        # Same as the whole timeline: (a,b) active at t0 and t1 -> 3 + 3.
        assert result.edge(("m",), ("f",)) == 6
        assert result.edge(("f",), ("f",)) == 6

    def test_avg_and_max(self, weighted_graph):
        avg = aggregate_edge_measure(
            weighted_graph, ["gender"], "papers", measure="avg"
        )
        top = aggregate_edge_measure(
            weighted_graph, ["gender"], "papers", measure="max"
        )
        assert avg.edge(("f",), ("f",)) == 3.0
        assert top.edge(("f",), ("f",)) == 5

    def test_requires_edge_attributes(self, paper_graph):
        with pytest.raises(ValueError):
            aggregate_edge_measure(paper_graph, ["gender"], "papers")

    def test_unknown_edge_attribute(self, weighted_graph):
        with pytest.raises(KeyError):
            aggregate_edge_measure(weighted_graph, ["gender"], "venues")

    def test_unknown_measure(self, weighted_graph):
        with pytest.raises(ValueError):
            aggregate_edge_measure(
                weighted_graph, ["gender"], "papers", measure="median"
            )

    def test_node_values_empty(self, weighted_graph):
        result = aggregate_edge_measure(weighted_graph, ["gender"], "papers")
        assert result.node_values == {}


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path, weighted_graph):
        from repro.datasets import load_graph, save_graph

        save_graph(weighted_graph, tmp_path / "g")
        assert (tmp_path / "g" / "edge_static.csv").exists()
        loaded = load_graph(tmp_path / "g")
        # Values come back as strings; the frame structure matches.
        assert loaded.edge_attribute_value(("a", "b"), "papers") == "3"
        assert loaded.edge_attribute_names == ("papers",)

    def test_graph_without_edge_attrs_writes_no_file(self, tmp_path, paper_graph):
        from repro.datasets import load_graph, save_graph

        save_graph(paper_graph, tmp_path / "g")
        assert not (tmp_path / "g" / "edge_static.csv").exists()
        assert load_graph(tmp_path / "g").edge_attrs is None
