"""Tests for the vectorized aggregation engine (equivalence with the
faithful Algorithm 2 transcription, kept in ``repro.testing``)."""

import pytest
from hypothesis import given, settings

from repro.core import TemporalGraphBuilder, aggregate, union
from repro.testing import aggregate_algorithm2
from tests.test_properties import graph_and_windows


def assert_same(a, b):
    assert dict(a.node_weights) == dict(b.node_weights)
    assert dict(a.edge_weights) == dict(b.edge_weights)
    assert a.attributes == b.attributes
    assert a.distinct == b.distinct


class TestEquivalence:
    @pytest.mark.parametrize("distinct", [True, False])
    @pytest.mark.parametrize(
        "attrs",
        [["gender"], ["publications"], ["gender", "publications"]],
        ids=lambda a: "+".join(a),
    )
    def test_paper_example_full_timeline(self, paper_graph, attrs, distinct):
        assert_same(
            aggregate(paper_graph, attrs, distinct=distinct),
            aggregate_algorithm2(paper_graph, attrs, distinct=distinct),
        )

    @pytest.mark.parametrize("time", ["t0", "t1", "t2"])
    def test_paper_example_per_point(self, paper_graph, time):
        assert_same(
            aggregate(paper_graph, ["gender", "publications"], times=[time]),
            aggregate_algorithm2(
                paper_graph, ["gender", "publications"], times=[time]
            ),
        )

    @pytest.mark.parametrize("distinct", [True, False])
    def test_dblp_window(self, small_dblp, distinct):
        window = small_dblp.timeline.labels[:8]
        sub = union(small_dblp, window)
        for attrs in (["gender"], ["publications"], ["gender", "publications"]):
            assert_same(
                aggregate(sub, attrs, distinct=distinct),
                aggregate_algorithm2(sub, attrs, distinct=distinct),
            )

    def test_movielens_all_attributes(self, small_movielens):
        attrs = ["gender", "age", "occupation", "rating"]
        assert_same(
            aggregate(small_movielens, attrs, distinct=True),
            aggregate_algorithm2(small_movielens, attrs, distinct=True),
        )

    def test_empty_window_of_entities(self, paper_graph):
        sub = paper_graph.restricted([], [], ["t0"])
        fast = aggregate(sub, ["gender"])
        assert fast.node_weights == {}
        assert fast.edge_weights == {}


class TestValidation:
    def test_empty_attributes(self, paper_graph):
        with pytest.raises(ValueError):
            aggregate(paper_graph, [])

    def test_duplicate_attributes(self, paper_graph):
        with pytest.raises(ValueError):
            aggregate(paper_graph, ["gender", "gender"])

    def test_unknown_attribute(self, paper_graph):
        with pytest.raises(KeyError):
            aggregate(paper_graph, ["height"])

    def test_unknown_time(self, paper_graph):
        with pytest.raises(KeyError):
            aggregate(paper_graph, ["gender"], times=["t9"])


@settings(max_examples=60, deadline=None)
@given(graph_and_windows())
def test_fast_engine_property_equivalence(data):
    graph, t1, t2 = data
    sub = union(graph, t1, t2)
    for attrs in (["gender"], ["level"], ["gender", "level"]):
        for distinct in (True, False):
            assert_same(
                aggregate(sub, attrs, distinct=distinct),
                aggregate_algorithm2(sub, attrs, distinct=distinct),
            )


class TestRegressions:
    """Inputs the previous vectorized engine got wrong."""

    @pytest.fixture()
    def sparse_graph(self):
        """``u1`` is present at ``t1`` without a ``pubs`` value there."""
        builder = TemporalGraphBuilder(
            ["t0", "t1"], static=["gender"], varying=["pubs"]
        )
        for node, gender in (("u1", "m"), ("u2", "f"), ("u3", "f")):
            builder.add_node(node, {"gender": gender})
        builder.set_node_presence("u1", "t0", pubs=2)
        builder.set_node_presence("u1", "t1")
        builder.set_node_presence("u2", "t0", pubs=2)
        builder.set_node_presence("u2", "t1", pubs=1)
        builder.set_node_presence("u3", "t1", pubs=1)
        builder.add_edge("u1", "u2", ["t0", "t1"])
        builder.add_edge("u3", "u1", ["t1"])
        return builder.build()

    @pytest.mark.parametrize("distinct", [True, False])
    @pytest.mark.parametrize(
        "attrs", [["pubs"], ["gender", "pubs"]], ids=lambda a: "+".join(a)
    )
    def test_missing_varying_value_is_a_none_group(
        self, sparse_graph, attrs, distinct
    ):
        result = aggregate(sparse_graph, attrs, distinct=distinct)
        assert result.diff(
            aggregate_algorithm2(sparse_graph, attrs, distinct=distinct)
        ) == ()
        none_key = (None,) if attrs == ["pubs"] else ("m", None)
        assert result.node_weight(none_key) == 1
        # Five present appearances, each a distinct (node, tuple) pair.
        assert result.total_node_weight() == 5

    @pytest.mark.parametrize("distinct", [True, False])
    def test_wide_static_domains_do_not_overflow(self, distinct):
        """2100 nodes with three per-node-distinct static attributes: the
        mixed-radix tuple and pair codes exceed int64 unless densified."""
        n = 2100
        builder = TemporalGraphBuilder(["t0", "t1"], static=["a", "b", "c"])
        for i in range(n):
            builder.add_node(i, {"a": i, "b": -i, "c": f"c{i}"})
            builder.set_node_presence(i, "t0")
            builder.set_node_presence(i, "t1")
        for i in range(n - 1):
            builder.add_edge(i, i + 1, ["t0", "t1"] if i % 2 else ["t1"])
        graph = builder.build()
        result = aggregate(graph, ["a", "b", "c"], distinct=distinct)
        assert result.diff(
            aggregate_algorithm2(graph, ["a", "b", "c"], distinct=distinct)
        ) == ()
        assert result.n_aggregate_nodes == n
        assert result.n_aggregate_edges == n - 1
