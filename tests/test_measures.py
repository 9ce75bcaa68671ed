"""Tests for aggregate measures beyond COUNT (SUM/AVG/MIN/MAX)."""

import pytest

from repro.core import MEASURES, aggregate_measure
from repro.testing.reference_measures import measure_diff, reference_measure


class TestNodeMeasures:
    def test_avg_at_t0(self, paper_graph):
        mg = aggregate_measure(
            paper_graph, ["gender"], "publications", measure="avg", times=["t0"]
        )
        assert mg.node(("m",)) == 3.0                      # u1
        assert mg.node(("f",)) == pytest.approx(4 / 3)     # u2, u3, u4

    def test_sum(self, paper_graph):
        mg = aggregate_measure(
            paper_graph, ["gender"], "publications", measure="sum", times=["t0"]
        )
        assert mg.node(("m",)) == 3
        assert mg.node(("f",)) == 4

    def test_min_max(self, paper_graph):
        lo = aggregate_measure(
            paper_graph, ["gender"], "publications", measure="min", times=["t0"]
        )
        hi = aggregate_measure(
            paper_graph, ["gender"], "publications", measure="max", times=["t0"]
        )
        assert lo.node(("f",)) == 1
        assert hi.node(("f",)) == 2

    def test_window_distinct_vs_all(self, paper_graph):
        # Over [t0, t1], u2 carries (f, 1) twice: DIST counts the value
        # once, ALL twice -> the sums differ.
        dist = aggregate_measure(
            paper_graph, ["gender"], "publications",
            measure="sum", distinct=True, times=["t0", "t1"],
        )
        non_dist = aggregate_measure(
            paper_graph, ["gender"], "publications",
            measure="sum", distinct=False, times=["t0", "t1"],
        )
        assert non_dist.node(("f",)) > dist.node(("f",))

    def test_missing_group_is_none(self, paper_graph):
        mg = aggregate_measure(
            paper_graph, ["gender"], "publications", times=["t0"]
        )
        assert mg.node(("x",)) is None


class TestEdgeMeasures:
    def test_edge_avg(self, paper_graph):
        mg = aggregate_measure(
            paper_graph, ["gender"], "publications", measure="avg", times=["t0"]
        )
        # m->f edges at t0: (u1,u2) values (3,1) and (u1,u4) values (3,2).
        assert mg.edge(("m",), ("f",)) == pytest.approx((3 + 1 + 3 + 2) / 4)

    def test_edge_max(self, paper_graph):
        mg = aggregate_measure(
            paper_graph, ["gender"], "publications", measure="max", times=["t0"]
        )
        assert mg.edge(("f",), ("f",)) == 1  # (u2,u3): both have 1

    def test_missing_edge_is_none(self, paper_graph):
        mg = aggregate_measure(
            paper_graph, ["gender"], "publications", times=["t0"]
        )
        assert mg.edge(("f",), ("m",)) is None


class TestValidation:
    def test_unknown_measure(self, paper_graph):
        with pytest.raises(ValueError):
            aggregate_measure(
                paper_graph, ["gender"], "publications", measure="median"
            )

    def test_measure_attribute_cannot_group(self, paper_graph):
        with pytest.raises(ValueError):
            aggregate_measure(
                paper_graph, ["publications"], "publications"
            )

    def test_unknown_time(self, paper_graph):
        with pytest.raises(KeyError):
            aggregate_measure(
                paper_graph, ["gender"], "publications", times=["t9"]
            )

    def test_repr(self, paper_graph):
        mg = aggregate_measure(
            paper_graph, ["gender"], "publications", times=["t0"]
        )
        assert "avg(publications)" in repr(mg)

    def test_default_window_is_whole_timeline(self, paper_graph):
        mg = aggregate_measure(
            paper_graph, ["gender"], "publications", measure="max"
        )
        assert mg.node(("m",)) == 3  # u1@t0 or u5@t2


class TestWindowNormalization:
    @pytest.mark.parametrize("distinct", [True, False])
    def test_repeated_time_point_counts_once(self, paper_graph, distinct):
        mg = aggregate_measure(
            paper_graph, ["gender"], "publications", measure="sum",
            distinct=distinct, times=["t0", "t0"],
        )
        assert mg.node_values == {("m",): 3, ("f",): 4}

    def test_unordered_window_equals_ordered(self, paper_graph):
        shuffled = aggregate_measure(
            paper_graph, ["gender"], "publications", measure="avg",
            distinct=False, times=["t2", "t0", "t1", "t0"],
        )
        ordered = aggregate_measure(
            paper_graph, ["gender"], "publications", measure="avg",
            distinct=False, times=["t0", "t1", "t2"],
        )
        assert measure_diff(shuffled, ordered) == ()


class TestMatchesReference:
    """The code-based engine equals the per-cell reference loops bit for
    bit, group order included."""

    @pytest.mark.parametrize("measure", sorted(MEASURES))
    @pytest.mark.parametrize("distinct", [True, False])
    @pytest.mark.parametrize("attributes", [["gender"], [], ["gender", "gender"]])
    def test_dblp(self, small_dblp, measure, distinct, attributes):
        args = (small_dblp, attributes, "publications", measure, distinct)
        assert measure_diff(aggregate_measure(*args), reference_measure(*args)) == ()
