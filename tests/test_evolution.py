"""Tests for the evolution graph (Definition 2.7) and its aggregation."""

import pytest

from repro.core import (
    EvolutionWeights,
    aggregate_evolution,
    difference,
    evolution,
    intersection,
)
from repro.errors import AggregationError
from repro.testing import (
    GraphSpec,
    aggregate_evolution_reference,
    random_temporal_graph,
)


class TestEvolutionGraph:
    @pytest.fixture()
    def evo(self, paper_graph):
        return evolution(paper_graph, ["t0"], ["t1"])

    def test_components_match_operators(self, paper_graph, evo):
        assert set(evo.stable.edges) == set(
            intersection(paper_graph, ["t0"], ["t1"]).edges
        )
        assert set(evo.shrunk.edges) == set(
            difference(paper_graph, ["t0"], ["t1"]).edges
        )
        assert set(evo.grown.edges) == set(
            difference(paper_graph, ["t1"], ["t0"]).edges
        )

    def test_node_kinds(self, evo):
        kinds = evo.node_kinds()
        assert "stability" in kinds["u2"]
        assert kinds["u3"] == {"shrinkage"}
        # u1 remains but loses edge (u1,u4): both stable and in the
        # shrinkage component (Definition 2.5's edge clause).
        assert kinds["u1"] == {"stability", "shrinkage"}

    def test_edge_kinds_are_disjoint(self, evo):
        for kinds in evo.edge_kinds().values():
            assert len(kinds) == 1

    def test_counts(self, evo):
        assert evo.n_nodes == 4  # u1, u2, u3, u4
        assert evo.n_edges == 4

    def test_empty_side_rejected(self, paper_graph):
        with pytest.raises(ValueError):
            evolution(paper_graph, [], ["t1"])

    def test_interval_windows(self, paper_graph):
        evo = evolution(paper_graph, ["t0", "t1"], ["t2"])
        assert evo.old_times == ("t0", "t1")
        assert set(evo.grown.nodes) >= {"u5"}


class TestEvolutionWeights:
    def test_total(self):
        weights = EvolutionWeights(stability=2, growth=1, shrinkage=3)
        assert weights.total == 6

    def test_ratio(self):
        weights = EvolutionWeights(stability=2, growth=1, shrinkage=1)
        assert weights.ratio("stability") == 0.5

    def test_ratio_empty(self):
        assert EvolutionWeights().ratio("growth") == 0.0

    def test_ratio_unknown_kind(self):
        with pytest.raises(ValueError):
            EvolutionWeights().ratio("churn")


class TestAggregateEvolution:
    @pytest.fixture()
    def evo_agg(self, paper_graph):
        return aggregate_evolution(
            paper_graph, ["t0"], ["t1"], ["gender", "publications"]
        )

    def test_bare_string_attributes_rejected(self, paper_graph):
        with pytest.raises(AggregationError, match="attributes .* bare string"):
            aggregate_evolution(paper_graph, ["t0"], ["t1"], "gender")

    def test_figure4b_f1(self, evo_agg):
        """The paper's worked example: node (f, 1) has St=Gr=Shr=1."""
        weights = evo_agg.node(("f", 1))
        assert (weights.stability, weights.growth, weights.shrinkage) == (1, 1, 1)

    def test_attribute_change_scores_growth_and_shrinkage(self, evo_agg):
        # u1 goes (m,3) -> (m,1): old tuple shrinks, new tuple grows.
        assert evo_agg.node(("m", 3)).shrinkage == 1
        assert evo_agg.node(("m", 1)).growth == 1

    def test_f2_shrinks(self, evo_agg):
        # u4 goes (f,2) -> (f,1).
        weights = evo_agg.node(("f", 2))
        assert (weights.stability, weights.growth, weights.shrinkage) == (0, 0, 1)

    def test_missing_key_is_zero(self, evo_agg):
        assert evo_agg.node(("x", 0)).total == 0
        assert evo_agg.edge(("x",), ("y",)).total == 0

    def test_edge_weights(self, paper_graph):
        evo_agg = aggregate_evolution(paper_graph, ["t0"], ["t1"], ["gender"])
        # (u1,u2) m->f stable; (u2,u3) f->f and (u1,u4) m->f shrink;
        # (u4,u2) f->f grows.
        assert evo_agg.edge(("m",), ("f",)).stability == 1
        assert evo_agg.edge(("m",), ("f",)).shrinkage == 1
        assert evo_agg.edge(("f",), ("f",)).shrinkage == 1
        assert evo_agg.edge(("f",), ("f",)).growth == 1

    def test_totals(self, paper_graph):
        evo_agg = aggregate_evolution(paper_graph, ["t0"], ["t1"], ["gender"])
        totals = evo_agg.totals()
        # Gender appearances: t0 {u1:m,u2:f,u3:f,u4:f}, t1 {u1:m,u2:f,u4:f}.
        # Stable: u1, u2, u4 -> 3; shrink: u3 -> 1; growth: 0.
        assert (totals.stability, totals.growth, totals.shrinkage) == (3, 0, 1)

    def test_edge_totals(self, paper_graph):
        evo_agg = aggregate_evolution(paper_graph, ["t0"], ["t1"], ["gender"])
        totals = evo_agg.edge_totals()
        assert (totals.stability, totals.growth, totals.shrinkage) == (1, 1, 2)

    def test_interval_old_window(self, paper_graph):
        evo_agg = aggregate_evolution(
            paper_graph, ["t0", "t1"], ["t2"], ["gender"]
        )
        # u5 (m) appears only at t2 -> growth for (m,).
        assert evo_agg.node(("m",)).growth == 1
        # u1 (m) exists in the old window but not at t2 -> shrinkage.
        assert evo_agg.node(("m",)).shrinkage == 1

    def test_empty_attributes_rejected(self, paper_graph):
        with pytest.raises(ValueError):
            aggregate_evolution(paper_graph, ["t0"], ["t1"], [])

    def test_empty_window_rejected(self, paper_graph):
        with pytest.raises(ValueError):
            aggregate_evolution(paper_graph, ["t0"], [], ["gender"])

    def test_consistency_with_event_counts(self, small_dblp):
        """For a static attribute, evolution aggregation matches the
        exploration event counter on every (event, tuple) pair."""
        from repro.exploration import EntityKind, EventCounter, EventType, Side

        evo_agg = aggregate_evolution(
            small_dblp,
            [small_dblp.timeline.labels[0]],
            [small_dblp.timeline.labels[1]],
            ["gender"],
        )
        for key in (("m",), ("f",)):
            counter = EventCounter(
                small_dblp, entity=EntityKind.NODES,
                attributes=["gender"], key=key,
            )
            old, new = Side.point(0), Side.point(1)
            assert counter.count(EventType.STABILITY, old, new) == evo_agg.node(key).stability
            assert counter.count(EventType.GROWTH, old, new) == evo_agg.node(key).growth
            assert counter.count(EventType.SHRINKAGE, old, new) == evo_agg.node(key).shrinkage


class TestVectorizedEvolution:
    """The vectorized kernel against the set-based reference."""

    @pytest.mark.parametrize(
        "attrs", [["gender"], ["publications"], ["publications", "gender"]]
    )
    def test_matches_reference_on_dblp(self, small_dblp, attrs):
        labels = small_dblp.timeline.labels
        for old, new in ((labels[:5], labels[5:]), (labels[2:9], labels[4:12])):
            vectorized = aggregate_evolution(small_dblp, old, new, attrs)
            reference = aggregate_evolution_reference(small_dblp, old, new, attrs)
            assert vectorized.diff(reference) == ()

    def test_dangling_edges_are_skipped(self, test_seed):
        graph = random_temporal_graph(
            GraphSpec(n_times=4, dangling_edges=3), seed=test_seed
        )
        labels = graph.timeline.labels
        vectorized = aggregate_evolution(graph, labels[:2], labels[2:], ["gender"])
        reference = aggregate_evolution_reference(
            graph, labels[:2], labels[2:], ["gender"]
        )
        assert vectorized.diff(reference) == ()

    def test_missing_values_group_under_none(self, test_seed):
        graph = random_temporal_graph(
            GraphSpec(n_times=4, n_nodes=12, missing_values=0.5), seed=test_seed
        )
        labels = graph.timeline.labels
        vectorized = aggregate_evolution(
            graph, labels[:2], labels[2:], ["gender", "level"]
        )
        reference = aggregate_evolution_reference(
            graph, labels[:2], labels[2:], ["gender", "level"]
        )
        assert vectorized.diff(reference) == ()
        assert any(key[1] is None for key in vectorized.node_weights)
