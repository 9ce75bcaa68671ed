"""Tests for the OLAP layer: lattice, slice/dice, cube, view selection."""

import pytest

from repro.core import TimeHierarchy, aggregate, union
from repro.errors import TemporalError
from repro.olap import (
    TemporalGraphCube,
    all_cuboids,
    canonical,
    children,
    dice_aggregate,
    drill_across,
    estimate_cuboid_sizes,
    greedy_view_selection,
    parents,
    slice_aggregate,
    smallest_superset,
)

DIMS = ("gender", "age", "occupation", "rating")


class TestLattice:
    def test_canonical_orders_by_dimensions(self):
        assert canonical(["rating", "gender"], DIMS) == ("gender", "rating")

    def test_canonical_rejects_unknown(self):
        with pytest.raises(KeyError):
            canonical(["height"], DIMS)

    def test_all_cuboids_count(self):
        assert len(all_cuboids(DIMS)) == 2 ** 4 - 1

    def test_all_cuboids_ordering(self):
        cuboids = all_cuboids(DIMS)
        assert cuboids[0] == ("gender",)
        assert cuboids[-1] == DIMS

    def test_parents(self):
        assert parents(("gender",), ("gender", "age")) == [("gender", "age")]

    def test_children(self):
        assert set(children(("gender", "age"))) == {("gender",), ("age",)}

    def test_children_of_single(self):
        assert children(("gender",)) == []

    def test_smallest_superset_by_length(self):
        result = smallest_superset(
            ("gender",), [("gender", "age"), DIMS]
        )
        assert result == ("gender", "age")

    def test_smallest_superset_by_size(self):
        sizes = {("gender", "age"): 100.0, DIMS: 10.0}
        result = smallest_superset(("gender",), list(sizes), size_of=sizes)
        assert result == DIMS

    def test_smallest_superset_none(self):
        assert smallest_superset(("gender",), [("age",)]) is None


class TestSliceDice:
    @pytest.fixture()
    def agg(self, paper_graph):
        return aggregate(
            union(paper_graph, ["t0", "t1"]),
            ["gender", "publications"],
            distinct=True,
        )

    def test_slice_drops_attribute(self, agg):
        sliced = slice_aggregate(agg, "gender", "f")
        assert sliced.attributes == ("publications",)
        # f nodes on the union: (f,1) weight 3, (f,2) weight 1.
        assert sliced.node_weight((1,)) == 3
        assert sliced.node_weight((2,)) == 1

    def test_slice_edges_require_both_endpoints(self, agg):
        sliced = slice_aggregate(agg, "gender", "f")
        # Only f->f edges survive: (u2,u3) and (u4,u2).
        assert sliced.total_edge_weight() == 2

    def test_slice_unknown_attribute(self, agg):
        with pytest.raises(KeyError):
            slice_aggregate(agg, "height", 1)

    def test_dice_keeps_layout(self, agg):
        diced = dice_aggregate(agg, {"publications": [1]})
        assert diced.attributes == agg.attributes
        assert set(k[1] for k in diced.node_weights) == {1}

    def test_dice_multiple_attributes(self, agg):
        diced = dice_aggregate(agg, {"gender": ["f"], "publications": [1, 2]})
        assert all(k[0] == "f" for k in diced.node_weights)

    def test_dice_empty_selection_empties(self, agg):
        diced = dice_aggregate(agg, {"gender": []})
        assert not diced.node_weights
        assert not diced.edge_weights

    def test_drill_across(self, paper_graph):
        before = aggregate(paper_graph, ["gender"], times=["t0"])
        after = aggregate(paper_graph, ["gender"], times=["t1"])
        comparison = drill_across(before, after)
        assert comparison[("f",)] == (3, 2)
        assert comparison[("m",)] == (1, 1)

    def test_drill_across_mismatched(self, paper_graph):
        a = aggregate(paper_graph, ["gender"], times=["t0"])
        b = aggregate(paper_graph, ["publications"], times=["t0"])
        with pytest.raises(ValueError):
            drill_across(a, b)


class TestCube:
    @pytest.fixture()
    def cube(self, small_movielens):
        return TemporalGraphCube(small_movielens)

    def test_base_computation_cached(self, cube):
        cube.cuboid(["gender"], times=["May"], distinct=True)
        cube.cuboid(["gender"], times=["May"], distinct=True)
        assert cube.stats.base_computations == 1
        assert cube.stats.exact_hits == 1

    def test_attribute_rollup_route(self, cube, small_movielens):
        cube.materialize(["gender", "age"], times=["May"], distinct=True)
        result = cube.cuboid(["gender"], times=["May"], distinct=True)
        assert cube.stats.attribute_rollups == 1
        direct = aggregate(
            small_movielens, ["gender"], distinct=True, times=["May"]
        )
        assert dict(result.node_weights) == dict(direct.node_weights)

    def test_time_rollup_route(self, cube, small_movielens):
        cube.materialize(["gender"], per_time_point=True, distinct=False)
        window = small_movielens.timeline.labels[:3]
        result = cube.cuboid(["gender"], times=window, distinct=False)
        assert cube.stats.time_rollups == 1
        direct = aggregate(
            union(small_movielens, window), ["gender"], distinct=False
        )
        assert dict(result.node_weights) == dict(direct.node_weights)

    def test_dist_rollup_not_used_across_time(self, cube):
        """DIST aggregates over multi-point windows must not be served
        by attribute roll-up (it overcounts)."""
        cube.materialize(
            ["gender", "age"], times=["May", "Jun"], distinct=True
        )
        cube.cuboid(["gender"], times=["May", "Jun"], distinct=True)
        assert cube.stats.attribute_rollups == 0
        assert cube.stats.base_computations == 1

    def test_rollup_verb(self, cube, small_movielens):
        result = cube.rollup(["gender", "age"], remove="age", times=["May"])
        direct = aggregate(
            small_movielens, ["gender"], distinct=False, times=["May"]
        )
        assert dict(result.node_weights) == dict(direct.node_weights)

    def test_rollup_verb_validations(self, cube):
        with pytest.raises(KeyError):
            cube.rollup(["gender"], remove="age")
        with pytest.raises(ValueError):
            cube.rollup(["gender"], remove="gender")

    def test_drill_down_verb(self, cube):
        result = cube.drill_down(["gender"], add="age", times=["May"])
        assert result.attributes == ("gender", "age")
        with pytest.raises(KeyError):
            cube.drill_down(["gender"], add="gender")

    def test_slice_verb(self, cube):
        sliced = cube.slice(["gender", "age"], "gender", "f", times=["May"])
        assert sliced.attributes == ("age",)

    def test_dice_verb(self, cube):
        diced = cube.dice(
            ["gender", "age"], {"gender": ["f"]}, times=["May"]
        )
        assert all(key[0] == "f" for key in diced.node_weights)

    def test_unknown_dimension_rejected(self, small_movielens):
        with pytest.raises(KeyError):
            TemporalGraphCube(small_movielens, dimensions=["height"])

    def test_hierarchy_times(self, small_movielens):
        hierarchy = TimeHierarchy(
            {"summer": ["May", "Jun", "Jul", "Aug"], "fall": ["Sep", "Oct"]}
        )
        cube = TemporalGraphCube(small_movielens, hierarchy=hierarchy)
        result = cube.cuboid(["gender"], times=["fall"], distinct=False)
        direct = aggregate(
            union(small_movielens, ["Sep", "Oct"]), ["gender"], distinct=False
        )
        assert dict(result.node_weights) == dict(direct.node_weights)

    def test_unknown_time_rejected(self, cube):
        with pytest.raises(KeyError):
            cube.cuboid(["gender"], times=["November"])

    def test_unit_without_members_is_an_empty_window(self, small_movielens):
        """A hierarchy unit with no member in the timeline resolves to an
        empty window: TemporalError, as ``union(g, [])`` raises, instead
        of a cached 0-node cuboid."""
        hierarchy = TimeHierarchy({"summer": ["May"], "winter": ["Dec"]})
        cube = TemporalGraphCube(small_movielens, hierarchy=hierarchy)
        with pytest.raises(TemporalError):
            cube.cuboid(["gender"], times=["winter"], distinct=False)
        with pytest.raises(TemporalError):
            cube.plan_routes(["gender"], times=["winter"])
        with pytest.raises(TemporalError):
            cube.materialize(["gender"], times=["winter"], per_time_point=True)
        assert cube.cached_count == 0


class TestCubeCacheRegressions:
    """Regression tests for the two cache-key bugs: caller window order
    splitting the cache, and materialized_count conflating deliberate
    views with incidentally cached query results."""

    @pytest.fixture()
    def cube(self, small_movielens):
        return TemporalGraphCube(small_movielens)

    def test_window_order_shares_one_cache_entry(self, cube):
        first = cube.cuboid(["gender"], times=["Jun", "May"], distinct=False)
        second = cube.cuboid(["gender"], times=["May", "Jun"], distinct=False)
        assert cube.stats.base_computations == 1
        assert cube.stats.exact_hits == 1
        assert first is second  # one entry, not two
        assert cube.cached_count == 1

    def test_window_order_results_identical(self, cube, small_movielens):
        result = cube.cuboid(["gender"], times=["Jun", "May"], distinct=False)
        direct = aggregate(
            union(small_movielens, ["May", "Jun"]), ["gender"], distinct=False
        )
        assert dict(result.node_weights) == dict(direct.node_weights)

    def test_materialized_count_excludes_query_results(self, cube):
        cube.materialize(["gender"], times=["May"])
        assert cube.materialized_count == 1
        cube.cuboid(["age"], times=["May"], distinct=False)
        # The query result is cached but was not materialized.
        assert cube.materialized_count == 1
        assert cube.cached_count == 2

    def test_per_time_point_materialization_counts_each_point(self, cube):
        cube.materialize(["gender"], per_time_point=True)
        assert cube.materialized_count == len(cube.graph.timeline.labels)

    def test_invalidate_drops_cache_and_materialized(self, cube):
        cube.materialize(["gender"], times=["May"])
        cube.cuboid(["age"], times=["May"], distinct=False)
        cube.invalidate()
        assert cube.materialized_count == 0
        assert cube.cached_count == 0

    def test_plan_routes_cheapest_first_with_base_fallback(self, cube):
        routes = cube.plan_routes(["gender"], times=["May"], distinct=False)
        assert routes[-1].kind == "base"
        assert routes == sorted(routes, key=lambda r: r.rank)
        cube.cuboid(["gender"], times=["May"], distinct=False)
        routes = cube.plan_routes(["gender"], times=["May"], distinct=False)
        assert routes[0].kind == "exact"
        assert routes[0].cost == 0.0

    def test_bind_store_invalidates_on_append(self, paper_graph):
        from repro.core.updates import SnapshotUpdate
        from repro.streaming import StreamingStore

        cube = TemporalGraphCube(paper_graph)
        store = StreamingStore(paper_graph)
        cube.bind_store(store)
        cube.materialize(["gender"])
        assert cube.cached_count == 1
        store.append_snapshot(
            SnapshotUpdate(
                time="t3",
                nodes={"u1": {"publications": 9}},
                edges=[],
            )
        )
        # Appends drop the cache and rebind the cube to the new graph.
        assert cube.cached_count == 0
        assert cube.graph is store.graph
        result = cube.cuboid(["gender"], distinct=False)
        direct = aggregate(store.graph, ["gender"], distinct=False)
        assert dict(result.node_weights) == dict(direct.node_weights)

    def test_unbind_stops_invalidation(self, paper_graph):
        from repro.core.updates import SnapshotUpdate
        from repro.streaming import StreamingStore

        cube = TemporalGraphCube(paper_graph)
        store = StreamingStore(paper_graph)
        unbind = cube.bind_store(store)
        unbind()
        cube.materialize(["gender"])
        store.append_snapshot(
            SnapshotUpdate(
                time="t3", nodes={"u1": {"publications": 9}}, edges=[]
            )
        )
        assert cube.cached_count == 1  # no longer following the store


class TestViewSelection:
    def test_size_estimates(self, small_movielens):
        sizes = estimate_cuboid_sizes(small_movielens, DIMS)
        assert sizes[("gender",)] == 2
        assert sizes[("gender", "age")] == 12
        # Capped by node count.
        assert sizes[DIMS] <= small_movielens.n_nodes

    def test_greedy_includes_apex_first(self, small_movielens):
        selection = greedy_view_selection(small_movielens, DIMS, budget=3)
        assert selection.selected[0] == DIMS

    def test_greedy_respects_budget(self, small_movielens):
        selection = greedy_view_selection(small_movielens, DIMS, budget=2)
        assert len(selection.selected) <= 2

    def test_every_cuboid_served_after_apex(self, small_movielens):
        selection = greedy_view_selection(small_movielens, DIMS, budget=1)
        for cuboid in all_cuboids(DIMS):
            assert selection.serves(cuboid) is not None

    def test_benefit_positive(self, small_movielens):
        selection = greedy_view_selection(small_movielens, DIMS, budget=4)
        assert selection.total_benefit > 0

    def test_costs_decrease_with_budget(self, small_movielens):
        small = greedy_view_selection(small_movielens, DIMS, budget=1)
        large = greedy_view_selection(small_movielens, DIMS, budget=6)
        total_small = sum(small.query_costs.values())
        total_large = sum(large.query_costs.values())
        assert total_large <= total_small

    def test_bad_budget(self, small_movielens):
        with pytest.raises(ValueError):
            greedy_view_selection(small_movielens, DIMS, budget=0)
