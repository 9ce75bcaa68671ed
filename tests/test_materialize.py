"""Tests for partial materialization (Section 4.3): the cube's
``time_sum`` and ``rollup`` derivation routes, and the streaming
``AggregateTotalsView``."""

from types import SimpleNamespace

import pytest

from repro.core import aggregate, union
from repro.errors import MaterializationError, TemporalError, UnknownLabelError
from repro.olap import TemporalGraphCube
from repro.streaming import AggregateTotalsView, StreamingStore
from repro.testing import assert_same_aggregate


@pytest.fixture()
def cube(small_dblp):
    return TemporalGraphCube(small_dblp)


def warm_union(cube, attributes, times):
    """The ALL cuboid over ``times``, served from warm per-point cuboids."""
    cube.materialize(attributes, times=times, per_time_point=True)
    return cube.cuboid(attributes, times=times, distinct=False)


class TestCache:
    def test_miss_then_hit(self, cube, small_dblp):
        time = small_dblp.timeline.labels[0]
        cube.cuboid(["gender"], times=[time])
        assert cube.stats.base_computations == 1
        cube.cuboid(["gender"], times=[time])
        assert cube.stats.exact_hits == 1
        assert cube.cached_count == 1

    def test_distinct_flag_is_part_of_key(self, cube, small_dblp):
        time = small_dblp.timeline.labels[0]
        cube.cuboid(["gender"], times=[time], distinct=True)
        cube.cuboid(["gender"], times=[time], distinct=False)
        assert cube.stats.base_computations == 2

    def test_attribute_set_is_part_of_key(self, cube, small_dblp):
        time = small_dblp.timeline.labels[0]
        cube.cuboid(["gender"], times=[time])
        cube.cuboid(["publications"], times=[time])
        assert cube.stats.base_computations == 2

    def test_precompute_fills_cache(self, cube, small_dblp):
        cube.materialize(["gender"], per_time_point=True)
        assert cube.materialized_count == len(small_dblp.timeline)

    def test_precompute_subset_of_times(self, cube, small_dblp):
        times = small_dblp.timeline.labels[:3]
        cube.materialize(["gender"], times=times, per_time_point=True)
        assert cube.materialized_count == 3

    def test_cached_equals_direct(self, cube, small_dblp):
        time = small_dblp.timeline.labels[2]
        cube.materialize(["gender"], times=[time], distinct=True)
        cached = cube.cuboid(["gender"], times=[time], distinct=True)
        direct = aggregate(small_dblp, ["gender"], distinct=True, times=[time])
        assert cube.stats.exact_hits == 1
        assert_same_aggregate(cached, direct)


class TestTDistributivity:
    def test_union_all_matches_scratch_static(self, cube, small_dblp):
        times = small_dblp.timeline.labels[:5]
        derived = warm_union(cube, ["gender"], times)
        direct = aggregate(union(small_dblp, times), ["gender"], distinct=False)
        assert cube.stats.time_rollups == 1
        assert_same_aggregate(derived, direct)

    def test_union_all_matches_scratch_varying(self, cube, small_dblp):
        times = small_dblp.timeline.labels[:4]
        derived = warm_union(cube, ["publications"], times)
        direct = aggregate(
            union(small_dblp, times), ["publications"], distinct=False
        )
        assert cube.stats.time_rollups == 1
        assert_same_aggregate(derived, direct)

    def test_union_all_full_timeline(self, cube, small_dblp):
        times = small_dblp.timeline.labels
        derived = warm_union(cube, ["gender"], times)
        direct = aggregate(union(small_dblp, times), ["gender"], distinct=False)
        assert cube.stats.time_rollups == 1
        assert_same_aggregate(derived, direct)

    def test_single_point(self, cube, small_dblp):
        time = small_dblp.timeline.labels[0]
        derived = warm_union(cube, ["gender"], [time])
        direct = aggregate(small_dblp, ["gender"], distinct=False, times=[time])
        assert cube.stats.exact_hits == 1
        assert_same_aggregate(derived, direct)

    def test_empty_times_rejected(self, cube):
        with pytest.raises(TemporalError):
            cube.cuboid(["gender"], times=[])
        with pytest.raises(TemporalError):
            cube.materialize(["gender"], times=[], per_time_point=True)
        assert cube.cached_count == 0

    def test_duplicate_labels_not_summed_twice(self, cube, small_dblp):
        """A window has union semantics: a repeated label must not
        contribute its per-point cuboid twice."""
        times = small_dblp.timeline.labels[:3]
        cube.materialize(["gender"], times=times, per_time_point=True)
        derived = cube.cuboid(["gender"], times=list(times) + list(times))
        direct = aggregate(union(small_dblp, times), ["gender"], distinct=False)
        assert cube.stats.time_rollups == 1
        assert_same_aggregate(derived, direct)

    def test_out_of_order_labels_normalized(self, cube, small_dblp):
        times = list(small_dblp.timeline.labels[:4])
        cube.materialize(["gender"], times=times, per_time_point=True)
        derived = cube.cuboid(["gender"], times=times[::-1])
        direct = aggregate(union(small_dblp, times), ["gender"], distinct=False)
        assert cube.stats.time_rollups == 1
        assert_same_aggregate(derived, direct)

    def test_unknown_label_rejected(self, cube):
        with pytest.raises(UnknownLabelError):
            cube.cuboid(["gender"], times=["not-a-time-point"])

    def test_distinct_is_not_t_distributive(self, small_dblp):
        """Summing per-point DIST aggregates overcounts vs. the true
        union DIST aggregate — the reason Section 4.3 excludes it."""
        times = small_dblp.timeline.labels[:5]
        summed = None
        for time in times:
            point = aggregate(small_dblp, ["gender"], distinct=True, times=[time])
            forged = type(point)(
                point.attributes, point.node_weights, point.edge_weights,
                distinct=False,
            )
            summed = forged if summed is None else summed + forged
        true = aggregate(union(small_dblp, times), ["gender"], distinct=True)
        assert summed.total_node_weight() > true.total_node_weight()

    def test_distinct_never_served_by_time_sum(self, cube, small_dblp):
        times = small_dblp.timeline.labels[:5]
        cube.materialize(["gender"], times=times, distinct=True, per_time_point=True)
        routes = cube.plan_routes(["gender"], times=times, distinct=True)
        assert [route.kind for route in routes] == ["base"]
        derived = cube.cuboid(["gender"], times=times, distinct=True)
        direct = aggregate(union(small_dblp, times), ["gender"], distinct=True)
        assert cube.stats.time_rollups == 0
        assert_same_aggregate(derived, direct)


class TestDDistributivity:
    def test_rollup_matches_scratch_dist(self, cube, small_dblp):
        time = small_dblp.timeline.labels[1]
        cube.materialize(["gender", "publications"], times=[time], distinct=True)
        derived = cube.cuboid(["gender"], times=[time], distinct=True)
        direct = aggregate(small_dblp, ["gender"], distinct=True, times=[time])
        assert cube.stats.attribute_rollups == 1
        assert_same_aggregate(derived, direct)

    def test_rollup_matches_scratch_all(self, cube, small_dblp):
        time = small_dblp.timeline.labels[1]
        cube.materialize(["gender", "publications"], times=[time], distinct=False)
        derived = cube.cuboid(["publications"], times=[time], distinct=False)
        direct = aggregate(
            small_dblp, ["publications"], distinct=False, times=[time]
        )
        assert cube.stats.attribute_rollups == 1
        assert_same_aggregate(derived, direct)

    def test_rollup_movielens_pairs(self, small_movielens):
        cube = TemporalGraphCube(small_movielens)
        time = small_movielens.timeline.labels[0]
        cube.materialize(["gender", "age", "occupation", "rating"], times=[time],
                         distinct=True)
        for subset in (["gender"], ["gender", "age"], ["occupation", "rating"]):
            derived = cube.cuboid(subset, times=[time], distinct=True)
            direct = aggregate(small_movielens, subset, times=[time])
            assert_same_aggregate(derived, direct)
        assert cube.stats.attribute_rollups == 3

    def test_rollup_counts_derivations(self, cube, small_dblp):
        time = small_dblp.timeline.labels[0]
        cube.materialize(["gender", "publications"], times=[time])
        route = cube.plan_routes(["gender"], times=[time])[0]
        assert (route.kind, route.source) == ("rollup", ("gender", "publications"))
        cube.execute_route(route)
        assert cube.stats.attribute_rollups == 1

    def test_rollup_reuses_superset_cache(self, cube, small_dblp):
        time = small_dblp.timeline.labels[0]
        cube.materialize(["gender", "publications"], times=[time])
        cube.cuboid(["gender"], times=[time])
        cube.cuboid(["publications"], times=[time])
        assert cube.stats.attribute_rollups == 2
        assert cube.stats.base_computations == 0


class TestTotalsViewEmptyTimeline:
    def test_empty_timeline_raises_from_taxonomy(self):
        """A graph-like object with an empty timeline fails with a
        MaterializationError before the view reads ``points[0]``.  A real
        TemporalGraph cannot have an empty timeline (Timeline rejects
        it), so a duck-typed stub stands in for graph substrates that
        may not enforce that."""
        stub = SimpleNamespace(timeline=SimpleNamespace(labels=()))
        with pytest.raises(MaterializationError, match="empty timeline"):
            StreamingStore(stub, views=[AggregateTotalsView([["gender"]])])

    def test_error_is_a_value_error(self):
        stub = SimpleNamespace(timeline=SimpleNamespace(labels=()))
        with pytest.raises(ValueError):
            StreamingStore(stub, views=[AggregateTotalsView([])])


class TestIncrementalTimepointAccess:
    @pytest.fixture()
    def totals(self, paper_graph):
        view = AggregateTotalsView([("gender",)])
        StreamingStore(paper_graph, views=[view])
        return view

    def test_negative_index_counts_from_end(self, totals, paper_graph):
        """The index is a Python sequence index into the timeline, so
        ``-1`` is the latest point."""
        last = totals.timepoint_aggregate(["gender"], -1)
        direct = aggregate(
            paper_graph, ["gender"], distinct=False, times=["t2"]
        )
        assert_same_aggregate(last, direct)
        assert_same_aggregate(
            totals.timepoint_aggregate(["gender"], -3),
            totals.timepoint_aggregate(["gender"], 0),
        )

    @pytest.mark.parametrize("index", [3, -4, 99])
    def test_out_of_range_raises_from_taxonomy(self, totals, index):
        with pytest.raises(MaterializationError, match="out of range"):
            totals.timepoint_aggregate(["gender"], index)

    def test_error_names_the_valid_range(self, totals):
        with pytest.raises(MaterializationError, match=r"-3\.\.2"):
            totals.timepoint_aggregate(["gender"], 3)

    def test_versioned_store_exposed(self, paper_graph):
        """The view rides a versioned store: readers pin versions of the
        same store that keeps the totals current."""
        view = AggregateTotalsView([("gender",)])
        store = StreamingStore(paper_graph, views=[view])
        assert store.version == 0
        assert store.graph is paper_graph
        assert store.pin().graph is paper_graph
