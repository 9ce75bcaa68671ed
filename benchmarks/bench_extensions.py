"""Benchmarks for the extension subsystems built beyond the paper's core:
cube query routes, the multi-group explorer, timeline coarsening and
incremental maintenance."""

import pytest

from repro.core import (
    SnapshotUpdate,
    TimeHierarchy,
    aggregate,
    coarsen,
    union,
)
from repro.exploration import (
    EventType,
    ExtendSide,
    Goal,
    explore,
    explore_groups,
)
from repro.olap import TemporalGraphCube
from repro.streaming import AggregateTotalsView, StreamingStore


class TestCubeRoutes:
    """The three serving routes of the OLAP cube, on the same query."""

    def test_route_base(self, benchmark, movielens):
        def run():
            cube = TemporalGraphCube(movielens)
            return cube.cuboid(["gender"], times=["Aug"], distinct=True)

        benchmark(run)

    def test_route_attribute_rollup(self, benchmark, movielens):
        cube = TemporalGraphCube(movielens)
        cube.materialize(
            ["gender", "age", "occupation", "rating"], times=["Aug"],
            distinct=True,
        )

        def run():
            cube._cache.pop((("gender",), ("Aug",), True), None)
            return cube.cuboid(["gender"], times=["Aug"], distinct=True)

        benchmark(run)

    def test_route_time_rollup(self, benchmark, movielens):
        cube = TemporalGraphCube(movielens)
        cube.materialize(["gender"], per_time_point=True, distinct=False)
        window = movielens.timeline.labels

        def run():
            cube._cache.pop((("gender",), window, False), None)
            return cube.cuboid(["gender"], times=window, distinct=False)

        benchmark(run)


class TestGroupSweep:
    """One multi-group walk vs. one explore() per group."""

    def test_group_sweep(self, benchmark, dblp):
        result = benchmark(
            explore_groups, dblp, EventType.GROWTH, Goal.MINIMAL,
            ExtendSide.NEW, 5, ["gender"],
        )
        assert result.pairs_by_group

    def test_repeated_single_group(self, benchmark, dblp):
        keys = [
            (("m",), ("m",)), (("m",), ("f",)),
            (("f",), ("m",)), (("f",), ("f",)),
        ]

        def run():
            return [
                explore(
                    dblp, EventType.GROWTH, Goal.MINIMAL, ExtendSide.NEW, 5,
                    attributes=["gender"], key=key,
                )
                for key in keys
            ]

        results = benchmark(run)
        assert len(results) == 4


class TestCoarsening:
    @pytest.mark.parametrize("semantics", ["union", "intersection"])
    def test_coarsen_dblp_to_decades(self, benchmark, dblp, semantics):
        hierarchy = TimeHierarchy.regular(dblp.timeline.labels, width=10)
        coarse = benchmark(coarsen, dblp, hierarchy, semantics)
        assert len(coarse.timeline) == 3

    def test_aggregate_after_coarsen(self, benchmark, dblp):
        hierarchy = TimeHierarchy.regular(dblp.timeline.labels, width=10)
        coarse = coarsen(dblp, hierarchy, "union")

        def run():
            return aggregate(coarse, ["gender"], distinct=False)

        benchmark(run)


class TestIncrementalMaintenance:
    def test_incremental_append(self, benchmark, dblp):
        """One streamed year: append + per-point aggregate + total sum."""
        years = dblp.timeline.labels
        base = union(dblp, years[:-1])
        last = years[-1]
        nodes = {
            node: {
                "publications": dblp.attribute_value(node, "publications", last)
            }
            for node in dblp.nodes_at(last)
        }
        static = {
            node: {"gender": dblp.attribute_value(node, "gender")}
            for node in nodes
        }
        update = SnapshotUpdate(
            time=last, nodes=nodes, static=static,
            edges=list(dblp.edges_at(last)),
        )

        def setup():
            totals = AggregateTotalsView([("gender",)])
            return (StreamingStore(base, views=[totals]), totals), {}

        def run(store, totals):
            store.append_snapshot(update)
            return totals.union_total(["gender"])

        benchmark.pedantic(run, setup=setup, rounds=10)

    def test_full_recomputation_baseline(self, benchmark, dblp):
        """What the incremental path avoids: re-aggregating everything."""
        def run():
            return aggregate(
                union(dblp, dblp.timeline.labels), ["gender"], distinct=False
            )

        benchmark(run)
