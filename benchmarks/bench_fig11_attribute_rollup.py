"""Figure 11: speedup of D-distributive attribute roll-up per time point.

The derivation the cube's planned ``rollup`` route runs — a subset
cuboid from a materialized superset cuboid — vs. computing the subset
from scratch.  The paper reports speedups of
6x-21x (DBLP pair -> single), up to 48x (MovieLens pair -> single) and
smaller gains for pair/triplet roll-ups from the 4-attribute aggregate —
the expected shape here is likewise "fewer target attributes, larger
speedup".  Correctness (derived == scratch) is asserted on each run.
"""

import pytest

from repro.core import aggregate
from repro.olap import TemporalGraphCube
from repro.testing import assert_same_aggregate

DBLP_ALL = ("gender", "publications")
ML_ALL = ("gender", "age", "occupation", "rating")


def warm_cube(graph, superset):
    cube = TemporalGraphCube(graph)
    cube.materialize(superset, distinct=True, per_time_point=True)
    return cube


def rollup_route(cube, superset, subset, time):
    route = cube.plan_routes(subset, times=[time], distinct=True)[0]
    assert (route.kind, route.source) == ("rollup", superset)
    return route


@pytest.fixture(scope="module")
def dblp_cube(dblp):
    return warm_cube(dblp, DBLP_ALL)


@pytest.fixture(scope="module")
def ml_cube(movielens):
    return warm_cube(movielens, ML_ALL)


@pytest.mark.parametrize("subset", [("gender",), ("publications",)],
                         ids=lambda s: "+".join(s))
def test_fig11a_dblp_scratch(benchmark, dblp, subset):
    year = dblp.timeline.labels[-1]
    benchmark(aggregate, dblp, list(subset), True, [year])


@pytest.mark.parametrize("subset", [("gender",), ("publications",)],
                         ids=lambda s: "+".join(s))
def test_fig11a_dblp_rollup(benchmark, dblp, dblp_cube, subset):
    year = dblp.timeline.labels[-1]
    route = rollup_route(dblp_cube, DBLP_ALL, subset, year)
    derived = benchmark(dblp_cube._derive, route)
    direct = aggregate(dblp, list(subset), distinct=True, times=[year])
    assert_same_aggregate(derived, direct)


@pytest.mark.parametrize(
    "subset",
    [("gender",), ("rating",), ("gender", "age"), ("gender", "age", "rating")],
    ids=lambda s: "+".join(s),
)
def test_fig11bcd_movielens_scratch(benchmark, movielens, subset):
    month = "Aug"
    benchmark(aggregate, movielens, list(subset), True, [month])


@pytest.mark.parametrize(
    "subset",
    [("gender",), ("rating",), ("gender", "age"), ("gender", "age", "rating")],
    ids=lambda s: "+".join(s),
)
def test_fig11bcd_movielens_rollup(benchmark, movielens, ml_cube, subset):
    month = "Aug"
    route = rollup_route(ml_cube, ML_ALL, subset, month)
    derived = benchmark(ml_cube._derive, route)
    direct = aggregate(movielens, list(subset), distinct=True, times=[month])
    assert_same_aggregate(derived, direct)
