"""Figure 10: speedup of T-distributive union(ALL) aggregation from
per-time-point materialization.

Two benchmark rows per (dataset, attribute, interval length): the
from-scratch union aggregation and the derivation the cube's planned
``time_sum`` route runs over a warm per-point
:class:`~repro.olap.TemporalGraphCube`.  The speedup the paper plots
(8x-78x on DBLP) is the ratio of the two rows; a correctness assertion
checks the derived aggregate equals the from-scratch one on every run.
"""

import pytest

from repro.core import aggregate, union
from repro.olap import TemporalGraphCube
from repro.testing import assert_same_aggregate

DBLP_LENGTHS = [5, 11, 21]


@pytest.fixture(scope="module")
def warm_cube(dblp):
    cube = TemporalGraphCube(dblp)
    cube.materialize(["gender"], distinct=False, per_time_point=True)
    cube.materialize(["publications"], distinct=False, per_time_point=True)
    return cube


@pytest.mark.parametrize("attr", ["gender", "publications"])
@pytest.mark.parametrize("length", DBLP_LENGTHS)
def test_fig10_scratch(benchmark, dblp, attr, length):
    span = dblp.timeline.labels[:length]

    def run():
        return aggregate(union(dblp, span), [attr], distinct=False)

    benchmark(run)


@pytest.mark.parametrize("attr", ["gender", "publications"])
@pytest.mark.parametrize("length", DBLP_LENGTHS)
def test_fig10_materialized(benchmark, dblp, warm_cube, attr, length):
    span = dblp.timeline.labels[:length]
    route = warm_cube.plan_routes([attr], times=span, distinct=False)[0]
    assert route.kind == "time_sum"
    derived = benchmark(warm_cube._derive, route)
    direct = aggregate(union(dblp, span), [attr], distinct=False)
    assert_same_aggregate(derived, direct)
