"""Ablation benchmarks for the design choices DESIGN.md calls out.

* **Monotonicity pruning** (Section 3.2): the pruned U-/I-Explore vs.
  the exhaustive oracle over the same candidate space.
* **Materialization granularity** (Section 4.3): the cube's ``time_sum``
  derivation of a union(ALL) aggregate from per-point cuboids vs.
  recomputing, at two interval lengths (the crossover the partial-materialization argument rests on).
* **Vectorized engine**: the production ``aggregate`` vs. the literal
  Algorithm 2 transcription, which lives in ``repro.testing`` as the
  engine's differential oracle.
"""

import pytest

from repro.core import aggregate, union
from repro.exploration import (
    EventType,
    ExtendSide,
    Goal,
    exhaustive_explore,
    explore,
)
from repro.olap import TemporalGraphCube
from repro.testing import aggregate_algorithm2


class TestPruningAblation:
    @pytest.mark.parametrize("strategy", ["pruned", "exhaustive"])
    def test_stability_minimal(self, benchmark, dblp, strategy):
        fn = explore if strategy == "pruned" else exhaustive_explore
        result = benchmark(
            fn, dblp, EventType.STABILITY, Goal.MINIMAL, ExtendSide.NEW, 5
        )
        assert result.evaluations > 0

    @pytest.mark.parametrize("strategy", ["pruned", "exhaustive"])
    def test_growth_maximal(self, benchmark, dblp, strategy):
        fn = explore if strategy == "pruned" else exhaustive_explore
        result = benchmark(
            fn, dblp, EventType.GROWTH, Goal.MAXIMAL, ExtendSide.OLD, 5
        )
        assert result.evaluations > 0

    def test_pruning_saves_evaluations(self, dblp):
        pruned = explore(
            dblp, EventType.STABILITY, Goal.MINIMAL, ExtendSide.NEW, 5
        )
        oracle = exhaustive_explore(
            dblp, EventType.STABILITY, Goal.MINIMAL, ExtendSide.NEW, 5
        )
        assert pruned.evaluations < oracle.evaluations
        assert pruned.pairs == oracle.pairs


class TestMaterializationGranularity:
    @pytest.mark.parametrize("length", [3, 21])
    @pytest.mark.parametrize("source", ["scratch", "materialized"])
    def test_union_all(self, benchmark, dblp, source, length):
        span = dblp.timeline.labels[:length]
        if source == "scratch":
            benchmark(
                lambda: aggregate(union(dblp, span), ["gender"], distinct=False)
            )
        else:
            cube = TemporalGraphCube(dblp)
            cube.materialize(["gender"], times=span, per_time_point=True)
            route = cube.plan_routes(["gender"], times=span, distinct=False)[0]
            assert route.kind == "time_sum"
            benchmark(cube._derive, route)


class TestVectorizedEngineAblation:
    """Algorithm-2 transcription vs. the vectorized production engine —
    same results (asserted in tests), different constants."""

    @pytest.mark.parametrize("engine", ["algorithm2", "vectorized"])
    @pytest.mark.parametrize("attr", ["gender", "publications"])
    def test_union_window(self, benchmark, dblp, engine, attr):
        window = dblp.timeline.labels
        sub = union(dblp, window)
        fn = aggregate_algorithm2 if engine == "algorithm2" else aggregate
        result = benchmark(fn, sub, [attr], False)
        assert result.total_node_weight() > 0

    @pytest.mark.parametrize("engine", ["algorithm2", "vectorized"])
    def test_movielens_varying(self, benchmark, movielens, engine):
        sub = union(movielens, movielens.timeline.labels)
        fn = aggregate_algorithm2 if engine == "algorithm2" else aggregate
        result = benchmark(fn, sub, ["rating"], True)
        assert result.total_node_weight() > 0
