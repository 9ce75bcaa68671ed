"""Property-based tests (hypothesis) for the core invariants.

A random-graph strategy builds small temporal attributed graphs with
arbitrary presence patterns; the properties assert the algebraic laws the
paper's algorithms rely on: operator containments, the evolution
decomposition, DIST <= ALL, distributivity of the materialization rules,
the monotonicity lemmas, and pruned-vs-exhaustive exploration agreement.
"""

import itertools

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import (
    TemporalGraph,
    Timeline,
    aggregate,
    difference,
    intersection,
    project,
    union,
)
from repro.exploration import (
    EventType,
    ExtendSide,
    Goal,
    exhaustive_explore,
    explore,
)
from repro.frames import LabeledFrame, Table, unpivot
from repro.olap import TemporalGraphCube


from repro.testing import temporal_graphs  # noqa: E402


@st.composite
def graph_and_windows(draw):
    graph = draw(temporal_graphs())
    n = len(graph.timeline)
    i = draw(st.integers(0, n - 2))
    j = draw(st.integers(i + 1, n - 1))
    labels = graph.timeline.labels
    return graph, labels[: i + 1], labels[i + 1 : j + 1]


@settings(max_examples=60, deadline=None)
@given(graph_and_windows())
def test_intersection_contained_in_union(data):
    graph, t1, t2 = data
    u = union(graph, t1, t2)
    i = intersection(graph, t1, t2)
    assert set(i.nodes) <= set(u.nodes)
    assert set(i.edges) <= set(u.edges)


@settings(max_examples=60, deadline=None)
@given(graph_and_windows())
def test_project_contained_in_intersection(data):
    graph, t1, t2 = data
    window = t1 + t2
    p = project(graph, window)
    i = intersection(graph, t1, t2)
    assert set(p.nodes) <= set(i.nodes)
    assert set(p.edges) <= set(i.edges)


@settings(max_examples=60, deadline=None)
@given(graph_and_windows())
def test_evolution_edge_decomposition(data):
    """E_union is the disjoint union of stable, grown and shrunk edges."""
    graph, t1, t2 = data
    u = set(union(graph, t1, t2).edges)
    stable = set(intersection(graph, t1, t2).edges)
    shrunk = set(difference(graph, t1, t2).edges)
    grown = set(difference(graph, t2, t1).edges)
    assert u == stable | shrunk | grown
    assert not (stable & shrunk)
    assert not (stable & grown)
    assert not (shrunk & grown)


@settings(max_examples=60, deadline=None)
@given(graph_and_windows())
def test_difference_nodes_cover_edge_endpoints(data):
    graph, t1, t2 = data
    d = difference(graph, t1, t2)
    nodes = set(d.nodes)
    for u, v in d.edges:
        assert u in nodes and v in nodes


@settings(max_examples=60, deadline=None)
@given(graph_and_windows())
def test_dist_weights_never_exceed_all(data):
    graph, t1, t2 = data
    u = union(graph, t1, t2)
    for attrs in (["gender"], ["level"], ["gender", "level"]):
        dist = aggregate(u, attrs, distinct=True)
        non_dist = aggregate(u, attrs, distinct=False)
        for key, weight in dist.node_weights.items():
            assert weight <= non_dist.node_weight(key)
        for (s, t), weight in dist.edge_weights.items():
            assert weight <= non_dist.edge_weight(s, t)


@settings(max_examples=60, deadline=None)
@given(temporal_graphs())
def test_aggregate_total_matches_entity_counts(graph):
    """DIST weights over the whole timeline sum to distinct entity/tuple
    appearance counts; for static attributes, to entity counts."""
    agg = aggregate(graph, ["gender"], distinct=True)
    assert agg.total_node_weight() == graph.n_nodes
    assert agg.total_edge_weight() == graph.n_edges


@settings(max_examples=60, deadline=None)
@given(temporal_graphs())
def test_static_all_counts_presence_cells(graph):
    agg = aggregate(graph, ["gender"], distinct=False)
    assert agg.total_node_weight() == int(graph.node_presence.values.sum())
    assert agg.total_edge_weight() == int(graph.edge_presence.values.sum())


@settings(max_examples=50, deadline=None)
@given(temporal_graphs())
def test_rollup_matches_direct_aggregation_per_point(graph):
    for time in graph.timeline.labels:
        full = aggregate(graph, ["gender", "level"], times=[time])
        rolled = full.rollup(["gender"])
        direct = aggregate(graph, ["gender"], times=[time])
        assert dict(rolled.node_weights) == dict(direct.node_weights)
        assert dict(rolled.edge_weights) == dict(direct.edge_weights)


@settings(max_examples=50, deadline=None)
@given(temporal_graphs())
def test_t_distributive_union_all(graph):
    cube = TemporalGraphCube(graph)
    times = graph.timeline.labels
    for attrs in (["gender"], ["level"]):
        cube.materialize(attrs, per_time_point=True)
        derived = cube.cuboid(attrs, times=times, distinct=False)
        direct = aggregate(union(graph, times), attrs, distinct=False)
        assert dict(derived.node_weights) == dict(direct.node_weights)
        assert dict(derived.edge_weights) == dict(direct.edge_weights)


@settings(max_examples=30, deadline=None)
@given(temporal_graphs(), st.integers(1, 4))
def test_explore_matches_oracle(graph, k):
    for event in EventType:
        for goal in Goal:
            for extend in ExtendSide:
                fast = explore(graph, event, goal, extend, k)
                oracle = exhaustive_explore(graph, event, goal, extend, k)
                assert fast.pairs == oracle.pairs


@settings(max_examples=40, deadline=None)
@given(graph_and_windows())
def test_union_idempotent(data):
    graph, t1, t2 = data
    once = union(graph, t1, t2)
    twice = union(once, t1, t2)
    assert set(once.nodes) == set(twice.nodes)
    assert set(once.edges) == set(twice.edges)


# ---------------------------------------------------------------------------
# Frame-level properties
# ---------------------------------------------------------------------------

rows_strategy = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c"]),
        st.integers(0, 3),
        st.integers(0, 5),
    ),
    max_size=30,
)


@settings(max_examples=80, deadline=None)
@given(rows_strategy)
def test_deduplicate_idempotent(rows):
    table = Table(["k", "t", "v"], rows)
    once = table.deduplicate()
    assert once.deduplicate() == once


@settings(max_examples=80, deadline=None)
@given(rows_strategy)
def test_groupby_count_totals(rows):
    table = Table(["k", "t", "v"], rows)
    counts = table.groupby_count(["k"])
    assert sum(counts.values()) == len(table)


@settings(max_examples=80, deadline=None)
@given(rows_strategy)
def test_groupby_sum_matches_manual(rows):
    table = Table(["k", "t", "v"], rows)
    sums = table.groupby_sum(["k"], "v")
    manual = {}
    for k, _, v in rows:
        manual[(k,)] = manual.get((k,), 0) + v
    assert sums == manual


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.lists(st.one_of(st.none(), st.integers(0, 9)), min_size=3, max_size=3),
        min_size=1,
        max_size=6,
    )
)
def test_unpivot_counts_non_missing_cells(grid):
    labels = [f"r{i}" for i in range(len(grid))]
    frame = LabeledFrame(labels, ["c0", "c1", "c2"], np.array(grid, dtype=object))
    long = unpivot(frame)
    expected = sum(1 for row in grid for cell in row if cell is not None)
    assert len(long) == expected


@settings(max_examples=50, deadline=None)
@given(rows_strategy, rows_strategy)
def test_inner_join_subset_of_left_join(left_rows, right_rows):
    left = Table(["k", "t", "v"], left_rows)
    right = Table(["k", "x", "y"], right_rows).deduplicate(["k"])
    inner = left.join(right, on=["k"])
    outer = left.join(right, on=["k"], how="left")
    assert len(outer) == len(left)
    assert set(inner.rows) <= set(outer.rows)
