"""The exploration kernel against the per-step reference walk.

``explore`` advances every live chain one level per numpy op over packed
presence bits; ``repro.testing.reference_explore`` walks the same
Table-1 strategies one ``ChainStep`` at a time.  These tests cover the
cases the ``exploration-variants-agree`` law does not draw: time-varying
attributes with and without a key, entity counts off the 64-bit word
grid (padding bits sit under ``~old``), one- and two-point timelines,
empty entity axes and keys that never occur.  Every case asserts equal
pairs (in order), counts, ``evaluations`` and ``exploration.*``
counters.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from tests.conftest import TEST_SEED
from repro.datasets import paper_example
from repro.errors import ExplorationError
from repro.exploration import EntityKind, EventType, ExtendSide, Goal, explore
from repro.exploration.events import static_match_mask
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.storage import get_backend
from repro.testing import GraphSpec, random_temporal_graph, reference_explore

CASES = tuple(itertools.product(EventType, Goal, ExtendSide))
COUNTERS = (
    "exploration.runs",
    "exploration.chains",
    "exploration.chain_steps",
    "exploration.pruned_steps",
)


def _counted(run):
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    try:
        result = run()
    finally:
        set_metrics(previous)
    return result, tuple(registry.counter(name) for name in COUNTERS)


def assert_kernel_matches_walk(
    graph, k=1, entity=EntityKind.EDGES, attributes=(), key=None
):
    for event, goal, extend in CASES:
        args = (graph, event, goal, extend, k, entity, list(attributes), key)
        kernel, kernel_counts = _counted(lambda: explore(*args))
        for incremental in (True, False):
            walk, walk_counts = _counted(
                lambda: reference_explore(*args, incremental=incremental)
            )
            where = (event, goal, extend, entity, attributes, key, incremental)
            assert kernel.pairs == walk.pairs, where
            assert kernel.evaluations == walk.evaluations, where
            assert kernel_counts == walk_counts, where


@pytest.fixture(scope="module")
def wide_graph():
    """70 nodes and a few hundred edges: both axes off the word grid."""
    graph = random_temporal_graph(
        GraphSpec(n_nodes=70, n_times=6, edge_density=0.1), seed=TEST_SEED
    )
    assert graph.n_nodes % 64
    return graph


@pytest.mark.parametrize("entity", list(EntityKind), ids=str)
@pytest.mark.parametrize("k", [1, 3, 40])
def test_off_grid_entity_counts(wide_graph, entity, k):
    assert_kernel_matches_walk(wide_graph, k=k, entity=entity)


@pytest.mark.parametrize("entity", list(EntityKind), ids=str)
@pytest.mark.parametrize(
    "attributes", [("level",), ("gender", "level")], ids=["level", "gender-level"]
)
def test_time_varying_without_key(wide_graph, entity, attributes):
    assert_kernel_matches_walk(wide_graph, k=2, entity=entity, attributes=attributes)


def test_time_varying_with_key(wide_graph):
    node_key = ("f", 2)
    assert_kernel_matches_walk(
        wide_graph, k=1, entity=EntityKind.NODES,
        attributes=("gender", "level"), key=node_key,
    )
    assert_kernel_matches_walk(
        wide_graph, k=1, entity=EntityKind.EDGES,
        attributes=("gender", "level"), key=(node_key, ("m", 1)),
    )


@pytest.mark.parametrize(
    "entity,attributes,key",
    [
        (EntityKind.NODES, ("gender",), ("x",)),
        (EntityKind.EDGES, ("gender",), (("x",), ("f",))),
        (EntityKind.NODES, ("level",), (99,)),
        (EntityKind.EDGES, ("gender", "level"), (("f", 99), ("f", 1))),
    ],
)
def test_key_that_never_occurs(wide_graph, entity, attributes, key):
    assert_kernel_matches_walk(
        wide_graph, entity=entity, attributes=attributes, key=key
    )
    assert not explore(
        wide_graph, EventType.STABILITY, Goal.MINIMAL, ExtendSide.NEW, 1,
        entity, attributes, key,
    ).pairs


@pytest.mark.parametrize("n_times", [1, 2])
@pytest.mark.parametrize(
    "entity,attributes,key",
    [
        (EntityKind.EDGES, (), None),
        (EntityKind.NODES, ("gender",), ("f",)),
        (EntityKind.EDGES, ("level",), None),
    ],
)
def test_short_timelines(n_times, entity, attributes, key):
    graph = random_temporal_graph(GraphSpec(n_times=n_times, n_nodes=8), seed=TEST_SEED)
    assert_kernel_matches_walk(graph, entity=entity, attributes=attributes, key=key)
    if n_times == 1:
        result = explore(graph, EventType.GROWTH, Goal.MINIMAL, ExtendSide.NEW, 1)
        assert result.pairs == () and result.evaluations == 0


@pytest.mark.parametrize("axis", ["nodes", "edges"])
@pytest.mark.parametrize("backend", ["dense", "columnar"])
def test_empty_entity_axis(wide_graph, axis, backend):
    storage = get_backend(backend).from_graph(wide_graph)
    empty = storage.slice_entities(axis, 0, 0).to_graph()
    entity = EntityKind(axis)
    assert_kernel_matches_walk(empty, entity=entity)
    assert_kernel_matches_walk(empty, entity=entity, attributes=("level",))


# ----------------------------------------------------------------------
# static_match_mask: the vectorized key match
# ----------------------------------------------------------------------


def _naive_match(graph, entity, attributes, key, entities=None):
    frame = graph.static_attrs
    positions = [frame.col_position(a) for a in attributes]

    def node_tuple(node):
        row = graph.node_presence.row_position(node)
        return tuple(frame.values[row, p] for p in positions)

    if entity is EntityKind.NODES:
        labels = graph.node_presence.row_labels if entities is None else entities
        return np.array([node_tuple(n) == tuple(key) for n in labels], dtype=bool)
    labels = graph.edge_presence.row_labels if entities is None else entities
    return np.array(
        [
            node_tuple(u) == tuple(key[0]) and node_tuple(v) == tuple(key[1])
            for u, v in labels
        ],
        dtype=bool,
    )


@pytest.mark.parametrize(
    "entity,key",
    [
        (EntityKind.NODES, ("f",)),
        (EntityKind.NODES, ("nobody",)),
        (EntityKind.EDGES, (("f",), ("m",))),
        (EntityKind.EDGES, (("m",), ("m",))),
        (EntityKind.EDGES, (("f",), ("nobody",))),
    ],
)
def test_static_match_mask_matches_tuple_comparison(wide_graph, entity, key):
    expected = _naive_match(wide_graph, entity, ["gender"], key)
    got = static_match_mask(wide_graph, entity, ["gender"], key)
    assert got.dtype == bool
    assert np.array_equal(got, expected)
    labels = (
        wide_graph.node_presence.row_labels
        if entity is EntityKind.NODES
        else wide_graph.edge_presence.row_labels
    )
    subset = labels[-5:]
    assert np.array_equal(
        static_match_mask(wide_graph, entity, ["gender"], key, entities=subset),
        _naive_match(wide_graph, entity, ["gender"], key, entities=subset),
    )


def test_static_match_mask_on_paper_graph():
    graph = paper_example()
    got = static_match_mask(graph, EntityKind.EDGES, ["gender"], (("f",), ("f",)))
    assert np.array_equal(
        got, _naive_match(graph, EntityKind.EDGES, ["gender"], (("f",), ("f",)))
    )


def test_dangling_edges_raise_exploration_error():
    graph = random_temporal_graph(GraphSpec(dangling_edges=2), seed=TEST_SEED)
    with pytest.raises(ExplorationError, match="dangling"):
        static_match_mask(graph, EntityKind.EDGES, ["gender"], (("f",), ("f",)))
    with pytest.raises(ExplorationError, match="dangling"):
        explore(
            graph, EventType.GROWTH, Goal.MINIMAL, ExtendSide.NEW, 1,
            EntityKind.EDGES, ["gender"], (("f",), ("f",)),
        )
    with pytest.raises(ExplorationError, match="dangling"):
        explore(
            graph, EventType.GROWTH, Goal.MINIMAL, ExtendSide.NEW, 1,
            EntityKind.EDGES, ["level"],
        )
