"""Appends carry derived state forward, bit-identical to a fresh build.

``append_snapshot`` builds version *n+1* by extending version *n*'s label
indexes and, when version *n*'s storage backend exists, its cached
``edge_endpoint_rows()`` and ``presence_bits()``.  Every check here diffs
the carried state of every replayed version against a from-scratch
build (:func:`repro.testing.carried_state_problem`), on every registered
backend.  The benchmark's own output check cannot catch a carried-state
bug: it compares served results with ``run_query`` on the same graph
object, which reads the same carried caches.
"""

import sys
import threading

import numpy as np
import pytest

from repro.core import SnapshotUpdate, TemporalGraph, append_snapshot, split_history
from repro.core.graph import TemporalGraphBuilder
from repro.core.intervals import Timeline
from repro.frames import LabeledFrame
from repro.storage import backend_names
from repro.streaming import StreamingStore
from repro.testing import assert_same_graph, carried_state_problem

BACKENDS = backend_names()


def _read_caches(graph):
    storage = graph.storage
    storage.edge_endpoint_rows()
    storage.presence_bits("nodes")
    storage.presence_bits("edges")


def _history_graph(seed=0, n_nodes=150, n_times=7):
    """A random graph with static, time-varying and edge attributes whose
    replay grows both entity axes across several 64-bit words."""
    rng = np.random.default_rng(seed)
    times = list(range(n_times))
    builder = TemporalGraphBuilder(
        times, static=["gender"], varying=["level"], edge_static=["kind"]
    )
    present = {}
    for i in range(n_nodes):
        node = f"u{i}"
        first = int(rng.integers(n_times))
        builder.add_node(node, {"gender": ("m", "f")[i % 2]})
        present[node] = [t for t in times[first:] if rng.random() < 0.7] or [first]
        for t in present[node]:
            builder.set_node_presence(node, t, level=int(rng.integers(3)))
    nodes = list(present)
    for _ in range(n_nodes * 3):
        u, v = rng.choice(len(nodes), size=2, replace=False)
        a, b = nodes[u], nodes[v]
        common = sorted(set(present[a]) & set(present[b]))
        if common:
            builder.add_edge(a, b, common, static={"kind": int(rng.integers(2))})
    return builder.build()


def _replay(graph, backend, reads):
    """Every version of ``graph``'s replay on ``backend``; ``reads(i)``
    says whether version ``i`` reads its caches before the next append."""
    initial, updates = split_history(graph)
    versions = [initial.with_storage(backend)]
    for i, update in enumerate(updates):
        if reads(i):
            _read_caches(versions[-1])
        versions.append(append_snapshot(versions[-1], update))
    return versions


def _assert_carried(versions):
    for i, version in enumerate(versions):
        assert carried_state_problem(version) is None, (i, carried_state_problem(version))


@pytest.mark.parametrize("backend", BACKENDS)
class TestReadPatterns:
    def test_caches_read_at_every_version(self, backend):
        graph = _history_graph()
        versions = _replay(graph, backend, lambda i: True)
        assert_same_graph(versions[-1], graph)
        assert all(v.built_storage is not None for v in versions)
        _assert_carried(versions)

    def test_caches_never_read(self, backend):
        versions = _replay(_history_graph(1), backend, lambda i: False)
        # Nothing read, so no append built a backend or a cache.
        assert all(v.built_storage is None for v in versions)
        _assert_carried(versions)

    def test_caches_read_every_other_version(self, backend):
        versions = _replay(_history_graph(2), backend, lambda i: i % 2 == 1)
        assert versions[0].built_storage is None
        assert versions[1].built_storage is not None
        # Versions after the first read carry it, read or not.
        assert all(v.built_storage is not None for v in versions[2:])
        _assert_carried(versions)

    def test_presence_bits_carried_unread_stay_lazy_per_entity(self, backend):
        initial, updates = split_history(_history_graph(3))
        graph = initial.with_storage(backend)
        graph.storage.presence_bits("edges")
        for update in updates:
            graph = append_snapshot(graph, update)
        # Only the entity whose bits were read is carried.
        assert set(graph.built_storage._presence_bits) == {"edges"}
        assert carried_state_problem(graph) is None

    def test_dangling_endpoint_arrives_later(self, backend):
        # A validate=False graph whose edge ("a", "z") dangles until "z"
        # arrives; from scratch the endpoint resolves, so the carried rows must too.
        frame = LabeledFrame
        initial = TemporalGraph(
            timeline=Timeline(["t0"]),
            node_presence=frame(["a", "b"], ["t0"], [[1], [1]]),
            edge_presence=frame([("a", "z"), ("a", "b"), "bad"], ["t0"], [[1], [1], [0]]),
            static_attrs=frame(["a", "b"], [], np.empty((2, 0), dtype=object)),
            varying_attrs={},
            validate=False,
            storage=backend,
        )
        _read_caches(initial)
        sources, targets = initial.storage.edge_endpoint_rows()
        assert (sources.tolist(), targets.tolist()) == ([0, 0, -1], [-1, 1, -1])
        grown = append_snapshot(
            initial, SnapshotUpdate("t1", nodes={"z": {}, "b": {}}, edges=[("z", "b")])
        )
        assert carried_state_problem(grown) is None
        sources, targets = grown.storage.edge_endpoint_rows()
        assert (sources.tolist(), targets.tolist()) == ([0, 0, -1, 2], [2, 1, -1, 1])
        # The earlier version's arrays are untouched.
        assert initial.storage.edge_endpoint_rows()[1].tolist() == [-1, 1, -1]

    def test_empty_update(self, backend):
        initial, updates = split_history(_history_graph(4, n_nodes=40, n_times=3))
        graph = initial.with_storage(backend)
        _read_caches(graph)
        for update in updates:
            graph = append_snapshot(graph, update)
        empty = append_snapshot(graph, SnapshotUpdate("after", nodes={}))
        assert empty.n_nodes == graph.n_nodes and empty.n_edges == graph.n_edges
        assert carried_state_problem(empty) is None
        bits = empty.storage.presence_bits("nodes")
        assert bits.shape == (len(empty.timeline), -(-empty.n_nodes // 64))
        assert not bits[-1].any()

    @pytest.mark.parametrize("before, after", [(63, 64), (64, 65), (62, 130), (0, 1)])
    def test_new_entities_cross_a_word_boundary(self, backend, before, after):
        nodes = [f"n{i}" for i in range(before)]
        builder = TemporalGraphBuilder(["t0"], static=["gender"])
        for node in nodes:
            builder.add_node(node, {"gender": "f"})
            builder.set_node_presence(node, "t0")
        for u, v in zip(nodes, nodes[1:] + nodes[:1]):
            if u != v:
                builder.add_edge(u, v, ["t0"])
        graph = builder.build().with_storage(backend)
        _read_caches(graph)
        everyone = [f"n{i}" for i in range(after)]
        grown = append_snapshot(
            graph,
            SnapshotUpdate(
                "t1",
                nodes={node: {} for node in everyone},
                static={node: {"gender": "m"} for node in everyone[before:]},
                edges=[(u, v) for u, v in zip(everyone, everyone[1:])],
            ),
        )
        assert carried_state_problem(grown) is None
        for entity, n in (("nodes", grown.n_nodes), ("edges", grown.n_edges)):
            bits = grown.storage.presence_bits(entity)
            assert bits.shape == (2, -(-n // 64))


def test_frames_over_one_axis_share_one_index():
    versions = _replay(_history_graph(5, n_nodes=30, n_times=3), "dense", lambda i: True)
    graph = versions[-1]
    nodes = graph.node_presence.row_index.positions
    times = graph.node_presence.col_index.positions
    assert graph.static_attrs.row_index.positions is nodes
    for frame in graph.varying_attrs.values():
        assert frame.row_index.positions is nodes
        assert frame.col_index.positions is times
    edges = graph.edge_presence.row_index.positions
    assert graph.edge_attrs.row_index.positions is edges
    assert graph.edge_presence.col_index.positions is times
    # The previous version's indexes are separate and unchanged.
    previous = versions[-2]
    assert previous.node_presence.row_index.positions is not nodes
    assert len(previous.timeline) + 1 == len(graph.timeline)
    assert previous.node_presence.col_labels == previous.timeline.labels


def test_append_leaves_the_previous_version_untouched():
    initial, updates = split_history(_history_graph(6, n_nodes=70, n_times=4))
    _read_caches(initial)
    before = {e: initial.storage.presence_bits(e).copy() for e in ("nodes", "edges")}
    endpoints = [a.copy() for a in initial.storage.edge_endpoint_rows()]
    grown = append_snapshot(initial, updates[0])
    for entity, bits in before.items():
        assert np.array_equal(initial.storage.presence_bits(entity), bits)
        assert grown.storage.presence_bits(entity) is not initial.storage.presence_bits(entity)
    for old, kept in zip(initial.storage.edge_endpoint_rows(), endpoints):
        assert np.array_equal(old, kept)
    assert carried_state_problem(initial) is None
    assert carried_state_problem(grown) is None


def test_appends_beside_readers_filling_the_caches():
    """Readers of the latest version fill its caches while the writer
    appends and carries them; every version still matches a fresh build."""
    initial, updates = split_history(_history_graph(7, n_nodes=60, n_times=30))
    store = StreamingStore(initial)
    _read_caches(initial)
    errors = []
    stop = threading.Event()

    def reader():
        try:
            while not stop.is_set():
                _read_caches(store.pin().graph)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=reader) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for update in updates:
            store.append_snapshot(update)
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    for version in store.history():
        assert carried_state_problem(version.graph) is None, version.version
