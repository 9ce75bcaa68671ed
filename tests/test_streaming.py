"""Tests for streaming ingestion: events, the versioned store and
delta-maintained views."""

import pickle
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from repro.core import SnapshotUpdate, aggregate, aggregate_evolution
from repro.core.graph import TemporalGraphBuilder
from repro.core.operators import presence_signature
from repro.core.updates import append_snapshot, split_history
from repro.errors import (
    ExplorationError,
    MaterializationError,
    ValidationError,
)
from repro.exploration import (
    ChainEvaluator,
    EntityKind,
    EventCounter,
    EventType,
    ExtendSide,
    Semantics,
)
from repro.session import GraphTempoSession
from repro.streaming import (
    EdgeEvent,
    EvolutionView,
    ExplorationView,
    GraphVersion,
    NodeEvent,
    StreamingStore,
    StreamingView,
    batch_events,
)
from repro.testing import (
    aggregate_evolution_reference,
    assert_same_graph,
    carried_state_problem,
    graph_from_maps,
    graph_from_updates,
    graph_to_maps,
)


def make_update(time="t3"):
    return SnapshotUpdate(
        time=time,
        nodes={
            "u2": {"publications": 2},
            "u5": {"publications": 1},
            "u9": {"publications": 4},
        },
        static={"u9": {"gender": "f"}},
        edges=[("u5", "u2"), ("u9", "u2")],
    )


class TestEvents:
    def test_events_are_frozen_copies(self):
        attrs = {"publications": 1}
        event = NodeEvent(time="t3", node="u2", attrs=attrs)
        attrs["publications"] = 9
        assert event.attrs == {"publications": 1}

    def test_edge_normalized_to_tuple(self):
        event = EdgeEvent(time="t3", edge=["u5", "u2"])
        assert event.edge == ("u5", "u2")
        assert isinstance(event.edge, tuple)

    def test_batching_groups_by_first_seen_time(self):
        updates = batch_events(
            [
                NodeEvent("t3", "a"),
                NodeEvent("t4", "b"),
                NodeEvent("t3", "c"),
            ]
        )
        assert [u.time for u in updates] == ["t3", "t4"]
        assert set(updates[0].nodes) == {"a", "c"}

    def test_node_events_merge_later_wins(self):
        (update,) = batch_events(
            [
                NodeEvent("t3", "a", attrs={"publications": 1}),
                NodeEvent("t3", "a", attrs={"publications": 2}),
            ]
        )
        assert update.nodes["a"] == {"publications": 2}

    def test_edges_dedupe_and_endpoints_get_presence(self):
        (update,) = batch_events(
            [
                EdgeEvent("t3", ("a", "b")),
                EdgeEvent("t3", ("a", "b")),
            ]
        )
        assert update.edges == (("a", "b"),)
        assert set(update.nodes) == {"a", "b"}

    def test_unknown_event_type_rejected(self):
        with pytest.raises(ValidationError):
            batch_events([NodeEvent("t3", "a"), "not an event"])


class TestStreamingStore:
    def test_initial_version_is_zero(self, paper_graph):
        store = StreamingStore(paper_graph)
        assert store.version == 0
        assert store.graph is paper_graph
        assert store.latest == GraphVersion(0, paper_graph)

    def test_append_publishes_monotonic_versions(self, paper_graph):
        store = StreamingStore(paper_graph)
        v1 = store.append_snapshot(make_update("t3"))
        v2 = store.append_snapshot(
            SnapshotUpdate(time="t4", nodes={"u9": {"publications": 5}})
        )
        assert (v1.version, v2.version) == (1, 2)
        assert store.version == 2
        assert v2.graph.timeline.labels == ("t0", "t1", "t2", "t3", "t4")

    def test_pinned_version_is_stable(self, paper_graph):
        store = StreamingStore(paper_graph)
        pinned = store.pin()
        store.append_snapshot(make_update())
        assert pinned.version == 0
        assert pinned.graph.timeline.labels == ("t0", "t1", "t2")
        assert store.graph.timeline.labels == ("t0", "t1", "t2", "t3")

    def test_at_version_and_history(self, paper_graph):
        store = StreamingStore(paper_graph)
        store.append_snapshot(make_update())
        assert store.at_version(0).graph is paper_graph
        assert [v.version for v in store.history()] == [0, 1]
        with pytest.raises(MaterializationError):
            store.at_version(2)
        with pytest.raises(MaterializationError):
            store.at_version(-1)

    def test_empty_timeline_rejected(self):
        from types import SimpleNamespace

        fake = SimpleNamespace(timeline=SimpleNamespace(labels=()))
        with pytest.raises(MaterializationError, match="empty timeline"):
            StreamingStore(fake)

    def test_failed_append_publishes_nothing(self, paper_graph):
        store = StreamingStore(paper_graph)
        with pytest.raises(ValueError):
            store.append_snapshot(SnapshotUpdate(time="t2", nodes={}))
        assert store.version == 0

    def test_hooks_fire_in_order_and_unsubscribe(self, paper_graph):
        store = StreamingStore(paper_graph)
        seen = []
        unsubscribe = store.on_append(lambda v: seen.append(("a", v.version)))
        store.on_append(lambda v: seen.append(("b", v.version)))
        store.append_snapshot(make_update("t3"))
        assert seen == [("a", 1), ("b", 1)]
        unsubscribe()
        unsubscribe()  # idempotent
        store.append_snapshot(SnapshotUpdate(time="t4", nodes={}))
        assert seen == [("a", 1), ("b", 1), ("b", 2)]

    def test_update_batches_events_into_versions(self, paper_graph):
        store = StreamingStore(paper_graph)
        versions = store.update(
            [
                NodeEvent("t3", "u2", attrs={"publications": 2}),
                NodeEvent("t3", "u9", static={"gender": "f"}),
                EdgeEvent("t3", ("u9", "u2")),
                NodeEvent("t4", "u9"),
            ]
        )
        assert [v.version for v in versions] == [1, 2]
        graph = store.graph
        assert graph.edge_times(("u9", "u2")) == ("t3",)
        assert graph.attribute_value("u9", "gender") == "f"
        assert graph.node_times("u9") == ("t3", "t4")

    def test_from_history_replays_identically(self, tiny_graph):
        store = StreamingStore.from_history(tiny_graph)
        assert store.version == len(tiny_graph.timeline.labels) - 1
        assert_same_graph(store.graph, tiny_graph)

    def test_from_history_keeps_never_present_entities(self):
        builder = TemporalGraphBuilder(["t0", "t1", "t2"], static=["gender"])
        builder.add_node("a", {"gender": "f"})
        builder.add_node("ghost", {"gender": "m"})
        builder.add_node("late", {"gender": "m"})
        builder.set_node_presence("a", "t0")
        builder.set_node_presence("a", "t1")
        builder.set_node_presence("late", "t2")
        # Edges present at no point, one to a node that appears later.
        builder.add_edge("a", "ghost")
        builder.add_edge("a", "late")
        graph = builder.build()
        replayed = StreamingStore.from_history(graph).graph
        assert presence_signature(replayed) == presence_signature(graph)
        assert replayed.attribute_value("ghost", "gender") == "m"
        assert_same_graph(replayed, graph)

    def test_failing_view_rolls_back(self, paper_graph):
        class ExplodingView(StreamingView):
            def __init__(self):
                self.rebuilds = 0

            def rebuild(self, graph):
                self.rebuilds += 1

            def extend(self, graph, update):
                raise RuntimeError("boom")

        exploding = ExplodingView()
        evolution = EvolutionView(["gender"])
        store = StreamingStore(paper_graph, views=[evolution, exploding])
        with pytest.raises(RuntimeError):
            store.append_snapshot(make_update())
        # Nothing published, and every view was rebuilt over the
        # still-current graph, so none drifts from the published state.
        assert store.version == 0
        assert exploding.rebuilds == 2
        with pytest.raises(ValidationError):
            evolution.current()

    def test_base_view_contract_is_abstract(self, paper_graph):
        view = StreamingView()
        with pytest.raises(NotImplementedError):
            view.rebuild(paper_graph)
        with pytest.raises(NotImplementedError):
            view.extend(paper_graph, make_update())


class TestEvolutionView:
    def test_matches_from_scratch_overlay(self, paper_graph):
        view = EvolutionView(["gender"])
        store = StreamingStore(paper_graph, views=[view])
        store.append_snapshot(make_update("t3"))
        store.append_snapshot(
            SnapshotUpdate(time="t4", nodes={"u9": {"publications": 5}})
        )
        direct = aggregate_evolution(
            store.graph, ["t0", "t1", "t2"], ["t3", "t4"], ["gender"]
        )
        assert view.current().diff(direct) == ()

    def test_rebuild_over_appended_points_equals_extend(self, paper_graph):
        # A rollback rebuilds the view over a graph that already holds
        # appended points: the code-based rebuild must land on exactly
        # the counters the per-append folds produced.
        view = EvolutionView(["gender", "publications"])
        store = StreamingStore(paper_graph, views=[view])
        store.append_snapshot(make_update("t3"))
        store.append_snapshot(
            SnapshotUpdate(time="t4", nodes={"u9": {"publications": 5}})
        )
        extended = view.current()
        view.rebuild(store.graph)
        rebuilt = view.current()
        assert rebuilt.diff(extended) == ()
        assert rebuilt.diff(
            aggregate_evolution_reference(
                store.graph, ["t0", "t1", "t2"], ["t3", "t4"],
                ["gender", "publications"],
            )
        ) == ()

    def test_windows_exposed(self, paper_graph):
        view = EvolutionView(["gender"], old_times=["t1", "t2"])
        store = StreamingStore(paper_graph, views=[view])
        store.append_snapshot(make_update())
        assert view.old_times == ("t1", "t2")
        assert view.new_times == ("t3",)

    def test_empty_new_window_rejected(self, paper_graph):
        view = EvolutionView(["gender"])
        StreamingStore(paper_graph, views=[view])
        with pytest.raises(ValidationError):
            view.current()

    def test_requires_attributes(self):
        with pytest.raises(ValidationError):
            EvolutionView([])

    def test_never_rebuilt_rejected(self, paper_graph):
        with pytest.raises(ValidationError):
            EvolutionView(["gender"]).current()


class TestExplorationView:
    @pytest.mark.parametrize("event", list(EventType))
    @pytest.mark.parametrize(
        "semantics", [Semantics.UNION, Semantics.INTERSECTION]
    )
    def test_steps_match_chain_evaluator(self, tiny_graph, event, semantics):
        initial, updates = split_history(tiny_graph)
        view = ExplorationView(event, semantics=semantics)
        store = StreamingStore(initial, views=[view])
        for update in updates:
            store.append_snapshot(update)
        counter = EventCounter(store.graph, entity=EntityKind.EDGES)
        evaluator = ChainEvaluator(counter, event)
        expected = list(evaluator.chain(0, ExtendSide.NEW, semantics))
        steps = view.steps()
        assert len(steps) == len(expected)
        for got, want in zip(steps, expected):
            assert got.old == want.old
            assert got.new == want.new
            assert got.count == want.count
            # Masks recorded mid-stream predate later entities; rows
            # appended afterwards are absent there, i.e. exactly False.
            padded = np.zeros(want.mask.shape[0], dtype=bool)
            padded[: got.mask.shape[0]] = got.mask
            assert (padded == want.mask).all()
        assert view.counts() == tuple(s.count for s in expected)

    def test_keyed_static_counts(self, paper_graph):
        view = ExplorationView(
            EventType.GROWTH,
            entity=EntityKind.NODES,
            attributes=["gender"],
            key=("f",),
        )
        store = StreamingStore(paper_graph, views=[view])
        store.append_snapshot(make_update())
        counter = EventCounter(
            store.graph,
            entity=EntityKind.NODES,
            attributes=["gender"],
            key=("f",),
        )
        step = next(
            iter(
                ChainEvaluator(counter, EventType.GROWTH).chain(
                    2, ExtendSide.NEW, Semantics.UNION
                )
            )
        )
        assert view.current_count() == step.count

    def test_reference_pinned_to_registration_last_point(self, paper_graph):
        view = ExplorationView(EventType.GROWTH)
        store = StreamingStore(paper_graph, views=[view])
        assert view.reference == 2
        store.append_snapshot(make_update())
        assert view.reference == 2

    def test_first_reaching(self, paper_graph):
        view = ExplorationView(EventType.GROWTH, entity=EntityKind.NODES)
        store = StreamingStore(paper_graph, views=[view])
        store.append_snapshot(make_update("t3"))  # u9 appears
        store.append_snapshot(SnapshotUpdate(time="t4", nodes={}))
        assert view.first_reaching(1) == 0
        assert view.first_reaching(99) is None

    def test_key_requires_attributes(self):
        with pytest.raises(ExplorationError):
            ExplorationView(EventType.GROWTH, key=("f",))

    def test_varying_attribute_rejected(self, paper_graph):
        view = ExplorationView(
            EventType.GROWTH,
            entity=EntityKind.NODES,
            attributes=["publications"],
            key=(1,),
        )
        with pytest.raises(ExplorationError):
            StreamingStore(paper_graph, views=[view])

    def test_reference_out_of_range(self, paper_graph):
        view = ExplorationView(EventType.GROWTH, reference=9)
        with pytest.raises(ExplorationError):
            StreamingStore(paper_graph, views=[view])

    def test_no_appends_yet_rejected(self, paper_graph):
        view = ExplorationView(EventType.GROWTH)
        StreamingStore(paper_graph, views=[view])
        with pytest.raises(ExplorationError):
            view.current_count()


def _frames(graph):
    return [
        graph.node_presence,
        graph.edge_presence,
        graph.static_attrs,
        *graph.varying_attrs.values(),
    ]


def _held_arrays(graph):
    """Every array a version holds: its frames' values and its dense
    backend's carried caches."""
    storage = graph.storage
    return [
        *(frame.values for frame in _frames(graph)),
        storage.presence_bits("nodes"),
        storage.presence_bits("edges"),
        *storage.edge_endpoint_rows(),
    ]


def _assert_from_scratch(version, initial, updates):
    scratch = graph_from_updates(initial, updates)
    assert presence_signature(version) == presence_signature(scratch)
    assert graph_to_maps(version) == graph_to_maps(scratch)
    assert carried_state_problem(version) is None


class TestSharedAppendBuffers:
    """Versions of one append lineage share capacity buffers: each is a
    read-only view, and an append writes only cells no version sees."""

    def test_appended_frames_are_read_only(self, paper_graph):
        version = append_snapshot(paper_graph, make_update())
        for frame in _frames(version):
            assert not frame.values.flags.writeable
            with pytest.raises(ValueError):
                frame.values[0, 0] = frame.values[0, 0]
        with pytest.raises(ValueError):
            version.node_presence.set_cell("u2", "t0", 0)

    def test_appends_at_the_frontier_share_one_buffer(self, paper_graph):
        first = append_snapshot(paper_graph, make_update("t3"))
        second = append_snapshot(first, make_update("t4"))
        for old, new in zip(_frames(first), _frames(second)):
            assert new.values.base is old.values.base
        _assert_from_scratch(second, paper_graph, [make_update("t3"), make_update("t4")])

    def test_second_append_to_one_version_copies(self, paper_graph):
        first = append_snapshot(paper_graph, make_update("t3"))
        first.storage.presence_bits("edges")
        before = graph_to_maps(first)
        other = SnapshotUpdate(time="t4", nodes={"u1": {"publications": 7}})
        trunk = append_snapshot(first, make_update("t4"))
        branch = append_snapshot(first, other)
        assert trunk.edge_presence.values.base is first.edge_presence.values.base
        assert branch.edge_presence.values.base is not first.edge_presence.values.base
        assert graph_to_maps(first) == before
        _assert_from_scratch(trunk, paper_graph, [make_update("t3"), make_update("t4")])
        _assert_from_scratch(branch, paper_graph, [make_update("t3"), other])

    def test_unpickled_version_appends_into_its_own_buffer(self, paper_graph):
        first = append_snapshot(paper_graph, make_update("t3"))
        first.storage.presence_bits("nodes")
        clone = pickle.loads(pickle.dumps(first))
        grown = append_snapshot(clone, make_update("t4"))
        assert grown.node_presence.values.base is not first.node_presence.values.base
        _assert_from_scratch(grown, paper_graph, [make_update("t3"), make_update("t4")])
        # The original lineage still owns its frontier.
        trunk = append_snapshot(first, make_update("t4"))
        assert trunk.node_presence.values.base is first.node_presence.values.base

    def test_concurrent_appends_to_one_version(self, paper_graph):
        """Four threads (more than this suite's cores) append four
        different updates to one version at once, with a short switch
        interval: each result equals a from-scratch build, the shared
        version is untouched, and exactly one append wrote in place."""
        updates = [
            make_update("t4"),
            SnapshotUpdate(time="t4", nodes={"u1": {"publications": 7}}),
            SnapshotUpdate(
                time="t4",
                nodes={"u1": {"publications": 1}, "u8": {"publications": 1}},
                static={"u8": {"gender": "m"}},
                edges=[("u8", "u1")],
            ),
            SnapshotUpdate(time="t4", nodes={}),
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                version = append_snapshot(paper_graph, make_update("t3"))
                version.storage.presence_bits("nodes")
                version.storage.edge_endpoint_rows()
                barrier = threading.Barrier(len(updates), timeout=10)
                results = [None] * len(updates)

                def append(i):
                    barrier.wait()
                    results[i] = append_snapshot(version, updates[i])

                threads = [
                    threading.Thread(target=append, args=(i,))
                    for i in range(len(updates))
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                    assert not thread.is_alive()
                for result, update in zip(results, updates):
                    _assert_from_scratch(
                        result, paper_graph, [make_update("t3"), update]
                    )
                _assert_from_scratch(version, paper_graph, [make_update("t3")])
                in_place = [
                    r.node_presence.values.base is version.node_presence.values.base
                    for r in results
                ]
                assert in_place.count(True) == 1
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.slow
    def test_history_arrays_stay_within_a_constant_of_the_live_version(self):
        """10^4 appends to a 4-node graph: every version's arrays stay
        alive, and together they hold at most ``history_bound`` (3) times
        the newest version's (its capacity buffers included).

        Capacity doubles an axis only when it runs out, so each buffer a
        lineage outgrows is at most half the next one, and all of them
        sum to less than the live one: history <= 2x live.  Copying every
        version instead would hold ~T^2/2 cells, ~3000x live here.
        Only numpy data is counted (tracemalloc's numpy domain): the
        per-version label dicts are copies by design, and holding 10^4
        of them would be quadratic, so the versions' arrays are kept
        instead of the graphs."""
        history_bound = 3
        nodes = ["a", "b", "c", "d"]
        pairs = [("a", "b"), ("b", "c"), ("c", "d")]
        updates = []
        for t in range(1, 10_001):
            present = [n for i, n in enumerate(nodes) if (t + i) % 3]
            updates.append(
                SnapshotUpdate(
                    time=t,
                    nodes={n: {"pubs": t % 5} for n in present},
                    edges=[(u, v) for u, v in pairs if u in present and v in present],
                )
            )
        tracemalloc.start()
        try:
            graph = graph_from_maps(
                times=[0],
                node_times={n: [0] for n in nodes},
                edge_times={("a", "b"): [0]},
                static={n: {"gender": "f"} for n in nodes},
                varying={n: {"pubs": {0: 1}} for n in nodes},
                storage="dense",
            )
            held = [_held_arrays(graph)]
            for i, update in enumerate(updates):
                graph = append_snapshot(graph, update)
                held.append(_held_arrays(graph))
                if i % 1000 == 0:
                    # Fail before a per-version copy could exhaust memory.
                    assert tracemalloc.get_traced_memory()[0] < 64 * 2**20
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        numpy_data = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)
        history = sum(t.size for t in snapshot.filter_traces([numpy_data]).traces)
        bases = {id(a.base): a.base for a in held[-1] if a.base is not None}
        live = sum(base.nbytes for base in bases.values())
        assert len(bases) == len(held[-1])
        assert history <= history_bound * live, (history, live)


class TestSessionStreaming:
    def test_append_refreshes_graph_and_cube(self, paper_graph):
        session = GraphTempoSession(paper_graph)
        before = session.cube
        session.append(make_update())
        assert session.graph.timeline.labels == ("t0", "t1", "t2", "t3")
        assert session.cube is not before
        agg = session.aggregate(["gender"], window=("t3",))
        assert agg.node_weight(("f",)) == 2  # u2 and the new u9

    def test_ingest_event_stream(self, paper_graph):
        session = GraphTempoSession(paper_graph)
        session.ingest(
            [
                NodeEvent("t3", "u2", attrs={"publications": 2}),
                NodeEvent("t3", "u9", static={"gender": "f"}),
                EdgeEvent("t3", ("u9", "u2")),
            ]
        )
        assert session.graph.node_times("u9") == ("t3",)
        assert session.stream.version == 1

    def test_stream_is_lazy_and_cached(self, paper_graph):
        session = GraphTempoSession(paper_graph)
        assert session._stream is None
        store = session.stream
        assert session.stream is store

    def test_aggregate_after_append_matches_direct(self, paper_graph):
        session = GraphTempoSession(paper_graph)
        session.append(make_update())
        direct = aggregate(
            session.graph, ["gender"], distinct=True, times=["t3"]
        )
        agg = session.aggregate(["gender"], window=("t3",))
        assert dict(agg.node_weights) == dict(direct.node_weights)
