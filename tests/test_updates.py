"""Tests for appending snapshots and incremental materialization."""

import pytest
from hypothesis import given, settings

from repro.core import (
    SnapshotUpdate,
    aggregate,
    append_snapshot,
    snapshot_at,
    split_history,
    union,
)
from repro.errors import MaterializationError, UnknownLabelError, ValidationError
from repro.streaming import AggregateTotalsView, StreamingStore
from repro.testing import (
    GraphSpec,
    assert_same_graph,
    random_temporal_graph,
    temporal_graphs,
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


class TestAppendSnapshot:
    def test_timeline_extended(self, paper_graph):
        extended = append_snapshot(paper_graph, make_update())
        assert extended.timeline.labels == ("t0", "t1", "t2", "t3")

    def test_original_untouched(self, paper_graph):
        append_snapshot(paper_graph, make_update())
        assert len(paper_graph.timeline) == 3
        assert "u9" not in paper_graph.nodes

    def test_new_node_added(self, paper_graph):
        extended = append_snapshot(paper_graph, make_update())
        assert "u9" in extended.nodes
        assert extended.attribute_value("u9", "gender") == "f"
        assert extended.node_times("u9") == ("t3",)

    def test_returning_node(self, paper_graph):
        extended = append_snapshot(paper_graph, make_update())
        # u5 existed at t2, returns at t3.
        assert extended.node_times("u5") == ("t2", "t3")
        assert extended.attribute_value("u5", "publications", "t3") == 1

    def test_absent_node_stays_absent(self, paper_graph):
        extended = append_snapshot(paper_graph, make_update())
        assert extended.node_times("u1") == ("t0", "t1")
        assert extended.attribute_value("u1", "publications", "t3") is None

    def test_existing_edge_extended(self, paper_graph):
        extended = append_snapshot(paper_graph, make_update())
        # (u5, u2) already existed at t2.
        assert extended.edge_times(("u5", "u2")) == ("t2", "t3")

    def test_new_edge_added(self, paper_graph):
        extended = append_snapshot(paper_graph, make_update())
        assert extended.edge_times(("u9", "u2")) == ("t3",)

    def test_duplicate_time_rejected(self, paper_graph):
        with pytest.raises(ValueError):
            append_snapshot(
                paper_graph, SnapshotUpdate(time="t2", nodes={})
            )

    def test_edge_endpoint_missing_from_snapshot(self, paper_graph):
        update = SnapshotUpdate(
            time="t3", nodes={"u2": {}}, edges=[("u2", "u4")]
        )
        with pytest.raises(ValueError):
            append_snapshot(paper_graph, update)

    def test_unknown_varying_attribute(self, paper_graph):
        update = SnapshotUpdate(time="t3", nodes={"u2": {"citations": 9}})
        with pytest.raises(KeyError):
            append_snapshot(paper_graph, update)

    def test_unknown_static_attribute(self, paper_graph):
        update = SnapshotUpdate(
            time="t3", nodes={"zz": {}}, static={"zz": {"height": 3}}
        )
        with pytest.raises(KeyError):
            append_snapshot(paper_graph, update)

    def test_appended_graph_supports_operators(self, paper_graph):
        extended = append_snapshot(paper_graph, make_update())
        agg = aggregate(
            union(extended, ["t2"], ["t3"]), ["gender"], distinct=True
        )
        assert agg.node_weight(("f",)) == 3  # u2, u4, u9

    def test_chained_appends(self, paper_graph):
        extended = append_snapshot(paper_graph, make_update("t3"))
        extended = append_snapshot(
            extended,
            SnapshotUpdate(time="t4", nodes={"u9": {"publications": 5}}),
        )
        assert extended.node_times("u9") == ("t3", "t4")

    def test_empty_update_extends_timeline_only(self, paper_graph):
        extended = append_snapshot(
            paper_graph, SnapshotUpdate(time="t3", nodes={})
        )
        assert extended.timeline.labels == ("t0", "t1", "t2", "t3")
        assert extended.nodes_at("t3") == ()
        assert extended.edges_at("t3") == ()
        # Aggregating the empty snapshot rolls up to nothing, not an error.
        agg = aggregate(extended, ["gender"], distinct=True, times=["t3"])
        assert dict(agg.node_weights) == {}


class TestSnapshotAt:
    def test_unknown_timepoint_rejected(self, paper_graph):
        with pytest.raises(UnknownLabelError):
            snapshot_at(paper_graph, "t9")

    def test_round_trip_through_append(self, paper_graph):
        # Rebuilding t2 from its own snapshot reproduces the original.
        update = snapshot_at(paper_graph, "t2")
        assert update.time == "t2"
        truncated = paper_graph.restricted(
            paper_graph.node_presence.rows_any(["t0", "t1"]),
            paper_graph.edge_presence.rows_any(["t0", "t1"]),
            ["t0", "t1"],
        )
        rebuilt = append_snapshot(truncated, update)
        assert rebuilt.nodes_at("t2") == paper_graph.nodes_at("t2")
        assert rebuilt.edges_at("t2") == paper_graph.edges_at("t2")

    def test_snapshot_carries_varying_values(self, paper_graph):
        update = snapshot_at(paper_graph, "t0")
        assert update.nodes["u1"]["publications"] == 3


class TestSplitHistory:
    def test_replay_reconstructs_graph(self, paper_graph):
        initial, updates = split_history(paper_graph)
        assert initial.timeline.labels == ("t0",)
        assert [u.time for u in updates] == ["t1", "t2"]
        rebuilt = initial
        for update in updates:
            rebuilt = append_snapshot(rebuilt, update)
        assert_same_graph(rebuilt, paper_graph)

    def test_replay_reconstructs_synthetic(self, tiny_graph):
        initial, updates = split_history(tiny_graph)
        rebuilt = initial
        for update in updates:
            rebuilt = append_snapshot(rebuilt, update)
        assert_same_graph(rebuilt, tiny_graph)

    def test_incremental_store_from_history(self, paper_graph):
        totals = AggregateTotalsView([("gender",)])
        StreamingStore.from_history(paper_graph, views=[totals])
        direct = aggregate(paper_graph, ["gender"], distinct=False)
        assert dict(totals.union_total(["gender"]).node_weights) == dict(
            direct.node_weights
        )


def tracked_store(graph, *tracked):
    """A streaming store over ``graph`` with one totals view registered."""
    totals = AggregateTotalsView(tracked)
    return StreamingStore(graph, views=[totals]), totals


class TestAggregateTotalsView:
    def test_initial_totals(self, paper_graph):
        _, totals = tracked_store(paper_graph, ("gender",))
        direct = aggregate(paper_graph, ["gender"], distinct=False)
        assert dict(totals.union_total(["gender"]).node_weights) == dict(
            direct.node_weights
        )

    def test_append_updates_totals(self, paper_graph):
        store, totals = tracked_store(paper_graph, ("gender",))
        store.append_snapshot(make_update())
        direct = aggregate(store.graph, ["gender"], distinct=False)
        assert dict(totals.union_total(["gender"]).node_weights) == dict(
            direct.node_weights
        )
        assert dict(totals.union_total(["gender"]).edge_weights) == dict(
            direct.edge_weights
        )

    def test_multiple_tracked_sets(self, paper_graph):
        store, totals = tracked_store(
            paper_graph, ("gender",), ("publications",)
        )
        store.append_snapshot(make_update())
        for attrs in (["gender"], ["publications"]):
            direct = aggregate(store.graph, attrs, distinct=False)
            assert dict(totals.union_total(attrs).node_weights) == dict(
                direct.node_weights
            )

    def test_timepoint_access(self, paper_graph):
        store, totals = tracked_store(paper_graph, ("gender",))
        store.append_snapshot(make_update())
        point = totals.timepoint_aggregate(["gender"], 3)
        direct = aggregate(store.graph, ["gender"], distinct=False, times=["t3"])
        assert dict(point.node_weights) == dict(direct.node_weights)

    def test_untracked_rejected(self, paper_graph):
        _, totals = tracked_store(paper_graph, ("gender",))
        with pytest.raises(UnknownLabelError):
            totals.union_total(["publications"])

    def test_duplicate_tracked_rejected(self):
        with pytest.raises(MaterializationError):
            AggregateTotalsView([("gender",), ("gender",)])

    def test_graph_property_tracks_appends(self, paper_graph):
        store, _ = tracked_store(paper_graph, ("gender",))
        assert store.graph is paper_graph
        extended = store.append_snapshot(make_update())
        assert store.graph is extended.graph


class TestSnapshotUpdateFrozen:
    def test_generator_edges_survive_replay(self, paper_graph):
        """Regression: edges passed as a generator used to be consumed on
        the first append, silently dropping every edge from a replay."""
        update = SnapshotUpdate(
            time="t3",
            nodes={"u2": {"publications": 2}, "u5": {"publications": 1}},
            edges=(e for e in [("u5", "u2")]),
        )
        first = append_snapshot(paper_graph, update)
        second = append_snapshot(paper_graph, update)
        assert first.edge_times(("u5", "u2")) == ("t2", "t3")
        assert_same_graph(first, second)

    def test_edges_frozen_to_tuple(self):
        update = SnapshotUpdate(time="t0", nodes={"a": {}}, edges=iter(()))
        assert update.edges == ()
        assert isinstance(update.edges, tuple)

    def test_mappings_are_owned_copies(self):
        nodes = {"a": {"publications": 1}}
        static = {"a": {"gender": "f"}}
        update = SnapshotUpdate(time="t0", nodes=nodes, static=static)
        nodes["b"] = {}
        static["a"]["gender"] = "m"
        assert set(update.nodes) == {"a"}
        assert update.static["a"]["gender"] == "f"

    def test_update_is_picklable(self):
        import pickle

        update = make_update()
        clone = pickle.loads(pickle.dumps(update))
        assert clone == update


class TestUniformAttributeValidation:
    def test_unknown_static_name_for_known_node(self, paper_graph):
        """Regression: unknown static names were only validated for
        first-appearance nodes; for known nodes they passed silently."""
        update = SnapshotUpdate(
            time="t3", nodes={"u2": {}}, static={"u2": {"height": 180}}
        )
        with pytest.raises(UnknownLabelError):
            append_snapshot(paper_graph, update)

    def test_known_static_name_for_known_node_ignored(self, paper_graph):
        # Valid names on known nodes stay accepted (values ignored:
        # static attributes cannot change).
        update = SnapshotUpdate(
            time="t3", nodes={"u2": {}}, static={"u2": {"gender": "m"}}
        )
        extended = append_snapshot(paper_graph, update)
        assert extended.attribute_value("u2", "gender") == "f"

    def test_edge_attrs_rejected_without_edge_attr_frame(self, paper_graph):
        # paper_graph has no edge attributes: any supplied name is unknown.
        update = SnapshotUpdate(
            time="t3",
            nodes={"u2": {}, "u5": {}},
            edges=[("u5", "u2")],
            edge_attrs={("u5", "u2"): {"papers": 1}},
        )
        with pytest.raises(UnknownLabelError):
            append_snapshot(paper_graph, update)


class TestReplayRoundTripProperties:
    @settings(max_examples=40, deadline=None)
    @given(graph=temporal_graphs())
    def test_split_replay_identity(self, graph):
        """split_history ∘ replay == identity, for arbitrary well-formed
        graphs; replaying the same updates twice stays identical (the
        frozen-update guarantee)."""
        initial, updates = split_history(graph)
        first = initial
        for update in updates:
            first = append_snapshot(first, update)
        assert_same_graph(first, graph)
        second = initial
        for update in updates:
            second = append_snapshot(second, update)
        assert_same_graph(second, first)

    @pytest.mark.parametrize("seed", range(6))
    def test_hostile_graphs_replay_or_reject(self, seed):
        """Dangling-edge (hostile) graphs never replay into something
        different: the replay either reconstructs the graph or fails
        from the taxonomy when a snapshot references a ghost endpoint."""
        graph = random_temporal_graph(
            GraphSpec(n_times=4, n_nodes=8, dangling_edges=2), seed=seed
        )
        initial, updates = split_history(graph)
        rebuilt = initial
        try:
            for update in updates:
                rebuilt = append_snapshot(rebuilt, update)
        except ValidationError:
            return
        assert_same_graph(rebuilt, graph)
