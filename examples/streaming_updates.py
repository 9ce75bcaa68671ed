"""Streaming maintenance: a collaboration graph that grows year by year.

Simulates the production setting the materialization story targets: the
DBLP-like graph arrives one year at a time, a
:class:`~repro.streaming.StreamingStore` with an
:class:`~repro.streaming.AggregateTotalsView` registered keeps per-year
aggregates and running union totals current in O(new year), and each
tick the group explorer re-checks which collaboration groups crossed an
alert threshold.

Run with ``python examples/streaming_updates.py``.
"""

from repro.core import SnapshotUpdate, aggregate, union
from repro.datasets import generate_dblp
from repro.exploration import EventType, ExtendSide, Goal, explore_groups
from repro.streaming import AggregateTotalsView, StreamingStore


def snapshot_from_year(graph, year) -> SnapshotUpdate:
    """Re-package one year of an existing graph as a snapshot update."""
    nodes = {}
    for node in graph.nodes_at(year):
        nodes[node] = {
            "publications": graph.attribute_value(node, "publications", year)
        }
    static = {
        node: {"gender": graph.attribute_value(node, "gender")}
        for node in nodes
    }
    edges = list(graph.edges_at(year))
    return SnapshotUpdate(time=year, nodes=nodes, static=static, edges=edges)


def main() -> None:
    # The "full history" we will replay, year by year.
    history = generate_dblp(scale=0.03)
    years = history.timeline.labels
    warmup, live = years[:5], years[5:15]

    print(f"warm-up on {warmup[0]}..{warmup[-1]}, then stream {len(live)} years")
    base = union(history, warmup)  # the graph as known after the warm-up
    view = AggregateTotalsView([("gender",)])
    store = StreamingStore(base, views=[view])

    for year in live:
        store.append_snapshot(snapshot_from_year(history, year))
        totals = view.union_total(["gender"])
        direct = aggregate(
            union(store.graph, store.graph.timeline.labels),
            ["gender"],
            distinct=False,
        )
        consistent = dict(totals.node_weights) == dict(direct.node_weights)
        print(
            f"{year}: graph now {store.graph.n_nodes} nodes / "
            f"{store.graph.n_edges} edges; running totals "
            f"{dict(totals.node_weights)} (consistent: {consistent})"
        )
        break_alert = explore_groups(
            store.graph,
            EventType.GROWTH,
            Goal.MINIMAL,
            ExtendSide.NEW,
            k=25,
            attributes=["gender"],
        )
        hot = break_alert.interesting_groups[:2]
        if hot:
            print(f"   growth alerts (k=25): {list(hot)}")

    print(
        "\nEach tick aggregated only the new year and summed it into the "
        "running totals (T-distributivity, Section 4.3) — no full "
        "recomputation happened."
    )


if __name__ == "__main__":
    main()
