"""Tests for the benchmark's own helpers.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import pace  # noqa: E402
import queries  # noqa: E402
import report  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from repro.query.parser import parse  # noqa: E402
from repro.serving import normalize_query  # noqa: E402


# -- the percentile rule ------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [
        (10_000, 99.9),
        (9_999, 99.0),
        (1_000, 99.0),
        (999, 90.0),
        (100, 90.0),
        (99, 50.0),
        (20, 50.0),
        (19, None),
        (0, None),
    ],
)
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected


def test_min_samples_is_the_smallest_count_satisfying_the_rule():
    assert stats.min_samples(99.0) == 1000
    assert stats.min_samples(90.0) == 100
    for q in (99.0, 90.0):
        n = stats.min_samples(q)
        assert stats.beyond(n, q) == stats.TAIL_SAMPLES
        assert stats.beyond(n - 1, q) < stats.TAIL_SAMPLES


def test_nearest_rank_percentile_and_median():
    samples = list(range(100, 0, -1))  # 1..100, unsorted
    assert stats.percentile(samples, 50.0) == 50
    assert stats.percentile(samples, 99.0) == 99
    assert stats.percentile(samples, 100.0) == 100
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    assert stats.median([4.0, 1.0, 2.0, 3.0]) == 2.5
    with pytest.raises(ValueError):
        stats.percentile([], 50.0)


# -- self time on nested spans ------------------------------------------


def _nested() -> spans.SpanRecorder:
    recorder = spans.SpanRecorder()
    root = recorder.add("read", 0.0, 10.0, -1)
    child = recorder.add("serving.execute", 1.0, 5.0, root)
    recorder.add("aggregate", 2.0, 3.0, child)
    recorder.add("aggregate", 6.0, 8.0, root)
    second = recorder.add("append", 20.0, 24.0, -1)
    recorder.add("aggregate", 21.0, 22.0, second)
    return recorder


def test_self_time_subtracts_only_direct_children():
    assert spans.self_times(_nested()) == [4.0, 3.0, 1.0, 2.0, 3.0, 1.0]


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert spans.covered((0.0, 10.0), [(1.0, 4.0), (3.0, 6.0), (9.0, 12.0)]) == 6.0
    assert spans.covered((0.0, 10.0), [(2.0, 3.0), (2.0, 3.0)]) == 1.0
    assert spans.covered((5.0, 6.0), [(0.0, 1.0)]) == 0.0


def test_layer_totals_group_by_request_root():
    totals = spans.layer_totals(_nested())
    assert totals[("read", "aggregate")] == (2, 3.0)
    assert totals[("append", "aggregate")] == (1, 1.0)
    assert totals[("read", "read")] == (1, 4.0)
    assert totals[("read", "serving.execute")] == (1, 3.0)


def test_recorder_nests_open_spans_and_shares_request_ids():
    recorder = spans.SpanRecorder()
    outer = recorder.open("read")
    inner = recorder.open("serving.plan")
    recorder.close(inner)
    recorder.close(outer)
    other = recorder.open("read")
    recorder.close(other)
    assert list(recorder.parent) == [-1, outer, -1]
    assert list(recorder.request) == [0, 0, 1]
    assert all(end >= start for start, end in zip(recorder.start, recorder.end))


def test_instrument_restores_every_entry_point():
    before = [
        (owner, attribute, vars(owner).get(attribute))
        for owner, attribute, _ in spans.entry_points()
    ]
    recorder = spans.SpanRecorder()
    with spans.instrument(recorder):
        assert any(
            getattr(owner, attribute) is not original
            for owner, attribute, original in before
        )
    for owner, attribute, original in before:
        assert vars(owner).get(attribute) is original


# -- generators ---------------------------------------------------------


LABELS = tuple(range(2000, 2021))
ATTRS = ("gender", "publications")


def _take(stream, n=300):
    return [stream() for _ in range(n)]


def test_generators_repeat_for_the_same_seed():
    assert _take(queries.ColdQueries(LABELS, ATTRS, 5)) == _take(
        queries.ColdQueries(LABELS, ATTRS, 5)
    )
    assert _take(queries.ColdQueries(LABELS, ATTRS, 5)) != _take(
        queries.ColdQueries(LABELS, ATTRS, 6)
    )
    board = queries.hot_dashboard(LABELS, ATTRS, 5)
    assert board == queries.hot_dashboard(LABELS, ATTRS, 5)
    assert _take(queries.ZipfQueries(board, 5)) == _take(queries.ZipfQueries(board, 5))
    assert workloads.stream_config(5) == workloads.stream_config(5)


def test_hot_dashboard_is_distinct_with_commuted_twins():
    board = queries.hot_dashboard(LABELS, ATTRS, 3)
    assert len(board) == len(set(board)) == 48
    permuted = [i for i, text in enumerate(board) if "publications, gender" in text]
    assert permuted == list(queries.TWIN_RANKS)
    for rank in permuted:
        twin = board[rank].replace("publications, gender", "gender, publications")
        assert twin in board


def test_zipf_weights_are_skewed_toward_low_ranks():
    weights = queries.zipf_cum_weights(48)
    assert weights[0] == 1.0
    assert weights[1] - weights[0] > weights[47] - weights[46]


@pytest.fixture(scope="module")
def dblp():
    from repro.datasets import generate_dblp

    return generate_dblp(scale=workloads.DBLP_SCALE, seed=workloads.DBLP_SEED)


def test_every_serve_query_parses_and_binds(dblp):
    labels, names = dblp.timeline.labels, dblp.attribute_names
    texts = _take(queries.ColdQueries(labels, names, 1), 500)
    texts += list(queries.hot_dashboard(labels, names, 1))
    for text in texts:
        normalize_query(dblp, parse(text))


def test_every_stream_dashboard_query_parses_and_binds():
    state = workloads.setup_stream_explore(2)
    assert len(state.updates) == workloads.STREAM_APPENDS
    store, server, _, _ = workloads._open_store(state.prefix)
    with server:
        for update, dashboard in zip(state.updates, state.dashboards):
            store.append_snapshot(update)
            assert len(dashboard) == 14
            for text in dashboard:
                normalize_query(store.graph, parse(text))


def test_stream_follows_dblp_growth_stretched_over_the_timeline():
    from repro.datasets import dblp_config

    dblp = dblp_config(scale=workloads.DBLP_SCALE)
    config = workloads.stream_config(3)
    assert len(config.times) == workloads.STREAM_PREFIX + workloads.STREAM_APPENDS
    for stream, yearly in (
        (config.node_targets, dblp.node_targets),
        (config.edge_targets, dblp.edge_targets),
    ):
        assert (stream[0], stream[-1]) == (yearly[0], yearly[-1])
        assert min(yearly) <= min(stream) and max(stream) <= max(yearly)


def test_host_factor_is_the_mean_slice_over_the_reference():
    host = pace.Pace()
    host.slices.extend([pace.REFERENCE_SLICE_S] * 10 + [2 * pace.REFERENCE_SLICE_S] * 10)
    assert host.factor() == pytest.approx(1.5)
    with pytest.raises(ValueError):
        pace.Pace().factor()


def test_client_checks_a_repeated_result_again_after_forget():
    from repro.datasets import paper_example
    from repro.serving import QueryServer

    graph = paper_example()
    server = QueryServer(graph)
    text = "aggregate gender all over union [t0..t1]"
    client = workloads.Client()
    for _ in range(2):
        client.read(server, text)
        client.verify(lambda version: graph)
    assert client.checked == 1
    client.forget()
    client.read(server, text)
    client.verify(lambda version: graph)
    assert (client.checked, client.failures) == (2, 0)


# -- the benchmark definition -------------------------------------------


def test_benchmark_json_matches_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        report.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(report.PER_LAYER)
