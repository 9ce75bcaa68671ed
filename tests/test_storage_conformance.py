"""Backend-parity conformance suite for :mod:`repro.storage`.

Every registered storage backend must be observably interchangeable:
same aggregates, same exploration results (pairs *and* evaluation
counts), same presence masks bit for bit, same taxonomy errors on
hostile graphs.  The suite drives each backend through:

* the registry/selection contract (``register_backend``,
  ``resolve_backend_name``, the ``REPRO_STORAGE_BACKEND`` env default);
* all eight Table-1 exploration cases against the dense baseline;
* every registered fuzz law, replayed on backend-pinned graphs;
* ``EventCounter`` event-mask bit-equality for every event type;
* streaming replay identity (``StreamingStore.from_history``) with the
  backend selection surviving each append;
* error-taxonomy parity on hostile graphs (dangling edges);
* hypothesis round-trip properties: ``frames -> backend -> to_frames``
  is the identity, and ``slice_time`` agrees with dense slicing.

The ``backend-storage`` differential law in ``repro.testing.oracle``
re-checks the same parity continuously under ``repro fuzz``.
"""

from __future__ import annotations

import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tests.conftest import TEST_SEED, make_tiny_graph
from repro.core import Interval, aggregate, presence_signature
from repro.diagnostics import check_graph
from repro.errors import (
    AggregationError,
    GraphTempoError,
    LabelError,
    StorageError,
)
from repro.exploration import EntityKind, EventType, ExtendSide, Goal, explore
from repro.exploration.events import EventCounter
from repro.exploration.lattice import Semantics, Side
from repro.session import GraphTempoSession
from repro.storage import (
    ENV_BACKEND,
    ColumnarBackend,
    DenseBackend,
    GraphStorageBackend,
    backend_names,
    frames_of,
    get_backend,
    register_backend,
    resolve_backend_name,
)
from repro.streaming import StreamingStore
from repro.testing import (
    GraphSpec,
    law_registry,
    random_temporal_graph,
    temporal_graphs,
)

BACKENDS = tuple(sorted(backend_names()))
ALL_CASES = tuple(itertools.product(EventType, Goal, ExtendSide))
LAW_NAMES = tuple(law_registry())


def pinned(graph, backend: str):
    """The same graph rebuilt through ``backend`` (storage attached)."""
    return get_backend(backend).from_graph(graph).to_graph()


def assert_frames_equal(actual, reference):
    """Frame-level observable equality (presence compared as booleans —
    backends may normalize presence counts to 0/1)."""
    assert actual.times == reference.times
    for entity in ("node_presence", "edge_presence"):
        left = getattr(actual, entity)
        right = getattr(reference, entity)
        assert left.row_labels == right.row_labels
        assert left.col_labels == right.col_labels
        assert np.array_equal(
            left.values.astype(bool), right.values.astype(bool)
        )
    assert actual.static_attrs == reference.static_attrs
    assert set(actual.varying_attrs) == set(reference.varying_attrs)
    for name, frame in reference.varying_attrs.items():
        assert actual.varying_attrs[name] == frame
    if reference.edge_attrs is None:
        assert actual.edge_attrs is None
    else:
        assert actual.edge_attrs == reference.edge_attrs


@pytest.fixture(scope="module")
def graph():
    return make_tiny_graph(seed=29 + TEST_SEED, n_times=7)


# ----------------------------------------------------------------------
# Registry and selection contract
# ----------------------------------------------------------------------


def test_both_backends_registered():
    assert {"dense", "columnar"} <= set(BACKENDS)
    assert get_backend("dense") is DenseBackend
    assert get_backend("columnar") is ColumnarBackend


def test_unknown_backend_rejected():
    with pytest.raises(StorageError, match="columnar"):
        get_backend("nonexistent")
    with pytest.raises(StorageError):
        resolve_backend_name("nonexistent")


def test_duplicate_registration_rejected():
    with pytest.raises(StorageError, match="already registered"):

        @register_backend
        class ShadowDense(DenseBackend):  # pragma: no cover - never used
            name = "dense"


def test_resolution_defaults_to_dense(monkeypatch):
    monkeypatch.delenv(ENV_BACKEND, raising=False)
    assert resolve_backend_name(None) == "dense"
    assert resolve_backend_name("columnar") == "columnar"


def test_env_var_sets_the_default_backend(monkeypatch, graph):
    monkeypatch.setenv(ENV_BACKEND, "columnar")
    fresh = make_tiny_graph(seed=29 + TEST_SEED, n_times=3)
    assert fresh.storage.name == "columnar"
    assert isinstance(fresh.storage, ColumnarBackend)
    # An explicit selection always beats the env default.
    assert fresh.with_storage("dense").storage.name == "dense"


def test_invalid_env_value_raises(monkeypatch):
    monkeypatch.setenv(ENV_BACKEND, "bogus")
    fresh = make_tiny_graph(seed=29 + TEST_SEED, n_times=3)
    with pytest.raises(StorageError):
        fresh.storage


@pytest.mark.parametrize("backend", BACKENDS)
def test_with_storage_pins_without_mutating(graph, backend):
    variant = graph.with_storage(backend)
    assert variant is not graph
    assert variant.storage_name == backend
    assert variant.storage.name == backend
    assert isinstance(variant.storage, GraphStorageBackend)


@pytest.mark.parametrize("backend", BACKENDS)
def test_restriction_propagates_the_selection(graph, backend):
    variant = graph.with_storage(backend)
    window = list(graph.timeline.labels[:3])
    sub = variant.restricted(
        variant.node_presence.rows_any(window),
        variant.edge_presence.rows_any(window),
        window,
    )
    assert sub.storage_name == backend


def test_session_pins_every_adopted_graph(graph):
    dense = GraphTempoSession(graph)
    columnar = GraphTempoSession(graph, storage="columnar")
    assert columnar.graph.storage.name == "columnar"
    window = tuple(graph.timeline.labels[:2])
    assert (
        dense.aggregate(["color"], window=window)
        .diff(columnar.aggregate(["color"], window=window))
        == ()
    )


# ----------------------------------------------------------------------
# Mask semantics: bit-equality, duplicates, empty/unknown windows
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("entity", ["nodes", "edges"])
@pytest.mark.parametrize("mode", ["any", "all", "none"])
def test_presence_mask_bit_equality(graph, backend, entity, mode):
    variant = pinned(graph, backend)
    labels = graph.timeline.labels
    windows = [
        list(labels),
        list(labels[:1]),
        list(labels[2:5]),
        [labels[0], labels[0], labels[3]],  # duplicates reduce as a set
    ]
    for window in windows:
        expected = graph.presence_mask(entity, window, mode)
        actual = variant.presence_mask(entity, window, mode)
        assert np.array_equal(expected, actual), (backend, mode, window)
    assert np.array_equal(
        graph.presence_mask(entity, None, mode),
        variant.presence_mask(entity, None, mode),
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_empty_window_masks_are_vacuous(graph, backend):
    storage = get_backend(backend).from_graph(graph)
    n = len(storage.node_labels)
    assert not storage.presence_mask("nodes", [], "any").any()
    assert storage.presence_mask("nodes", [], "all").sum() == n
    assert storage.presence_mask("nodes", [], "none").sum() == n


@pytest.mark.parametrize("backend", BACKENDS)
def test_unknown_window_label_raises(graph, backend):
    storage = get_backend(backend).from_graph(graph)
    with pytest.raises(LabelError):
        storage.presence_mask("nodes", ["no-such-time"])


@pytest.mark.parametrize("backend", BACKENDS)
def test_unknown_mask_mode_raises(graph, backend):
    storage = get_backend(backend).from_graph(graph)
    with pytest.raises(StorageError, match="mode"):
        storage.presence_mask("nodes", None, "sometimes")


@pytest.mark.parametrize("backend", BACKENDS)
def test_attribute_column_contract(graph, backend):
    storage = get_backend(backend).from_graph(graph)
    static = storage.attribute_column("color")
    assert list(static) == list(graph.static_attrs.column("color"))
    t = graph.timeline.labels[1]
    varying = storage.attribute_column("level", t)
    assert list(varying) == list(graph.varying_attrs["level"].column(t))
    with pytest.raises(LabelError):
        storage.attribute_column("no-such-attribute")
    with pytest.raises(StorageError):
        storage.attribute_column("level")  # varying needs a time point
    with pytest.raises(StorageError):
        storage.attribute_column("color", t)  # static must not take one


# ----------------------------------------------------------------------
# Table-1 exploration cases against the dense baseline
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "event,goal,extend",
    ALL_CASES,
    ids=[f"{e}-{g}-{x}" for e, g, x in ALL_CASES],
)
def test_table1_cases_agree(graph, backend, event, goal, extend):
    baseline = explore(graph, event, goal, extend, 1)
    variant = explore(pinned(graph, backend), event, goal, extend, 1)
    assert baseline.diff(variant) == ()
    assert baseline.pairs == variant.pairs
    assert baseline.evaluations == variant.evaluations


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("distinct", [True, False])
@pytest.mark.parametrize(
    "attributes",
    [["color"], ["level"], ["color", "level"]],
    ids=["static", "varying", "mixed"],
)
def test_aggregation_agrees(graph, backend, attributes, distinct):
    baseline = aggregate(graph, attributes, distinct=distinct)
    variant = aggregate(pinned(graph, backend), attributes, distinct=distinct)
    assert baseline.diff(variant) == ()
    assert variant.diff(baseline) == ()


# ----------------------------------------------------------------------
# Exploration event masks: bit-equality per event type
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("entity", list(EntityKind), ids=str)
def test_event_masks_bit_equal(graph, backend, entity):
    baseline = EventCounter(graph, entity)
    variant = EventCounter(pinned(graph, backend), entity)
    n = len(graph.timeline)
    sides = [Side.point(i) for i in range(n)]
    sides.append(Side(Interval(0, 2), Semantics.UNION))
    sides.append(Side(Interval(0, 2), Semantics.INTERSECTION))
    sides.append(Side(Interval(n - 3, n - 1), Semantics.UNION))
    for event in EventType:
        for old, new in itertools.combinations(sides, 2):
            expected = baseline.event_mask(event, old, new)
            actual = variant.event_mask(event, old, new)
            assert np.array_equal(expected, actual), (event, old, new)


# ----------------------------------------------------------------------
# Every registered fuzz law on backend-pinned graphs
# ----------------------------------------------------------------------


@pytest.mark.fuzz
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("law_name", LAW_NAMES)
def test_laws_hold_on_backend_pinned_graphs(test_seed, backend, law_name):
    law = law_registry()[law_name]
    for case in range(2):
        seed = test_seed + 1000 * case
        spec = GraphSpec() if law.hostile_safe and case else GraphSpec(
            n_times=5, n_nodes=5
        )
        candidate = pinned(random_temporal_graph(spec, seed=seed), backend)
        rng = np.random.default_rng(seed)
        try:
            problem = law.check(candidate, rng)
        except GraphTempoError:
            # Some laws legitimately raise on pathological picks; parity
            # with the dense path is what matters and is asserted by the
            # ``backend-storage`` law under ``repro fuzz``.
            continue
        assert problem is None, f"{law_name} on {backend}: {problem}"


# ----------------------------------------------------------------------
# Streaming replay identity
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_streaming_replay_identity(graph, backend):
    source = pinned(graph, backend)
    store = StreamingStore.from_history(source)
    replayed = store.graph
    assert replayed.timeline.labels == source.timeline.labels
    assert presence_signature(replayed) == presence_signature(source)
    # The backend *selection* survives every append along the replay.
    assert replayed.storage_name == backend
    assert replayed.storage.name == backend
    baseline = aggregate(source, ["color"], distinct=True)
    assert baseline.diff(aggregate(replayed, ["color"], distinct=True)) == ()


# ----------------------------------------------------------------------
# Hostile graphs: identical taxonomy errors, diagnostics name the backend
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_hostile_graph_error_parity(test_seed, backend):
    hostile = random_temporal_graph(
        GraphSpec(dangling_edges=2), seed=test_seed
    )
    with pytest.raises(AggregationError) as dense_err:
        aggregate(hostile.with_storage("dense"), ["gender"])
    with pytest.raises(AggregationError) as variant_err:
        aggregate(pinned(hostile, backend), ["gender"])
    assert type(dense_err.value).__name__ == type(variant_err.value).__name__


@pytest.mark.parametrize("backend", BACKENDS)
def test_diagnostics_report_the_backend(test_seed, backend):
    hostile = random_temporal_graph(
        GraphSpec(dangling_edges=2), seed=test_seed
    ).with_storage(backend)
    findings = check_graph(hostile)
    dangling = [f for f in findings if f.code == "dangling-edge"]
    assert len(dangling) == 1
    assert repr(backend) in dangling[0].message


@pytest.mark.parametrize("backend", BACKENDS)
def test_adjacency_scan_never_raises_on_hostile_graphs(test_seed, backend):
    hostile = random_temporal_graph(
        GraphSpec(dangling_edges=3), seed=test_seed
    )
    storage = get_backend(backend).from_graph(hostile)
    rows = list(storage.adjacency_scan())
    assert len(rows) == len(hostile.edge_presence.row_labels)
    assert sum(1 for _, u, v in rows if u < 0 or v < 0) >= 3


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("dangling", [0, 3], ids=["clean", "dangling"])
def test_edge_endpoint_rows_agree_with_dense(test_seed, backend, dangling):
    source = random_temporal_graph(
        GraphSpec(dangling_edges=dangling), seed=test_seed
    )
    expected = DenseBackend.from_graph(source).edge_endpoint_rows()
    storage = get_backend(backend).from_graph(source)
    sources, targets = storage.edge_endpoint_rows()
    assert np.array_equal(sources, expected[0])
    assert np.array_equal(targets, expected[1])
    node_labels = storage.node_labels
    for (u, v), u_row, v_row in zip(storage.edge_labels, sources, targets):
        assert u_row == -1 if u not in node_labels else node_labels[u_row] == u
        assert v_row == -1 if v not in node_labels else node_labels[v_row] == v
    assert int(((sources < 0) | (targets < 0)).sum()) == dangling
    # Shared, read-only and computed once per backend instance.
    assert np.shares_memory(storage.edge_endpoint_rows()[0], sources)
    with pytest.raises(ValueError):
        sources[:1] = 0
    assert list(storage.adjacency_scan()) == list(
        zip(storage.edge_labels, sources.tolist(), targets.tolist())
    )


def test_memmapped_edge_endpoint_rows_agree_with_dense(graph, tmp_path):
    expected = DenseBackend.from_graph(graph).edge_endpoint_rows()
    target = ColumnarBackend.from_graph(graph).save(tmp_path / "graph.columnar")
    mapped = ColumnarBackend.open(target, mmap=True)
    assert mapped.is_memmapped
    sources, targets = mapped.edge_endpoint_rows()
    assert np.array_equal(sources, expected[0])
    assert np.array_equal(targets, expected[1])


# ----------------------------------------------------------------------
# Time-major presence bits
# ----------------------------------------------------------------------

BITS_LAYOUTS = BACKENDS + ("columnar-memmap",)


def _bits_storage(source, layout, tmp_path):
    if layout == "columnar-memmap":
        target = ColumnarBackend.from_graph(source).save(tmp_path / "bits")
        return ColumnarBackend.open(target, mmap=True)
    return get_backend(layout).from_graph(source)


def _assert_bits_contract(storage, entity):
    matrix = storage.presence_matrix(entity)
    n_entities, n_times = matrix.shape
    bits = storage.presence_bits(entity)
    n_words = -(-n_entities // 64)
    assert bits.dtype == np.uint64
    assert bits.shape == (n_times, n_words)
    assert not bits.flags.writeable
    with pytest.raises(ValueError):
        bits[...] = 0
    assert storage.presence_bits(entity) is bits
    as_bytes = bits.view(np.uint8)
    n_bytes = -(-n_entities // 8)
    expected = np.packbits(matrix.T, axis=1, bitorder="little")
    assert np.array_equal(as_bytes[:, :n_bytes], expected)
    # Padding bits past the last entity are zero, in the last partial
    # byte and in every byte after it.
    unpacked = np.unpackbits(as_bytes, axis=1, bitorder="little")
    assert not unpacked[:, n_entities:].any()
    assert np.array_equal(unpacked[:, :n_entities].astype(bool), matrix.T)
    return bits


@pytest.mark.parametrize("layout", BITS_LAYOUTS)
@pytest.mark.parametrize("entity", ["nodes", "edges"])
def test_presence_bits_contract(test_seed, layout, entity, tmp_path):
    # 70 nodes (and, almost surely, an edge count off the 64 grid):
    # the last word carries padding bits.
    source = random_temporal_graph(
        GraphSpec(n_nodes=70, n_times=5), seed=test_seed
    )
    storage = _bits_storage(source, layout, tmp_path)
    bits = _assert_bits_contract(storage, entity)
    dense = DenseBackend.from_graph(source).presence_bits(entity)
    assert np.array_equal(bits, dense)
    # A pool worker's unpickled copy serves the same read-only bits.
    clone = pickle.loads(pickle.dumps(storage))
    assert np.array_equal(_assert_bits_contract(clone, entity), bits)


@pytest.mark.parametrize("layout", BITS_LAYOUTS)
@pytest.mark.parametrize("axis", ["nodes", "edges"])
def test_presence_bits_on_empty_axes(graph, layout, axis, tmp_path):
    empty = graph.restricted(
        () if axis == "nodes" else graph.nodes,
        () if axis == "edges" else graph.edges,
        graph.timeline.labels,
    )
    storage = _bits_storage(empty, layout, tmp_path)
    for entity in ("nodes", "edges"):
        bits = _assert_bits_contract(storage, entity)
        if entity == axis:
            assert bits.shape == (len(graph.timeline), 0)


@pytest.mark.parametrize("backend", BACKENDS)
def test_presence_bits_reject_unknown_entity(graph, backend):
    with pytest.raises(StorageError):
        get_backend(backend).from_graph(graph).presence_bits("faces")


# ----------------------------------------------------------------------
# Hypothesis round-trip properties
# ----------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(temporal_graphs())
def test_frames_roundtrip_is_identity(source):
    reference = frames_of(source)
    for backend in BACKENDS:
        storage = get_backend(backend).from_graph(source)
        assert_frames_equal(storage.to_frames(), reference)
        assert presence_signature(storage.to_graph()) == presence_signature(
            source
        )


@st.composite
def graph_and_window(draw):
    source = draw(temporal_graphs())
    labels = source.timeline.labels
    size = draw(st.integers(1, len(labels)))
    start = draw(st.integers(0, len(labels) - size))
    return source, labels[start : start + size]


@settings(max_examples=40, deadline=None)
@given(graph_and_window())
def test_slice_time_matches_dense_slicing(data):
    source, window = data
    reference = DenseBackend.from_graph(source).slice_time(window).to_frames()
    for backend in BACKENDS:
        sliced = get_backend(backend).from_graph(source).slice_time(window)
        assert tuple(sliced.times) == tuple(window)
        assert_frames_equal(sliced.to_frames(), reference)


@settings(max_examples=25, deadline=None)
@given(temporal_graphs())
def test_masks_agree_on_arbitrary_graphs(source):
    window = list(source.timeline.labels[:2])
    for entity in ("nodes", "edges"):
        for mode in ("any", "all", "none"):
            reference = source.presence_mask(entity, window, mode)
            for backend in BACKENDS:
                storage = get_backend(backend).from_graph(source)
                assert np.array_equal(
                    storage.presence_mask(entity, window, mode), reference
                )
