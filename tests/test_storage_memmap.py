"""On-disk persistence for the columnar backend (``np.memmap``).

``ColumnarBackend.save`` writes a versioned directory layout (one
``.npy`` per numeric array plus a pickled sidecar for labels and object
pools); ``ColumnarBackend.open`` maps it back read-only.  The tests
cover the full persistence contract:

* write / reopen round-trip (mapped and eagerly loaded) is bit-exact;
* mapped arrays are genuine read-only memmaps — mutation raises;
* corrupt or version-skewed layouts fail from the GT003 taxonomy
  (:class:`~repro.errors.StorageError`), never a bare ``OSError``;
* a memmapped backend pickles as its *path* and reopens on the other
  side, so a copy maps the same pages instead of carrying the arrays;
* aggregation and exploration over a memmapped graph match the
  in-memory graph bit for bit.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from tests.conftest import TEST_SEED, make_tiny_graph
from repro.core import aggregate, presence_signature
from repro.errors import StorageError
from repro.exploration import EventType, ExtendSide, Goal, explore
from repro.storage import ColumnarBackend, frames_of


@pytest.fixture(scope="module")
def graph():
    return make_tiny_graph(seed=41 + TEST_SEED, n_times=6)


@pytest.fixture()
def saved(graph, tmp_path):
    """A saved columnar layout and the in-memory backend it came from."""
    backend = ColumnarBackend.from_graph(graph)
    target = backend.save(tmp_path / "graph.columnar")
    return backend, target


def test_save_writes_a_versioned_layout(saved):
    _, target = saved
    assert (target / "meta.pkl").is_file()
    assert (target / "node_packed.npy").is_file()
    assert (target / "src_rows.npy").is_file()


@pytest.mark.parametrize("mmap", [True, False], ids=["mapped", "eager"])
def test_reopen_roundtrip_is_bit_exact(graph, saved, mmap):
    backend, target = saved
    reopened = ColumnarBackend.open(target, mmap=mmap)
    assert reopened.is_memmapped is mmap
    assert (reopened.path is not None) and str(target) == reopened.path
    assert backend.times == reopened.times
    assert backend.node_labels == reopened.node_labels
    assert backend.edge_labels == reopened.edge_labels
    reference = frames_of(graph)
    frames = reopened.to_frames()
    assert np.array_equal(
        frames.node_presence.values.astype(bool),
        reference.node_presence.values.astype(bool),
    )
    assert frames.static_attrs == reference.static_attrs
    for name, frame in reference.varying_attrs.items():
        assert frames.varying_attrs[name] == frame
    assert presence_signature(reopened.to_graph()) == presence_signature(graph)


def test_mapped_arrays_reject_mutation(graph, saved):
    _, target = saved
    reopened = ColumnarBackend.open(target)
    matrix = reopened.presence_matrix("nodes")  # a copy: writable is fine
    assert matrix.flags.writeable
    for array in reopened._numeric_arrays().values():
        assert not array.flags.writeable
        with pytest.raises((ValueError, RuntimeError)):
            array[(0,) * array.ndim] = 1


def test_masks_match_in_memory_backend(graph, saved):
    backend, target = saved
    reopened = ColumnarBackend.open(target)
    window = list(graph.timeline.labels[1:4])
    for entity in ("nodes", "edges"):
        for mode in ("any", "all", "none"):
            assert np.array_equal(
                backend.presence_mask(entity, window, mode),
                reopened.presence_mask(entity, window, mode),
            )


def test_missing_layout_raises_storage_error(tmp_path):
    with pytest.raises(StorageError, match="cannot open"):
        ColumnarBackend.open(tmp_path / "nowhere")


def test_version_skew_raises_storage_error(saved):
    _, target = saved
    meta = pickle.loads((target / "meta.pkl").read_bytes())
    meta["layout_version"] = 999
    (target / "meta.pkl").write_bytes(pickle.dumps(meta))
    with pytest.raises(StorageError, match="version"):
        ColumnarBackend.open(target)


def test_corrupt_array_raises_storage_error(saved):
    _, target = saved
    (target / "node_packed.npy").write_bytes(b"not an npy file")
    with pytest.raises(StorageError, match="node_packed"):
        ColumnarBackend.open(target)


def test_memmapped_backend_pickles_as_its_path(saved):
    _, target = saved
    reopened = ColumnarBackend.open(target)
    payload = pickle.dumps(reopened)
    # The wire format carries the directory path, not the arrays.
    assert len(payload) < 1024
    clone = pickle.loads(payload)
    assert clone.is_memmapped
    assert clone.path == reopened.path
    assert np.array_equal(
        clone.presence_matrix("nodes"), reopened.presence_matrix("nodes")
    )


def test_in_memory_backend_pickles_by_value(graph):
    backend = ColumnarBackend.from_graph(graph)
    clone = pickle.loads(pickle.dumps(backend))
    assert clone.path is None
    assert np.array_equal(
        clone.presence_matrix("edges"), backend.presence_matrix("edges")
    )


def test_memmapped_graph_matches_in_memory_results(graph, saved):
    _, target = saved
    mapped = ColumnarBackend.open(target).to_graph()
    for distinct in (True, False):
        in_memory = aggregate(graph, ["color", "level"], distinct=distinct)
        from_disk = aggregate(mapped, ["color", "level"], distinct=distinct)
        assert in_memory.diff(from_disk) == ()
    baseline = explore(graph, EventType.GROWTH, Goal.MINIMAL, ExtendSide.NEW, 1)
    mapped_explore = explore(
        mapped, EventType.GROWTH, Goal.MINIMAL, ExtendSide.NEW, 1
    )
    assert baseline.diff(mapped_explore) == ()
    assert baseline.evaluations == mapped_explore.evaluations
