"""Nearest-neighbor index tests.

The reference answer for every query is an independent full-distance-matrix
scan written here, not the index's own code path. The index must match it
exactly: same ids, bit-identical distance floats.
"""

import json

import numpy as np
import pytest

from flowcbr.index import IndexEntry, NNIndex, row_distances


def reference_knn(vectors, ids, q, k):
    """k nearest (distance, id) pairs by exhaustive scan, ties by id."""
    dists = np.sqrt(np.einsum("ij,ij->i", vectors - q, vectors - q))
    order = sorted(range(len(ids)), key=lambda p: (dists[p], ids[p]))
    return [(float(dists[p]), int(ids[p])) for p in order[:k]]


def make_entries(rng, n, d, scale=1.0):
    vectors = rng.normal(size=(n, d)) * scale
    return [IndexEntry(i, vectors[i], f"c{i % 4}") for i in range(n)], vectors


def pairs(index, q, k):
    return [(nb.distance, nb.entry_id) for nb in index.query_knn(q, k)]


# Every backend a version-1 snapshot could name. The index is one exact scan
# now, but model directories written when it could be a tree still hold
# these names and must load and answer like the brute-force index.
LEGACY_BACKENDS = ("brute", "kdtree", "balltree")


def legacy_snapshot(index, backend, path):
    """Write ``index`` as a version-1 snapshot naming ``backend``, in the
    layout that carried ``backend`` and ``leaf_size``, and load it back."""
    index.save(path)
    doc = json.loads(path.read_text())
    doc["config"] = {"backend": backend, "dimension": index.dimension, "leaf_size": 8}
    path.write_text(json.dumps(doc, sort_keys=True) + "\n")
    return NNIndex.load(path)


@pytest.mark.parametrize("backend", LEGACY_BACKENDS)
@pytest.mark.parametrize("n,d,k", [(1, 3, 1), (17, 2, 5), (100, 11, 10), (300, 20, 3)])
def test_backends_match_reference_exactly(backend, n, d, k, tmp_path):
    """The built index, and the same index loaded from a version-1 snapshot
    naming ``backend``, both match the reference scan exactly."""
    rng = np.random.default_rng(n * 100 + d)
    entries, vectors = make_entries(rng, n, d)
    index = NNIndex.build(entries)
    loaded = legacy_snapshot(index, backend, tmp_path / "index.json")
    ids = [e.id for e in entries]
    for q in rng.normal(size=(25, d)):
        want = reference_knn(vectors, ids, q, k)
        assert pairs(index, q, k) == want
        assert pairs(loaded, q, k) == want


@pytest.mark.parametrize("seed", range(4))
def test_ties_across_the_kth_distance_go_to_lower_ids(seed):
    """Lattice points in shuffled id order: many rows share the k-th
    distance, and every k must keep the lowest ids among them."""
    rng = np.random.default_rng(seed)
    n, d = 60, 3
    vectors = rng.integers(0, 3, size=(n, d)).astype(np.float64)
    ids = rng.permutation(1000)[:n].tolist()
    index = NNIndex.build([IndexEntry(i, v, "x") for i, v in zip(ids, vectors)])
    for q in rng.integers(0, 3, size=(5, d)).astype(np.float64):
        for k in range(1, n + 1):
            assert pairs(index, q, k) == reference_knn(vectors, ids, q, k), k


@pytest.mark.parametrize("backend", LEGACY_BACKENDS)
def test_duplicate_points_tie_break_by_id(backend, tmp_path):
    """Several entries at the same point: ascending ids win the tie, also
    after a version-1 snapshot naming ``backend`` is loaded."""
    point = np.array([1.0, 2.0])
    entries = [IndexEntry(i, point.copy(), "x") for i in (9, 3, 7, 5)]
    entries.append(IndexEntry(1, np.array([50.0, 50.0]), "y"))
    index = NNIndex.build(entries)
    loaded = legacy_snapshot(index, backend, tmp_path / "index.json")
    for idx in (index, loaded):
        got = idx.query_knn(np.array([1.0, 2.0]), 3)
        assert [nb.entry_id for nb in got] == [3, 5, 7]
        assert [nb.distance for nb in got] == [0.0, 0.0, 0.0]


def test_query_k_clamps_to_size():
    rng = np.random.default_rng(1)
    entries, vectors = make_entries(rng, 4, 3)
    index = NNIndex.build(entries)
    assert len(index.query_knn(vectors[0], 10)) == 4


def test_query_validation_errors():
    rng = np.random.default_rng(2)
    entries, vectors = make_entries(rng, 5, 3)
    index = NNIndex.build(entries)
    with pytest.raises(ValueError):
        index.query_knn(vectors[0], 0)
    with pytest.raises(ValueError):
        index.query_knn(np.zeros(7), 1)


def test_build_validation_errors():
    with pytest.raises(ValueError):
        NNIndex.build([])
    dup = [IndexEntry(1, np.zeros(2), "a"), IndexEntry(1, np.ones(2), "b")]
    with pytest.raises(ValueError, match="unique"):
        NNIndex.build(dup)
    ragged = [IndexEntry(1, np.zeros(2), "a"), IndexEntry(2, np.ones(3), "b")]
    with pytest.raises(ValueError, match="dimension"):
        NNIndex.build(ragged)


@pytest.mark.parametrize("backend", LEGACY_BACKENDS)
def test_insert_stays_exact(backend, tmp_path):
    """Load a version-1 snapshot naming ``backend`` and grow the index to
    2.5x its size, checking after every insert that queries still match
    the reference scan."""
    rng = np.random.default_rng(7)
    entries, _ = make_entries(rng, 20, 5)
    index = legacy_snapshot(NNIndex.build(entries), backend, tmp_path / "index.json")
    vectors = [e.vector for e in entries]
    ids = [e.id for e in entries]
    for step in range(30):
        v = rng.normal(size=5)
        new_id = index.next_id()
        index.insert(IndexEntry(new_id, v, "new"))
        vectors.append(v)
        ids.append(new_id)
        q = rng.normal(size=5)
        assert pairs(index, q, 5) == reference_knn(np.stack(vectors), ids, q, 5), \
            f"step {step}"
    assert index.size == 50


def test_insert_rejects_duplicates_and_bad_shape():
    rng = np.random.default_rng(3)
    entries, _ = make_entries(rng, 5, 3)
    index = NNIndex.build(entries)
    with pytest.raises(ValueError, match="duplicate"):
        index.insert(IndexEntry(0, np.zeros(3), "x"))
    with pytest.raises(ValueError, match="dimension"):
        index.insert(IndexEntry(99, np.zeros(4), "x"))


def test_next_id_follows_max():
    entries = [IndexEntry(5, np.zeros(2), "a"), IndexEntry(2, np.ones(2), "b")]
    index = NNIndex.build(entries)
    assert index.next_id() == 6
    index.insert(IndexEntry(10, np.full(2, 2.0), "c"))
    assert index.next_id() == 11


def test_clone_is_independent():
    rng = np.random.default_rng(4)
    entries, _ = make_entries(rng, 6, 3)
    index = NNIndex.build(entries)
    copy = index.clone()
    copy.insert(IndexEntry(copy.next_id(), np.zeros(3), "later"))
    assert copy.size == 7 and index.size == 6


def test_labels_travel_with_neighbors():
    entries = [IndexEntry(0, np.array([0.0]), "near"),
               IndexEntry(1, np.array([9.0]), "far")]
    index = NNIndex.build(entries)
    got = index.query_knn(np.array([1.0]), 2)
    assert [nb.label for nb in got] == ["near", "far"]


@pytest.mark.parametrize("backend", LEGACY_BACKENDS)
def test_snapshot_round_trip_query_identical(backend, tmp_path):
    """A version-1 snapshot naming ``backend`` loads, saves again without
    the tree keys, and both copies answer like the original index."""
    rng = np.random.default_rng(11)
    entries, _ = make_entries(rng, 60, 7)
    index = NNIndex.build(entries)
    legacy = legacy_snapshot(index, backend, tmp_path / "legacy.json")
    path = tmp_path / "index.json"
    legacy.save(path)
    assert json.loads(path.read_text())["config"] == {"dimension": 7}
    back = NNIndex.load(path)
    assert back.dimension == 7
    for q in rng.normal(size=(20, 7)):
        a = [(nb.distance, nb.entry_id, nb.label) for nb in index.query_knn(q, 5)]
        for other in (legacy, back):
            b = [(nb.distance, nb.entry_id, nb.label) for nb in other.query_knn(q, 5)]
            assert a == b


def test_v1_snapshot_naming_a_tree_backend_loads(tmp_path):
    """A version-1 snapshot from when the index could be a kd-tree still
    loads: its backend and leaf_size keys are ignored."""
    rng = np.random.default_rng(12)
    vectors = rng.normal(size=(40, 4))
    ids = [int(i) for i in rng.permutation(100)[:40]]
    path = tmp_path / "index.json"
    path.write_text(json.dumps({
        "format_version": 1,
        "config": {"backend": "kdtree", "dimension": 4, "leaf_size": 8},
        "entries": [{"id": i, "label": f"c{i % 3}", "vector": v.tolist()}
                    for i, v in zip(ids, vectors)],
    }))
    index = NNIndex.load(path)
    assert index.size == 40 and index.dimension == 4
    for q in rng.normal(size=(20, 4)):
        got = index.query_knn(q, 6)
        assert [(nb.distance, nb.entry_id) for nb in got] == reference_knn(vectors, ids, q, 6)
        assert all(nb.label == f"c{nb.entry_id % 3}" for nb in got)


def test_snapshot_rejects_corrupt_and_mismatched(tmp_path):
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    with pytest.raises(ValueError, match="corrupt"):
        NNIndex.load(garbled)

    wrong_version = tmp_path / "version.json"
    wrong_version.write_text(json.dumps({"format_version": 99}))
    with pytest.raises(ValueError, match="version"):
        NNIndex.load(wrong_version)

    bad_entry = tmp_path / "entry.json"
    bad_entry.write_text(json.dumps({
        "format_version": 1,
        "config": {"dimension": 3},
        "entries": [{"id": 0, "label": "a", "vector": [1.0, 2.0]}],
    }))
    with pytest.raises(ValueError, match="dimension"):
        NNIndex.load(bad_entry)


def test_row_distances_matches_norm():
    rng = np.random.default_rng(6)
    m = rng.normal(size=(30, 9))
    q = rng.normal(size=9)
    np.testing.assert_array_equal(row_distances(m, q),
                                  np.sqrt(np.einsum("ij,ij->i", m - q, m - q)))
