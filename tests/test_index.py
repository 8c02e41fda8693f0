"""Nearest-neighbor index tests.

The reference answer for every query is an independent full-distance-matrix
scan written here, not the index's own code path. The index must match it
exactly: same ids, bit-identical distance floats. An entry id is its row as
given, however the index groups its rows by label, so the scans rank rows
by (distance, position in the given matrix).
"""

import io
import itertools
import json
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowcbr.index as index_mod
from flowcbr.features import WIDTH, Normalizer
from flowcbr.flows import InputError
from flowcbr.index import NNIndex, row_distances
from flowcbr.model import Model, load_model, save_model
from knn_helpers import as_neighbors, knn_one, thresholds


def reference_knn(vectors, q, k):
    """k nearest (distance, row) pairs by exhaustive scan, ties by row."""
    dists = np.sqrt(np.einsum("ij,ij->i", vectors - q, vectors - q))
    order = sorted(range(len(vectors)), key=lambda p: (dists[p], p))
    return [(float(dists[p]), p) for p in order[:k]]


def full_scan_knn(vectors, q, k):
    """k nearest (distance bits, row) pairs from the distances to every row,
    ranked as a scan of every row ranks them: NaN distances last, then rows.
    Unlike ``reference_knn`` it is defined for NaN distances too."""
    dists = np.sqrt(np.einsum("ij,ij->i", vectors - q, vectors - q))
    kth = np.partition(dists, k - 1)[k - 1]
    cand = np.flatnonzero(~(dists > kth))
    order = cand[np.lexsort((cand, dists[cand]))[:k]]
    return [(dists[p].tobytes(), int(p)) for p in order]


def make_rows(rng, n, d):
    """n random rows and their labels."""
    return rng.normal(size=(n, d)), [f"c{i % 4}" for i in range(n)]


def pairs(index, q, k):
    return [(nb.distance, nb.entry_id) for nb in knn_one(index, q, k)]


def screened_blocks(blocks):
    """A patch of ``NNIndex._screen`` that appends the row count of every
    block it screens to ``blocks``."""
    screen = NNIndex._screen

    def counting_screen(self, Q, k):
        blocks.append(len(Q))
        return screen(self, Q, k)

    return mock.patch.object(NNIndex, "_screen", counting_screen)


def pad(a):
    """``a`` with zero slots added to its last axis up to WIDTH, the one
    row width a model directory holds."""
    a = np.asarray(a)
    return np.pad(a, [(0, 0)] * (a.ndim - 1) + [(0, WIDTH - a.shape[-1])])


def save_test_model(directory, vectors, labels):
    """Save rows of any width, padded with zero slots, as a model
    directory, row i as entry i."""
    normalizer = Normalizer(np.zeros(WIDTH), np.ones(WIDTH))
    save_model(directory, Model(normalizer, thresholds(1.0, 2.0), pad(vectors), labels))


def loaded(vectors, labels, tmp_path):
    """The index loaded from ``vectors``, padded, saved as a model."""
    model_dir = tmp_path / "model"
    model_dir.mkdir()
    save_test_model(model_dir, vectors, labels)
    return load_model(model_dir).index


@pytest.mark.parametrize("n,d,k", [(1, 3, 1), (17, 2, 5), (100, 11, 10), (300, 20, 3)])
def test_backends_match_reference_exactly(n, d, k, tmp_path):
    """The built index, and the index loaded from the same rows saved as
    a model directory, both match the reference scan exactly."""
    rng = np.random.default_rng(n * 100 + d)
    vectors, labels = make_rows(rng, n, d)
    index = NNIndex(vectors, labels)
    back = loaded(vectors, labels, tmp_path)
    for q in rng.normal(size=(25, d)):
        assert pairs(index, q, k) == reference_knn(vectors, q, k)
        assert pairs(back, pad(q), k) == reference_knn(pad(vectors), pad(q), k)


@pytest.mark.parametrize("seed", range(4))
def test_ties_across_the_kth_distance_go_to_lower_ids(seed):
    """The points of a small lattice, each twice, in shuffled row order:
    many rows share the k-th distance, and every k must keep the earliest
    rows among them (the lowest ids, as an id is its row)."""
    rng = np.random.default_rng(seed)
    d = 3
    lattice = np.array(list(itertools.product(range(3), repeat=d)), dtype=np.float64)
    vectors = np.concatenate([lattice, lattice])[rng.permutation(2 * len(lattice))]
    n = len(vectors)
    index = NNIndex(vectors, ["x"] * n)
    for q in rng.integers(0, 3, size=(5, d)).astype(np.float64):
        for k in range(1, n + 1):
            assert pairs(index, q, k) == reference_knn(vectors, q, k), k


def test_duplicate_points_tie_break_by_id(tmp_path):
    """Several rows at the same point: the earliest rows (lowest ids) win
    the tie, also in the index loaded from a model directory."""
    point, far = [1.0, 2.0], [50.0, 50.0]
    vectors = np.array([far, point, point, far, point, point])
    labels = ["y", "x", "x", "y", "x", "x"]
    index = NNIndex(vectors, labels)
    back = loaded(vectors, labels, tmp_path)
    q = np.array(point)
    got = [(nb.entry_id, nb.distance) for nb in knn_one(index, q, 3)]
    assert got == [(1, 0.0), (2, 0.0), (4, 0.0)]
    assert [(nb.entry_id, nb.distance) for nb in knn_one(back, pad(q), 3)] == got


def test_query_k_clamps_to_size():
    rng = np.random.default_rng(1)
    vectors, labels = make_rows(rng, 4, 3)
    index = NNIndex(vectors, labels)
    assert len(knn_one(index, vectors[0], 10)) == 4


def test_query_validation_errors():
    rng = np.random.default_rng(2)
    vectors, labels = make_rows(rng, 5, 3)
    index = NNIndex(vectors, labels)
    with pytest.raises(ValueError, match="k must be"):
        knn_one(index, vectors[0], 0)
    with pytest.raises(ValueError, match="queries have shape"):
        knn_one(index, np.zeros(7), 1)


def test_insert_stays_exact(tmp_path):
    """Load an index from a model directory and grow it to 2.5x its size,
    checking after every insert that queries still match the reference
    scan."""
    rng = np.random.default_rng(7)
    vectors, labels = make_rows(rng, 20, 5)
    index = loaded(vectors, labels, tmp_path)
    vectors = list(pad(vectors))
    for step in range(30):
        v = pad(rng.normal(size=5))
        index.insert(v, "new")
        vectors.append(v)
        q = pad(rng.normal(size=5))
        assert pairs(index, q, 5) == reference_knn(np.stack(vectors), q, 5), f"step {step}"
    assert index.size == 50


def test_insert_rejects_duplicates_and_bad_shape():
    """A row of another width is refused and leaves the index as it was;
    a repeated row is a new entry with the next id."""
    rng = np.random.default_rng(3)
    vectors, labels = make_rows(rng, 5, 3)
    index = NNIndex(vectors, labels)
    with pytest.raises(ValueError, match="dimension"):
        index.insert(np.zeros(4), "x")
    assert index.size == 5
    index.insert(vectors[0], "again")
    assert [(nb.entry_id, nb.label) for nb in knn_one(index, vectors[0], 2)] == [
        (0, "c0"), (5, "again")]


def test_next_id_follows_max():
    """An inserted row's entry id is the size before the insert, one past
    the highest id, and the caller's labels list stays as given."""
    labels = ["a", "b"]
    index = NNIndex(np.array([[0.0, 0.0], [1.0, 1.0]]), labels)
    for new_id, v in enumerate((np.full(2, 2.0), np.full(2, 3.0)), start=2):
        index.insert(v, "c")
        assert index.size == new_id + 1
        assert knn_one(index, v, 1)[0].entry_id == new_id
    assert labels == ["a", "b"]


def test_clone_is_independent():
    """Inserts into a clone reach neither the original's rows nor its
    labels, and the clone answers like the original before them."""
    rng = np.random.default_rng(4)
    vectors, labels = make_rows(rng, 6, 3)
    index = NNIndex(vectors, labels)
    copy = index.clone()
    q = np.zeros(3)
    assert knn_one(copy, q, 6) == knn_one(index, q, 6)
    copy.insert(q, "later")
    assert copy.size == 7 and index.size == 6
    assert knn_one(copy, q, 1)[0].label == "later"
    assert knn_one(index, q, 1)[0].label != "later"


def test_labels_travel_with_neighbors():
    index = NNIndex(np.array([[0.0], [9.0]]), ["near", "far"])
    got = knn_one(index, np.array([1.0]), 2)
    assert [nb.label for nb in got] == ["near", "far"]


def test_knn_rows_are_plain_lists():
    """Each row knn yields is two Python lists, entry ids and distances,
    nearest first, both before and after a merge with inserted rows."""
    index = NNIndex(np.array([[0.0], [9.0], [4.0]]), ["a", "b", "a"])
    steps = index.knn(np.array([[1.0], [8.0]]), 2)
    rows = [next(steps)]
    index.insert(np.array([8.5]), "c")
    rows.append(next(steps))
    assert rows == [([0, 2], [1.0, 3.0]), ([3, 1], [0.5, 1.0])]
    for ids, distances in rows:
        assert type(ids) is list and type(distances) is list
        assert all(type(i) is int for i in ids) and all(type(d) is float for d in distances)
    assert index.labels_of([3, 0, 3]) == ["c", "a", "c"]


def test_snapshot_round_trip_query_identical(tmp_path):
    """Rows saved as a model directory load back with bit-identical
    vectors; saved again, they give the same bytes, and every copy answers
    like the index built from the rows."""
    rng = np.random.default_rng(11)
    vectors, labels = make_rows(rng, 60, 7)
    vectors = pad(vectors)
    index = NNIndex(vectors, labels)
    loaded_index = loaded(vectors, labels, tmp_path)
    model = load_model(tmp_path / "model")
    assert model.vectors.tobytes() == vectors.tobytes() and model.labels == labels
    again = tmp_path / "again"
    again.mkdir()
    save_model(again, model)
    for name in ("model.json", "vectors.npy"):
        assert (again / name).read_bytes() == (tmp_path / "model" / name).read_bytes()
    back = load_model(again).index
    assert back.dimension == WIDTH
    for q in pad(rng.normal(size=(20, 7))):
        a = [(nb.distance, nb.entry_id, nb.label) for nb in knn_one(index, q, 5)]
        for other in (loaded_index, back):
            b = [(nb.distance, nb.entry_id, nb.label) for nb in knn_one(other, q, 5)]
            assert a == b


def test_snapshot_rejects_corrupt_and_mismatched(tmp_path):
    """A model directory whose model.json is garbled or of another format
    version, or whose vectors have another width, does not load."""
    rng = np.random.default_rng(13)
    vectors = rng.normal(size=(4, 3))
    save_test_model(tmp_path, vectors, ["a", "b", "a", "b"])
    good = (tmp_path / "model.json").read_text()
    doc = json.loads(good)

    (tmp_path / "model.json").write_text("{not json")
    with pytest.raises(InputError, match="malformed"):
        load_model(tmp_path)

    (tmp_path / "model.json").write_text(json.dumps({**doc, "format_version": 99}))
    with pytest.raises(InputError, match="format_version 99"):
        load_model(tmp_path)

    (tmp_path / "model.json").write_text(good)
    assert load_model(tmp_path).index.size == 4
    buf = io.BytesIO()
    np.save(buf, pad(vectors)[:, :-1])
    (tmp_path / "vectors.npy").write_bytes(buf.getvalue())
    doc["vectors_crc32"] = f"{zlib.crc32(buf.getvalue()):08x}"
    (tmp_path / "model.json").write_text(json.dumps(doc))
    with pytest.raises(InputError, match=r"float64 \(4, 182\), expected float64 \(4, 183\)"):
        load_model(tmp_path)


def test_row_distances_matches_norm():
    rng = np.random.default_rng(6)
    m = rng.normal(size=(30, 9))
    q = rng.normal(size=9)
    np.testing.assert_array_equal(row_distances(m, q),
                                  np.sqrt(np.einsum("ij,ij->i", m - q, m - q)))


@st.composite
def knn_case(draw):
    """Rows at scales from 1e-160 to 1e160 (so squares underflow or
    overflow), integer lattices with many tied distances and duplicate rows,
    or tight clusters; plus rows to insert and queries near stored rows.
    The labels are all one, interleaved (so the index permutes its rows),
    drawn at random (one per cluster in the clustered layout), or one per
    row, so many blocks hold fewer rows than k; inserted rows take a new
    label or an existing one."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d = draw(st.sampled_from([1, 2, 3, 183]))
    n = draw(st.integers(1, 40))
    # Squares of rows at 1e-155 or below are subnormal; at 1e155 or above
    # they overflow.
    exponent = (st.sampled_from([-160, -157, -155, -1, 0, 1, 155, 157, 160])
                | st.integers(-160, 160))
    exponents = draw(st.lists(exponent, min_size=1, max_size=3))
    inserts = draw(st.integers(0, 4))
    m = n + inserts
    groups = draw(st.integers(1, 5))
    cluster = rng.integers(0, groups, size=m)
    layout = draw(st.sampled_from(["lattice", "normal", "clusters"]))
    if layout == "lattice":
        block = rng.integers(-2, 3, size=(m, d)).astype(np.float64)
    else:
        block = rng.normal(size=(m, d))
    if layout == "clusters":
        block += rng.normal(size=(groups, d))[cluster] * 20
    block *= 10.0 ** rng.choice(exponents, size=(m, 1))
    # About a third of the rows repeat another row.
    dup = rng.random(m) < 0.3
    if dup.any():
        block[dup] = block[rng.integers(0, m, size=int(dup.sum()))]
    labels = draw(st.sampled_from([
        ["x"] * m, [f"c{i % groups}" for i in range(m)], [f"c{c}" for c in cluster],
        [f"r{i}" for i in range(m)]]))
    labels = labels[:n] + [draw(st.sampled_from(labels[:n] + ["new"])) for _ in range(inserts)]
    return d, n, block, labels, rng, inserts


def case_queries(rng, stored, d):
    """A stored row, a stored row nudged, a fresh point, and each of those
    with one slot set to NaN, +inf or -inf."""
    row = stored[rng.integers(0, len(stored))]
    nudged = row * (1 + rng.normal(size=d) * 1e-12)
    fresh = rng.normal(size=d) * np.abs(stored).max()
    queries = [row.copy(), nudged, fresh]
    for bad in (np.nan, np.inf, -np.inf):
        q = queries[rng.integers(0, 3)].copy()
        q[rng.integers(0, d)] = bad
        queries.append(q)
    return queries


@settings(deadline=None)
@given(knn_case())
def test_screened_query_matches_full_scan_bit_for_bit(case):
    """A one-row knn against the scan of every row, for every k up to the index
    size, with rows inserted between query rounds: same ids (rows), labels
    and distance bits. Where no distance is NaN it also matches the sorted
    reference. Rows near 1e160 overflow the exact kernel too, so its
    warnings are silenced here."""
    d, n, vectors, labels, rng, inserts = case
    index = NNIndex(vectors[:n], labels[:n])
    for size in range(n, n + inserts + 1):
        if size > n:
            index.insert(vectors[size - 1], labels[size - 1])
        stored = vectors[:size]
        for q, k in itertools.product(case_queries(rng, stored, d), range(1, size + 1)):
            with np.errstate(over="ignore", invalid="ignore"):
                got = knn_one(index, q, k)
                want = full_scan_knn(stored, q, k)
                reference = reference_knn(stored, q, k) if not np.isnan(q).any() else None
            assert [(np.float64(nb.distance).tobytes(), nb.entry_id) for nb in got] == want
            assert [nb.label for nb in got] == [labels[nb.entry_id] for nb in got]
            if reference is not None:
                assert [(nb.distance, nb.entry_id) for nb in got] == reference


def clustered_rows(rng, n, d):
    """n rows around 8 well-separated centres, and the centres."""
    centres = rng.normal(size=(8, d)) * 10
    return centres[rng.integers(0, 8, size=n)] + rng.normal(size=(n, d)), centres


def test_screen_prunes_to_2k_distance_rows_per_query(monkeypatch):
    """On 8 well-separated clusters of 3200 x 183 rows, each k = 5 query
    passes at most 2k rows to row_distances (the k rows that set the bound,
    then the rows left after the screen) and still matches the full scan."""
    rng = np.random.default_rng(21)
    n, d, k = 3200, 183, 5
    vectors, centres = clustered_rows(rng, n, d)
    index = NNIndex(vectors, ["x"] * n)
    rows = []

    def counting_row_distances(matrix, q):
        rows.append(matrix.shape[0])
        return row_distances(matrix, q)

    monkeypatch.setattr(index_mod, "row_distances", counting_row_distances)
    for q in centres[rng.integers(0, 8, size=40)] + rng.normal(size=(40, d)):
        rows.clear()
        assert pairs(index, q, k) == reference_knn(vectors, q, k)
        assert sum(rows) <= 2 * k, rows


@settings(deadline=None)
@given(knn_case(), st.integers(1, 4))
def test_batched_query_matches_full_scan_bit_for_bit(case, chunk_rows):
    """knn over more queries than one chunk (the chunk is cut to
    ``chunk_rows`` rows here, whatever the widest product), each round's
    queries holding stored rows, nudged rows, fresh points and NaN and
    +-inf slots, with rows inserted between rounds: every query gets the
    ids, labels and distance bits of the scan of every row, for every k up
    to the index size."""
    d, n, vectors, labels, rng, inserts = case
    index = NNIndex(vectors[:n], labels[:n])
    for size in range(n, n + inserts + 1):
        if size > n:
            index.insert(vectors[size - 1], labels[size - 1])
        stored = vectors[:size]
        queries = np.stack(case_queries(rng, stored, d) + case_queries(rng, stored, d))
        cuts = [min(chunk_rows, len(queries) - s) for s in range(0, len(queries), chunk_rows)]
        for k in range(1, size + 1):
            blocks = []
            with mock.patch.object(index_mod, "CHUNK_BYTES", 8 * index._width(k) * chunk_rows), \
                    np.errstate(over="ignore", invalid="ignore"), screened_blocks(blocks):
                got = [as_neighbors(index, row) for row in index.knn(queries, k)]
                want = [full_scan_knn(stored, q, k) for q in queries]
            assert blocks == cuts
            assert [[(np.float64(nb.distance).tobytes(), nb.entry_id) for nb in nbrs]
                    for nbrs in got] == want
            assert all(nb.label == labels[nb.entry_id] for nbrs in got for nb in nbrs)


def test_batch_covers_several_chunks_at_the_real_chunk_size():
    """At the module's chunk size a 3200 x 183 index screens 40 queries per
    product; 100 queries span three chunks and all match the scan."""
    rng = np.random.default_rng(22)
    n, d, k = 3200, 183, 5
    vectors, centres = clustered_rows(rng, n, d)
    index = NNIndex(vectors, ["x"] * n)
    queries = centres[rng.integers(0, 8, size=100)] + rng.normal(size=(100, d))
    blocks = []
    with screened_blocks(blocks):
        got = [as_neighbors(index, row) for row in index.knn(queries, k)]
    assert blocks == [40, 40, 20] and 40 * n * 8 <= index_mod.CHUNK_BYTES
    assert [[(nb.distance, nb.entry_id) for nb in nbrs] for nbrs in got] == [
        reference_knn(vectors, q, k) for q in queries]


def test_batch_prunes_to_2k_distance_rows_per_query(monkeypatch):
    """The batched form of the 2k guard: over 100 queries (three chunks),
    row_distances sees at most 2k rows per query, the k that set its bound
    and the rows left after the screen. A chunk passes its queries stacked,
    one paired with each row, so each pair counts for its own query."""
    rng = np.random.default_rng(23)
    n, d, k = 3200, 183, 5
    vectors, centres = clustered_rows(rng, n, d)
    index = NNIndex(vectors, ["x"] * n)
    queries = centres[rng.integers(0, 8, size=100)] + rng.normal(size=(100, d))
    rows = {}

    def counting_row_distances(matrix, q):
        for paired in np.broadcast_to(q, matrix.shape):
            rows[paired.tobytes()] = rows.get(paired.tobytes(), 0) + 1
        return row_distances(matrix, q)

    monkeypatch.setattr(index_mod, "row_distances", counting_row_distances)
    got = [as_neighbors(index, row) for row in index.knn(queries, k)]
    assert len(rows) == len(queries)
    assert max(rows.values()) <= 2 * k, sorted(rows.values())[-5:]
    assert [[(nb.distance, nb.entry_id) for nb in nbrs] for nbrs in got] == [
        reference_knn(vectors, q, k) for q in queries]


def test_screen_multiplies_one_block_per_query_on_labeled_clusters():
    """The 8-cluster fixture of 3200 x 183 rows, labeled by cluster in
    interleaved order so that the index groups its rows: 100 queries fit
    one chunk, and each k = 5 query multiplies only the rows of its own
    cluster's block, about 400, as the centroid bound skips the other seven
    (the full scan multiplies 3200). Every query matches the full scan."""
    rng = np.random.default_rng(29)
    n, d, k = 3200, 183, 5
    centres = rng.normal(size=(8, d)) * 10
    which = rng.integers(0, 8, size=n)
    vectors = centres[which] + rng.normal(size=(n, d))
    index = NNIndex(vectors, [f"c{c}" for c in which])
    near = rng.integers(0, 8, size=100)
    queries = centres[near] + rng.normal(size=(100, d))
    work = []
    screen, block_pairs = NNIndex._screen, NNIndex._block_pairs

    def counting_screen(self, Q, k):
        work.append(np.zeros(len(Q), dtype=int))
        return screen(self, Q, k)

    def counting_block_pairs(self, B, qq, qs, lo, hi, t, k=0):
        work[-1][qs] += hi - lo
        return block_pairs(self, B, qq, qs, lo, hi, t, k)

    with mock.patch.object(NNIndex, "_screen", counting_screen), \
            mock.patch.object(NNIndex, "_block_pairs", counting_block_pairs):
        got = [as_neighbors(index, row) for row in index.knn(queries, k)]
    assert len(work) == 1
    assert work[0].tolist() == np.bincount(which, minlength=8)[near].tolist()
    assert [[(nb.distance, nb.entry_id, nb.label) for nb in nbrs] for nbrs in got] == [
        [(dist, p, f"c{which[p]}") for dist, p in reference_knn(vectors, q, k)]
        for q in queries]


@pytest.mark.parametrize("labeled", [True, False], ids=["eight-blocks", "one-block"])
def test_rank_measures_only_the_survivors_the_screen_did_not(monkeypatch, labeled):
    """The 8-cluster fixture of 3200 x 183 rows and 100 queries, labeled
    by cluster (one chunk) or all alike (three chunks), k = 5. The screen
    measures each query's k home candidates to set its bound and hands
    their distances on; the rank measures exactly the other survivors. So
    in each chunk row_distances sees each surviving (query, row) pair
    once, and no other pair; every query matches the full scan."""
    rng = np.random.default_rng(29)
    n, d, k = 3200, 183, 5
    centres = rng.normal(size=(8, d)) * 10
    which = rng.integers(0, 8, size=n)
    vectors = centres[which] + rng.normal(size=(n, d))
    index = NNIndex(vectors, [f"c{c}" if labeled else "x" for c in which])
    queries = centres[rng.integers(0, 8, size=100)] + rng.normal(size=(100, d))
    chunks, measured = [], []
    screen, rank = NNIndex._screen, NNIndex._rank

    def recording_screen(self, Q, k):
        qi, rows, dists = screen(self, Q, k)
        survivors = [(Q[i].tobytes(), row.tobytes()) for i, row in zip(qi, self._take(rows))]
        chunks.append({"Q": len(Q), "survivors": survivors, "given": len(dists),
                       "measured": list(measured)})
        measured.clear()
        return qi, rows, dists

    def recording_rank(self, B, qi, rows, dists, k):
        out = rank(self, B, qi, rows, dists, k)
        chunks[-1]["ranked"] = list(measured)
        measured.clear()
        return out

    def recording_row_distances(matrix, q):
        measured.extend((p.tobytes(), row.tobytes())
                        for p, row in zip(np.broadcast_to(q, matrix.shape), matrix))
        return row_distances(matrix, q)

    monkeypatch.setattr(NNIndex, "_screen", recording_screen)
    monkeypatch.setattr(NNIndex, "_rank", recording_rank)
    monkeypatch.setattr(index_mod, "row_distances", recording_row_distances)
    got = [as_neighbors(index, row) for row in index.knn(queries, k)]
    assert [c["Q"] for c in chunks] == ([100] if labeled else [40, 40, 20])
    for c in chunks:
        # The screen's own pairs are the first ``given`` survivors.
        assert c["given"] == k * c["Q"] and c["measured"] == c["survivors"][:c["given"]]
        assert len(c["ranked"]) == len(c["survivors"]) - c["given"]
        assert sorted(c["measured"] + c["ranked"]) == sorted(c["survivors"])
        assert len(set(c["survivors"])) == len(c["survivors"])
    assert [[(nb.distance, nb.entry_id) for nb in nbrs] for nbrs in got] == [
        reference_knn(vectors, q, k) for q in queries]


@pytest.mark.parametrize("scale", [1.0, 1e-160, 2.0 ** -500, 1e150, 2.0 ** 500])
@pytest.mark.parametrize("d", [1, 183])
def test_a_block_with_a_row_at_the_bound_is_screened(scale, d):
    """Block b (label "b", rows at 2 and 6, centroid 4, radius 2) lies
    exactly T = 2 beyond its radius from the query at 0, whose home block a
    (rows at -2 and 2) sets T. Its row at 2 ties the k-th distance with a
    lower id, so skipping b would lose it: the triangle bound must not
    skip a block at equality, at any scale."""
    vectors = np.zeros((4, d))
    vectors[:, 0] = np.array([2.0, 6.0, -2.0, 2.0]) * scale
    index = NNIndex(vectors, ["b", "b", "a", "a"])
    q = np.zeros(d)
    with np.errstate(over="ignore", invalid="ignore"):
        got = [(np.float64(nb.distance).tobytes(), nb.entry_id) for nb in knn_one(index, q, 2)]
        assert got == full_scan_knn(vectors, q, 2)
    assert [p for _, p in got] == [0, 2]


@pytest.mark.parametrize("matrix,labels,fragment", [
    (np.zeros(3), ["a"] * 3, "rows must form a 2-D matrix, not 1-D"),
    (np.zeros((2, 2, 2)), ["a"] * 2, "rows must form a 2-D matrix, not 3-D"),
    (np.zeros((3, 3)), ["a", "b"], "3 rows but 2 labels"),
    (np.zeros((0, 3)), [], "an index needs at least one row"),
], ids=["1-D", "3-D", "label-count", "empty"])
def test_index_rejects_bad_rows_and_labels(matrix, labels, fragment):
    with pytest.raises(ValueError, match=fragment):
        NNIndex(matrix, labels)


def test_grouped_rows_stay_in_place_and_interleaved_rows_are_grouped():
    """Rows whose labels come grouped are the index's own rows, not a
    copy; interleaved ones are grouped in a copy, first-seen label first,
    and every neighbor keeps the entry id and label of its row as given."""
    rng = np.random.default_rng(30)
    vectors = rng.normal(size=(6, 3))
    grouped = NNIndex(vectors, ["b", "b", "a", "a", "a", "c"])
    assert grouped._matrix is vectors
    labels = ["b", "a", "b", "c", "a", "a"]
    index = NNIndex(vectors, labels)
    assert index._ids.tolist() == [0, 2, 1, 4, 5, 3]
    assert index._matrix.tobytes() == vectors[[0, 2, 1, 4, 5, 3]].tobytes()
    for q in rng.normal(size=(10, 3)):
        got = knn_one(index, q, 6)
        assert [(nb.distance, nb.entry_id) for nb in got] == reference_knn(vectors, q, 6)
        assert [nb.label for nb in got] == [labels[nb.entry_id] for nb in got]


def test_batch_validation_errors():
    rng = np.random.default_rng(24)
    vectors, labels = make_rows(rng, 5, 3)
    index = NNIndex(vectors, labels)
    with pytest.raises(ValueError, match="k must be"):
        list(index.knn(vectors, 0))
    for bad in (np.zeros((2, 4)), np.zeros(3)):
        with pytest.raises(ValueError, match="queries have shape"):
            list(index.knn(bad, 1))
    assert list(index.knn(np.zeros((0, 3)), 2)) == []


def test_knn_ranks_rows_inserted_between_steps():
    """Two queries share one chunk. A copy of the second, inserted after
    the first step, is the second step's nearest row at distance 0; the
    stream taken before the insert never saw it."""
    rng = np.random.default_rng(26)
    vectors, labels = make_rows(rng, 20, 3)
    index = NNIndex(vectors, labels)
    queries = rng.normal(size=(2, 3))
    blocks = []
    with mock.patch.object(index_mod, "CHUNK_BYTES", 8 * index.size * 2), \
            screened_blocks(blocks):
        before = list(index.knn(queries, 3))
        steps = index.knn(queries, 3)
        first = next(steps)
        index.insert(queries[1], "copy")
        second = next(steps)
    assert blocks == [2, 2]
    assert first == before[0]
    (ids, distances), (ids_before, distances_before) = second, before[1]
    assert (ids[0], index.labels_of(ids[:1]), distances[0]) == (20, ["copy"], 0.0)
    assert (ids[1:], distances[1:]) == (ids_before[:2], distances_before[:2])
    assert all(20 not in ids for ids, _ in before)


@pytest.mark.parametrize("points", [1, 2], ids=["equal-rows", "two-points"])
def test_rank_bounds_the_pair_block_on_a_degenerate_index(monkeypatch, points):
    """3200 x 183 rows all at one point, or each at one of two points: every
    row ties with its copies, so the screen keeps every row at a query's
    nearest point (all 40 x 3200 pairs of a chunk, or about half of them).
    The rank takes those pairs in slices: no block of rows row_distances
    sees holds more than SLICE_BYTES, and every query still matches the
    full scan."""
    rng = np.random.default_rng(27)
    n, d, k = 3200, 183, 5
    vectors = rng.normal(size=(points, d))[rng.integers(0, points, size=n)]
    index = NNIndex(vectors, ["x"] * n)
    queries = rng.normal(size=(100, d))
    survivors, blocks = [], []
    screen = NNIndex._screen

    def counting_screen(self, Q, k):
        qi, rows, dists = screen(self, Q, k)
        survivors.append(len(rows) / len(Q))
        return qi, rows, dists

    def counting_row_distances(matrix, q):
        blocks.append(matrix.nbytes)
        return row_distances(matrix, q)

    monkeypatch.setattr(NNIndex, "_screen", counting_screen)
    monkeypatch.setattr(index_mod, "row_distances", counting_row_distances)
    got = [as_neighbors(index, row) for row in index.knn(queries, k)]
    assert min(survivors) >= n / 3 and (points == 2 or min(survivors) == n), survivors
    assert max(blocks) <= index_mod.SLICE_BYTES, max(blocks)
    assert [[(np.float64(nb.distance).tobytes(), nb.entry_id) for nb in nbrs]
            for nbrs in got] == [full_scan_knn(vectors, q, k) for q in queries]


def rows_of(index):
    """Every row of an index by position: the fitted rows, then the tail."""
    return np.vstack([index._matrix, index._tail])


def test_insert_grows_a_buffer_and_clone_stays_independent():
    """Inserts fill one tail buffer of their own that doubles when full,
    and grow nothing else but the labels: the rows seen are always the
    fitted ones and then the used inserted ones, in order; the caller's
    matrix is the index's fitted rows and is never written, nor are the
    fitted rows' norms and entry ids; and a clone taken between inserts
    shares all three and keeps its own inserted rows."""
    rng = np.random.default_rng(28)
    vectors, labels = make_rows(rng, 3, 4)
    given = vectors.copy()
    index = NNIndex(vectors, labels)
    sq, ids = index._sq, index._ids
    assert sq.tobytes() == np.einsum("ij,ij->i", given, given).tobytes()
    extra = rng.normal(size=(9, 4))
    clones = []
    for i, v in enumerate(extra):
        index.insert(v, f"n{i}")
        clones.append((index.clone(), index.size))
        assert index._matrix is vectors and index._sq is sq and index._ids is ids
        assert rows_of(index).tobytes() == np.vstack([given, extra[:i + 1]]).tobytes()
    assert vectors.tobytes() == given.tobytes()
    assert sq.tobytes() == np.einsum("ij,ij->i", given, given).tobytes()
    assert ids.tolist() == [0, 1, 2] and len(index._tail_buf) == 16
    for clone, size in clones:
        assert clone.size == size and clone._matrix is vectors
        assert clone._sq is sq and clone._ids is ids
        assert rows_of(clone).tobytes() == np.vstack([given, extra])[:size].tobytes()
        clone.insert(np.zeros(4), "z")
    assert rows_of(index).tobytes() == np.vstack([given, extra]).tobytes()
    assert [nb.entry_id for nb in knn_one(index, extra[-1], 1)] == [11]


def grouped_rows(rng, n=3200, labels=8):
    """n x 183 rows in ``labels`` classes of equal size, grouped by label,
    as the index command saves them."""
    return rng.normal(size=(n, 183)), [f"c{i * labels // n}" for i in range(n)]


def test_inserts_allocate_only_the_tail(traced_peak):
    """Ten inserts into a grouped 3200 x 183 index allocate under 1 MB in
    all: the fitted rows stay the caller's matrix, and only the inserted
    rows are copied as their buffer doubles."""
    rng = np.random.default_rng(32)
    vectors, labels = grouped_rows(rng)
    index = NNIndex(vectors, labels)
    extra = rng.normal(size=(10, 183))

    def insert_all():
        for i, v in enumerate(extra):
            index.insert(v, f"novel-{i}")

    _, peak = traced_peak(insert_all)
    assert peak < 2 ** 20, peak
    assert np.shares_memory(index._matrix, vectors)
    assert index.size == 3210 and rows_of(index)[3200:].tobytes() == extra.tobytes()


@pytest.mark.parametrize("labels", [1, 8])
def test_build_takes_radii_in_slices(traced_peak, labels):
    """Building a grouped 3200 x 183 index allocates under 1 MB whatever
    the label count: each block's radius is taken a slice of differences
    at a time, not over the whole block at once, with the same bits as a
    whole-block pass. A NaN row in a block's last slice still makes its
    radius NaN."""
    rng = np.random.default_rng(35)
    vectors, names = grouped_rows(rng, labels=labels)
    index, peak = traced_peak(NNIndex, vectors, names)
    assert peak < 2 ** 20, peak
    bounds = index._bounds
    whole = [row_distances(vectors[a:b], c).max()
             for a, b, c in zip(bounds[:-1], bounds[1:], index._centroids)]
    assert index._radii.view(np.uint64).tolist() == np.array(whole).view(np.uint64).tolist()
    vectors[-1, 0] = np.nan
    assert np.isnan(NNIndex(vectors, names)._radii[-1])


def test_load_model_reads_the_vectors_once(tmp_path, traced_peak):
    """Loading a 3200-row model holds under 1.3 times the vectors file at
    its peak: the vectors are a read-only view of the bytes read and
    checked, and the index's fitted rows are those same bytes."""
    rng = np.random.default_rng(33)
    vectors, labels = grouped_rows(rng)
    save_test_model(tmp_path, vectors, labels)
    size = (tmp_path / "vectors.npy").stat().st_size
    model, peak = traced_peak(load_model, tmp_path)
    assert peak < 1.3 * size, (peak, size)
    assert model.vectors.tobytes() == vectors.tobytes()
    assert not model.vectors.flags.writeable
    assert model.index._matrix is model.vectors


def test_a_fortran_order_vectors_file_loads_the_same_values(tmp_path):
    """A vectors.npy whose header says Fortran order, as np.save writes a
    Fortran-ordered array, loads the same C-ordered values as np.load
    gives, and the index answers as it does from the C-order file."""
    rng = np.random.default_rng(34)
    vectors, labels = make_rows(rng, 9, 5)
    save_test_model(tmp_path, vectors, labels)
    want = load_model(tmp_path)
    buf = io.BytesIO()
    np.save(buf, np.asfortranarray(pad(vectors)))
    assert b"'fortran_order': True" in buf.getvalue()[:128]
    (tmp_path / "vectors.npy").write_bytes(buf.getvalue())
    doc = json.loads((tmp_path / "model.json").read_text())
    doc["vectors_crc32"] = f"{zlib.crc32(buf.getvalue()):08x}"
    (tmp_path / "model.json").write_text(json.dumps(doc))
    got = load_model(tmp_path)
    assert got.vectors.flags.c_contiguous
    assert got.vectors.tobytes() == np.load(io.BytesIO(buf.getvalue())).tobytes()
    assert got.vectors.tobytes() == pad(vectors).tobytes()
    for q in pad(rng.normal(size=(5, 5))):
        assert knn_one(got.index, q, 3) == knn_one(want.index, q, 3)
