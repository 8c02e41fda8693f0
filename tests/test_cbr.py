"""Decision-layer tests: voting, thresholds, buffering, registration.

Most tests use tiny 1-D or 2-D geometries where every distance can be read
off the page, so each verdict regime is pinned by construction.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowcbr.cbr as cbr_mod
import flowcbr.index as index_mod
from flowcbr.cbr import (
    PENDING_CAPACITY,
    ClassRegistry,
    Neighbor,
    Thresholds,
    Verdict,
    VerdictKind,
    calibrate_thresholds,
    classify_stream,
    verdict_to_json,
    vote,
    write_verdicts,
)
from flowcbr.features import WIDTH, Normalizer
from flowcbr.harness import PipelineConfig
from flowcbr.index import NNIndex, row_distances
from flowcbr.model import Model, fit_model, load_model, save_model
from knn_helpers import as_neighbors, classify_one, knn_one, thresholds


def nb(label, distance, entry_id=0):
    return Neighbor(entry_id=entry_id, label=label, distance=distance)


def test_vote_majority():
    winner, count = vote([nb("a", 1.0), nb("b", 0.1), nb("a", 2.0)])
    assert (winner, count) == ("a", 2)


def test_vote_tie_prefers_smaller_distance_sum():
    winner, _ = vote([nb("a", 3.0), nb("b", 1.0), nb("a", 1.0), nb("b", 2.9)])
    assert winner == "b"


def test_vote_full_tie_is_lexicographic():
    winner, _ = vote([nb("b", 1.0), nb("a", 1.0)])
    assert winner == "a"
    with pytest.raises(ValueError):
        vote([])


def test_thresholds_validation_and_cohesion_default():
    """Thresholds checks each of its five settings. calibrate_thresholds
    sets an unset r_cohesion to 2 * theta_ood and keeps a set one."""
    X = np.array([[0.0], [1.0], [3.0], [10.0], [12.0]])
    y = ["a", "a", "a", "b", "b"]
    th = calibrate_thresholds(X, y, PipelineConfig())
    assert (th.theta_ood, th.r_cohesion) == (3.0, 6.0)
    assert calibrate_thresholds(X, y, PipelineConfig(r_cohesion=0.5)).r_cohesion == 0.5
    with pytest.raises(ValueError):
        thresholds(theta_new=0.0, theta_ood=1.0)
    with pytest.raises(ValueError):
        thresholds(theta_new=2.0, theta_ood=1.0)
    with pytest.raises(ValueError):
        thresholds(1.0, 2.0, k=0)
    with pytest.raises(ValueError):
        thresholds(1.0, 2.0, c_min=0)
    assert thresholds(1.0, 2.0, c_min=PENDING_CAPACITY).c_min == PENDING_CAPACITY
    with pytest.raises(ValueError, match="pending buffer's capacity"):
        thresholds(1.0, 2.0, c_min=PENDING_CAPACITY + 1)
    for bad in ({"theta_new": np.nan}, {"theta_ood": np.nan}, {"theta_ood": np.inf},
                {"theta_new": np.inf, "theta_ood": np.inf}, {"r_cohesion": np.nan},
                {"r_cohesion": np.inf}):
        with pytest.raises(ValueError, match="finite"):
            thresholds(**{"theta_new": 1.0, "theta_ood": 2.0, **bad})
    for bad in ({"k": 2.5}, {"k": True}, {"c_min": 2.0}, {"c_min": "5"}):
        with pytest.raises(ValueError, match="thresholds k and c_min must be integers"):
            thresholds(**{"theta_new": 1.0, "theta_ood": 2.0, **bad})
    for bad in ({"theta_new": None}, {"theta_ood": "2"}, {"r_cohesion": None},
                {"r_cohesion": True}):
        with pytest.raises(ValueError, match="r_cohesion must be numbers"):
            thresholds(**{"theta_new": 1.0, "theta_ood": 2.0, "r_cohesion": 4.0, **bad})
    with pytest.raises(TypeError, match="r_cohesion"):
        Thresholds(1.0, 2.0, 5, 5)


def unit_model(th, labels):
    """A model holding ``th`` and one zero row per label."""
    normalizer = Normalizer(np.zeros(WIDTH), np.ones(WIDTH))
    return Model(normalizer, th, np.zeros((len(labels), WIDTH)), labels)


def test_thresholds_round_trip(tmp_path):
    th = Thresholds(theta_new=0.75, theta_ood=1.5, k=3, c_min=4, r_cohesion=2.25)
    save_model(tmp_path, unit_model(th, ["a"]))
    assert load_model(tmp_path).thresholds == th


def one_point_setup(theta_new=1.0, theta_ood=2.0, **kw):
    """A single training point at the origin of a 1-D line."""
    index = NNIndex(np.array([[0.0]]), ["base"])
    th = thresholds(theta_new=theta_new, theta_ood=theta_ood, k=1, **kw)
    return index, ClassRegistry(), th


@pytest.mark.parametrize("x,kind", [
    (0.5, VerdictKind.KNOWN),
    (1.0, VerdictKind.KNOWN),      # d1 == theta_new stays Known
    (1.0000001, VerdictKind.PENDING),
    (2.0, VerdictKind.PENDING),    # d1 == theta_ood is not yet OOD
    (2.0000001, VerdictKind.OOD),
    (50.0, VerdictKind.OOD),
])
def test_verdict_partition_along_the_line(x, kind):
    index, registry, th = one_point_setup(c_min=5)
    verdict = classify_one(index, registry, np.array([x]), th)
    assert verdict.kind is kind
    assert verdict.min_distance == pytest.approx(abs(x))


def test_exactly_one_regime_fires():
    index, registry, th = one_point_setup(c_min=99)
    for x in np.linspace(0.0, 3.0, 61):
        verdict = classify_one(index, registry, np.array([x]), th)
        expected = (VerdictKind.KNOWN if x <= 1.0
                    else VerdictKind.OOD if x > 2.0
                    else VerdictKind.PENDING)
        assert verdict.kind is expected, f"x={x}"


def test_known_verdict_carries_vote_and_votes_dict():
    index, registry, th = one_point_setup()
    verdict = classify_one(index, registry, np.array([0.2]), th)
    assert verdict.label == "base"
    assert verdict.votes == {"base": 1}


def test_classify_tallies_a_known_row_once(monkeypatch):
    """Each row's neighbor labels are counted once, and a Known row still
    gets vote's label, tie rule included."""
    rng = np.random.default_rng(0)
    index = NNIndex(rng.integers(0, 3, size=(40, 2)).astype(float),
                    [f"c{i % 3}" for i in range(40)])
    queries = rng.integers(0, 3, size=(25, 2)).astype(float)
    th = thresholds(theta_new=10.0, theta_ood=20.0, k=4)
    tally, calls = cbr_mod._neighbor_votes, []
    monkeypatch.setattr(cbr_mod, "_neighbor_votes",
                        lambda neighbors: calls.append(1) or tally(neighbors))
    verdicts = classify_stream(index, ClassRegistry(), queries, th)
    assert len(calls) == 25
    assert all(v.kind is VerdictKind.KNOWN for v in verdicts)
    assert [v.label for v in verdicts] == [vote(as_neighbors(index, row))[0]
                                           for row in index.knn(queries, th.k)]


def test_ood_is_never_buffered():
    index, registry, th = one_point_setup()
    for x in (5.0, 6.0, 7.0, 8.0, 9.0):
        verdict = classify_one(index, registry, np.array([x]), th)
        assert verdict.kind is VerdictKind.OOD
        assert verdict.label is None
    assert len(registry.pending) == 0
    assert index.size == 1


def test_known_verdicts_allocate_no_buffer():
    """The pending buffer is allocated on the first in-between sample, so a
    stream of Known and OOD verdicts allocates nothing beside the queries,
    and the first Pending one allocates the PENDING_CAPACITY rows, their
    squared norms and the PENDING_CAPACITY² pair table, and little else.
    Their pages take memory only as slots are written, which tracemalloc
    does not see: it counts bytes allocated."""
    d = 183
    buffer_bytes = PENDING_CAPACITY * (d * 8 + 8 + PENDING_CAPACITY)
    index = NNIndex(np.zeros((1, d)), ["base"])
    registry = ClassRegistry()
    th = thresholds(theta_new=1.0, theta_ood=2.0, k=1)
    tracemalloc.start()
    try:
        for x in (0.1, 0.5, 0.9, 5.0):
            classify_one(index, registry, np.full(d, x / np.sqrt(d)), th)
        _, peak_known = tracemalloc.get_traced_memory()
        assert classify_one(index, registry, np.full(d, 1.5 / np.sqrt(d)),
                            th).kind is VerdictKind.PENDING
        _, peak_pending = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak_known < buffer_bytes / 10
    assert buffer_bytes <= peak_pending < 1.1 * buffer_bytes
    assert registry.pending.shape == (1, d) and registry._rows.shape == (PENDING_CAPACITY, d)
    assert registry._near.shape == (PENDING_CAPACITY, PENDING_CAPACITY)


def test_pending_buffer_is_allocated_once():
    """The first buffered row allocates a PENDING_CAPACITY-row matrix, and
    every later row is written into that same matrix, in order: up to
    capacity, after dropping rows, and once full, where the oldest row
    makes way."""
    reg = ClassRegistry()
    reg.add_pending(np.array([1.0, -1.0]), 1.0)
    rows = reg._rows
    assert rows.shape == (PENDING_CAPACITY, 2)
    for m in range(2, PENDING_CAPACITY + 1):
        reg.add_pending(np.array([float(m), -float(m)]), 1.0)
    assert reg._rows is rows and reg.evictions == 0
    assert reg.pending[:, 0].tolist() == [float(m) for m in range(1, PENDING_CAPACITY + 1)]
    reg.drop_pending([0, 5])
    reg.add_pending(np.array([0.5, -0.5]), 1.0)
    reg.add_pending(np.array([0.25, -0.25]), 1.0)
    reg.add_pending(np.array([0.125, -0.125]), 1.0)
    assert reg._rows is rows and reg.evictions == 1
    assert reg.pending[:, 0].tolist() == (
        [float(m) for m in range(3, PENDING_CAPACITY + 1) if m != 6] + [0.5, 0.25, 0.125])


def test_scripted_registration_scenario():
    """Five mutually close in-band samples arrive; the fifth registers the
    class, founders enter the index, and a sixth nearby query is Known."""
    index, registry, th = one_point_setup(c_min=5)
    cluster = [np.array([1.5 + 0.001 * i]) for i in range(5)]
    kinds = []
    for v in cluster:
        kinds.append(classify_one(index, registry, v, th).kind)
    assert kinds == [VerdictKind.PENDING] * 4 + [VerdictKind.REGISTERED]
    assert index.size == 6
    assert len(registry.pending) == 0

    follow_up = classify_one(index, registry, np.array([1.5002]), th)
    assert follow_up.kind is VerdictKind.KNOWN
    assert follow_up.label == "novel-1"


def test_founders_take_the_next_ids_in_insertion_order():
    """From fit to registration an entry id is a row: the fitted rows are
    ids 0 .. n_train - 1, and the c_min founders of a new class follow in
    the order they are inserted: the sample that completes the cohort
    first, then the buffered ones oldest first."""
    rng = np.random.default_rng(5)
    X = np.concatenate([rng.random((6, WIDTH)) * 0.01,
                        1 + rng.random((6, WIDTH)) * 0.01])
    labels = ["a"] * 6 + ["b"] * 6
    model = fit_model(X, labels, PipelineConfig())
    model = Model(model.normalizer, Thresholds(theta_new=1.0, theta_ood=100.0, k=1,
                                               c_min=3, r_cohesion=1.0),
                  model.vectors, model.labels)
    index, registry, th = model.index, model.registry, model.thresholds
    n_train = index.size
    for p, row in enumerate(model.vectors):
        assert knn_one(index, row, 1)[0].entry_id == p
    founders = [np.full(WIDTH, 0.5) + 0.001 * i for i in range(3)]
    kinds = [classify_one(index, registry, v, th).kind for v in founders]
    assert kinds == [VerdictKind.PENDING] * 2 + [VerdictKind.REGISTERED]
    inserted = [founders[2], founders[0], founders[1]]
    got = [knn_one(index, v, 1)[0] for v in inserted]
    assert [(nb.entry_id, nb.label, nb.distance) for nb in got] == [
        (n_train + i, "novel-1", 0.0) for i in range(3)]


def test_registration_counts_step_by_step():
    index, registry, th = one_point_setup(c_min=3)
    sizes = []
    for i in range(3):
        classify_one(index, registry, np.array([1.4 + 0.001 * i]), th)
        sizes.append((index.size, len(registry.pending)))
    assert sizes == [(1, 1), (1, 2), (4, 0)]


def test_cohort_requires_mutual_cohesion():
    """Buffered samples scattered wider than r_cohesion never register."""
    index, registry, th = one_point_setup(theta_new=0.1, theta_ood=100.0,
                                          c_min=3, r_cohesion=1.0)
    for x in (10.0, 20.0, 30.0, 40.0):
        verdict = classify_one(index, registry, np.array([x]), th)
        assert verdict.kind is VerdictKind.PENDING
    assert len(registry.pending) == 4

    # now three samples within r_cohesion of each other register, and the
    # stragglers between them stay buffered, in their order
    for x in (50.0, 60.0, 50.1, 70.0):
        assert classify_one(index, registry, np.array([x]), th).kind is VerdictKind.PENDING
    verdict = classify_one(index, registry, np.array([50.2]), th)
    assert verdict.kind is VerdictKind.REGISTERED
    assert registry.pending[:, 0].tolist() == [10.0, 20.0, 30.0, 40.0, 60.0, 70.0]
    assert index.size == 4


def test_second_registration_increments_label():
    index, registry, th = one_point_setup(c_min=2, r_cohesion=0.5)
    for x in (1.5, 1.51):
        classify_one(index, registry, np.array([x]), th)
    # a second, disjoint cluster in the band
    index2_query = None
    for x in (1.9, 1.91):
        index2_query = classify_one(index, registry, np.array([-x]), th)
    assert index2_query.kind is VerdictKind.REGISTERED
    assert index2_query.label == "novel-2"
    assert registry.novel_count == 2


def test_new_class_label_skips_trained_labels():
    """A trained class may already be called novel-N; a registration takes
    the next number no row of the index holds, so its founders never merge
    into that class."""
    index = NNIndex(np.array([[0.0], [0.1]]), ["novel-1", "novel-1"])
    th = thresholds(theta_new=1.0, theta_ood=2.0, k=1, c_min=3)
    registry = ClassRegistry()
    verdicts = [classify_one(index, registry, np.array([1.5 + 0.001 * i]), th)
                for i in range(3)]
    assert verdicts[-1].kind is VerdictKind.REGISTERED
    assert verdicts[-1].label == "novel-2"
    assert [n.label for n in knn_one(index, np.array([1.5]), 3)] == ["novel-2"] * 3


def greedy_cohort_oracle(pending, r_cohesion):
    """The original cohort loop: every older buffered row, oldest first, is
    checked against the whole kept set with one distance call."""
    kept = [len(pending) - 1]
    for p in range(len(pending) - 1):
        if np.all(row_distances(pending[kept], pending[p]) <= r_cohesion):
            kept.append(p)
    return kept


def cohort_pool(rng, kind, n_distinct, d):
    """n_distinct rows to buffer: normal ones at one of five scales, or
    lattice points, which tie many distances, or rows whose squared norms
    overflow to inf (a shared offset near 1e155, spread near 1e151, so
    their distances stay finite), or rows whose squared norms and
    distances are subnormal (near 1e-160)."""
    if kind == "lattice":
        return rng.integers(0, 3, size=(n_distinct, d)) * 0.25
    if kind == "overflow":
        return rng.normal(size=d) * 1e155 + rng.normal(size=(n_distinct, d)) * 1e151
    if kind == "subnormal":
        return rng.normal(size=(n_distinct, d)) * 1e-160
    return rng.normal(size=(n_distinct, d)) * 10.0 ** rng.integers(-2, 3)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.sampled_from([1, 2, 8, 183]),
       st.integers(min_value=1, max_value=300),
       st.integers(min_value=1, max_value=300),
       st.sampled_from(["normal", "lattice", "overflow", "subnormal"]),
       st.sampled_from([0.5, 1.0, 1.0, 2.0]),
       st.one_of(st.integers(min_value=1, max_value=12), st.just(PENDING_CAPACITY)),
       st.data())
def test_cohort_search_matches_greedy_oracle(seed, d, n, n_distinct, kind, scale,
                                             capacity, data):
    """Same rows in the same order, by position, and a pair table equal to
    the exact distances' off its diagonal, after each sample of a buffer
    of ``capacity`` rows, filled through ``add_pending``: a small buffer
    wraps, and rows are dropped between fills. Drawing from fewer distinct vectors than
    samples gives duplicates; scale 1.0 puts r_cohesion exactly on a
    realised pairwise distance. A buffer too large to check at every
    sample is checked while small and at the end."""
    rng = np.random.default_rng(seed)
    n_distinct = min(n_distinct, n)
    pool = cohort_pool(rng, kind, n_distinct, d)
    i = data.draw(st.integers(min_value=0, max_value=n_distinct - 1))
    j = data.draw(st.integers(min_value=0, max_value=n_distinct - 1))
    r_cohesion = scale * float(row_distances(pool[i][None, :], pool[j])[0])
    registry, rows = ClassRegistry(), []
    with mock.patch.object(cbr_mod, "PENDING_CAPACITY", capacity):
        for step in range(n):
            rows = (rows[1:] if len(rows) == capacity else rows) + [pool[rng.integers(n_distinct)]]
            registry.add_pending(rows[-1], r_cohesion)
            pending = registry.pending
            assert pending.tobytes() == np.array(rows).tobytes()
            got = cbr_mod._cohesive_cohort(registry)
            if len(rows) <= 32 or step == n - 1:
                assert got == greedy_cohort_oracle(pending, r_cohesion)
                slots = registry._slots()
                exact = np.array([row_distances(pending, row) <= r_cohesion for row in pending])
                np.fill_diagonal(exact, False)  # a row is not paired with itself
                assert np.array_equal(registry._near[np.ix_(slots, slots)], exact)
            if rng.random() < 0.15:
                drop = got if rng.random() < 0.5 else rng.choice(
                    len(rows), size=rng.integers(1, len(rows) + 1), replace=False).tolist()
                registry.drop_pending(drop)
                rows = [row for p, row in enumerate(rows) if p not in drop]


def test_pending_buffer_pairs_rows_at_one_radius():
    """The pair table holds one r_cohesion, so a second one is refused."""
    registry = ClassRegistry()
    registry.add_pending(np.array([0.0]), 1.0)
    registry.add_pending(np.array([0.5]), 1.0)
    with pytest.raises(ValueError, match="r_cohesion 1.0, not 2.0"):
        registry.add_pending(np.array([1.0]), 2.0)
    assert registry.pending.tolist() == [[0.0], [0.5]]


@pytest.mark.parametrize("radius", [0.95, 3.0])
def test_cohort_search_cost_is_bounded(monkeypatch, radius):
    """Samples mutually beyond r_cohesion, each at ``radius`` from a centre
    (inside r_cohesion at 0.95, outside at 3.0). Each in-between sample
    makes one screened pass (``within``), and at most one ``row_distances``
    call, over only the other rows within r_cohesion: while the buffer
    fills, once it is full and evicting, and just after ``drop_pending``.
    The cohort walk makes neither."""
    d = 183
    rng = np.random.default_rng(7)
    centre = np.zeros(d)
    centre[0] = 10.0
    dirs = rng.normal(size=(PENDING_CAPACITY + 6, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    cos = dirs @ dirs.T
    np.fill_diagonal(cos, -1.0)
    assert radius * np.sqrt(2.0 - 2.0 * cos.max()) > 1.05  # pairwise beyond r_cohesion
    samples = centre + radius * dirs
    r_cohesion = 1.0

    calls, screened, exact = [], index_mod.within, index_mod.row_distances
    monkeypatch.setattr(cbr_mod, "within",
                        lambda *args: calls.append("within") or screened(*args))
    monkeypatch.setattr(index_mod, "row_distances",
                        lambda matrix, q: calls.append(len(matrix)) or exact(matrix, q))
    registry, rows = ClassRegistry(), []

    def sample(v):
        nonlocal rows
        rows = (rows[1:] if len(rows) == PENDING_CAPACITY else rows) + [v]
        calls.clear()
        registry.add_pending(v, r_cohesion)
        close = int((exact(np.array(rows[:-1]).reshape(-1, d), v) <= r_cohesion).sum())
        assert calls == ["within"] + [close] * (close > 0), calls
        calls.clear()
        cohort = cbr_mod._cohesive_cohort(registry)
        assert calls == []
        return cohort

    for v in samples[:PENDING_CAPACITY]:  # filling
        assert sample(v) == [len(rows) - 1]
    assert registry.evictions == 0
    cohort = sample(centre)  # full: the oldest row makes way
    assert cohort == ([PENDING_CAPACITY - 1, 0] if radius < 1 else [PENDING_CAPACITY - 1])
    for v in samples[PENDING_CAPACITY:PENDING_CAPACITY + 3]:
        sample(v)
    assert registry.evictions == 4
    drop = [0, 5, 500, PENDING_CAPACITY - 1]
    registry.drop_pending(drop)
    rows = [row for p, row in enumerate(rows) if p not in drop]
    for v in samples[PENDING_CAPACITY + 3:]:  # just compacted
        sample(v)
    assert registry.evictions == 4
    assert np.array_equal(registry.pending, np.array(rows))


def test_full_buffer_counts_evictions():
    index, registry, th = one_point_setup(theta_new=0.1, theta_ood=1e6,
                                          c_min=3, r_cohesion=1.0)
    for t in range(PENDING_CAPACITY - 1):
        registry.add_pending(np.array([10.0 * (t + 1)]), th.r_cohesion)
    classify_one(index, registry, np.array([-10.0]), th)  # fills the last slot
    assert registry.evictions == 0
    for x in (-20.0, -30.0, -40.0):
        assert classify_one(index, registry, np.array([x]), th).kind is VerdictKind.PENDING
    assert len(registry.pending) == PENDING_CAPACITY
    assert registry.evictions == 3
    # the three oldest went; the others kept their order, the newest last
    assert registry.pending[0, 0] == 40.0
    assert list(registry.pending[-5:, 0]) == [9990.0, -10.0, -20.0, -30.0, -40.0]

    assert registry.clone().evictions == 3


def loo_same_class_nn(X, y):
    out = []
    for i in range(len(y)):
        best = None
        for j in range(len(y)):
            if i == j or y[j] != y[i]:
                continue
            d = float(np.sqrt(((X[i] - X[j]) ** 2).sum()))
            best = d if best is None else min(best, d)
        if best is not None:
            out.append(best)
    return out


def test_calibration_matches_hand_quantiles():
    X = np.array([[0.0], [1.0], [3.0], [10.0], [10.5]])
    y = ["a", "a", "a", "b", "b"]
    th = calibrate_thresholds(X, y, PipelineConfig())
    dists = loo_same_class_nn(X, y)  # 1, 1, 2, 0.5, 0.5
    assert sorted(dists) == [0.5, 0.5, 1.0, 1.0, 2.0]
    assert th.theta_new == pytest.approx(float(np.quantile(dists, 0.99)))
    assert th.theta_ood == pytest.approx(
        max(th.theta_new, float(np.quantile(dists, 0.999)) * 1.5))
    assert th.r_cohesion == pytest.approx(2.0 * th.theta_ood)


def delete_loop_nn_distances(X, y):
    """The original calibration loop: one copy of the class block per row,
    with the row deleted, and the minimum distance over that copy."""
    y_arr = np.asarray(y)
    out = []
    for label in np.unique(y_arr):
        block = X[y_arr == label]
        if block.shape[0] < 2:
            continue
        for i in range(block.shape[0]):
            out.append(float(row_distances(np.delete(block, i, axis=0), block[i]).min()))
    return out


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.sampled_from([1, 2, 7, 183]),
       st.lists(st.integers(min_value=2, max_value=40), min_size=1, max_size=5),
       st.integers(min_value=1, max_value=40),
       st.booleans())
def test_calibration_distances_match_delete_loop(seed, d, class_sizes, n_distinct,
                                                 lattice):
    """Bit-identical leave-one-out distances, in the same order. Drawing rows
    from fewer distinct vectors than rows gives duplicates (distance 0 to a
    twin); classes of size 2 leave exactly one other row; lattice points
    give many tied distances."""
    rng = np.random.default_rng(seed)
    n = sum(class_sizes)
    if lattice:
        pool = rng.integers(0, 3, size=(n_distinct, d)) * 0.25
    else:
        pool = rng.normal(size=(n_distinct, d)) * 10.0 ** rng.integers(-2, 3)
    X = pool[rng.integers(n_distinct, size=n)]
    y = rng.permutation(np.repeat([f"c{i}" for i in range(len(class_sizes))],
                                  class_sizes))
    got = cbr_mod._loo_nn_distances(X, y)
    assert got == delete_loop_nn_distances(X, y)


def test_calibration_margin_and_quantiles_are_knobs():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(60, 4))
    y = ["a"] * 30 + ["b"] * 30
    loose = calibrate_thresholds(X, y, PipelineConfig(quantile_new=0.5, ood_margin=4.0))
    tight = calibrate_thresholds(X, y, PipelineConfig(quantile_new=0.5, ood_margin=1.0))
    assert loose.theta_ood > tight.theta_ood
    assert loose.theta_new == tight.theta_new


def test_calibration_skips_singleton_classes_with_warning(caplog):
    X = np.array([[0.0], [1.0], [99.0]])
    y = ["a", "a", "lonely"]
    th = calibrate_thresholds(X, y, PipelineConfig())
    assert any(r.levelname == "WARNING" and "lonely" in r.getMessage()
               for r in caplog.records)
    assert th.theta_new >= 1.0 - 1e-9


def test_calibration_fails_when_every_class_is_singleton(caplog):
    X = np.array([[0.0], [1.0]])
    y = ["a", "b"]
    with pytest.raises(ValueError):
        calibrate_thresholds(X, y, PipelineConfig())
    assert any(r.levelname == "WARNING" for r in caplog.records)


def test_calibration_floors_zero_distances():
    X = np.zeros((4, 2))
    y = ["a", "a", "b", "b"]
    th = calibrate_thresholds(X, y, PipelineConfig())
    assert th.theta_new > 0


def test_registry_clone_is_deep_for_pending():
    reg = ClassRegistry()
    reg.add_pending(np.array([1.0]), 1.0)
    copy = reg.clone()
    copy.add_pending(np.array([2.0]), 1.0)
    copy.pending[0, 0] = 99.0
    assert len(copy.pending) == 2
    assert reg.pending.tolist() == [[1.0]]


def test_registry_round_trip(tmp_path):
    """A model saves its training rows, not its registry: the loaded
    registry has an empty buffer and every counter at zero, whatever the
    registry held before the save."""
    model = unit_model(thresholds(theta_new=0.75, theta_ood=1.5), ["a", "b", "a"])
    model.registry.add_pending(np.full(WIDTH, 0.5), 1.0)
    model.registry.novel_count = 2
    save_model(tmp_path, model)
    back = load_model(tmp_path).registry
    assert back.novel_count == 0 and back.evictions == 0
    assert len(back.pending) == 0


def test_pending_buffer_is_bounded():
    reg = ClassRegistry()
    for i in range(1100):
        reg.add_pending(np.array([float(i)]), 1.0)
    assert len(reg.pending) == 1000
    assert reg.evictions == 100
    # the oldest rows fell off; the rest kept their order
    assert reg.pending[:, 0].tolist() == [float(i) for i in range(100, 1100)]


def test_verdict_json_shape_and_jsonl(tmp_path):
    import json

    verdict = Verdict(VerdictKind.KNOWN, "web", {"web": 4, "dns": 1}, 0.25)
    doc = json.loads(verdict_to_json("f000001", verdict))
    assert doc == {"flow_id": "f000001", "kind": "Known", "label": "web",
                   "min_distance": 0.25, "votes": {"web": 4, "dns": 1}}

    path = tmp_path / "verdicts.jsonl"
    ood = Verdict(VerdictKind.OOD, None, {"web": 1}, 9.0)
    write_verdicts(path, [("f0", verdict), ("f1", ood)])
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[1])["kind"] == "OOD"
    assert json.loads(lines[1])["label"] is None


# Text with JSON's hard cases: quotes, backslashes, control characters,
# non-ASCII and non-BMP characters, and lone surrogates.
_JSON_TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\u2028é€😀'),
                               st.characters(exclude_categories=())), max_size=12)
# Distances with JSON's hard cases: signed zeros, subnormals, 1e16 and its
# neighbours (where repr switches to an exponent), inf and nan.
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16,
                float(np.nextafter(1e16, 0)), float(np.nextafter(1e16, np.inf)), 1e-5, 1e-4,
                float("inf"), float("-inf"), float("nan")]


@given(_JSON_TEXT, st.sampled_from(list(VerdictKind)), st.none() | _JSON_TEXT,
       st.dictionaries(_JSON_TEXT, st.integers(1, 10 ** 6), max_size=5),
       st.sampled_from(_EDGE_FLOATS) | st.floats(), st.booleans())
def test_verdict_line_matches_the_json_encoder(flow_id, kind, label, votes, distance,
                                               numpy_float):
    """verdict_to_json, which writes the line out directly, gives the bytes
    of json.JSONEncoder(sort_keys=True) on the same document, for any
    strings, a null label, any float, and a numpy.float64 distance, whose
    repr is not a JSON number."""
    import json

    d = np.float64(distance) if numpy_float else distance
    doc = {"flow_id": flow_id, "kind": kind.value, "label": label, "min_distance": d,
           "votes": votes}
    got = verdict_to_json(flow_id, Verdict(kind, label, votes, d))
    assert got == json.JSONEncoder(sort_keys=True).encode(doc)


def mixed_stream(rng, d, n, m, lattice):
    """n training rows near the origin and a stream of m rows: Known ones
    near training rows, OOD ones far out, and in-between ones in tight
    groups around three points at distance 2.5, so c_min of a group found a
    class and the group's later rows come out Known. With ``lattice`` every
    row sits on a grid, which ties many distances."""
    scale = 1 / np.sqrt(d)
    base = rng.normal(size=(n, d)) * 0.3 * scale
    dirs = rng.normal(size=(4, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    kind = rng.choice(3, size=m, p=[0.3, 0.6, 0.1])
    noise = rng.normal(size=(m, d)) * 0.2 * scale
    X = np.where((kind == 0)[:, None], base[rng.integers(0, n, size=m)] + noise,
                 np.where((kind == 1)[:, None], 2.5 * dirs[rng.integers(0, 3, size=m)] + noise,
                          10.0 * dirs[3] + noise))
    if lattice:
        step = 0.5 * scale
        base, X = np.round(base / step) * step, np.round(X / step) * step
    return base, X


def stream_and_loop(base, X, th, capacity, chunk_rows, groups=2):
    """(verdicts, index, registry) of classify_stream and of the classify
    loop on fresh copies of the same index, whose rows take ``groups``
    labels in turn, with a pending buffer of ``capacity`` rows and screen
    chunks of ``chunk_rows`` rows at the start."""
    out = []
    for run in (lambda i, r: classify_stream(i, r, X, th),
                lambda i, r: [classify_one(i, r, q, th) for q in X]):
        index = NNIndex(base, [f"c{i % groups}" for i in range(len(base))])
        registry = ClassRegistry()
        with mock.patch.object(cbr_mod, "PENDING_CAPACITY", capacity), \
                mock.patch.object(index_mod, "CHUNK_BYTES", 8 * index._width(th.k) * chunk_rows):
            out.append((run(index, registry), index, registry))
    return out


def assert_same_runs(stream, loop):
    (got, index, registry), (want, index_l, registry_l) = stream, loop
    assert got == want
    assert index._matrix.tobytes() == index_l._matrix.tobytes()
    assert index._tail.tobytes() == index_l._tail.tobytes()
    assert index._labels == index_l._labels
    assert registry.pending.tobytes() == registry_l.pending.tobytes()
    assert (registry.evictions, registry.novel_count) == (
        registry_l.evictions, registry_l.novel_count)


@settings(deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([2, 7, 183]), st.integers(1, 30),
       st.integers(1, 80), st.booleans(), st.integers(1, 5), st.integers(1, 4),
       st.integers(1, 6), st.integers(1, 8), st.integers(1, 5))
def test_classify_stream_matches_the_classify_loop(seed, d, n, m, lattice, k, c_min,
                                                   capacity, chunk_rows, groups):
    """classify_stream gives the verdicts, the grown index and the registry
    of one classify call per row, each given its neighbors by a stream of
    that row alone (``classify_one``), on streams that register classes partway
    through a chunk and evict from a small pending buffer, over an index of
    one to five interleaved labels; the chunk and the buffer are cut small
    here."""
    base, X = mixed_stream(np.random.default_rng(seed), d, n, m, lattice)
    th = Thresholds(theta_new=1.0, theta_ood=4.0, k=k, c_min=c_min, r_cohesion=1.0)
    assert_same_runs(*stream_and_loop(base, X, th, capacity, chunk_rows, groups))


def test_classify_stream_registers_and_evicts_mid_chunk():
    """One fixed stream of the property above does what it is for: classes
    register at rows that are not the first of their chunk, and the buffer
    evicts."""
    base, X = mixed_stream(np.random.default_rng(5), 7, 12, 80, False)
    th = Thresholds(theta_new=1.0, theta_ood=4.0, k=3, c_min=3, r_cohesion=1.0)
    stream, loop = stream_and_loop(base, X, th, capacity=4, chunk_rows=6)
    assert_same_runs(stream, loop)
    registered = [i for i, v in enumerate(stream[0]) if v.kind is VerdictKind.REGISTERED]
    assert len(registered) >= 2 and any(i % 6 for i in registered), registered
    assert stream[2].evictions > 0


def test_classify_stream_rank_sets_stay_bounded(monkeypatch):
    """c_min = 1 and only in-between traffic, so every row registers one
    row: each row is ranked over its survivors and the rows its chunk
    inserted before it, at most 2k + one chunk, never the whole stream. The
    chunk's rank counts each row's survivors; ``_neighbors`` merges the
    inserted rows as it yields each row of the chunk."""
    rng = np.random.default_rng(25)
    n, d, k = 3200, 183, 5
    centres = rng.normal(size=(8, d)) * 10
    vectors = centres[rng.integers(0, 8, size=n)] + rng.normal(size=(n, d))
    dirs = rng.normal(size=(200, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    X = centres[rng.integers(0, 8, size=200)] + 30 * dirs
    th = thresholds(theta_new=20.0, theta_ood=33.0, k=k, c_min=1)
    index = NNIndex(vectors, ["x"] * n)
    blocks, survivors, ranked = [], [], []
    screen, neighbors = NNIndex._screen, NNIndex._neighbors

    def counting_screen(self, Q, k):
        blocks.append(len(Q))
        qi, rows, dists = screen(self, Q, k)
        survivors.extend(np.bincount(qi, minlength=len(Q)).tolist())
        return qi, rows, dists

    def counting_neighbors(self, B, ids, dists, screened, k):
        for row in neighbors(self, B, ids, dists, screened, k):
            ranked.append(survivors[len(ranked)] + self.size - screened)
            yield row

    monkeypatch.setattr(NNIndex, "_screen", counting_screen)
    monkeypatch.setattr(NNIndex, "_neighbors", counting_neighbors)
    verdicts = classify_stream(index, ClassRegistry(), X, th)
    # The index grows, so later chunks may be smaller, never larger.
    chunk_rows = blocks[0]
    assert chunk_rows == 40 and max(blocks) == chunk_rows and sum(blocks) == len(X)
    assert all(v.kind is VerdictKind.REGISTERED for v in verdicts)
    assert index.size == n + len(X) and len(ranked) == len(X)
    assert max(ranked) <= 2 * k + chunk_rows, (max(ranked), chunk_rows)
    assert max(ranked) >= chunk_rows - 1
