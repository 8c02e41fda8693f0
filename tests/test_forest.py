"""Random-forest tests.

A reference CART builder written with plain scalar loops must grow the tree
the package's vectorized ``_grow`` grows on every row once with every slot a
candidate at every node, node for node, threshold for threshold. The
forest build as first written, which sorted every node from scratch, is kept
in ``forest_oracle``; the package must grow the same forest as it, compared
as ``forest_oracle.forest_text``.
"""

import gc
import hashlib
import itertools
import weakref

import forest_oracle as oracle
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowcbr import forest as forest_mod
from flowcbr.cbr import PENDING_CAPACITY, ClassRegistry, VerdictKind
from flowcbr.features import extract_matrix, fit_normalizer
from flowcbr.forest import RandomForest, train_forest
from flowcbr.harness import OOD_LABEL, PENDING_LABEL, PipelineConfig, combined_label
from flowcbr.index import NNIndex
from flowcbr.synth import default_templates, synth_generate
from knn_helpers import classify_one, thresholds

MIN_IMPROVEMENT = 1e-12


def ref_best_split(X, codes, positions, n_classes):
    """Exhaustive split search, one candidate threshold at a time."""
    n = len(positions)
    best = None
    for slot in range(X.shape[1]):
        pairs = sorted(((X[p, slot], codes[p]) for p in positions),
                       key=lambda t: t[0])
        vals = [v for v, _ in pairs]
        cds = [c for _, c in pairs]
        total = [0] * n_classes
        for c in cds:
            total[c] += 1
        left = [0] * n_classes
        slot_best = None
        for i in range(n - 1):
            left[cds[i]] += 1
            left_n = i + 1
            right_n = n - left_n
            if not vals[i] < vals[i + 1]:
                continue
            score = (sum(c * c for c in left) / left_n
                     + sum((t - l) ** 2 for t, l in zip(total, left)) / right_n)
            if slot_best is None or score > slot_best[0]:
                slot_best = (score, i)
        if slot_best is None:
            continue
        score, i = slot_best
        if best is None or score > best[0]:
            threshold = (vals[i] + vals[i + 1]) / 2.0
            if threshold >= vals[i + 1]:
                threshold = float(vals[i])
            best = (score, slot, threshold)
    return best


def sort_tables(X):
    """``order`` (X's rows by value, per slot) and its inverse ``rank``, as
    train_forest builds them for _best_split."""
    order = np.argsort(X, axis=0, kind="stable").T.astype(np.int32, order="C")
    return order, np.argsort(order, axis=1).astype(np.int32)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=2, max_value=60),
       st.integers(min_value=1, max_value=12),
       st.integers(min_value=2, max_value=5),
       st.sampled_from([None, 1, 2, 4]),
       st.data())
def test_best_split_matches_reference_on_candidate_subset(seed, n, d, n_classes,
                                                          n_values, data):
    """The vectorized search over a random candidate subset equals the
    exhaustive reference run on those slots alone. Positions are drawn with
    replacement, as a bootstrap draws them, so rows come with multiplicities.
    Few distinct values (n_values) make tied split points, None draws
    continuous values; duplicated columns make slots tie, mirrored codes
    make split points of one slot tie; constant columns and a draw of one
    row leave slots, or the whole node, without a valid split."""
    rng = np.random.default_rng(seed)
    if n_values is None:
        X = rng.normal(size=(n, d))
    else:
        X = rng.integers(0, n_values, size=(n, d)) * 0.5
    codes = rng.integers(0, n_classes, size=n)
    positions = rng.choice(n, size=data.draw(st.integers(2, n)), replace=True)
    kind = data.draw(st.sampled_from(["plain", "duplicate", "constant", "mirror"]))
    if kind == "duplicate" and d > 1:
        X[:, rng.integers(d, size=d)] = X[:, [rng.integers(d)]]
    elif kind == "constant":
        X[:, rng.integers(d, size=d // 2 + 1)] = 1.0
    elif kind == "mirror":  # a symmetric code sequence: split points i and n-2-i tie
        X[:] = np.arange(n)[:, None]
        codes = codes[np.minimum(np.arange(n), n - 1 - np.arange(n))]
        positions = np.arange(n)
    m = data.draw(st.integers(min_value=1, max_value=d))
    candidates = np.sort(rng.choice(d, size=m, replace=False))
    counts = np.bincount(codes[positions], minlength=n_classes)
    got = forest_mod._best_split(X, codes, *sort_tables(X), positions, candidates, counts)
    want = ref_best_split(X[:, candidates], codes, positions, n_classes)
    if want is None:
        assert got is None
    else:
        score, slot, threshold = want
        assert got == (score, int(candidates[slot]), threshold)


@pytest.mark.parametrize("n", [32767, 40000, 50000])
def test_best_split_matches_reference_in_both_integer_widths(n):
    """A node of up to 32767 bootstrap positions counts in int32, a larger
    one in int64. At 50000 positions, 95% of one class, the best split of
    slot 0 cuts off the other classes; the squared count of its side passes
    2**31, so an int32 count would wrap there."""
    rng = np.random.default_rng(n)
    codes = np.where(rng.random(300) < 0.95, 0, rng.integers(1, 3, size=300))
    X = rng.integers(0, 4, size=(300, 2)) * 0.25  # few values: tied split points
    X[codes > 0, 0] += 1.0
    positions = rng.integers(0, 300, size=n)
    counts = np.bincount(codes[positions], minlength=3)
    for candidates in (np.array([1]), np.array([0, 1])):
        got = forest_mod._best_split(X, codes, *sort_tables(X), positions, candidates, counts)
        score, slot, threshold = ref_best_split(X[:, candidates], codes, positions, 3)
        assert got == (score, int(candidates[slot]), threshold)


def ref_build_tree(X, codes, positions, n_classes, max_depth, depth=0):
    counts = [0] * n_classes
    for p in positions:
        counts[codes[p]] += 1
    n = len(positions)
    pure = sum(1 for c in counts if c) == 1
    if pure or (max_depth is not None and depth >= max_depth):
        return {"counts": counts}
    best = ref_best_split(X, codes, positions, n_classes)
    if best is None:
        return {"counts": counts}
    score, slot, threshold = best
    parent_score = sum(c * c for c in counts) / n
    if (score - parent_score) / n <= MIN_IMPROVEMENT:
        return {"counts": counts}
    left = [p for p in positions if X[p, slot] <= threshold]
    right = [p for p in positions if X[p, slot] > threshold]
    return {
        "slot": slot, "value": threshold,
        "left": ref_build_tree(X, codes, left, n_classes, max_depth, depth + 1),
        "right": ref_build_tree(X, codes, right, n_classes, max_depth, depth + 1),
    }


def grow_exhaustive(X, codes, n_classes, max_depth, seed):
    """The node list _grow builds on every row once, with all d slots drawn
    as candidates at every node."""
    nodes = []
    forest_mod._grow(X, codes, *sort_tables(X), ~(X == X[0]).all(axis=0), np.arange(len(X)),
                     n_classes, max_depth, X.shape[1], np.random.default_rng(seed), 0, nodes)
    return nodes


def nested(nodes):
    """A pre-order node list as nested dicts, the form ref_build_tree returns."""

    def expand(i):
        node = nodes[i]
        if "counts" in node:
            return {"counts": node["counts"]}
        return {"slot": node["slot"], "value": node["value"],
                "left": expand(node["left"]), "right": expand(node["right"])}

    return expand(0)


def assert_same_tree(got, want, path="root"):
    if "counts" in want:
        assert "counts" in got, f"{path}: expected a leaf"
        assert got["counts"] == want["counts"], path
        return
    assert "counts" not in got, f"{path}: expected a split"
    assert got["slot"] == want["slot"], path
    assert got["value"] == want["value"], path
    assert_same_tree(got["left"], want["left"], path + ".left")
    assert_same_tree(got["right"], want["right"], path + ".right")


def blobs(seed, n=90, d=6, k=3, spread=1.0):
    rng = np.random.default_rng(seed)
    y = np.array([f"c{i % k}" for i in range(n)])
    X = rng.normal(size=(n, d)) * spread
    for j in range(k):
        X[y == f"c{j}", j % d] += 4.0
    return X, y


@pytest.mark.parametrize("seed,max_depth", [(0, None), (1, 3), (2, None), (3, 2)])
def test_single_tree_matches_reference_cart(seed, max_depth):
    X, y = blobs(seed, n=60, d=4)
    classes, codes = np.unique(y, return_inverse=True)
    got = nested(grow_exhaustive(X, codes, classes.size, max_depth, seed))
    want = ref_build_tree(X, codes, list(range(len(y))), classes.size, max_depth)
    assert_same_tree(got, want)


def ref_predict(tree, x, classes):
    while "counts" not in tree:
        tree = tree["left"] if x[tree["slot"]] <= tree["value"] else tree["right"]
    counts = tree["counts"]
    return str(classes[counts.index(max(counts))])


def test_single_tree_predictions_match_reference():
    X, y = blobs(7, n=80, d=5)
    classes, codes = np.unique(y, return_inverse=True)
    forest = RandomForest(classes, [grow_exhaustive(X, codes, classes.size, None, 7)])
    ref = ref_build_tree(X, codes, list(range(len(y))), classes.size, None)
    rng = np.random.default_rng(70)
    probes = np.vstack([X, rng.normal(size=(40, 5)) * 3])
    got = forest.predict_batch(probes)
    want = [ref_predict(ref, x, classes) for x in probes]
    assert got == want


def test_training_is_deterministic():
    X, y = blobs(4)
    a = train_forest(X, y, PipelineConfig(n_trees=12, seed=5))
    b = train_forest(X, y, PipelineConfig(n_trees=12, seed=5))
    assert oracle.forest_text(a) == oracle.forest_text(b)


def test_forest_fits_separable_blobs():
    X, y = blobs(9, n=120, spread=0.5)
    forest = train_forest(X, y, PipelineConfig(n_trees=25, seed=0))
    labels = forest.predict_batch(X)
    assert set(labels) <= set(forest.classes)
    assert np.mean(np.array(labels) == y) >= 0.99
    assert forest.oob_score is not None and 0.0 <= forest.oob_score <= 1.0


def draws_every_row(n):
    """A one-tree config whose bootstrap draws each of n rows once: the
    first seed whose tree's first draw, as train_forest makes it, does."""
    for seed in itertools.count():
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
        if np.unique(rng.integers(0, n, size=n)).size == n:
            return PipelineConfig(n_trees=1, seed=seed)


def test_a_bootstrap_that_draws_every_row_leaves_no_oob():
    """No row is out of bag, so no row has an out-of-bag vote to score."""
    X, y = blobs(2, n=6, d=3)
    forest = train_forest(X, y, draws_every_row(6))
    leaves = [node["counts"] for node in forest.trees[0] if "counts" in node]
    assert np.sum(leaves, axis=0).tolist() == [2, 2, 2]  # the tree saw each row once
    assert forest.oob_score is None


def test_classes_sorted_and_ties_go_first():
    """Classes are sorted by name. A leaf votes its first most counted class,
    and the forest the first class most trees voted for."""
    forest = train_forest(np.arange(8.0).reshape(4, 2), ["zeta", "alpha", "zeta", "alpha"],
                          PipelineConfig(n_trees=5))
    assert list(forest.classes) == ["alpha", "zeta"]
    row = np.array([[1.0, 2.0]])
    tied_leaf = RandomForest(forest.classes, [[{"counts": [2, 2]}]] * 5)
    assert tied_leaf.predict_batch(row) == ["alpha"]
    tied_vote = RandomForest(forest.classes, [[{"counts": [1, 0]}], [{"counts": [0, 3]}]])
    assert tied_vote.predict_batch(row) == ["alpha"]
    assert RandomForest(forest.classes, [[{"counts": [0, 3]}]] * 2).predict_batch(row) == ["zeta"]


def test_max_depth_respected_in_saved_trees():
    X, y = blobs(6, n=100)
    forest = train_forest(X, y, PipelineConfig(n_trees=4, max_depth=2, seed=2))

    def depth(nodes, i=0):
        if "counts" in nodes[i]:
            return 0
        return 1 + max(depth(nodes, nodes[i]["left"]), depth(nodes, nodes[i]["right"]))

    assert all(depth(tree) <= 2 for tree in forest.trees)


def test_training_validation_errors():
    X = np.zeros((4, 3))
    with pytest.raises(ValueError, match="2 classes"):
        train_forest(X, ["a"] * 4, PipelineConfig())
    with pytest.raises(ValueError):
        train_forest(np.zeros((0, 3)), [], PipelineConfig())
    with pytest.raises(ValueError, match="4 labels, 6 rows"):
        train_forest(np.zeros((6, 3)), ["a", "b"] * 2, PipelineConfig())
    with pytest.raises(ValueError, match="8 labels, 6 rows"):
        train_forest(np.zeros((6, 3)), ["a", "b"] * 4, PipelineConfig())
    with pytest.raises(ValueError, match="non-empty 2-D matrix"):  # no slot to split on
        train_forest(np.zeros((4, 0)), ["a", "a", "b", "b"], PipelineConfig())


# Tie-heavy grids: a case draws its cells from a few of these, so slots tie
# within and across rows, ±0.0 tie with each other, NaN never splits, and
# the midpoint of two distinct values near ±1.8e308 overflows. +inf is left
# out: a split just below it takes the last value of the run beneath as its
# threshold, and in a run of ±0.0 that zero's sign follows the bootstrap draw
# order in the oracle but row order here. The split itself is the same.
GRID = [0.0, -0.0, np.nan, 5e-324, -5e-324, 2.2250738585072014e-308, 0.5, 1.0, -1.0,
        1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308]


@st.composite
def forest_cases(draw):
    """(X, labels, config) of up to 30 rows, 5 slots and 4 classes; the
    config draws the tree count, the depth and the seed."""
    n, d = draw(st.integers(2, 30)), draw(st.integers(1, 5))
    pool = draw(st.lists(st.sampled_from(GRID), min_size=1, max_size=4))
    X = np.array(draw(st.lists(st.sampled_from(pool), min_size=n * d, max_size=n * d)))
    codes = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    codes[:2] = [0, 1]
    config = PipelineConfig(n_trees=draw(st.integers(1, 4)),
                            max_depth=draw(st.sampled_from([None, 1, 3])),
                            seed=draw(st.integers(0, 2 ** 32 - 1)))
    return X.reshape(n, d), [f"c{c}" for c in codes], config


def grown_text(train, X, y, config):
    """The ``forest_text`` of ``train``'s forest."""
    with np.errstate(over="ignore"):  # (lo + hi) / 2 near ±1.8e308
        return oracle.forest_text(train(X, y, config))


@settings(deadline=None)
@given(forest_cases())
# the midpoint rounds to hi; overflows to inf; overflows to -inf
@example(case=(np.array([[-5e-324], [0.0]]), ["c0", "c1"], draws_every_row(2)))
@example(case=(np.array([[1e308], [1.7976931348623157e308]]), ["c0", "c1"], draws_every_row(2)))
@example(case=(np.array([[-1.7976931348623157e308], [-1e308], [-1e308], [0.0]]),
               ["c0", "c1", "c0", "c1"], draws_every_row(4)))
def test_forest_saves_the_oracle_bytes(case):
    assert grown_text(train_forest, *case) == grown_text(oracle.train_forest, *case)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_eval_shape_forest_saves_the_oracle_bytes(seed):
    """The forest ``eval`` trains: 8 classes x 70 normalized rows of 183
    slots, 100 trees. The texts are compared by hash: a diff of two such
    texts would take pytest minutes to print."""
    flows = synth_generate(default_templates(8), 70, seed=seed)
    X = extract_matrix(flows)
    X = fit_normalizer(X).transform(X)
    y = [f.label for f in flows]
    config = PipelineConfig(seed=seed)
    got, want = (hashlib.sha256(grown_text(train, X, y, config).encode()).hexdigest()
                 for train in (train_forest, oracle.train_forest))
    assert got == want


def test_constant_slots_never_reach_the_split_search(monkeypatch):
    """A slot that holds one value on every training row can never split, so
    train_forest drops it from every node's candidates; ±0.0 and inf count
    as one value, while NaN equals nothing, so a NaN slot stays a candidate.
    The trees are still the oracle's."""
    X, y = blobs(3, n=80, d=4)
    rng = np.random.default_rng(3)
    constant = {4: np.full(80, 2.5), 5: rng.choice([0.0, -0.0], size=80), 6: np.full(80, np.inf)}
    X = np.column_stack([X, *constant.values(), np.full(80, np.nan)])
    config = PipelineConfig(n_trees=6, seed=3)
    seen = []

    def recording(X, codes, order, rank, positions, candidates, *rest):
        seen.extend(candidates.tolist())
        return best_split(X, codes, order, rank, positions, candidates, *rest)

    best_split = forest_mod._best_split
    monkeypatch.setattr(forest_mod, "_best_split", recording)
    got = grown_text(train_forest, X, y, config)
    assert seen and not set(seen) & set(constant)
    assert 7 in seen
    assert got == grown_text(oracle.train_forest, X, y, config)


def test_tree_votes_keeps_no_reference_to_its_rows():
    """Its rows die as soon as the caller drops them, with the cyclic
    garbage collector off: no reference cycle holds them, so predict_batch
    keeps no caller's matrix alive."""
    X, y = blobs(0)
    tree = train_forest(X, y, PipelineConfig(n_trees=1, seed=0)).trees[0]
    rows = X.copy()
    alive = weakref.ref(rows)
    gc.disable()
    try:
        forest_mod._tree_votes(tree, rows)
        del rows
        assert alive() is None
    finally:
        gc.enable()


def test_predict_batch_requires_matrix():
    X, y = blobs(1)
    forest = train_forest(X, y, PipelineConfig(n_trees=2))
    with pytest.raises(ValueError):
        forest.predict_batch(X[0])


def ensemble_classify(index, registry, forest, q, th):
    """The combined stage on one sample: (retrieval verdict, combined label);
    only a Known verdict takes the forest's label."""
    verdict = classify_one(index, registry, q, th)
    return verdict, combined_label(verdict, forest.predict_batch(q[None])[0])


def ensemble_setup():
    """1-D world: retrieval point at 0, forest trained on two blobs."""
    index = NNIndex(np.array([[0.0]]), ["base"])
    registry = ClassRegistry()
    th = thresholds(theta_new=1.0, theta_ood=2.0, k=1)
    Xf = np.array([[0.0], [0.1], [0.2], [5.0], [5.1], [5.2]])
    yf = ["low", "low", "low", "high", "high", "high"]
    forest = train_forest(Xf, yf, PipelineConfig(n_trees=9, seed=0))
    return index, registry, forest, th


def test_ensemble_known_goes_to_forest():
    index, registry, forest, th = ensemble_setup()
    verdict, label = ensemble_classify(index, registry, forest, np.array([0.3]), th)
    assert verdict.kind is VerdictKind.KNOWN and verdict.label == "base"
    assert label == "low"


def test_ensemble_ood_and_pending_pass_through():
    index, registry, forest, th = ensemble_setup()
    verdict, label = ensemble_classify(index, registry, forest, np.array([9.0]), th)
    assert verdict.kind is VerdictKind.OOD
    assert label == OOD_LABEL

    verdict, label = ensemble_classify(index, registry, forest, np.array([1.5]), th)
    assert verdict.kind is VerdictKind.PENDING
    assert label == PENDING_LABEL


def test_ensemble_never_forest_labels_an_ood_sample():
    # c_min is set out of reach of the stream's 200 samples so the index
    # stays frozen and distance from the origin remains the ground truth for
    # the whole stream
    index, registry, forest, _ = ensemble_setup()
    th = thresholds(theta_new=1.0, theta_ood=2.0, k=1, c_min=PENDING_CAPACITY)
    rng = np.random.default_rng(0)
    for _ in range(200):
        q = np.array([rng.uniform(-10, 10)])
        verdict, label = ensemble_classify(index, registry, forest, q, th)
        if abs(q[0]) > th.theta_ood:
            assert verdict.kind is VerdictKind.OOD and label == OOD_LABEL
