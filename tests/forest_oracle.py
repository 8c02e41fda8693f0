"""The forest build as first written, kept as a test oracle.

Every node argsorts its candidate slots over its bootstrap positions from
scratch and scores every position, duplicates included. ``flowcbr.forest``
must grow the same trees: ``forest_text`` gives the same text for the same
rows, labels and config (its ``n_trees``, ``max_depth`` and ``seed``).
"""

from __future__ import annotations

import json
import math

import numpy as np

from flowcbr.forest import MIN_IMPROVEMENT, RandomForest, _tree_votes
from flowcbr.harness import PipelineConfig


def forest_text(forest: RandomForest) -> str:
    """Everything ``forest`` holds as one JSON text: its classes, its
    out-of-bag score and its node lists, NaN and infinite split values
    included, so two forests are the same exactly when their texts are."""
    return json.dumps({"classes": [str(c) for c in forest.classes],
                       "oob_score": forest.oob_score, "trees": forest.trees}, sort_keys=True)


def _best_split(X: np.ndarray, codes: np.ndarray, positions: np.ndarray,
                candidates: np.ndarray, counts: np.ndarray) -> tuple[float, int, float] | None:
    """Best (score, slot, threshold) over candidate slots, or None.

    The score is sum(left_counts^2)/n_left + sum(right_counts^2)/n_right;
    maximizing it minimizes the weighted Gini impurity of the children.
    All slots are scored in one pass from integer counts (one class of the
    node's ``counts`` at a time), so the score is exact float arithmetic.
    Ties go to a slot's first split point, then to the first slot.
    """
    n = positions.size
    block = X.T[np.ix_(candidates, positions)]  # (m, n): one row per slot
    order = np.argsort(block, axis=1, kind="stable")
    sorted_vals = np.take_along_axis(block, order, axis=1)
    sorted_codes = codes[positions][order[:, :-1]]
    left_sq = np.zeros((candidates.size, n - 1), dtype=np.int64)
    right_sq = np.zeros_like(left_sq)
    for c in np.flatnonzero(counts):
        left = np.cumsum(sorted_codes == c, axis=1)
        left_sq += left * left
        right = counts[c] - left
        right_sq += right * right
    left_n = np.arange(1, n, dtype=np.float64)
    right_n = n - left_n
    score = np.where(sorted_vals[:, :-1] < sorted_vals[:, 1:],
                     left_sq / left_n + right_sq / right_n, -np.inf)
    cols = score.argmax(axis=1)
    slot_best = score[np.arange(candidates.size), cols]
    j = int(np.argmax(slot_best))
    if slot_best[j] == -np.inf:
        return None
    lo, hi = sorted_vals[j, cols[j]], sorted_vals[j, cols[j] + 1]
    threshold = (lo + hi) / 2.0  # may round to hi, or overflow to -inf
    if not lo <= threshold < hi:
        threshold = lo
    return float(slot_best[j]), int(candidates[j]), float(threshold)


def _grow(X: np.ndarray, codes: np.ndarray, positions: np.ndarray,
          n_classes: int, max_depth: int | None, fps: int,
          rng: np.random.Generator, depth: int, nodes: list[dict]) -> int:
    """Append the subtree of ``positions`` to ``nodes`` in pre-order; return its root's position."""
    at = len(nodes)
    counts = np.bincount(codes[positions], minlength=n_classes)
    nodes.append({"counts": counts.tolist()})
    n = positions.size
    if np.count_nonzero(counts) == 1 or (max_depth is not None and depth >= max_depth):
        return at
    candidates = np.sort(rng.choice(X.shape[1], size=fps, replace=False))
    best = _best_split(X, codes, positions, candidates, counts)
    if best is None:
        return at
    score, slot, threshold = best
    parent_score = float((counts.astype(np.float64) ** 2).sum()) / n
    if (score - parent_score) / n <= MIN_IMPROVEMENT:
        return at
    mask = X[positions, slot] <= threshold
    left = _grow(X, codes, positions[mask], n_classes, max_depth, fps, rng, depth + 1, nodes)
    right = _grow(X, codes, positions[~mask], n_classes, max_depth, fps, rng, depth + 1, nodes)
    nodes[at] = {"slot": slot, "value": threshold, "left": left, "right": right}
    return at


def train_forest(X: np.ndarray, y: list[str] | np.ndarray,
                 config: PipelineConfig) -> RandomForest:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.size == 0:
        raise ValueError("training needs a non-empty 2-D matrix")
    classes, codes = np.unique(np.asarray(y), return_inverse=True)
    if classes.size < 2:
        raise ValueError("training needs at least 2 classes")
    n, d = X.shape
    fps = math.ceil(math.sqrt(d))

    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(config.seed).spawn(config.n_trees)]
    trees: list[list[dict]] = []
    oob_tally = np.zeros((n, classes.size), dtype=np.int64)
    for rng in rngs:
        sample = rng.integers(0, n, size=n)
        oob = np.setdiff1d(np.arange(n), sample)
        trees.append([])
        _grow(X, codes, sample, classes.size, config.max_depth, fps, rng, 0, trees[-1])
        if oob.size:
            oob_tally[oob, _tree_votes(trees[-1], X[oob])] += 1

    covered = oob_tally.sum(axis=1) > 0
    hits = oob_tally[covered].argmax(axis=1) == codes[covered]
    oob_score = float(hits.mean()) if covered.any() else None
    return RandomForest(classes, trees, oob_score)
