"""Random-forest baseline, built from scratch on CART trees.

Trees grow on bootstrap samples with Gini-impurity splits over a random
subset of feature slots per node (ceil(sqrt(d)) by default), all scored in
one vectorized pass. Everything is seeded: the same config and data always
produce the same forest.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SNAPSHOT_VERSION = 1
MIN_IMPROVEMENT = 1e-12
DEFAULT_N_TREES = 100


@dataclass
class ForestConfig:
    n_trees: int = DEFAULT_N_TREES
    max_depth: int | None = None
    min_samples_leaf: int = 1
    features_per_split: int | None = None
    bootstrap: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")


class _Node:
    __slots__ = ("slot", "value", "left", "right", "counts")

    def __init__(self, slot=None, value=None, left=None, right=None, counts=None):
        self.slot = slot
        self.value = value
        self.left = left
        self.right = right
        self.counts = counts


def _best_split(X: np.ndarray, codes: np.ndarray, positions: np.ndarray,
                candidates: np.ndarray, counts: np.ndarray,
                min_samples_leaf: int) -> tuple[float, int, float] | None:
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
    valid = ((sorted_vals[:, :-1] < sorted_vals[:, 1:])
             & (left_n >= min_samples_leaf) & (right_n >= min_samples_leaf))
    score = np.where(valid, left_sq / left_n + right_sq / right_n, -np.inf)
    cols = score.argmax(axis=1)
    slot_best = score[np.arange(candidates.size), cols]
    j = int(np.argmax(slot_best))
    if slot_best[j] == -np.inf:
        return None
    lo, hi = sorted_vals[j, cols[j]], sorted_vals[j, cols[j] + 1]
    threshold = (lo + hi) / 2.0
    if threshold >= hi:
        threshold = float(lo)
    return float(slot_best[j]), int(candidates[j]), float(threshold)


def _build_tree(X: np.ndarray, codes: np.ndarray, positions: np.ndarray,
                n_classes: int, config: ForestConfig, fps: int,
                rng: np.random.Generator, depth: int) -> _Node:
    counts = np.bincount(codes[positions], minlength=n_classes)
    n = positions.size
    if (np.count_nonzero(counts) == 1
            or n < 2 * config.min_samples_leaf
            or (config.max_depth is not None and depth >= config.max_depth)):
        return _Node(counts=counts)
    candidates = np.sort(rng.choice(X.shape[1], size=fps, replace=False))
    best = _best_split(X, codes, positions, candidates, counts, config.min_samples_leaf)
    if best is None:
        return _Node(counts=counts)
    score, slot, threshold = best
    parent_score = float((counts.astype(np.float64) ** 2).sum()) / n
    if (score - parent_score) / n <= MIN_IMPROVEMENT:
        return _Node(counts=counts)
    mask = X[positions, slot] <= threshold
    return _Node(
        slot=slot, value=threshold,
        left=_build_tree(X, codes, positions[mask], n_classes, config, fps, rng, depth + 1),
        right=_build_tree(X, codes, positions[~mask], n_classes, config, fps, rng, depth + 1),
    )


def _tree_votes(root: _Node, X: np.ndarray) -> np.ndarray:
    """Per-row class code voted by this tree (leaf majority, first on ties)."""
    out = np.empty(X.shape[0], dtype=np.int64)

    def walk(node: _Node, idx: np.ndarray) -> None:
        if idx.size == 0:
            return
        if node.counts is not None:
            out[idx] = int(np.argmax(node.counts))
            return
        mask = X[idx, node.slot] <= node.value
        walk(node.left, idx[mask])
        walk(node.right, idx[~mask])

    walk(root, np.arange(X.shape[0]))
    return out


class RandomForest:
    def __init__(self, config: ForestConfig, classes: np.ndarray,
                 trees: list[_Node], oob_score: float | None = None) -> None:
        self.config = config
        self.classes = classes
        self.trees = trees
        self.oob_score = oob_score

    def predict_batch(self, X: np.ndarray) -> tuple[list[str], np.ndarray]:
        """(labels, vote fractions) for each row by majority over trees."""
        if X.ndim != 2:
            raise ValueError("predict_batch expects a 2-D matrix")
        tally = np.zeros((X.shape[0], self.classes.size), dtype=np.int64)
        for tree in self.trees:
            votes = _tree_votes(tree, X)
            tally[np.arange(X.shape[0]), votes] += 1
        winners = tally.argmax(axis=1)
        fractions = tally[np.arange(X.shape[0]), winners] / len(self.trees)
        return [str(self.classes[w]) for w in winners], fractions

    def save(self, path: str | Path) -> None:
        doc = {
            "format_version": SNAPSHOT_VERSION,
            "config": {
                "n_trees": self.config.n_trees,
                "max_depth": self.config.max_depth,
                "min_samples_leaf": self.config.min_samples_leaf,
                "features_per_split": self.config.features_per_split,
                "bootstrap": self.config.bootstrap,
                "seed": self.config.seed,
            },
            "classes": [str(c) for c in self.classes],
            "oob_score": self.oob_score,
            "trees": [_serialize_tree(t) for t in self.trees],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str | Path) -> RandomForest:
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"corrupt forest snapshot {path}: {exc}") from None
        if doc.get("format_version") != SNAPSHOT_VERSION:
            raise ValueError(f"unsupported snapshot version {doc.get('format_version')!r}")
        config = ForestConfig(**doc["config"])
        classes = np.array(doc["classes"])
        trees = [_deserialize_tree(t) for t in doc["trees"]]
        return cls(config, classes, trees, doc.get("oob_score"))


def _serialize_tree(root: _Node) -> list[dict]:
    nodes: list[dict] = []

    def walk(node: _Node) -> int:
        slot = len(nodes)
        if node.counts is not None:
            nodes.append({"counts": [int(c) for c in node.counts]})
            return slot
        nodes.append({})
        left = walk(node.left)
        right = walk(node.right)
        nodes[slot] = {"slot": node.slot, "value": node.value, "left": left, "right": right}
        return slot

    walk(root)
    return nodes


def _deserialize_tree(nodes: list[dict]) -> _Node:
    def build(i: int) -> _Node:
        doc = nodes[i]
        if "counts" in doc:
            return _Node(counts=np.array(doc["counts"], dtype=np.int64))
        return _Node(slot=int(doc["slot"]), value=float(doc["value"]),
                     left=build(int(doc["left"])), right=build(int(doc["right"])))

    return build(0)


def train_forest(X: np.ndarray, y: list[str] | np.ndarray,
                 config: ForestConfig) -> RandomForest:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("training needs a non-empty 2-D matrix")
    classes, codes = np.unique(np.asarray(y), return_inverse=True)
    if classes.size < 2:
        raise ValueError("training needs at least 2 classes")
    n, d = X.shape
    fps = config.features_per_split
    if fps is None:
        fps = math.ceil(math.sqrt(d))
    if not 1 <= fps <= d:
        raise ValueError(f"features_per_split must be in [1, {d}]")

    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(config.seed).spawn(config.n_trees)]
    trees = []
    oob_tally = np.zeros((n, classes.size), dtype=np.int64)
    for rng in rngs:
        if config.bootstrap:
            sample = rng.integers(0, n, size=n)
            oob = np.setdiff1d(np.arange(n), sample)
        else:
            sample = np.arange(n)
            oob = np.zeros(0, dtype=np.int64)
        tree = _build_tree(X, codes, sample, classes.size, config, fps, rng, depth=0)
        trees.append(tree)
        if oob.size:
            votes = _tree_votes(tree, X[oob])
            oob_tally[oob, votes] += 1

    oob_score = None
    if config.bootstrap:
        covered = oob_tally.sum(axis=1) > 0
        if covered.any():
            hits = oob_tally[covered].argmax(axis=1) == codes[covered]
            oob_score = float(hits.mean())
    return RandomForest(config, classes, trees, oob_score)

