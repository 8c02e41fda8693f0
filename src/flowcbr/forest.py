"""Random-forest baseline, built from scratch on CART trees.

Trees grow on bootstrap samples with Gini-impurity splits over a random
subset of feature slots per node (ceil(sqrt(d)) by default). Each slot is
sorted once per forest; a node scores its distinct rows in that order, each
weighted by its bootstrap multiplicity. Everything is seeded: the same
config and data always produce the same forest.

A tree has one form, which the JSON snapshot also stores as it is: a list
of node dicts, root first, in pre-order. A leaf is ``{"counts": [...]}``, one
count per class; a split is ``{"slot", "value", "left", "right"}``, where
rows with ``row[slot] <= value`` go to ``left``, a position in the list.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .flows import write_atomic

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


def _best_split(X: np.ndarray, codes: np.ndarray, order: np.ndarray, positions: np.ndarray,
                candidates: np.ndarray, counts: np.ndarray,
                min_samples_leaf: int) -> tuple[float, int, float] | None:
    """Best (score, slot, threshold) over candidate slots, or None.

    The score is sum(left_counts^2)/n_left + sum(right_counts^2)/n_right;
    maximizing it minimizes the weighted Gini impurity of the children.
    All slots are scored in one pass of exact integer cumsums over the node's
    distinct rows in ``order`` (X's rows by value, per slot), weighted by their
    counts in ``positions``. Ties go to the first slot, then its first split.
    """
    mult = np.bincount(positions, minlength=X.shape[0])
    rows = order[candidates]
    rows = np.compress(mult.take(rows).ravel() > 0, rows).reshape(candidates.size, -1)  # (m, u)
    if rows.shape[1] < 2:  # one distinct row has no split point
        return None
    vals = X.take(np.multiply(rows, X.shape[1], dtype=np.intp) + candidates[:, None])
    w, row_codes = mult.take(rows[:, :-1]), codes.take(rows[:, :-1])
    left_n = np.cumsum(w, axis=1)
    left = (row_codes == np.flatnonzero(counts)[:, None, None]) * w  # (classes, m, u - 1)
    np.cumsum(left, axis=2, out=left)  # in place: one such block alive at a time
    left_sq = np.einsum("cij,cij->ij", left, left)
    right_sq = counts @ counts - 2 * np.cumsum(w * counts.take(row_codes), axis=1) + left_sq
    right_n = positions.size - left_n
    valid = ((vals[:, :-1] < vals[:, 1:])
             & (left_n >= min_samples_leaf) & (right_n >= min_samples_leaf))
    score = np.where(valid, left_sq / left_n + right_sq / right_n, -np.inf)
    j, col = np.unravel_index(score.argmax(), score.shape)  # first max, row-major
    if score[j, col] == -np.inf:
        return None
    lo, hi = vals[j, col], vals[j, col + 1]
    threshold = (lo + hi) / 2.0  # may round to hi, or overflow to -inf
    if not lo <= threshold < hi:
        threshold = lo
    return float(score[j, col]), int(candidates[j]), float(threshold)


def _grow(X: np.ndarray, codes: np.ndarray, order: np.ndarray, positions: np.ndarray,
          n_classes: int, config: ForestConfig, fps: int,
          rng: np.random.Generator, depth: int, nodes: list[dict]) -> int:
    """Append the subtree of ``positions`` to ``nodes`` in pre-order; return its root's position."""
    at = len(nodes)
    counts = np.bincount(codes[positions], minlength=n_classes)
    nodes.append({"counts": counts.tolist()})
    n = positions.size
    if (np.count_nonzero(counts) == 1
            or n < 2 * config.min_samples_leaf
            or (config.max_depth is not None and depth >= config.max_depth)):
        return at
    candidates = np.sort(rng.choice(X.shape[1], size=fps, replace=False))
    best = _best_split(X, codes, order, positions, candidates, counts, config.min_samples_leaf)
    if best is None:
        return at
    score, slot, threshold = best
    parent_score = float((counts.astype(np.float64) ** 2).sum()) / n
    if (score - parent_score) / n <= MIN_IMPROVEMENT:
        return at
    mask = X[positions, slot] <= threshold
    left = _grow(X, codes, order, positions[mask], n_classes, config, fps, rng, depth + 1, nodes)
    right = _grow(X, codes, order, positions[~mask], n_classes, config, fps, rng, depth + 1, nodes)
    nodes[at] = {"slot": slot, "value": threshold, "left": left, "right": right}
    return at


def _tree_votes(nodes: list[dict], X: np.ndarray) -> np.ndarray:
    """Per-row class code voted by this tree (leaf majority, first on ties)."""
    out = np.empty(X.shape[0], dtype=np.int64)
    stack = [(0, np.arange(X.shape[0]))]  # (node, the rows that reach it)
    while stack:
        at, idx = stack.pop()
        node = nodes[at]
        if "counts" in node:
            out[idx] = node["counts"].index(max(node["counts"]))
        elif idx.size:
            mask = X[idx, node["slot"]] <= node["value"]
            stack += [(node["left"], idx[mask]), (node["right"], idx[~mask])]
    return out


def _well_formed(nodes: object, n_classes: int) -> bool:
    """Whether ``nodes`` is a non-empty node list whose leaves count
    ``n_classes`` classes and whose every child lies after its parent and
    inside the list; that rule also makes every walk end."""
    if not isinstance(nodes, list) or not nodes:
        return False
    for at, node in enumerate(nodes):
        keys = node.keys() if isinstance(node, dict) else set()
        if keys == {"counts"}:
            ints, width = node["counts"], n_classes
        elif keys == {"slot", "value", "left", "right"} and type(node["value"]) in (int, float):
            ints, width = [node["slot"], node["left"], node["right"]], 3
        else:
            return False
        if not (isinstance(ints, list) and len(ints) == width
                and all(type(i) is int and i >= 0 for i in ints)):
            return False
        if "slot" in node and not at < min(ints[1:]) <= max(ints[1:]) < len(nodes):
            return False
    return True


@dataclass(eq=False)
class RandomForest:
    config: ForestConfig
    classes: np.ndarray
    trees: list[list[dict]]  # node lists, see the module docstring
    oob_score: float | None = None

    def predict_batch(self, X: np.ndarray) -> tuple[list[str], np.ndarray]:
        """(labels, vote fractions) for each row by majority over trees."""
        if X.ndim != 2:
            raise ValueError("predict_batch expects a 2-D matrix")
        top = max((node["slot"] for tree in self.trees for node in tree if "slot" in node),
                  default=-1)
        if top >= X.shape[1]:
            raise ValueError(f"a split reads slot {top}, but the rows have {X.shape[1]} slots")
        tally = np.zeros((X.shape[0], self.classes.size), dtype=np.int64)
        for tree in self.trees:
            tally[np.arange(X.shape[0]), _tree_votes(tree, X)] += 1
        winners = tally.argmax(axis=1)
        fractions = tally[np.arange(X.shape[0]), winners] / len(self.trees)
        return [str(self.classes[w]) for w in winners], fractions

    def save(self, path: str | Path) -> None:
        doc = {"format_version": SNAPSHOT_VERSION, "config": asdict(self.config),
               "classes": [str(c) for c in self.classes], "oob_score": self.oob_score,
               "trees": self.trees}
        write_atomic(path, json.dumps(doc, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> RandomForest:
        """Read what ``save`` wrote; anything else is a ValueError naming ``path``."""
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ValueError(f"corrupt forest snapshot {path}: {exc}") from None
        if (not isinstance(doc, dict) or doc.get("format_version") != SNAPSHOT_VERSION
                or doc.keys() != {"format_version", "config", "classes", "oob_score", "trees"}):
            raise ValueError(f"{path}: not a version {SNAPSHOT_VERSION} forest snapshot")
        try:
            config = ForestConfig(**doc["config"])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: bad forest config: {exc}") from None
        classes, trees, oob_score = doc["classes"], doc["trees"], doc["oob_score"]
        if not (isinstance(classes, list) and classes and all(type(c) is str for c in classes)
                and (oob_score is None or type(oob_score) in (int, float))
                and isinstance(trees, list) and len(trees) == config.n_trees
                and all(_well_formed(t, len(classes)) for t in trees)):
            raise ValueError(f"{path}: want class names, a numeric or null oob_score and "
                             f"{config.n_trees} trees of well-formed nodes")
        return cls(config, np.array(classes), trees, oob_score)


def train_forest(X: np.ndarray, y: list[str] | np.ndarray,
                 config: ForestConfig) -> RandomForest:
    X = np.ascontiguousarray(X, dtype=np.float64)  # _best_split gathers by flat index
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("training needs a non-empty 2-D matrix")
    if np.shape(y) != X.shape[:1]:
        raise ValueError(f"training needs one label per row: {np.size(y)} labels, {X.shape[0]} rows")
    classes, codes = np.unique(np.asarray(y), return_inverse=True)
    if classes.size < 2:
        raise ValueError("training needs at least 2 classes")
    n, d = X.shape
    fps = config.features_per_split
    if fps is None:
        fps = math.ceil(math.sqrt(d))
    if not 1 <= fps <= d:
        raise ValueError(f"features_per_split must be in [1, {d}]")

    order = np.argsort(X, axis=0, kind="stable").T.astype(np.int32)  # (d, n): rows by value
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(config.seed).spawn(config.n_trees)]
    trees: list[list[dict]] = []
    oob_tally = np.zeros((n, classes.size), dtype=np.int64)
    for rng in rngs:
        sample = rng.integers(0, n, size=n) if config.bootstrap else np.arange(n)
        oob = np.flatnonzero(np.bincount(sample, minlength=n) == 0)
        trees.append([])
        _grow(X, codes, order, sample, classes.size, config, fps, rng, 0, trees[-1])
        oob_tally[oob, _tree_votes(trees[-1], X[oob])] += 1

    covered = oob_tally.sum(axis=1) > 0
    hits = oob_tally[covered].argmax(axis=1) == codes[covered]
    oob_score = float(hits.mean()) if covered.any() else None
    return RandomForest(config, classes, trees, oob_score)
