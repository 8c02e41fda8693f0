"""Random-forest baseline, built from scratch on CART trees.

Each tree grows on a bootstrap sample of the rows, with Gini-impurity
splits over ceil(sqrt(d)) feature slots drawn at random per node, until a
node is pure, has no split that lowers its impurity, or reaches the
config's ``max_depth``. Everything is seeded: the same config and data
always produce the same forest.

The split search tries every split point and counts in integers. Each slot
is sorted once per forest, into a table of rows by value and its inverse,
each row's rank. A node collects its u distinct rows in value order by
sorting their ranks in each candidate slot, so the work per slot follows u,
not the training rows; it then scores every split point from class-count
cumsums, each row weighted by its bootstrap multiplicity. Every count in a
node of n positions is at most 2 n^2, so the search counts in int32 while
2 n^2 < 2^31 (n <= 32767) and in int64 above. A slot that holds one value
on every training row (±0.0 and inf included) has no split point, so the
forest drops it from every node's candidates after drawing them; NaN
equals nothing, so a NaN slot stays.

A tree is one list of node dicts, root first, in pre-order. A leaf is
``{"counts": [...]}``, one count per class; a split is ``{"slot", "value",
"left", "right"}``, where rows with ``row[slot] <= value`` go to ``left``,
a position in the list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .harness import PipelineConfig

MIN_IMPROVEMENT = 1e-12


def _best_split(X: np.ndarray, codes: np.ndarray, order: np.ndarray, rank: np.ndarray,
                positions: np.ndarray, candidates: np.ndarray,
                counts: np.ndarray) -> tuple[float, int, float] | None:
    """Best (score, slot, threshold) over candidate slots, or None.

    The score is sum(left_counts^2)/n_left + sum(right_counts^2)/n_right;
    maximizing it minimizes the weighted Gini impurity of the children.
    All slots are scored in one pass of exact integer cumsums over the node's
    distinct rows in value order, weighted by their counts in ``positions``.
    ``order`` lists X's rows by value per slot and ``rank`` is its inverse.
    Ties go to the first slot, then its first split.
    """
    n = positions.size  # every count below is at most 2 n^2 in magnitude
    dtype = np.int32 if 2 * n * n < 2 ** 31 else np.int64
    mult = np.bincount(positions, minlength=X.shape[0]).astype(dtype)
    distinct = np.flatnonzero(mult)
    if distinct.size < 2:  # one distinct row has no split point
        return None
    at = np.multiply(candidates, X.shape[0], dtype=np.intp)[:, None]
    ranks = rank.take(at + distinct)  # (m, u)
    ranks.sort(axis=1)
    rows = order.take(at + ranks)  # the node's distinct rows by value, per slot
    vals = X.take(np.multiply(rows, X.shape[1], dtype=np.intp) + candidates[:, None])
    w, row_codes = mult.take(rows[:, :-1]), codes.take(rows[:, :-1])
    left_n = np.cumsum(w, axis=1, dtype=dtype)
    left = (row_codes == np.flatnonzero(counts)[:, None, None]) * w  # (classes, m, u - 1)
    np.cumsum(left, axis=2, out=left)  # in place: one such block alive at a time
    left_sq = np.square(left, out=left).sum(axis=0, dtype=dtype)
    counts = counts.astype(dtype)
    right_sq = counts @ counts - 2 * np.cumsum(w * counts.take(row_codes), axis=1, dtype=dtype)
    right_sq += left_sq
    # every side holds a row: the last distinct row is never on the left
    score = np.where(vals[:, :-1] < vals[:, 1:], left_sq / left_n + right_sq / (n - left_n),
                     -np.inf)
    j, col = np.unravel_index(score.argmax(), score.shape)  # first max, row-major
    if score[j, col] == -np.inf:
        return None
    lo, hi = vals[j, col], vals[j, col + 1]
    threshold = (lo + hi) / 2.0  # may round to hi, or overflow to -inf
    if not lo <= threshold < hi:
        threshold = lo
    return float(score[j, col]), int(candidates[j]), float(threshold)


def _grow(X: np.ndarray, codes: np.ndarray, order: np.ndarray, rank: np.ndarray,
          splittable: np.ndarray, positions: np.ndarray, n_classes: int,
          max_depth: int | None, fps: int, rng: np.random.Generator, depth: int,
          nodes: list[dict]) -> int:
    """Append the subtree of ``positions`` to ``nodes`` in pre-order; return its root's position."""
    at = len(nodes)
    counts = np.bincount(codes[positions], minlength=n_classes)
    nodes.append({"counts": counts.tolist()})
    n = positions.size
    if np.count_nonzero(counts) == 1 or (max_depth is not None and depth >= max_depth):
        return at
    candidates = np.sort(rng.choice(X.shape[1], size=fps, replace=False))
    candidates = candidates[splittable.take(candidates)]
    best = (_best_split(X, codes, order, rank, positions, candidates, counts)
            if candidates.size else None)
    if best is None:
        return at
    score, slot, threshold = best
    parent_score = float((counts.astype(np.float64) ** 2).sum()) / n
    if (score - parent_score) / n <= MIN_IMPROVEMENT:
        return at
    mask = X[positions, slot] <= threshold
    args = (X, codes, order, rank, splittable)
    left = _grow(*args, positions[mask], n_classes, max_depth, fps, rng, depth + 1, nodes)
    right = _grow(*args, positions[~mask], n_classes, max_depth, fps, rng, depth + 1, nodes)
    nodes[at] = {"slot": slot, "value": threshold, "left": left, "right": right}
    return at


def _tree_votes(nodes: list[dict], X: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
    """Class code voted by this tree (leaf majority, first on ties) for each
    of X's ``rows``, every row by default."""
    out = np.empty(X.shape[0], dtype=np.int64)
    stack = [(0, np.arange(X.shape[0]) if rows is None else rows)]  # (node, rows that reach it)
    while stack:
        at, idx = stack.pop()
        node = nodes[at]
        if "counts" in node:
            out[idx] = node["counts"].index(max(node["counts"]))
        elif idx.size:
            mask = X[idx, node["slot"]] <= node["value"]
            stack += [(node["left"], idx[mask]), (node["right"], idx[~mask])]
    return out if rows is None else out[rows]


@dataclass(eq=False)
class RandomForest:
    classes: np.ndarray
    trees: list[list[dict]]  # node lists, see the module docstring
    oob_score: float | None = None

    def predict_batch(self, X: np.ndarray) -> list[str]:
        """The label of each row of X: the class most trees vote for, the
        first class on ties. X has the width of the training rows."""
        if X.ndim != 2:
            raise ValueError("predict_batch expects a 2-D matrix")
        tally = np.zeros((X.shape[0], self.classes.size), dtype=np.int64)
        for tree in self.trees:
            tally[np.arange(X.shape[0]), _tree_votes(tree, X)] += 1
        return [str(self.classes[w]) for w in tally.argmax(axis=1)]


def train_forest(X: np.ndarray, y: list[str] | np.ndarray,
                 config: PipelineConfig) -> RandomForest:
    """Grow ``config.n_trees`` trees of at most ``config.max_depth`` levels,
    seeded by ``config.seed``."""
    X = np.ascontiguousarray(X, dtype=np.float64)  # _best_split gathers by flat index
    if X.ndim != 2 or X.size == 0:  # no rows, or no slots to split on
        raise ValueError("training needs a non-empty 2-D matrix")
    if np.shape(y) != X.shape[:1]:
        raise ValueError(f"training needs one label per row: {np.size(y)} labels, {X.shape[0]} rows")
    classes, codes = np.unique(np.asarray(y), return_inverse=True)
    if classes.size < 2:
        raise ValueError("training needs at least 2 classes")
    n, d = X.shape
    fps = math.ceil(math.sqrt(d))  # candidate slots per node

    # (d, n) each: the rows by value per slot, and each row's place there;
    # C order, so that take gathers from them with no copy
    order = np.argsort(X, axis=0, kind="stable").T.astype(np.int32, order="C")
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(n, dtype=np.int32)[None, :], axis=1)
    splittable = ~(X == X[0]).all(axis=0)  # NaN != NaN, so a NaN slot stays
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(config.seed).spawn(config.n_trees)]
    trees: list[list[dict]] = []
    oob_tally = np.zeros((n, classes.size), dtype=np.int64)
    for rng in rngs:
        sample = rng.integers(0, n, size=n)
        oob = np.flatnonzero(np.bincount(sample, minlength=n) == 0)
        trees.append([])
        _grow(X, codes, order, rank, splittable, sample, classes.size, config.max_depth, fps,
              rng, 0, trees[-1])
        oob_tally[oob, _tree_votes(trees[-1], X, oob)] += 1

    covered = oob_tally.sum(axis=1) > 0
    hits = oob_tally[covered].argmax(axis=1) == codes[covered]
    oob_score = float(hits.mean()) if covered.any() else None
    return RandomForest(classes, trees, oob_score)
