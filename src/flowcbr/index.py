"""Exact nearest-neighbor store over feature vectors.

One brute-force index: every query computes the distance to every stored
row and returns the k smallest, ties broken by entry id, so results are
deterministic. Rows can be inserted one at a time (new classes register
without a rebuild), and the index has an independent clone. Saving and
loading belong to the model directory (``flowcbr.model``).

Every distance is computed by ``row_distances``, so the same float comes out
wherever it is used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def row_distances(matrix: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Euclidean distance from q to every row of matrix."""
    diff = matrix - q
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


@dataclass(frozen=True, eq=False)
class IndexEntry:
    id: int
    vector: np.ndarray
    label: str


@dataclass(frozen=True)
class Neighbor:
    entry_id: int
    label: str
    distance: float


class NNIndex:
    """Exact k-NN index over labeled vectors; see module docstring."""

    def __init__(self, matrix: np.ndarray, ids: list[int], labels: list[str]) -> None:
        self._matrix = matrix
        self._ids = np.array(ids, dtype=np.int64)
        # A copy: insert appends to it, and the caller's list stays as given.
        self._labels = list(labels)
        self._id_set = set(self._ids.tolist())
        self._next_auto_id = max(ids) + 1

    @classmethod
    def build(cls, entries: list[IndexEntry]) -> NNIndex:
        if not entries:
            raise ValueError("cannot build an index from zero entries")
        dim = entries[0].vector.shape[0]
        vectors = []
        for e in entries:
            if e.vector.ndim != 1 or e.vector.shape[0] != dim:
                raise ValueError(f"entry {e.id} has dimension {e.vector.shape}, expected ({dim},)")
            vectors.append(np.asarray(e.vector, dtype=np.float64))
        ids = [e.id for e in entries]
        if len(set(ids)) != len(ids):
            raise ValueError("entry ids must be unique")
        return cls(np.stack(vectors), ids, [e.label for e in entries])

    @property
    def size(self) -> int:
        return self._matrix.shape[0]

    @property
    def dimension(self) -> int:
        return self._matrix.shape[1]

    def next_id(self) -> int:
        return self._next_auto_id

    def entries(self) -> list[IndexEntry]:
        return [IndexEntry(int(i), self._matrix[p].copy(), self._labels[p])
                for p, i in enumerate(self._ids)]

    def clone(self) -> NNIndex:
        return NNIndex.build(self.entries())

    def insert(self, entry: IndexEntry) -> None:
        if entry.id in self._id_set:
            raise ValueError(f"duplicate entry id {entry.id}")
        v = np.asarray(entry.vector, dtype=np.float64)
        if v.shape != (self.dimension,):
            raise ValueError(f"entry has dimension {v.shape}, expected ({self.dimension},)")
        self._matrix = np.vstack([self._matrix, v[None, :]])
        self._ids = np.append(self._ids, entry.id)
        self._labels.append(entry.label)
        self._id_set.add(entry.id)
        self._next_auto_id = max(self._next_auto_id, entry.id + 1)

    def query_knn(self, q: np.ndarray, k: int) -> list[Neighbor]:
        if k < 1:
            raise ValueError("k must be >= 1")
        q = np.asarray(q, dtype=np.float64)
        if q.shape != (self.dimension,):
            raise ValueError(f"query has dimension {q.shape}, expected ({self.dimension},)")
        k = min(k, self.size)
        dists = row_distances(self._matrix, q)
        # Sort only the rows that can make the top k: every row not farther
        # than the k-th smallest distance, so ties at the boundary still go
        # to the lower id. (A NaN k-th distance keeps every row.)
        kth = np.partition(dists, k - 1)[k - 1]
        cand = np.flatnonzero(~(dists > kth))
        order = cand[np.lexsort((self._ids[cand], dists[cand]))[:k]]
        return [Neighbor(entry_id=int(self._ids[p]), label=self._labels[p],
                         distance=float(dists[p]))
                for p in order]
