"""Exact nearest-neighbor store over feature vectors.

One exact index: a query returns the k stored rows nearest to it, and ties
go to the earlier row, so results are deterministic. A neighbor's entry id
is its row: the rows the index was made from first, then inserted rows in
insertion order. Rows can be inserted one at a time (new classes register
without a rebuild), and the index has an independent clone. Saving and
loading belong to the model directory (``flowcbr.model``).

Every distance a caller sees is computed by ``row_distances``, so the same
float comes out wherever it is used. ``NNIndex.knn`` is the one k-NN pass:
it cuts the queries into chunks of about CHUNK_BYTES of screen product, and
one GEMM ``B @ M.T`` screens a whole chunk, so it reads the stored matrix
once per chunk, not once per query. The screen only decides which rows
cannot make a query's top k (``NNIndex._screen`` proves its bound, which
holds entry by entry whatever order the GEMM sums in); the rows left are
then ranked by ``row_distances`` exactly as a scan of every row would rank
them (``NNIndex._rank``). ``row_distances`` reduces each row on its own, so
a row's distance has the same bits whether it is computed alone or with the
whole matrix. ``knn`` yields one query's neighbors at a time and ranks each
against the index as it stands then: rows inserted between two steps join
the rank set of every later query (``cbr.classify_stream`` registers
classes mid-stream). ``query_knn`` is the stream of one.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

U = 2.0 ** -53  # unit roundoff of float64
TINY = 2.0 ** -1074  # smallest positive float64 (subnormal)
# Bytes of one screen product, chunk rows x index rows float64s.
CHUNK_BYTES = 2 ** 20


def row_distances(matrix: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Euclidean distance from q to every row of matrix."""
    diff = matrix - q
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def _squared_norms(matrix: np.ndarray) -> np.ndarray:
    """Squared norm of every row, for the screen in ``NNIndex._screen``.
    A norm that overflows is inf, and the screen keeps its row."""
    with np.errstate(over="ignore"):
        return np.einsum("ij,ij->i", matrix, matrix)


@dataclass(frozen=True)
class Neighbor:
    entry_id: int
    label: str
    distance: float


class NNIndex:
    """Exact k-NN index over labeled rows; see module docstring."""

    def __init__(self, matrix: np.ndarray, labels: list[str]) -> None:
        self._matrix = matrix
        self._sq = _squared_norms(matrix)
        # A copy: insert appends to it, and the caller's list stays as given.
        self._labels = list(labels)

    @property
    def size(self) -> int:
        return self._matrix.shape[0]

    @property
    def dimension(self) -> int:
        return self._matrix.shape[1]

    def has_label(self, label: str) -> bool:
        return label in self._labels

    def clone(self) -> NNIndex:
        return NNIndex(self._matrix.copy(), self._labels)

    def insert(self, vector: np.ndarray, label: str) -> None:
        """Append one row; its entry id is its position, ``size`` before."""
        v = np.asarray(vector, dtype=np.float64)
        if v.shape != (self.dimension,):
            raise ValueError(f"row has dimension {v.shape}, expected ({self.dimension},)")
        self._matrix = np.vstack([self._matrix, v[None, :]])
        self._sq = np.append(self._sq, _squared_norms(v[None, :]))
        self._labels.append(label)

    def query_knn(self, q: np.ndarray, k: int) -> list[Neighbor]:
        """The k nearest rows to q: the stream of one."""
        q = np.asarray(q, dtype=np.float64)
        if q.shape != (self.dimension,):
            raise ValueError(f"query has dimension {q.shape}, expected ({self.dimension},)")
        return next(self.knn(q[None, :], k))

    def knn(self, Q: np.ndarray, k: int) -> Iterator[list[Neighbor]]:
        """The k nearest rows to each row of Q, in order, one screen product
        per chunk. A chunk holds the rows whose product, chunk rows x index
        rows float64s, fits in CHUNK_BYTES at the index size when the chunk
        is taken. Each row is ranked when it is asked for, over its
        survivors plus every row inserted since its chunk was screened:
        inserts only append, so those ids are larger than every screened
        one, the set stays ascending, and it holds the row's k nearest in
        the index as it stands."""
        if k < 1:
            raise ValueError("k must be >= 1")
        Q = np.asarray(Q, dtype=np.float64)
        if Q.ndim != 2 or Q.shape[1] != self.dimension:
            raise ValueError(f"queries have shape {Q.shape}, expected (m, {self.dimension})")
        start = 0
        while start < len(Q):
            block = Q[start:start + max(1, CHUNK_BYTES // (8 * self.size))]
            screened = self.size
            for q, rows in zip(block, self._screen(block, k)):
                yield self._rank(q, np.concatenate([rows, np.arange(screened, self.size)]), k)
            start += len(block)

    def _rank(self, q: np.ndarray, rows: np.ndarray, k: int) -> list[Neighbor]:
        """The k nearest to q of the given rows (ascending positions, which
        must hold the k nearest of the index), by ``row_distances``. The
        stable sort gives ties to the earlier row and puts NaN last."""
        dists = row_distances(self._matrix[rows], q)
        order = np.argsort(dists, kind="stable")[:k]
        return [Neighbor(entry_id=int(p), label=self._labels[p], distance=float(d))
                for p, d in zip(rows[order], dists[order])]

    def _screen(self, Q: np.ndarray, k: int) -> list[np.ndarray]:
        """For each query of Q, the positions, ascending, of the rows that
        may be among its k nearest: every row except those proved farther
        than k rows already are. One product ``Q @ M.T`` serves all of Q,
        so ``knn`` passes one chunk.

        For a query q and a row x let a = |x|^2, b = |q|^2 and
        D = a + b - 2 x.q, the exact squared distance. The screen computes
        s = fl(sq + fl(q.q)) and approx = fl(s - 2 G), where G is the entry
        of the product for q and x, a dot product of length d. Let u = 2^-53,
        and eta = 2^-1075, the most one product loses to gradual underflow (a
        sum or a difference loses nothing to it). A dot product of length d,
        summed in any order, with or without FMA, is off by at most
        g sum|x_j y_j| + 2d eta, where g = du / (1 - du) (Higham, "Accuracy
        and Stability of Numerical Algorithms", ch. 3). With
        sum|x_j q_j| <= (a + b) / 2 and
        a + b <= (s / (1 - u) + 4d eta) / (1 - g), for du <= 2^-30:

            |approx - D| <= u (s + |approx|) / (1 - u) + 2g (a + b) + 8d eta
                         <= 2(d + 1) u (s + |approx|) + 9d eta = E.

        ``err`` is 2E, so after its own rounding it is at least E with 7d eta
        to spare. ``row_distances`` sums squares P >= (1 - g') D - 2d eta,
        where g' = (d + 2)u / (1 - (d + 2)u), and returns fl(sqrt(P)).

        Let T be the largest distance to the k rows of smallest approx. k rows
        lie within T, so T is at least the k-th distance. A row is dropped
        only if fl(approx - err) > fl(fl(T T) (1 + delta)). Undo the rounding
        of each operation in that test; fl(sqrt(P)) > T holds once
        sqrt(P) > (1 + u) T. Both together need 1 + delta >= (1 + u)^3 /
        ((1 - u)^3 (1 - g')), which is delta >= (d + 8) u to first order; the
        spare 7d eta covers the underflow terms and a subnormal T. ``delta``
        is 4(d + 8) u. So a dropped row is strictly farther than the k-th
        distance, and the top k, the ties at the k-th distance and their
        order come out as a scan of every row gives them. No step links one
        query or one row to another, so the bound holds for each entry of
        the product, however the GEMM blocks and orders its sums.

        An overflow or a NaN anywhere makes a comparison false, which keeps
        the row, so the screen silences the warnings they raise; a NaN or
        infinite T keeps every row.
        """
        n, d = self._matrix.shape
        if k >= n:
            return [np.arange(n) for _ in Q]
        survivors = []
        with np.errstate(over="ignore", invalid="ignore"):
            for q, g in zip(Q, Q @ self._matrix.T):
                s = self._sq + q @ q
                approx = s - 2.0 * g
                first = np.argpartition(approx, k - 1)[:k]
                t = row_distances(self._matrix[first], q).max()
                err = 4 * (d + 1) * U * (s + np.abs(approx)) + 9 * d * TINY
                keep = ~(approx - err > t * t * (1 + 4 * (d + 8) * U))
                keep[first] = True
                survivors.append(np.flatnonzero(keep))
        return survivors
