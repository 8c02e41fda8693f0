"""Exact nearest-neighbor store over feature vectors.

One exact index: a query returns the k stored rows nearest to it, and ties
go to the earlier row, so results are deterministic. A neighbor's entry id
is its row: the rows the index was made from first, then inserted rows in
insertion order. Rows can be inserted one at a time (new classes register
without a rebuild) into a buffer that doubles when it is full, so n inserts
copy the index about log2(n) times, not n; the index has an independent
clone. Saving and loading belong to the model directory
(``flowcbr.model``).

Every distance a caller sees is computed by ``row_distances``, so the same
float comes out wherever it is used. ``NNIndex.knn`` is the one k-NN pass:
it cuts the queries into chunks of about CHUNK_BYTES of screen product and
handles each chunk as arrays, not one query at a time. One GEMM ``B @ M.T``
screens the whole chunk, so it reads the stored matrix once per chunk, not
once per query; the screen then works through the product in slices of
SLICE_BYTES, a few queries each, which stay in cache and keep its
temporaries small.
The screen only decides which rows cannot make a query's top k
(``NNIndex._screen`` proves its bound, which holds entry by entry whatever
order the GEMM sums in). The (query, row) pairs left are ranked together by
``row_distances`` and one lexsort exactly as a scan of every row would rank
them (``NNIndex._rank``). ``row_distances`` reduces
each row on its own, so a row's distance has the same bits whether it is
computed alone, with the whole matrix or paired with other queries' rows.
``knn`` yields one query's neighbors at a time, against the index as it
stands then: the k found at the screen are merged with every row inserted
since (``cbr.classify_stream`` registers classes mid-stream). ``query_knn``
is the stream of one.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

U = 2.0 ** -53  # unit roundoff of float64
TINY = 2.0 ** -1074  # smallest positive float64 (subnormal)
# Bytes of one screen product, chunk rows x index rows float64s.
CHUNK_BYTES = 2 ** 20
# Bytes of one slice of the product that the screen works on, and of one
# slice of row differences in the rank: small enough to stay in cache, and
# the most either holds whatever the data.
SLICE_BYTES = CHUNK_BYTES // 8


def row_distances(matrix: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Euclidean distance from every row of matrix to q, or to its own row
    of q when q has matrix's shape."""
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
        # _matrix and _sq view the used rows of _buf and _sq_buf. The caller's
        # matrix is the first buffer: it is full, so the first insert copies
        # it and never writes to it.
        self._buf = self._matrix = matrix
        self._sq_buf = self._sq = _squared_norms(matrix)
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
        n = self.size
        if n == len(self._buf):
            self._buf = np.empty((max(2 * n, 1), self.dimension))
            self._buf[:n] = self._matrix
            self._sq_buf = np.empty(len(self._buf))
            self._sq_buf[:n] = self._sq
        self._buf[n] = v
        self._sq_buf[n] = _squared_norms(v[None, :])[0]
        self._matrix, self._sq = self._buf[:n + 1], self._sq_buf[:n + 1]
        self._labels.append(label)

    def query_knn(self, q: np.ndarray, k: int) -> list[Neighbor]:
        """The k nearest rows to q: the stream of one."""
        q = np.asarray(q, dtype=np.float64)
        if q.shape != (self.dimension,):
            raise ValueError(f"query has dimension {q.shape}, expected ({self.dimension},)")
        return next(self.knn(q[None, :], k))

    def knn(self, Q: np.ndarray, k: int) -> Iterator[list[Neighbor]]:
        """The k nearest rows to each row of Q, in order. A chunk holds the
        rows whose screen product, chunk rows x index rows float64s, fits in
        CHUNK_BYTES at the index size when the chunk is taken; the whole
        chunk is screened and ranked before its first row is yielded, and
        each row's k are merged with the rows inserted since then when it
        is asked for (``_neighbors``)."""
        if k < 1:
            raise ValueError("k must be >= 1")
        Q = np.asarray(Q, dtype=np.float64)
        if Q.ndim != 2 or Q.shape[1] != self.dimension:
            raise ValueError(f"queries have shape {Q.shape}, expected (m, {self.dimension})")
        start = 0
        while start < len(Q):
            block = Q[start:start + max(1, CHUNK_BYTES // (8 * self.size))]
            screened = self.size
            for q, rows, dists in zip(block, *self._rank(block, *self._screen(block, k), k)):
                yield self._neighbors(q, rows, dists, screened, k)
            start += len(block)

    def _neighbors(self, q: np.ndarray, rows: np.ndarray, dists: np.ndarray,
                   screened: int, k: int) -> list[Neighbor]:
        """q's neighbors: its ranked rows among the first ``screened``, merged
        by (distance, row) with every row inserted since. The top k of the
        union is the top k of q's own top k and the inserted rows, so this
        is q's k nearest in the index as it stands."""
        if self.size > screened:
            rows = np.concatenate([rows, np.arange(screened, self.size)])
            dists = np.concatenate([dists, row_distances(self._matrix[screened:], q)])
            order = np.lexsort((rows, dists))[:k]
            rows, dists = rows[order], dists[order]
        return [Neighbor(entry_id=p, label=self._labels[p], distance=d)
                for p, d in zip(rows.tolist(), dists.tolist())]

    def _rank(self, B: np.ndarray, qi: np.ndarray, rows: np.ndarray,
              k: int) -> tuple[np.ndarray, np.ndarray]:
        """The k nearest of each query's survivors, as two (queries x k)
        arrays of rows and distances (fewer than k columns when the index
        is smaller). ``row_distances`` takes the (query qi, row rows) pairs
        stacked, a slice of at most SLICE_BYTES of differences at a time,
        whatever the screen left. One lexsort by (query, distance, row) then
        gives ties to the earlier row and puts NaN last, as a scan of every
        row ranks them; the screen leaves every query at least k pairs."""
        dists = np.empty(len(rows))
        step = max(1, SLICE_BYTES // (8 * self.dimension))
        for s in range(0, len(rows), step):
            dists[s:s + step] = row_distances(self._matrix[rows[s:s + step]], B[qi[s:s + step]])
        order = np.lexsort((rows, dists, qi))
        counts = np.bincount(qi, minlength=len(B))
        top = order[(np.cumsum(counts) - counts)[:, None] + np.arange(min(k, self.size))]
        return rows[top], dists[top]

    def _screen(self, B: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The (query, row) pairs, as the arrays (qi, rows) in row-major
        order, that may be among a query of B's k nearest: every row except
        those proved farther than k rows already are. One product
        ``B @ M.T`` serves all of B, so ``knn`` passes one chunk; the steps
        below run on a slice of its rows at a time, in place where they can,
        so nothing else the screen holds is larger than SLICE_BYTES.

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
        the product, however the GEMM blocks and orders its sums, and for
        each query of the chunk, however it is sliced.

        An overflow or a NaN anywhere makes a comparison false, which keeps
        the row, so the screen silences the warnings they raise; a NaN or
        infinite T keeps every row.
        """
        n, d = self._matrix.shape
        if k >= n:
            return np.repeat(np.arange(len(B)), n), np.tile(np.arange(n), len(B))
        product, qq, pairs = B @ self._matrix.T, _squared_norms(B), []
        step = max(1, SLICE_BYTES // (8 * n))
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, len(B), step):
                approx = product[lo:lo + step]
                s = self._sq + qq[lo:lo + step, None]
                approx *= -2.0
                approx += s
                first = np.argpartition(approx, k - 1, axis=1)[:, :k]
                t = row_distances(self._matrix[first.ravel()],
                                  np.repeat(B[lo:lo + step], k, axis=0))
                t = t.reshape(-1, k).max(axis=1)
                err = s
                err += np.abs(approx)
                err *= 4 * (d + 1) * U
                err += 9 * d * TINY
                approx -= err
                keep = ~(approx > (t * t * (1 + 4 * (d + 8) * U))[:, None])
                keep[np.arange(len(approx))[:, None], first] = True
                qi, rows = np.nonzero(keep)
                pairs.append((qi + lo, rows))
        return np.concatenate([qi for qi, _ in pairs]), np.concatenate([r for _, r in pairs])
