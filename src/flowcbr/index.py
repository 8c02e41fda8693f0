"""Exact nearest-neighbor store over feature vectors.

One exact index: a query returns the k stored rows nearest to it, and ties
go to the lower entry id, so results are deterministic. A neighbor's entry
id is its row in the order the index was made from, then inserted rows in
insertion order. Rows can be inserted one at a time (new classes register
without a rebuild). The index never copies or writes the rows it was made
from: inserted rows go into a buffer of their own that doubles when it is
full, so n inserts copy the inserted rows about log2(n) times, not n, and
grow nothing else but the labels: an inserted row's entry id is its
position, and the screen takes its norm from the row. A clone shares the
fitted rows and copies the inserted ones, so it grows independently.
Saving and loading belong to the model directory (``flowcbr.model``).

The index keeps its rows in blocks, one per label, in the order each label
first appears; rows that already come grouped so are not copied. Each
block has a centroid and a radius, the largest ``row_distances`` value from
it to one of the block's rows. Rows inserted later form one more block, the
tail, which is always screened.

Every distance a caller sees is computed by ``row_distances``, so the same
float comes out wherever it is used. ``NNIndex.knn`` is the one k-NN pass:
it cuts the queries into chunks and handles each chunk as arrays, not one
query at a time. A chunk holds as many queries as keep each product the
screen takes within CHUNK_BYTES: the product with the largest block, with
the tail, or with the centroids, one column per block. An index of one
label is one block of every row. The screen (``NNIndex._screen``) only
decides which rows cannot make a query's top k. It takes a bound T from
the query's nearest block, skips every block whose centroid is farther
than T plus the block's radius (the triangle inequality puts every row
of it beyond T), and in the blocks left drops each row whose product
bound puts it beyond T. Both proofs hold entry by entry, whatever order
the GEMM sums in. One product per block serves every query of the chunk
that screens the block, so it reads the block once per chunk, and the
screen works through it in slices of SLICE_BYTES, a few queries each,
which stay in cache and keep its temporaries small. The screen measures
each query's k home candidates with ``row_distances`` to set T and hands
those distances to the rank (``NNIndex._rank``), which measures only the
other (query, row) pairs left, so no pair is measured twice, and ranks
them all with one lexsort by (distance, entry id) exactly as a scan of
every row would rank them. ``row_distances`` reduces each row on its
own, so a row's distance has the same bits whether it is computed alone,
with the whole matrix or paired with other queries' rows. ``knn`` yields one
query's neighbors at a time, as two plain lists, entry ids and distances,
taken from the chunk's rank arrays by one ``tolist`` each; labels are read
by id (``labels_of``). Each row is against the index as it stands when it
is yielded: the k found at the screen are merged with every row inserted
since (``cbr.classify_stream`` registers classes mid-stream).

``within`` reuses the screen's drop test with T = r to say which rows of a
matrix lie within r of one of them, with the bits ``row_distances`` gives;
the pending buffer (``cbr.ClassRegistry``) fills its pair table with it.
"""

from __future__ import annotations

import copy
from collections.abc import Iterator

import numpy as np

U = 2.0 ** -53  # unit roundoff of float64
TINY = 2.0 ** -1074  # smallest positive float64 (subnormal)
# Bytes of one screen product, chunk rows x block rows float64s.
CHUNK_BYTES = 2 ** 20
# Bytes of one slice of a product that the screen works on, and of one
# slice of row differences in the rank: small enough to stay in cache, and
# the most either holds whatever the data.
SLICE_BYTES = CHUNK_BYTES // 8


def row_distances(matrix: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Euclidean distance from every row of matrix to q, or to its own row
    of q when q has matrix's shape."""
    diff = matrix - q
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def within(matrix: np.ndarray, sq: np.ndarray, i: int, r: float) -> np.ndarray:
    """Whether each row of matrix lies within r of row i: the bits of
    ``row_distances(matrix, matrix[i]) <= r``, except that row i itself is
    False. sq holds the other rows' squared norms; row i's is written into
    sq[i] here, as the product's own entry (the proof takes a norm summed
    in any order, as it takes a product). One matrix-vector product and
    the drop test of ``NNIndex._screen``, with T = r, rule out the rows it
    proves farther than r; ``row_distances`` decides the rows left. A NaN
    or an overflow fails the drop test, so its row is left."""
    q, d = matrix[i], matrix.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        product = (matrix @ q)[None, :]
        sq[i] = product[0, i]
        approx, s = _approx(product, sq[i:i + 1], sq)
        near = ~(_lower(approx, s, d)[0] > r * r * (1 + 4 * (d + 8) * U))
    near[i] = False
    left = np.flatnonzero(near)
    if left.size:
        near[left] = row_distances(matrix[left], q) <= r
    return near


def _squared_norms(matrix: np.ndarray) -> np.ndarray:
    """Squared norm of every row, for the screen in ``NNIndex._screen``.
    A norm that overflows is inf, and the screen keeps its row."""
    with np.errstate(over="ignore"):
        return np.einsum("ij,ij->i", matrix, matrix)


def _approx(product: np.ndarray, qq: np.ndarray,
            sq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """approx = fl(s - 2 G), written over a slice of a product, and s."""
    s = sq + qq[:, None]
    product *= -2.0
    product += s
    return product, s


def _lower(approx: np.ndarray, s: np.ndarray, d: int) -> np.ndarray:
    """fl(approx - err) written over approx, a lower bound on the exact
    squared distance (``NNIndex._screen``); s is overwritten too."""
    err = s
    err += np.abs(approx)
    err *= 4 * (d + 1) * U
    err += 9 * d * TINY
    approx -= err
    return approx


class NNIndex:
    """Exact k-NN index over labeled rows; see module docstring."""

    def __init__(self, matrix: np.ndarray, labels: list[str]) -> None:
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError(f"rows must form a 2-D matrix, not {matrix.ndim}-D")
        if len(labels) != len(matrix):
            raise ValueError(f"{len(matrix)} rows but {len(labels)} labels")
        if not len(labels):
            raise ValueError("an index needs at least one row")
        # A copy: insert appends to it, and the caller's list stays as given.
        # Labels are kept by entry id.
        self._labels = list(labels)
        first: dict[str, int] = {}
        block = np.array([first.setdefault(lbl, len(first)) for lbl in self._labels])
        ids = np.argsort(block, kind="stable")
        if (np.diff(block) < 0).any():
            matrix = matrix[ids]
        # _matrix holds the fitted rows, which are never written: the
        # caller's matrix itself when it comes grouped. _sq and _ids hold
        # one entry per fitted row, its squared norm and its entry id, and
        # are never written either. _tail views the used rows of _tail_buf,
        # the inserted rows, at positions from len(_matrix) on; an inserted
        # row's entry id is its position.
        self._matrix = matrix
        self._sq, self._ids = _squared_norms(matrix), ids
        self._tail_buf = self._tail = np.empty((0, matrix.shape[1]))
        # Block b holds positions _bounds[b]:_bounds[b + 1]; the tail starts
        # at _bounds[-1].
        self._bounds = np.concatenate([[0], np.cumsum(np.bincount(block))])
        lo, hi = self._bounds[:-1], self._bounds[1:]
        with np.errstate(over="ignore", invalid="ignore"):
            self._centroids = np.add.reduceat(matrix, lo) / (hi - lo)[:, None]
            # Radii by slices of SLICE_BYTES; np.max keeps a NaN, max() would not.
            step = max(1, SLICE_BYTES // (8 * matrix.shape[1] or 1))
            self._radii = np.array([np.max([row_distances(matrix[s:min(s + step, b)], c).max()
                                            for s in range(a, b, step)])
                                    for a, b, c in zip(lo, hi, self._centroids)])
        self._csq = _squared_norms(self._centroids)

    @property
    def size(self) -> int:
        return len(self._labels)

    @property
    def dimension(self) -> int:
        return self._matrix.shape[1]

    def has_label(self, label: str) -> bool:
        return label in self._labels

    def labels_of(self, ids: list[int]) -> list[str]:
        """The label of each entry id, in their order."""
        labels = self._labels
        return [labels[i] for i in ids]

    def clone(self) -> NNIndex:
        """An index that shares the fitted rows, which neither writes, and
        has its own copy of everything inserts change."""
        other = copy.copy(self)
        other._tail_buf = other._tail = self._tail.copy()
        other._labels = list(self._labels)
        return other

    def insert(self, vector: np.ndarray, label: str) -> None:
        """Append one row; its entry id is its position, ``size`` before."""
        v = np.asarray(vector, dtype=np.float64)
        if v.shape != (self.dimension,):
            raise ValueError(f"row has dimension {v.shape}, expected ({self.dimension},)")
        t = len(self._tail)
        if t == len(self._tail_buf):
            # Twice the rows, the used ones first; the new half stays
            # unwritten, so its pages take no memory yet.
            self._tail_buf = np.empty((max(1, 2 * t), self.dimension))
            self._tail_buf[:t] = self._tail
        self._tail_buf[t] = v
        self._tail = self._tail_buf[:t + 1]
        self._labels.append(label)

    def _span(self, lo: int, hi: int) -> np.ndarray:
        """The rows at positions lo:hi, all fitted or all inserted, as a
        view: no block straddles the two."""
        n = len(self._matrix)
        return self._matrix[lo:hi] if hi <= n else self._tail[lo - n:hi - n]

    def _take(self, positions: np.ndarray) -> np.ndarray:
        """The rows at positions, fitted or inserted, in their order."""
        n = len(self._matrix)
        late = positions >= n
        if not late.any():
            return self._matrix[positions]
        out = np.empty((len(positions), self.dimension))
        out[~late] = self._matrix[positions[~late]]
        out[late] = self._tail[positions[late] - n]
        return out

    def knn(self, Q: np.ndarray, k: int) -> Iterator[tuple[list[int], list[float]]]:
        """The k nearest rows to each row of Q, in order, each as two lists:
        their entry ids and their distances, nearest first (``labels_of``
        gives their labels). A chunk holds the rows whose widest screen
        product (``_width``) fits in CHUNK_BYTES at the index as it stands
        when the chunk is taken; the whole chunk is screened and ranked
        before its first row is yielded, and each row's k are merged with
        the rows inserted since then when it is asked for (``_neighbors``)."""
        if k < 1:
            raise ValueError("k must be >= 1")
        Q = np.asarray(Q, dtype=np.float64)
        if Q.ndim != 2 or Q.shape[1] != self.dimension:
            raise ValueError(f"queries have shape {Q.shape}, expected (m, {self.dimension})")
        start = 0
        while start < len(Q):
            chunk = Q[start:start + max(1, CHUNK_BYTES // (8 * self._width(k)))]
            screened = self.size
            yield from self._neighbors(chunk, *self._rank(chunk, *self._screen(chunk, k), k),
                                       screened, k)
            start += len(chunk)

    def _blocks(self, k: int) -> np.ndarray:
        """The bounds of the blocks of fitted rows a k-NN screens: one per
        label, or all the fitted rows as one block when no label holds k
        rows, as no label's block could then set a query's bound."""
        if np.diff(self._bounds).max() >= k:
            return self._bounds
        return self._bounds[[0, -1]]

    def _width(self, k: int) -> int:
        """Rows of the widest product the screen takes: the largest block,
        the tail, or the centroids, one per block."""
        sizes = np.diff(self._blocks(k))
        return int(max(sizes.max(), len(sizes), self.size - self._bounds[-1]))

    def _neighbors(self, B: np.ndarray, ids: np.ndarray, dists: np.ndarray, screened: int,
                   k: int) -> Iterator[tuple[list[int], list[float]]]:
        """Each row q of B's neighbors, as (ids, distances) lists: its ranked
        entries among the first ``screened`` (its row of ``ids`` and
        ``dists``, made lists once for the chunk), merged by (distance,
        entry id) with every row inserted since, whose id is its position.
        The top k of the union is the top k of q's own top k and the
        inserted rows, so this is q's k nearest in the index as it stands.
        The merge is skipped when q has k ranked entries and no inserted row
        is nearer than the k-th: an inserted row's id is above every
        screened one, so a tie goes after the k-th."""
        for i, row in enumerate(zip(ids.tolist(), dists.tolist())):
            if self.size > screened:
                late = row_distances(self._span(screened, self.size), B[i])
                # A NaN on either side fails the test, and merges.
                if len(row[0]) < k or not row[1][-1] <= late.min():
                    rows = np.concatenate([ids[i], np.arange(screened, self.size)])
                    near = np.concatenate([dists[i], late])
                    order = np.lexsort((rows, near))[:k]
                    row = rows[order].tolist(), near[order].tolist()
            yield row

    def _rank(self, B: np.ndarray, qi: np.ndarray, rows: np.ndarray, dists: np.ndarray,
              k: int) -> tuple[np.ndarray, np.ndarray]:
        """The k nearest of each query's survivors, as two (queries x k)
        arrays of entry ids and distances (fewer than k columns when the
        index is smaller). The (query qi, position rows) pairs come from
        ``_screen``, whose ``dists`` are the distances of the first
        len(dists) of them, the home candidates it measured to set T; they
        are taken as they are. ``row_distances`` measures the other pairs
        stacked, a slice of at most SLICE_BYTES of differences at a time,
        whatever the screen left, so no pair is measured twice. One lexsort
        by (query, distance, entry id) then gives ties to the lower id and
        puts NaN last, as a scan of every row ranks them; the screen leaves
        every query at least k pairs."""
        measured = len(dists)
        dists = np.concatenate([dists, np.empty(len(rows) - measured)])
        step = max(1, SLICE_BYTES // (8 * self.dimension))
        for s in range(measured, len(rows), step):
            dists[s:s + step] = row_distances(self._take(rows[s:s + step]), B[qi[s:s + step]])
        # A fitted position maps to its entry id, an inserted one to itself.
        ids = np.where(rows < len(self._matrix), self._ids.take(rows, mode="clip"), rows)
        order = np.lexsort((ids, dists, qi))
        counts = np.bincount(qi, minlength=len(B))
        top = order[(np.cumsum(counts) - counts)[:, None] + np.arange(min(k, self.size))]
        return ids[top], dists[top]

    def _screen(self, B: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (query, position) pairs, as the arrays (qi, rows), that may be
        among a query of B's k nearest: every row except those proved
        farther than k rows already are; and ``dists``, the distances of the
        first len(dists) pairs, a query's k home candidates, which set its
        T and are measured by ``row_distances`` here, once (none when every
        pair is kept unscreened). ``knn`` passes one chunk.

        The drop test. For a query q and a row x let a = |x|^2, b = |q|^2
        and D = a + b - 2 x.q, the exact squared distance. The screen
        computes s = fl(sq + fl(q.q)) and approx = fl(s - 2G), where G is
        the entry of the product for q and x, a dot product of length d. Let
        u = 2^-53, and eta = 2^-1075, the most one product loses to gradual
        underflow (a sum or a difference loses nothing to it). A dot product
        of length d, summed in any order, with or without FMA, is off by at
        most g sum|x_j y_j| + 2d eta, where g = du / (1 - du) (Higham,
        "Accuracy and Stability of Numerical Algorithms", ch. 3). With
        sum|x_j q_j| <= (a + b) / 2 and
        a + b <= (s / (1 - u) + 4d eta) / (1 - g), for du <= 2^-30:

            |approx - D| <= u (s + |approx|) / (1 - u) + 2g (a + b) + 8d eta
                         <= 2(d + 1) u (s + |approx|) + 9d eta = E.

        ``err`` is 2E, so after its own rounding it is at least E with 7d eta
        to spare, and D >= approx - err (``_lower``). ``row_distances`` sums
        squares P >= (1 - g') D - 2d eta, where g' = (d + 2)u / (1 - (d + 2)u),
        and returns fl(sqrt(P)).

        Let T be the largest distance to k rows, taken as the k of smallest
        approx in the query's home block: the block of nearest centroid
        among those holding k rows. k rows lie within T, so T is at least
        the k-th distance. A row is dropped only if fl(approx - err) >
        fl(fl(T T) (1 + delta)). Undo the rounding of each operation in that
        test; fl(sqrt(P)) > T holds once sqrt(P) > (1 + u) T. Both together
        need 1 + delta >= (1 + u)^3 / ((1 - u)^3 (1 - g')), which is
        delta >= (d + 8) u to first order; the spare 7d eta covers the
        underflow terms and a subnormal T. ``delta`` is 4(d + 8) u. So a
        dropped row is strictly farther than the k-th distance, and the top
        k, the ties at the k-th distance and their order come out as a scan
        of every row gives them. No step links one query or one row to
        another, so the bound holds for each entry of a product, however
        the GEMM blocks and orders its sums, for any subset of the rows and
        for each query of the chunk, however it is sliced.

        The block skip (Elkan, "Using the Triangle Inequality to Accelerate
        k-Means", ICML 2003). Treat a centroid c as one more row: the same
        steps give D >= approx - err >= L / (1 + u) for D = |q - c|^2 and
        L = fl(approx - err) > 0, so |q - c| >= h (1 + u)^(-3/2) for
        h = fl(sqrt(L)). The block's radius r is the largest fl(sqrt(P))
        from c to one of its rows x, so
        |x - c| <= r / ((1 - u) sqrt(1 - g')) + 2 sqrt(d eta), and
        fl(sqrt(P)) > T holds for a row x once
        |q - x| > ((1 + u) T + 2^-1074 + 2 sqrt(d eta)) / sqrt(1 - g'). By
        the triangle inequality |q - x| >= |q - c| - |x - c|, so every row
        of the block is beyond T once

            h (1 - (d + 5) u) > (1 + 2u)(r + T) + 2^-1074 + 4 sqrt(d eta).

        A block is skipped only if fl(h (1 - delta)) >
        fl(fl(r + T) (1 + delta)) + A, with A = d 2^-530. Undoing the four
        roundings there costs at most u on the left, 3u on the right and
        2 eta, which delta = 4(d + 8) u and A cover with room to spare. So a skipped
        block holds no row within T, and neither does a dropped row: what
        is left holds the top k and its ties.

        The home block is never skipped, and its k rows are kept. The tail
        has no centroid and is never skipped. An overflow or a NaN anywhere
        makes a comparison false, which keeps the row or the block, so the
        screen silences the warnings they raise; a NaN or infinite T, h or
        r keeps every block, and T keeps every row. With no label of k
        rows the fitted rows are one block (``_blocks``); when no block
        holds k rows, or k is the index size or more, every pair is kept.
        """
        n, m, d = self.size, len(B), self.dimension
        bounds = self._blocks(k)
        big = np.flatnonzero(np.diff(bounds) >= k)
        if k >= n or not big.size:
            return np.repeat(np.arange(m), n), np.tile(np.arange(n), m), np.empty(0)
        slack = 4 * (d + 8) * U
        qq, t, pairs = _squared_norms(B), np.empty(m), []
        home = np.zeros(m, dtype=np.intp)
        with np.errstate(over="ignore", invalid="ignore"):
            if len(bounds) > 2:
                # near[q, b] becomes fl(h (1 - delta)) for q and block b.
                near = B @ self._centroids.T
                step = max(1, SLICE_BYTES // (8 * near.shape[1]))
                for lo in range(0, m, step):
                    approx, s = _approx(near[lo:lo + step], qq[lo:lo + step], self._csq)
                    home[lo:lo + step] = big[approx[:, big].argmin(axis=1)]
                    np.sqrt(_lower(approx, s, d), out=approx)
                    approx *= 1 - slack
            for b in np.unique(home):
                pairs += self._block_pairs(B, qq, np.flatnonzero(home == b),
                                           bounds[b], bounds[b + 1], t, k)
            # keep[b, q]: q screens block b besides its home. The tail, the
            # last block, has no centroid and is screened when it has rows.
            edges = np.append(bounds, n)
            keep = np.ones((len(edges) - 1, m), dtype=bool)
            keep[-1] = n > bounds[-1]
            if len(bounds) > 2:
                for lo in range(0, m, step):
                    reach = self._radii + t[lo:lo + step, None]
                    reach *= 1 + slack
                    reach += d * 2.0 ** -530
                    keep[:-1, lo:lo + step] = ~(near[lo:lo + step] > reach).T
            keep[home, np.arange(m)] = False
            for b in np.flatnonzero(keep.any(axis=1)):
                pairs += self._block_pairs(B, qq, np.flatnonzero(keep[b]),
                                           edges[b], edges[b + 1], t)
        # The measured pairs first, in their order.
        pairs.sort(key=lambda pair: pair[2] is None)
        qi, rows, dists = zip(*pairs)
        return (np.concatenate(qi), np.concatenate(rows),
                np.concatenate([d for d in dists if d is not None]))

    def _block_pairs(self, B: np.ndarray, qq: np.ndarray, qs: np.ndarray, lo: int, hi: int,
                     t: np.ndarray, k: int = 0) -> list[tuple]:
        """The (query, position) pairs of queries qs of B and the rows lo:hi
        that the drop test of ``_screen`` keeps, as (qi, rows, None) per
        slice. One product ``B[qs] @ M[lo:hi].T`` serves them all; the steps
        run on a slice of its rows at a time, in place where they can, so
        nothing else held is larger than SLICE_BYTES. With k, this is the
        home block of qs: the k rows of least approx set t[qs] first, and
        are kept, as (qi, rows, dists) with the distances that set t."""
        d, rows = self.dimension, self._span(lo, hi)
        sq = self._sq[lo:hi] if hi <= len(self._matrix) else _squared_norms(rows)
        product = (B if len(qs) == len(B) else B[qs]) @ rows.T
        step, pairs = max(1, SLICE_BYTES // (8 * (hi - lo))), []
        for s in range(0, len(qs), step):
            q = qs[s:s + step]
            approx, sums = _approx(product[s:s + step], qq[q], sq)
            if k:
                first = np.argpartition(approx, k - 1, axis=1)[:, :k]
                dist = row_distances(rows[first.ravel()], np.repeat(B[q], k, axis=0))
                t[q] = dist.reshape(-1, k).max(axis=1)
            keep = ~(_lower(approx, sums, d) > (t[q] * t[q] * (1 + 4 * (d + 8) * U))[:, None])
            if k:
                keep[np.arange(len(q))[:, None], first] = False
                pairs.append((np.repeat(q, k), first.ravel() + lo, dist))
            i, kept = np.nonzero(keep)
            pairs.append((q[i], kept + lo, None))
        return pairs
