"""Classification by retrieval: vote, reject, or register.

A query is labeled by majority vote over its k nearest stored neighbors when
the nearest one is close enough. Far beyond the out-of-distribution
threshold the sample is rejected outright. In between, samples collect in a
pending buffer; once enough mutually close candidates accumulate they become
a brand-new class, inserted into the live index without any retraining.
"""

from __future__ import annotations

import copy
import enum
import logging
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .flows import write_atomic
from .index import NNIndex, within

if TYPE_CHECKING:
    from .harness import PipelineConfig

PENDING_CAPACITY = 1000
THETA_EPS = 1e-9
# JSON's spelling of the floats that have no number literal, as
# json.JSONEncoder writes them.
_NON_FINITE = {math.inf: "Infinity", -math.inf: "-Infinity"}


class VerdictKind(enum.Enum):
    KNOWN = "Known"
    PENDING = "NewClassPending"
    REGISTERED = "NewClassRegistered"
    OOD = "OOD"


@dataclass(frozen=True)
class Thresholds:
    """The five settings a model classifies by, each given: a model.json
    that lacks one, holds null for one or holds another key does not load."""

    theta_new: float
    theta_ood: float
    k: int
    c_min: int
    r_cohesion: float

    def __post_init__(self) -> None:
        if type(self.k) is not int or type(self.c_min) is not int:
            raise ValueError("thresholds k and c_min must be integers")
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                   for v in (self.theta_new, self.theta_ood, self.r_cohesion)):
            raise ValueError("thresholds theta_new, theta_ood and r_cohesion must be numbers")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        # Range tests are written so NaN fails them.
        if not 0 < self.theta_new <= self.theta_ood < math.inf:
            raise ValueError("need 0 < theta_new <= theta_ood, both finite")
        # A cohort is drawn from the pending buffer, so a larger c_min could
        # never register a class.
        if not 1 <= self.c_min <= PENDING_CAPACITY:
            raise ValueError(f"c_min must be >= 1 and <= {PENDING_CAPACITY}, "
                             f"the pending buffer's capacity")
        if not 0 < self.r_cohesion < math.inf:
            raise ValueError("r_cohesion must be positive and finite")


class Verdict(NamedTuple):
    kind: VerdictKind
    label: str | None
    votes: dict[str, int]
    min_distance: float


class Neighbor(NamedTuple):
    """One k-NN neighbor, for ``vote``; ``NNIndex.knn`` yields lists."""

    entry_id: int
    label: str
    distance: float


class ClassRegistry:
    """The pending buffer of would-be new-class samples, and two counters.

    The buffer is a ring of PENDING_CAPACITY slots, allocated on the first
    in-between sample: each slot holds a row and its squared norm, and a
    pair table says of every two distinct used slots whether their rows
    lie within r_cohesion of each other, as ``row_distances`` puts them. A
    new row fills its slot's norm and its row and column of the table with
    one screened distance pass (``within``); one pass fills both, as the
    kernel is symmetric bit for bit (fl(a - b) = -fl(b - a)). The table's
    pages take memory only as its used slots are written. A full buffer
    drops its oldest row by reusing its slot and moving the ring's start
    on, so nothing is shifted; ``evictions`` counts the drops. ``pending``
    gives the used rows oldest first. A registry lives in memory only: a
    loaded model starts empty.
    """

    def __init__(self) -> None:
        self.novel_count = 0
        self.evictions = 0
        self._r_cohesion: float | None = None
        self._rows = self._near = np.empty((0, 0))
        self._sq = np.empty(0)
        # The used slots are _start, _start + 1, ... modulo the capacity,
        # oldest first. The ring wraps only when full, so they are always
        # the slots below _used.
        self._start = self._used = 0

    @property
    def pending(self) -> np.ndarray:
        return self._rows[self._slots()] if self._start else self._rows[:self._used]

    def _slots(self) -> np.ndarray:
        """The used slots, oldest first."""
        return np.arange(self._start, self._start + self._used) % len(self._rows)

    def add_pending(self, q: np.ndarray, r_cohesion: float) -> None:
        """Buffer q as the newest row, and pair it with every buffered row
        within r_cohesion; a full buffer first drops its oldest row. Every
        row of a buffer is paired at one r_cohesion."""
        if self._r_cohesion is None:
            self._r_cohesion = r_cohesion
            self._rows = np.empty((PENDING_CAPACITY, len(q)))
            self._sq = np.empty(PENDING_CAPACITY)
            self._near = np.zeros((PENDING_CAPACITY, PENDING_CAPACITY), dtype=bool)
        elif r_cohesion != self._r_cohesion:
            raise ValueError(f"the pending buffer pairs rows within r_cohesion "
                             f"{self._r_cohesion}, not {r_cohesion}")
        if self._used == len(self._rows):
            self.evictions += 1
            self._start = (self._start + 1) % len(self._rows)
            self._used -= 1
        slot = (self._start + self._used) % len(self._rows)
        self._used += 1
        self._rows[slot] = q
        near = within(self._rows[:self._used], self._sq[:self._used], slot, r_cohesion)
        self._near[slot, :self._used] = near
        self._near[:self._used, slot] = near

    def drop_pending(self, rows: list[int]) -> None:
        """Remove the rows at the given positions; the others move up in
        their order, to the first slots."""
        kept = np.delete(self._slots(), rows)
        self._rows[:len(kept)] = self._rows[kept]
        self._sq[:len(kept)] = self._sq[kept]
        self._near[:len(kept), :len(kept)] = self._near[np.ix_(kept, kept)]
        self._start, self._used = 0, len(kept)

    def next_novel_label(self) -> str:
        self.novel_count += 1
        return f"novel-{self.novel_count}"

    def clone(self) -> ClassRegistry:
        return copy.deepcopy(self)


def vote(neighbors: list[Neighbor]) -> tuple[str, int]:
    """Majority label; ties go to the smaller summed distance, then name.
    ``_majority`` on a list of ``Neighbor``s."""
    if not neighbors:
        raise ValueError("vote needs at least one neighbor")
    labels = [n.label for n in neighbors]
    counts = _neighbor_votes(labels)
    winner = _majority(labels, [n.distance for n in neighbors], counts)
    return winner, counts[winner]


def _majority(labels: list[str], distances: list[float], counts: dict[str, int]) -> str:
    """The majority label of a k-NN row, given its label counts; ties go
    to the smaller distance summed in neighbor order, then the name."""
    if len(counts) == 1:
        return labels[0]
    sums: dict[str, float] = {}
    for label, distance in zip(labels, distances):
        sums[label] = sums.get(label, 0.0) + distance
    return min(counts, key=lambda lbl: (-counts[lbl], sums[lbl], lbl))


def _neighbor_votes(labels: list[str]) -> dict[str, int]:
    votes: dict[str, int] = {}
    for label in labels:
        votes[label] = votes.get(label, 0) + 1
    return votes


def classify(index: NNIndex, registry: ClassRegistry, q: np.ndarray,
             th: Thresholds, neighbors: tuple[list[int], list[float]]) -> Verdict:
    """One retrieval decision; may buffer the sample or register a class.

    The nearest distance d1 picks the regime: at most theta_new means a known
    class (majority vote over k neighbors); beyond theta_ood means rejection,
    and the sample is not buffered; in between the sample joins the pending
    buffer, and once c_min buffered samples sit pairwise within r_cohesion a
    new class is registered from them and inserted into the index.
    ``neighbors`` are q's k nearest in the index as it stands, as the entry
    ids and distances ``NNIndex.knn`` yields for q, from which
    ``classify_stream`` takes them; their labels are read from the index.
    """
    ids, distances = neighbors
    labels = index.labels_of(ids)
    d1 = distances[0]
    votes = _neighbor_votes(labels)
    if d1 <= th.theta_new:
        return Verdict(VerdictKind.KNOWN, _majority(labels, distances, votes), votes, d1)
    if d1 > th.theta_ood:
        return Verdict(VerdictKind.OOD, None, votes, d1)

    registry.add_pending(q, th.r_cohesion)
    cohort = _cohesive_cohort(registry)
    if len(cohort) < th.c_min:
        return Verdict(VerdictKind.PENDING, None, votes, d1)

    label = registry.next_novel_label()
    while index.has_label(label):  # a trained class may be named novel-N
        label = registry.next_novel_label()
    for row in registry.pending[cohort]:
        index.insert(row, label)
    registry.drop_pending(cohort)
    return Verdict(VerdictKind.REGISTERED, label, votes, d1)


def classify_stream(index: NNIndex, registry: ClassRegistry, X: np.ndarray,
                    th: Thresholds) -> list[Verdict]:
    """``classify`` on each row of X in order, with the same verdicts, index
    and registry as that loop: ``NNIndex.knn`` ranks each row against the
    index as the rows before it left it, one screen product per chunk."""
    return [classify(index, registry, q, th, nbrs) for q, nbrs in zip(X, index.knn(X, th.k))]


def _cohesive_cohort(registry: ClassRegistry) -> list[int]:
    """Greedy pairwise-close subset of the buffer, as row positions: the
    newest row (the anchor) first, then the kept rows oldest first.

    Buffered rows are taken oldest first and kept only if within r_cohesion
    of every row already kept, which guarantees the returned set is mutually
    cohesive. The anchor always belongs.

    The walk reads the registry's pair table and computes no distance: a
    row not paired with a kept row can never join, so each kept row prunes
    the surviving candidates with one row of the table.
    """
    slots, near = registry._slots(), registry._near
    kept = [slots[-1]]
    candidates = slots[:-1][near[slots[-1], slots[:-1]]]
    while candidates.size:
        first, rest = candidates[0], candidates[1:]
        kept.append(first)
        candidates = rest[near[first, rest]]
    return [int(slot - registry._start) % len(near) for slot in kept]


def _loo_nn_distances(X: np.ndarray, y: list[str] | np.ndarray) -> list[float]:
    """Each row's nearest same-class distance, the row itself left out: the
    second of its two nearest in its class, as its distance to itself is
    exactly 0."""
    y_arr = np.asarray(y)
    nn_dists: list[float] = []
    skipped = []
    for label in np.unique(y_arr):
        block = X[y_arr == label]
        if block.shape[0] < 2:
            skipped.append(str(label))
            continue
        index = NNIndex(block, [str(label)] * block.shape[0])
        nn_dists.extend(distances[1] for _, distances in index.knn(block, 2))
    if skipped:
        logging.getLogger("flowcbr").warning(
            "classes with one sample skipped in calibration: %s", skipped)
    return nn_dists


def calibrate_thresholds(X: np.ndarray, y: list[str] | np.ndarray,
                         config: PipelineConfig) -> Thresholds:
    """Set thresholds from leave-one-out same-class nearest-neighbor distances.

    theta_new is the config's quantile_new quantile of that distribution
    (floored at a tiny epsilon), theta_ood its quantile_ood quantile scaled by
    ood_margin. An unset r_cohesion is 2 * theta_ood: candidates must sit
    within one rejection diameter. k and c_min are the config's. Classes
    with a single sample are skipped with a warning.
    """
    nn_dists = _loo_nn_distances(X, y)
    if not nn_dists:
        raise ValueError("calibration needs at least one class with >= 2 samples")
    arr = np.array(nn_dists)
    theta_new = max(float(np.quantile(arr, config.quantile_new)), THETA_EPS)
    theta_ood = max(theta_new, float(np.quantile(arr, config.quantile_ood)) * config.ood_margin)
    r_cohesion = 2.0 * theta_ood if config.r_cohesion is None else config.r_cohesion
    return Thresholds(theta_new=theta_new, theta_ood=theta_ood, k=config.k,
                      c_min=config.c_min, r_cohesion=r_cohesion)


def verdict_to_json(flow_id: str, verdict: Verdict) -> str:
    """The verdict's JSON line, written out directly with the bytes
    ``json.dumps(doc, sort_keys=True)`` gives: ASCII-escaped strings, and a
    float as ``float.__repr__`` spells it (a numpy float too), or as NaN,
    Infinity or -Infinity."""
    kind, label, votes, d = verdict
    number = float.__repr__(d) if math.isfinite(d) else _NON_FINITE.get(d, "NaN")
    return (f'{{"flow_id": {_json_str(flow_id)}, "kind": {_json_str(kind.value)}, '
            f'"label": {"null" if label is None else _json_str(label)}, '
            f'"min_distance": {number}, "votes": {{'
            + ", ".join([f"{_json_str(name)}: {count}" for name, count in sorted(votes.items())])
            + "}}")


def write_verdicts(path: str | Path, items: list[tuple[str, Verdict]]) -> None:
    write_atomic(path, (verdict_to_json(flow_id, verdict) + "\n"
                        for flow_id, verdict in items))
