"""The per-row k-NN and decision, as test oracles, and thresholds for tests.

``NNIndex.knn`` is the index's one query and ``classify`` takes the
neighbors it is given. A stream of one row, taken afresh for each query,
ranks that row against the index as it stands, so ``classify_one`` on each
row in turn is the loop that ``classify_stream`` must equal.
"""

from __future__ import annotations

import numpy as np

from flowcbr.cbr import ClassRegistry, Neighbor, Thresholds, Verdict, classify
from flowcbr.harness import PipelineConfig
from flowcbr.index import NNIndex


def knn_row(index: NNIndex, q, k: int) -> tuple[list[int], list[float]]:
    """q's k nearest rows as ``knn`` yields them: a one-row stream."""
    return next(index.knn(np.asarray(q, dtype=np.float64)[None, :], k))


def as_neighbors(index: NNIndex, row: tuple[list[int], list[float]]) -> list[Neighbor]:
    """A ``knn`` row as ``Neighbor``s, with each entry's label."""
    ids, distances = row
    return [Neighbor(*n) for n in zip(ids, index.labels_of(ids), distances)]


def knn_one(index: NNIndex, q, k: int) -> list[Neighbor]:
    """The k nearest rows to q, as ``Neighbor``s."""
    return as_neighbors(index, knn_row(index, q, k))


def classify_one(index: NNIndex, registry: ClassRegistry, q, th: Thresholds) -> Verdict:
    """``classify`` with q's neighbors from a one-row stream."""
    return classify(index, registry, q, th, knn_row(index, q, th.k))


def thresholds(theta_new, theta_ood, **given) -> Thresholds:
    """``Thresholds`` with each setting not given as calibrate_thresholds
    sets it from ``PipelineConfig()``: k and c_min at its defaults, and
    r_cohesion, which it leaves unset, at 2 * theta_ood."""
    config = PipelineConfig()
    if "r_cohesion" not in given:
        given["r_cohesion"] = 2.0 * theta_ood
    return Thresholds(theta_new, theta_ood, **{"k": config.k, "c_min": config.c_min, **given})
