"""The per-row k-NN and decision, as test oracles, and thresholds for tests.

``NNIndex.knn`` is the index's one query and ``classify`` takes the
neighbors it is given. A stream of one row, taken afresh for each query,
ranks that row against the index as it stands, so ``classify_one`` on each
row in turn is the loop that ``classify_stream`` must equal.
"""

from __future__ import annotations

import numpy as np

from flowcbr.cbr import ClassRegistry, Thresholds, Verdict, classify
from flowcbr.harness import PipelineConfig
from flowcbr.index import Neighbor, NNIndex


def knn_one(index: NNIndex, q, k: int) -> list[Neighbor]:
    """The k nearest rows to q: a one-row ``knn`` stream."""
    return next(index.knn(np.asarray(q, dtype=np.float64)[None, :], k))


def classify_one(index: NNIndex, registry: ClassRegistry, q, th: Thresholds) -> Verdict:
    """``classify`` with q's neighbors from a one-row stream."""
    return classify(index, registry, q, th, knn_one(index, q, th.k))


def thresholds(theta_new, theta_ood, **given) -> Thresholds:
    """``Thresholds`` with each setting not given as calibrate_thresholds
    sets it from ``PipelineConfig()``: k and c_min at its defaults, and
    r_cohesion, which it leaves unset, at 2 * theta_ood."""
    config = PipelineConfig()
    if "r_cohesion" not in given:
        given["r_cohesion"] = 2.0 * theta_ood
    return Thresholds(theta_new, theta_ood, **{"k": config.k, "c_min": config.c_min, **given})
