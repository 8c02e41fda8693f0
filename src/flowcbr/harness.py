"""Evaluation harness: splits, metrics, pipeline runs, sweeps, protocols.

Everything here is deterministic under its seed, and every run writes plain
CSV/JSON reports so results can be diffed byte for byte.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# vote is not called here: flowbench's tracer test reads harness.vote.
from .cbr import (Thresholds, Verdict, VerdictKind, _majority, _neighbor_votes,
                  classify_stream, vote, write_verdicts)
from .features import extract_rows
from .flows import DEFAULT_IDLE_TIMEOUT, Flow, InputError, write_atomic
from .forest import train_forest
from .model import Model, fit_model

OOD_LABEL = "__ood__"
PENDING_LABEL = "__pending__"
PLATEAU_EPS = 0.005


def _train_count(n: int, fraction: float) -> int:
    # Round half up, keep at least one sample in train, never exceed n.
    return min(n, max(1, int(np.floor(n * fraction + 0.5 + 1e-9))))


def stratified_split(labels: list[str] | np.ndarray, train_fraction: float,
                     seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Index split into (train, test), per class; each class keeps at least
    one training row."""
    if not 0 < train_fraction < 1:
        raise ValueError("train_fraction must be in (0, 1)")
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    train: list[int] = []
    test: list[int] = []
    for label in np.unique(labels):
        idx = np.flatnonzero(labels == label)
        rng.shuffle(idx)
        cut = _train_count(idx.size, train_fraction)
        train.extend(idx[:cut].tolist())
        test.extend(idx[cut:].tolist())
    return np.sort(np.array(train, dtype=np.int64)), np.sort(np.array(test, dtype=np.int64))


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float


@dataclass
class Metrics:
    accuracy: float
    per_class: dict[str, ClassMetrics]
    labels: list[str]
    confusion: np.ndarray

    def macro_f1(self) -> float:
        if not self.per_class:
            return 0.0
        return float(np.mean([m.f1 for m in self.per_class.values()]))


def compute_metrics(y_true: list[str], y_pred: list[str],
                    class_set: list[str] | None = None) -> Metrics:
    """Per-class precision/recall/F1 plus accuracy and a confusion matrix.

    The confusion matrix covers the union of true and predicted labels;
    per-class metrics are reported for ``class_set`` (default: that union).
    """
    if len(y_true) != len(y_pred):
        raise ValueError("y_true and y_pred lengths differ")
    labels = sorted(set(y_true) | set(y_pred))
    pos = {lbl: i for i, lbl in enumerate(labels)}
    confusion = np.zeros((len(labels), len(labels)), dtype=np.int64)
    for t, p in zip(y_true, y_pred):
        confusion[pos[t], pos[p]] += 1
    total = confusion.sum()
    accuracy = float(np.trace(confusion) / total) if total else 0.0
    per_class = {}
    for lbl in sorted(class_set) if class_set is not None else labels:
        if lbl in pos:
            i = pos[lbl]
            tp = float(confusion[i, i])
            predicted = float(confusion[:, i].sum())
            actual = float(confusion[i, :].sum())
        else:
            tp = predicted = actual = 0.0
        precision = tp / predicted if predicted else 0.0
        recall = tp / actual if actual else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class[lbl] = ClassMetrics(precision, recall, f1)
    return Metrics(accuracy=accuracy, per_class=per_class, labels=labels,
                   confusion=confusion)


def write_metrics_csv(path: str | Path, metrics: Metrics) -> None:
    fh = io.StringIO()
    csv.writer(fh).writerows([["class", "precision", "recall", "f1"]] + [
        [lbl, repr(m.precision), repr(m.recall), repr(m.f1)]
        for lbl, m in sorted(metrics.per_class.items())])
    write_atomic(path, fh.getvalue())


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _int_ge_1(v) -> bool:
    return _is_int(v) and v >= 1


def _positive(v) -> bool:
    return _is_real(v) and v > 0


# Setting -> (check, what it must be), checked in this order, so that of two
# bad settings the same one is named. Range tests are written so NaN fails.
_CHECKS = {
    "seed": (lambda v: _is_int(v) and v >= 0, "an integer >= 0"),
    "k": (_int_ge_1, "an integer >= 1"),
    "c_min": (_int_ge_1, "an integer >= 1"),
    "n_trees": (_int_ge_1, "an integer >= 1"),
    "n_packets": (lambda v: v is None or _int_ge_1(v), "null or an integer >= 1"),
    "max_depth": (lambda v: v is None or _int_ge_1(v), "null or an integer >= 1"),
    "r_cohesion": (lambda v: v is None or _positive(v), "null or a number > 0"),
    "quantile_new": (lambda v: _is_real(v) and 0 < v <= 1, "a number in (0, 1]"),
    "quantile_ood": (lambda v: _is_real(v) and 0 < v <= 1, "a number in (0, 1]"),
    "ood_margin": (_positive, "a number > 0"),
    "train_fraction": (lambda v: _is_real(v) and 0 < v < 1, "a number in (0, 1)"),
    "idle_timeout": (_positive, "a number > 0"),
}


@dataclass(frozen=True)
class PipelineConfig:
    """Every setting and its default. A bad value is an InputError on
    construction and on ``dataclasses.replace``, as the CLI reports it."""

    n_packets: int | None = None
    k: int = 5
    quantile_new: float = 0.99
    quantile_ood: float = 0.999
    ood_margin: float = 1.5
    c_min: int = 5
    r_cohesion: float | None = None
    train_fraction: float = 0.70
    seed: int = 0
    n_trees: int = 100
    max_depth: int | None = None
    idle_timeout: float = DEFAULT_IDLE_TIMEOUT

    def __post_init__(self) -> None:
        for key, (allowed, what) in _CHECKS.items():
            value = getattr(self, key)
            if not allowed(value):
                raise InputError(f"setting {key}={value!r} must be {what}")


@dataclass
class FittedPipeline:
    """The model fitted on the training split (its rows and labels are the
    training set) and the normalized test split."""

    model: Model
    X_test: np.ndarray
    y_test: list[str]
    test_ids: list[str]


def _rows(flows: list[Flow], config: PipelineConfig
          ) -> tuple[np.ndarray, list[str], list[str]]:
    """extract_rows of the flows cut to ``config.n_packets``; training and
    scoring need flows, each with a label."""
    if not flows:
        raise InputError("no flows to train on")
    X, ids, labels = extract_rows(flows, config.n_packets)
    for flow_id, label in zip(ids, labels):
        if not label:
            raise InputError(f"flow {flow_id} has no label, and every flow needs one "
                             "to train and score")
    return X, ids, labels


def _fit(X: np.ndarray, ids: list[str], labels: list[str],
         config: PipelineConfig) -> FittedPipeline:
    """Split the rows, then normalize, index and calibrate the training split."""
    train_idx, test_idx = stratified_split(labels, config.train_fraction, config.seed)
    model = fit_model(X[train_idx], [labels[i] for i in train_idx], config)
    if not test_idx.size:
        raise InputError(f"train_fraction {config.train_fraction} leaves no test rows")
    return FittedPipeline(model=model, X_test=model.normalizer.transform(X[test_idx]),
                          y_test=[labels[i] for i in test_idx],
                          test_ids=[ids[i] for i in test_idx])


def fit_pipeline(flows: list[Flow], config: PipelineConfig) -> FittedPipeline:
    """Extract, split, normalize, index, and calibrate; nothing is classified."""
    return _fit(*_rows(flows, config), config)


def verdict_label(verdict: Verdict) -> str:
    """Map a verdict to a comparable prediction label."""
    if verdict.kind in (VerdictKind.KNOWN, VerdictKind.REGISTERED):
        return verdict.label or ""
    return OOD_LABEL if verdict.kind is VerdictKind.OOD else PENDING_LABEL


def combined_label(verdict: Verdict, forest_label: str) -> str:
    """The ensemble rule: a Known verdict takes the forest's label; rejection
    and new-class verdicts keep their own."""
    return forest_label if verdict.kind is VerdictKind.KNOWN else verdict_label(verdict)


def run_cbr_stream(model: Model, rows: np.ndarray) -> list[Verdict]:
    """Classify ``rows`` in order on clones of the model's index and registry,
    so the stream may register classes without touching the model."""
    return classify_stream(model.index.clone(), model.registry.clone(), rows,
                           model.thresholds)


@dataclass
class EvalReport:
    metrics_cbr: Metrics
    metrics_forest: Metrics
    metrics_ensemble: Metrics
    thresholds: Thresholds
    verdicts: list[tuple[str, Verdict]]
    ensemble_labels: list[str]
    n_train: int
    n_test: int


def run_eval(flows: list[Flow], config: PipelineConfig,
             out_dir: str | Path | None = None) -> EvalReport:
    """Full evaluation: retrieval pass, forest pass, and the combined stage."""
    fitted = fit_pipeline(flows, config)
    model = fitted.model
    class_set = sorted(set(model.labels))
    if len(class_set) < 2:
        raise InputError(f"the forest needs two classes to train on; every row is {class_set[0]}")

    verdicts = run_cbr_stream(model, fitted.X_test)
    cbr_preds = [verdict_label(v) for v in verdicts]
    metrics_cbr = compute_metrics(fitted.y_test, cbr_preds, class_set)

    forest = train_forest(model.vectors, model.labels, config)
    forest_preds = forest.predict_batch(fitted.X_test)
    metrics_forest = compute_metrics(fitted.y_test, forest_preds, class_set)

    ensemble_labels = [combined_label(v, label) for v, label in zip(verdicts, forest_preds)]
    metrics_ensemble = compute_metrics(fitted.y_test, ensemble_labels, class_set)

    report = EvalReport(metrics_cbr=metrics_cbr, metrics_forest=metrics_forest,
                        metrics_ensemble=metrics_ensemble, thresholds=model.thresholds,
                        verdicts=list(zip(fitted.test_ids, verdicts)),
                        ensemble_labels=ensemble_labels,
                        n_train=len(model.labels), n_test=len(fitted.y_test))
    if out_dir is not None:
        out = Path(out_dir)
        write_metrics_csv(out / "metrics_cbr.csv", metrics_cbr)
        write_metrics_csv(out / "metrics_forest.csv", metrics_forest)
        write_metrics_csv(out / "metrics_ensemble.csv", metrics_ensemble)
        write_verdicts(out / "verdicts.jsonl", report.verdicts)
        summary = {
            "accuracy_cbr": metrics_cbr.accuracy,
            "accuracy_ensemble": metrics_ensemble.accuracy,
            "accuracy_forest": metrics_forest.accuracy,
            "forest_oob": forest.oob_score,
            "macro_f1_cbr": metrics_cbr.macro_f1(),
            "macro_f1_ensemble": metrics_ensemble.macro_f1(),
            "macro_f1_forest": metrics_forest.macro_f1(),
            "n_test": report.n_test,
            "n_train": report.n_train,
            "seed": config.seed,
            "theta_new": model.thresholds.theta_new,
            "theta_ood": model.thresholds.theta_ood,
        }
        write_atomic(out / "summary.json", json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return report


@dataclass
class SweepPoint:
    n_packets: int
    accuracy: float


def packet_sweep(flows: list[Flow], packet_counts: list[int],
                 config: PipelineConfig,
                 out_path: str | Path | None = None) -> list[SweepPoint]:
    """Accuracy of plain k-NN vote classification per packet-count prefix.

    Thresholds are deliberately not applied here: the sweep measures how much
    label signal a prefix carries, so every test sample gets the vote label
    of its k nearest training samples.
    """
    if list(packet_counts) != sorted(set(packet_counts)):
        raise ValueError("packet_counts must be strictly ascending")
    points = []
    for n in packet_counts:
        fitted = fit_pipeline(flows, dataclasses.replace(config, n_packets=n))
        index = fitted.model.index
        correct = 0
        for (ids, distances), truth in zip(index.knn(fitted.X_test, fitted.model.thresholds.k),
                                           fitted.y_test):
            labels = index.labels_of(ids)
            correct += _majority(labels, distances, _neighbor_votes(labels)) == truth
        points.append(SweepPoint(n_packets=n, accuracy=correct / len(fitted.y_test)))
    if out_path is not None:
        write_atomic(out_path, "n_packets,accuracy\r\n" + "".join(
            f"{p.n_packets},{p.accuracy!r}\r\n" for p in points))
    return points


def find_plateau(points: list[SweepPoint]) -> int | None:
    """First count whose gain over the previous count falls below PLATEAU_EPS."""
    for prev, cur in zip(points, points[1:]):
        if cur.accuracy - prev.accuracy < PLATEAU_EPS:
            return cur.n_packets
    return None


@dataclass
class NewClassReport:
    held_out_class: str
    n_held_out: int  # held-out test samples streamed
    registered_label: str | None
    samples_consumed: int | None  # None when no class registered
    # None also when no held-out sample came after the registration
    held_out_recall: float | None
    n_post_registration: int
    metrics_before: Metrics
    metrics_after: Metrics


def _interleave(n_base: int, n_held: int) -> np.ndarray:
    """The streaming order of base rows 0..n_base-1 and held-out rows
    n_base..n_base+n_held-1. With ratio = n_base // n_held (at least 1),
    round r holds base rows r*ratio .. r*ratio+ratio-1, then held-out row r;
    once one side runs out, the other fills the later rounds."""
    ratio = max(1, n_base // max(1, n_held))
    rounds = np.concatenate([np.arange(n_base) // ratio, np.arange(n_held)])
    is_held = np.arange(n_base + n_held) >= n_base
    return np.lexsort((is_held, rounds))


def new_class_protocol(flows: list[Flow], held_out_class: str,
                       config: PipelineConfig,
                       out_dir: str | Path | None = None) -> NewClassReport:
    """Train without one class, then stream it and watch it get registered.

    The index and thresholds are fitted on the remaining classes only. A
    baseline pass classifies their test samples. The main pass streams those
    same samples interleaved with the held-out class's test samples; once
    enough cohesive samples accumulate the class is auto-registered. The
    report compares pre-existing-class F1 across the two passes and measures
    recall on held-out samples that arrive after registration.
    """
    X, ids, labels = _rows(flows, config)
    held = np.array(labels) == held_out_class
    if not held.any():
        raise InputError(f"held-out class {held_out_class!r} is not present")
    if held.all():
        raise InputError(f"every flow is {held_out_class}, so holding it out leaves "
                       f"no rows to train on")
    base = np.flatnonzero(~held)
    fitted = _fit(X[base], [ids[i] for i in base], [labels[i] for i in base], config)
    model = fitted.model
    # The held-out test rows, chosen with the same split rule.
    X_held = X[held]
    _, held_test = stratified_split([held_out_class] * len(X_held), config.train_fraction,
                                    config.seed)
    if not held_test.size:
        raise InputError(f"train_fraction {config.train_fraction} leaves no test rows "
                       f"of the held-out class {held_out_class}")
    class_set = sorted(set(model.labels))

    before = run_cbr_stream(model, fitted.X_test)
    metrics_before = compute_metrics(fitted.y_test, [verdict_label(v) for v in before],
                                     class_set)
    rows = np.vstack([fitted.X_test, model.normalizer.transform(X_held[held_test])])
    truths = fitted.y_test + [held_out_class] * held_test.size
    order = _interleave(len(fitted.y_test), held_test.size)

    registered_label: str | None = None
    samples_consumed: int | None = None
    held_seen = post_total = post_hits = 0
    base_true: list[str] = []
    base_pred: list[str] = []
    for truth, verdict in zip([truths[i] for i in order],
                              run_cbr_stream(model, rows[order])):
        pred = verdict_label(verdict)
        if truth != held_out_class:
            base_true.append(truth)
            base_pred.append(pred)
        elif registered_label is not None:
            post_total += 1
            post_hits += int(pred == registered_label)
        else:
            held_seen += 1
            if verdict.kind is VerdictKind.REGISTERED:
                registered_label, samples_consumed = verdict.label, held_seen
    metrics_after = compute_metrics(base_true, base_pred, class_set)
    report = NewClassReport(
        held_out_class=held_out_class,
        n_held_out=held_test.size,
        registered_label=registered_label,
        samples_consumed=samples_consumed,
        held_out_recall=post_hits / post_total if post_total else None,
        n_post_registration=post_total,
        metrics_before=metrics_before,
        metrics_after=metrics_after,
    )
    if out_dir is not None:
        out = Path(out_dir)
        write_metrics_csv(out / "metrics_before.csv", metrics_before)
        write_metrics_csv(out / "metrics_after.csv", metrics_after)
        doc = {
            "held_out_class": held_out_class,
            "held_out_recall": report.held_out_recall,
            "n_post_registration": post_total,
            "registered_label": registered_label,
            "samples_consumed": samples_consumed,
        }
        write_atomic(out / "new_class.json", json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return report
