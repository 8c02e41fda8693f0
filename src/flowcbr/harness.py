"""Evaluation harness: splits, metrics, pipeline runs, sweeps, protocols.

Everything here is deterministic under its seed, and every run writes plain
CSV/JSON reports so results can be diffed byte for byte.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cbr import (DEFAULT_C_MIN, DEFAULT_K, DEFAULT_OOD_MARGIN, DEFAULT_QUANTILE_NEW,
                  DEFAULT_QUANTILE_OOD, Thresholds, Verdict, VerdictKind, classify, vote,
                  write_verdicts)
from .features import extract_matrix
from .flows import Flow, truncate_flow
from .forest import (DEFAULT_N_TREES, EnsembleVerdict, ForestConfig, route_verdict,
                     train_forest)
from .model import Model, fit_model

OOD_LABEL = "__ood__"
PENDING_LABEL = "__pending__"
PLATEAU_EPS = 0.005
DEFAULT_TRAIN_FRACTION = 0.70


@dataclass
class SplitSpec:
    train_fraction: float = DEFAULT_TRAIN_FRACTION
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.train_fraction < 1:
            raise ValueError("train_fraction must be in (0, 1)")


def _train_count(n: int, fraction: float) -> int:
    # Round half up, keep at least one sample in train, never exceed n.
    return min(n, max(1, int(np.floor(n * fraction + 0.5 + 1e-9))))


def stratified_split(labels: list[str] | np.ndarray,
                     spec: SplitSpec) -> tuple[np.ndarray, np.ndarray]:
    """Index split into (train, test), per class (70/30 by default)."""
    labels = np.asarray(labels)
    rng = np.random.default_rng(spec.seed)
    train: list[int] = []
    test: list[int] = []
    for label in np.unique(labels):
        idx = np.flatnonzero(labels == label)
        rng.shuffle(idx)
        cut = _train_count(idx.size, spec.train_fraction)
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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["class", "precision", "recall", "f1"])
        for lbl in sorted(metrics.per_class):
            m = metrics.per_class[lbl]
            writer.writerow([lbl, repr(m.precision), repr(m.recall), repr(m.f1)])


@dataclass
class PipelineConfig:
    n_packets: int | None = None
    k: int = DEFAULT_K
    quantile_new: float = DEFAULT_QUANTILE_NEW
    quantile_ood: float = DEFAULT_QUANTILE_OOD
    ood_margin: float = DEFAULT_OOD_MARGIN
    c_min: int = DEFAULT_C_MIN
    r_cohesion: float | None = None
    train_fraction: float = DEFAULT_TRAIN_FRACTION
    seed: int = 0
    n_trees: int = DEFAULT_N_TREES
    max_depth: int | None = None


@dataclass
class FittedPipeline:
    """The model fitted on the training split (its rows and labels are the
    training set) and the normalized test split."""

    model: Model
    X_test: np.ndarray
    y_test: list[str]
    test_ids: list[str]


def fit_pipeline(flows: list[Flow], config: PipelineConfig) -> FittedPipeline:
    """Extract, split, normalize, index, and calibrate; nothing is classified."""
    if config.n_packets is not None:
        flows = [truncate_flow(f, config.n_packets) for f in flows]
    labels = [f.label or "" for f in flows]
    if any(not lbl for lbl in labels):
        raise ValueError("every flow needs a label for evaluation")
    X = extract_matrix(flows)
    train_idx, test_idx = stratified_split(
        labels, SplitSpec(train_fraction=config.train_fraction, seed=config.seed))
    model = fit_model(X[train_idx], [labels[i] for i in train_idx], config)
    return FittedPipeline(model=model, X_test=model.normalizer.transform(X[test_idx]),
                          y_test=[labels[i] for i in test_idx],
                          test_ids=[flows[i].flow_id or f"t{i}" for i in test_idx])


def verdict_label(verdict: Verdict) -> str:
    """Map a verdict to a comparable prediction label."""
    if verdict.kind in (VerdictKind.KNOWN, VerdictKind.REGISTERED):
        return verdict.label or ""
    return OOD_LABEL if verdict.kind is VerdictKind.OOD else PENDING_LABEL


def run_cbr_stream(fitted: FittedPipeline) -> list[tuple[str, Verdict]]:
    """Classify the fitted test set on isolated clones."""
    model = fitted.model
    index = model.index.clone()
    registry = model.registry.clone()
    return [(flow_id, classify(index, registry, row, model.thresholds))
            for flow_id, row in zip(fitted.test_ids, fitted.X_test)]


@dataclass
class EvalReport:
    metrics_cbr: Metrics
    metrics_forest: Metrics
    metrics_ensemble: Metrics
    thresholds: Thresholds
    verdicts: list[tuple[str, Verdict]]
    ensemble_records: list[tuple[str, EnsembleVerdict]]
    n_train: int
    n_test: int
    forest_oob: float | None


def run_eval(flows: list[Flow], config: PipelineConfig,
             out_dir: str | Path | None = None) -> EvalReport:
    """Full evaluation: retrieval pass, forest pass, and the combined stage."""
    fitted = fit_pipeline(flows, config)
    model = fitted.model
    class_set = sorted(set(model.labels))

    verdicts = run_cbr_stream(fitted)
    cbr_preds = [verdict_label(v) for _, v in verdicts]
    metrics_cbr = compute_metrics(fitted.y_test, cbr_preds, class_set)

    forest = train_forest(model.vectors, model.labels,
                          ForestConfig(n_trees=config.n_trees, max_depth=config.max_depth,
                                       seed=config.seed))
    forest_preds, _ = forest.predict_batch(fitted.X_test)
    metrics_forest = compute_metrics(fitted.y_test, forest_preds, class_set)

    ensemble_records = [(flow_id, route_verdict(v, lambda label=label: label))
                        for (flow_id, v), label in zip(verdicts, forest_preds)]
    ens_preds = [ev.verdict if ev.source == "Forest" else verdict_label(ev.verdict)
                 for _, ev in ensemble_records]
    metrics_ensemble = compute_metrics(fitted.y_test, ens_preds, class_set)

    report = EvalReport(metrics_cbr=metrics_cbr, metrics_forest=metrics_forest,
                        metrics_ensemble=metrics_ensemble, thresholds=model.thresholds,
                        verdicts=verdicts, ensemble_records=ensemble_records,
                        n_train=len(model.labels), n_test=len(fitted.y_test),
                        forest_oob=forest.oob_score)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_metrics_csv(out / "metrics_cbr.csv", metrics_cbr)
        write_metrics_csv(out / "metrics_forest.csv", metrics_forest)
        write_metrics_csv(out / "metrics_ensemble.csv", metrics_ensemble)
        write_verdicts(out / "verdicts.jsonl", verdicts)
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
        with open(out / "summary.json", "w") as fh:
            json.dump(summary, fh, sort_keys=True, indent=2)
            fh.write("\n")
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
        cfg = PipelineConfig(**{**config.__dict__, "n_packets": n})
        fitted = fit_pipeline(flows, cfg)
        correct = 0
        for truth, row in zip(fitted.y_test, fitted.X_test):
            label, _ = vote(fitted.model.index.query_knn(row, fitted.model.thresholds.k))
            correct += int(label == truth)
        points.append(SweepPoint(n_packets=n, accuracy=correct / len(fitted.y_test)))
    if out_path is not None:
        Path(out_path).parent.mkdir(parents=True, exist_ok=True)
        with open(out_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n_packets", "accuracy"])
            for p in points:
                writer.writerow([p.n_packets, repr(p.accuracy)])
    return points


def find_plateau(points: list[SweepPoint], eps: float = PLATEAU_EPS) -> int | None:
    """First count whose gain over the previous count falls below eps."""
    for prev, cur in zip(points, points[1:]):
        if cur.accuracy - prev.accuracy < eps:
            return cur.n_packets
    return None


@dataclass
class NewClassReport:
    held_out_class: str
    registered_label: str | None
    samples_consumed: int
    held_out_recall: float
    n_post_registration: int
    metrics_before: Metrics
    metrics_after: Metrics

    def f1_drops(self) -> dict[str, float]:
        """Per pre-existing class: F1 before minus F1 after (positive = worse)."""
        return {lbl: self.metrics_before.per_class[lbl].f1 - m.f1
                for lbl, m in self.metrics_after.per_class.items()
                if lbl in self.metrics_before.per_class}


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
    labels = {f.label for f in flows}
    if held_out_class not in labels:
        raise ValueError(f"class {held_out_class!r} not present")
    base_flows = [f for f in flows if f.label != held_out_class]
    held_flows = [f for f in flows if f.label == held_out_class]

    fitted = fit_pipeline(base_flows, config)
    class_set = sorted(set(fitted.model.labels))

    before = run_cbr_stream(fitted)
    metrics_before = compute_metrics(fitted.y_test, [verdict_label(v) for _, v in before],
                                     class_set)

    # Held-out test portion, chosen with the same split rule.
    held_train_idx, held_test_idx = stratified_split(
        [f.label for f in held_flows],
        SplitSpec(train_fraction=config.train_fraction, seed=config.seed))
    held_test = [held_flows[i] for i in held_test_idx]
    if config.n_packets is not None:
        held_test = [truncate_flow(f, config.n_packets) for f in held_test]
    X_held = fitted.model.normalizer.transform(extract_matrix(held_test))
    held_ids = [f.flow_id or f"h{i}" for i, f in enumerate(held_test)]

    # Interleave deterministically: alternate base and held-out samples.
    stream: list[tuple[str, np.ndarray, str]] = []
    base_items = list(zip(fitted.test_ids, fitted.X_test, fitted.y_test))
    held_items = [(fid, row, held_out_class) for fid, row in zip(held_ids, X_held)]
    ratio = max(1, len(base_items) // max(1, len(held_items)))
    bi = hi = 0
    while bi < len(base_items) or hi < len(held_items):
        for _ in range(ratio):
            if bi < len(base_items):
                stream.append(base_items[bi])
                bi += 1
        if hi < len(held_items):
            stream.append(held_items[hi])
            hi += 1

    index = fitted.model.index.clone()
    registry = fitted.model.registry.clone()
    registered_label: str | None = None
    samples_consumed = 0
    held_seen = 0
    post_total = 0
    post_hits = 0
    base_true: list[str] = []
    base_pred: list[str] = []
    for flow_id, row, truth in stream:
        verdict = classify(index, registry, row, fitted.model.thresholds)
        pred = verdict_label(verdict)
        if truth == held_out_class:
            held_seen += 1
            if registered_label is None:
                if verdict.kind is VerdictKind.REGISTERED:
                    registered_label = verdict.label
                    samples_consumed = held_seen
            else:
                post_total += 1
                post_hits += int(pred == registered_label)
        else:
            base_true.append(truth)
            base_pred.append(pred)
    metrics_after = compute_metrics(base_true, base_pred, class_set)
    report = NewClassReport(
        held_out_class=held_out_class,
        registered_label=registered_label,
        samples_consumed=samples_consumed,
        held_out_recall=(post_hits / post_total) if post_total else 0.0,
        n_post_registration=post_total,
        metrics_before=metrics_before,
        metrics_after=metrics_after,
    )
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_metrics_csv(out / "metrics_before.csv", metrics_before)
        write_metrics_csv(out / "metrics_after.csv", metrics_after)
        doc = {
            "held_out_class": held_out_class,
            "held_out_recall": report.held_out_recall,
            "n_post_registration": post_total,
            "registered_label": registered_label,
            "samples_consumed": samples_consumed,
        }
        with open(out / "new_class.json", "w") as fh:
            json.dump(doc, fh, sort_keys=True, indent=2)
            fh.write("\n")
    return report
