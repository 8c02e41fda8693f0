"""Evaluation harness tests: splits, metrics, pipeline wiring, sweeps."""

import csv
import dataclasses
import json
import re
from collections import Counter

import forest_oracle as oracle
import numpy as np
import pytest

from flowcbr.cbr import Verdict, VerdictKind
from flowcbr.features import extract_matrix, fit_normalizer
from flowcbr.flows import InputError
from flowcbr.forest import train_forest
from flowcbr.harness import (
    OOD_LABEL,
    PENDING_LABEL,
    PipelineConfig,
    SweepPoint,
    _interleave,
    combined_label,
    compute_metrics,
    find_plateau,
    fit_pipeline,
    new_class_protocol,
    packet_sweep,
    run_cbr_stream,
    run_eval,
    stratified_split,
    verdict_label,
    write_metrics_csv,
)
from flowcbr.synth import default_templates, synth_generate
from knn_helpers import classify_one
from registration_fixtures import f1_drops, fewshot_templates


# ---------------------------------------------------------------- splits


def test_split_is_a_disjoint_cover():
    labels = ["a"] * 11 + ["b"] * 7 + ["c"] * 23
    train, test = stratified_split(labels, 0.70, seed=3)
    assert set(train) | set(test) == set(range(len(labels)))
    assert set(train) & set(test) == set()


def test_split_per_class_counts_round_half_up():
    labels = ["a"] * 4 + ["b"] * 7
    train, _ = stratified_split(labels, 0.70, seed=0)
    counts = Counter(labels[i] for i in train)
    # 4 * 0.7 = 2.8 rounds to 3; 7 * 0.7 = 4.9 rounds to 5.
    assert counts == {"a": 3, "b": 5}


def test_split_keeps_at_least_one_training_sample():
    train, test = stratified_split(["a", "b", "b"], 0.1, seed=0)
    assert Counter(["a", "b", "b"][i] for i in train)["a"] == 1


def test_split_deterministic_and_sorted():
    labels = ["x", "y"] * 20
    a = stratified_split(labels, 0.70, seed=8)
    b = stratified_split(labels, 0.70, seed=8)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])
    assert list(a[0]) == sorted(a[0])
    assert list(a[1]) == sorted(a[1])
    c = stratified_split(labels, 0.70, seed=9)
    assert list(a[0]) != list(c[0])


def test_split_fraction_bounds():
    with pytest.raises(ValueError, match="train_fraction"):
        stratified_split(["a", "a"], 0.0, seed=0)
    with pytest.raises(ValueError, match="train_fraction"):
        stratified_split(["a", "a"], 1.0, seed=0)


# ---------------------------------------------------------------- metrics


def test_metrics_hand_case():
    y_true = ["a", "a", "a", "b", "b", "c"]
    y_pred = ["a", "a", "b", "b", "a", "c"]
    m = compute_metrics(y_true, y_pred)
    assert m.accuracy == pytest.approx(4 / 6)
    # a: tp=2, predicted 3, actual 3.
    assert m.per_class["a"].precision == pytest.approx(2 / 3)
    assert m.per_class["a"].recall == pytest.approx(2 / 3)
    assert m.per_class["a"].f1 == pytest.approx(2 / 3)
    # b: tp=1, predicted 2, actual 2.
    assert m.per_class["b"].f1 == pytest.approx(0.5)
    assert m.per_class["c"].f1 == pytest.approx(1.0)
    assert m.macro_f1() == pytest.approx((2 / 3 + 0.5 + 1.0) / 3)


def test_metrics_confusion_recount():
    rng = np.random.default_rng(0)
    classes = ["a", "b", "c", "d"]
    y_true = [classes[i] for i in rng.integers(0, 4, size=200)]
    y_pred = [classes[i] for i in rng.integers(0, 4, size=200)]
    m = compute_metrics(y_true, y_pred)
    for i, t in enumerate(m.labels):
        for j, p in enumerate(m.labels):
            want = sum(1 for yt, yp in zip(y_true, y_pred) if yt == t and yp == p)
            assert m.confusion[i, j] == want
    assert m.confusion.sum() == 200


def test_metrics_class_set_restriction():
    m = compute_metrics(["a", "b"], ["a", "a"], class_set=["a", "missing"])
    assert sorted(m.per_class) == ["a", "missing"]
    absent = m.per_class["missing"]
    assert (absent.precision, absent.recall, absent.f1) == (0.0, 0.0, 0.0)
    # "b" still shows up in the confusion matrix even though it is not scored.
    assert "b" in m.labels


def test_metrics_zero_denominators_give_zero():
    m = compute_metrics(["a", "a"], ["b", "b"])
    assert m.per_class["a"].precision == 0.0   # never predicted
    assert m.per_class["b"].recall == 0.0      # never true
    assert m.per_class["a"].f1 == 0.0
    assert m.accuracy == 0.0


def test_metrics_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        compute_metrics(["a"], ["a", "b"])


def test_metrics_csv_layout(tmp_path):
    m = compute_metrics(["b", "a"], ["b", "a"])
    path = tmp_path / "m.csv"
    write_metrics_csv(path, m)
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["class", "precision", "recall", "f1"]
    assert [r[0] for r in rows[1:]] == ["a", "b"]
    assert rows[1][1:] == ["1.0", "1.0", "1.0"]


# ---------------------------------------------------------------- verdict labels


def test_verdict_label_mapping():
    def v(kind, label=None):
        return Verdict(kind=kind, label=label, votes={}, min_distance=0.5)

    assert verdict_label(v(VerdictKind.KNOWN, "web")) == "web"
    assert verdict_label(v(VerdictKind.REGISTERED, "novel-1")) == "novel-1"
    assert verdict_label(v(VerdictKind.OOD)) == OOD_LABEL
    assert verdict_label(v(VerdictKind.PENDING)) == PENDING_LABEL


def test_combined_label_takes_the_forest_label_only_for_known():
    def v(kind, label=None):
        return Verdict(kind=kind, label=label, votes={}, min_distance=0.5)

    assert combined_label(v(VerdictKind.KNOWN, "web"), "video") == "video"
    assert combined_label(v(VerdictKind.REGISTERED, "novel-1"), "video") == "novel-1"
    assert combined_label(v(VerdictKind.OOD), "video") == OOD_LABEL
    assert combined_label(v(VerdictKind.PENDING), "video") == PENDING_LABEL


# ---------------------------------------------------------------- pipeline


def flows_small(n_classes=3, n_per_class=12, seed=1):
    return synth_generate(default_templates(n_classes), n_per_class, seed=seed)


def test_fit_pipeline_matches_manual_assembly():
    """The pipeline is exactly split + normalize + index, nothing hidden."""
    flows = flows_small()
    cfg = PipelineConfig(seed=4, k=3)
    fitted = fit_pipeline(flows, cfg)

    X = extract_matrix(flows)
    train_idx, test_idx = stratified_split([f.label for f in flows], 0.70, seed=4)
    norm = fit_normalizer(X[train_idx])
    np.testing.assert_array_equal(fitted.model.vectors, norm.transform(X)[train_idx])
    np.testing.assert_array_equal(fitted.X_test, norm.transform(X)[test_idx])
    assert fitted.model.labels == [flows[i].label for i in train_idx]
    assert fitted.model.index.size == train_idx.size
    assert fitted.test_ids == [flows[i].flow_id for i in test_idx]
    assert fitted.model.thresholds.theta_ood >= fitted.model.thresholds.theta_new


def test_fit_pipeline_requires_labels():
    flows = flows_small(n_per_class=2)
    flows[0] = dataclasses.replace(flows[0], label=None)
    with pytest.raises(InputError, match="flow .* has no label"):
        fit_pipeline(flows, PipelineConfig())


def test_fit_pipeline_truncation_changes_features():
    flows = flows_small()
    full = fit_pipeline(flows, PipelineConfig(seed=0))
    cut = fit_pipeline(flows, PipelineConfig(seed=0, n_packets=4))
    assert cut.model.vectors.shape == full.model.vectors.shape
    assert not np.array_equal(cut.model.vectors, full.model.vectors)


@pytest.mark.parametrize("key,value", [("max_depth", -1), ("ood_margin", -1.0),
                                       ("quantile_ood", 0.0), ("seed", True)])
def test_library_callers_get_the_settings_refusal(tmp_path, key, value):
    """A setting the CLI refuses is refused when a library caller builds the
    config, so nothing runs and nothing is written. Unchecked, max_depth=-1
    trains a forest of stumps, and the other three run to the end."""
    with pytest.raises(InputError, match=re.escape(f"setting {key}={value!r} must be ")):
        run_eval(flows_small(), PipelineConfig(**{key: value}), out_dir=tmp_path)
    assert not any(tmp_path.iterdir())


def test_replace_checks_the_settings_again():
    """``dataclasses.replace`` builds a new config, so it checks every value
    again; a config cannot be changed in place."""
    config = PipelineConfig(seed=3)
    assert dataclasses.replace(config, n_packets=4) == PipelineConfig(seed=3, n_packets=4)
    with pytest.raises(InputError, match=r"^setting n_packets=0 must be null or an integer >= 1$"):
        dataclasses.replace(config, n_packets=0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.k = 0


def test_run_cbr_stream_leaves_fitted_state_alone():
    flows = flows_small()
    fitted = fit_pipeline(flows, PipelineConfig(seed=1, c_min=2))
    size_before = fitted.model.index.size
    first = run_cbr_stream(fitted.model, fitted.X_test)
    second = run_cbr_stream(fitted.model, fitted.X_test)
    assert fitted.model.index.size == size_before
    assert len(fitted.model.registry.pending) == 0
    assert len(first) == len(fitted.y_test)
    assert [(v.kind, v.label) for v in first] == [(v.kind, v.label) for v in second]


def test_run_eval_writes_artifacts(tmp_path):
    flows = flows_small(n_per_class=14)
    report = run_eval(flows, PipelineConfig(seed=0, n_trees=10), out_dir=tmp_path)
    for name in ("metrics_cbr.csv", "metrics_forest.csv", "metrics_ensemble.csv",
                 "verdicts.jsonl", "summary.json"):
        assert (tmp_path / name).exists(), name
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["n_train"] == report.n_train
    assert summary["accuracy_cbr"] == report.metrics_cbr.accuracy
    assert 0.0 <= report.metrics_cbr.accuracy <= 1.0
    lines = (tmp_path / "verdicts.jsonl").read_text().splitlines()
    assert len(lines) == report.n_test
    assert {"flow_id", "kind", "label", "min_distance", "votes"} == set(json.loads(lines[0]))


def per_row_ensemble_oracle(flows, config):
    """The original combined stage: fresh clones of the fitted index and
    registry, then per test row a second retrieval pass and a one-row
    forest prediction, combined by the ensemble rule."""
    fitted = fit_pipeline(flows, config)
    model = fitted.model
    forest = train_forest(model.vectors, model.labels, config)
    index, registry = model.index.clone(), model.registry.clone()
    labels = [combined_label(classify_one(index, registry, row, model.thresholds),
                             forest.predict_batch(row[None])[0])
              for row in fitted.X_test]
    return labels, compute_metrics(fitted.y_test, labels, sorted(set(model.labels)))


def test_run_eval_ensemble_matches_per_row_oracle():
    """Tight thresholds and c_min=2 give a stream with every verdict kind;
    the reused verdicts and batch labels must reproduce the per-row stage."""
    flows = flows_small(n_per_class=30)
    config = PipelineConfig(seed=0, n_trees=10, quantile_new=0.3, quantile_ood=0.6,
                            ood_margin=1.0, c_min=2)
    report = run_eval(flows, config)
    assert {v.kind for _, v in report.verdicts} == set(VerdictKind)

    labels, metrics = per_row_ensemble_oracle(flows, config)
    assert report.ensemble_labels == labels
    got = report.metrics_ensemble
    assert (got.accuracy, got.per_class, got.labels) == \
        (metrics.accuracy, metrics.per_class, metrics.labels)
    np.testing.assert_array_equal(got.confusion, metrics.confusion)


def test_run_eval_reruns_byte_identical(tmp_path):
    flows = flows_small(n_per_class=8)
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    run_eval(flows, PipelineConfig(seed=5, n_trees=8), out_dir=a_dir)
    run_eval(flows, PipelineConfig(seed=5, n_trees=8), out_dir=b_dir)
    for name in ("metrics_cbr.csv", "metrics_forest.csv", "metrics_ensemble.csv",
                 "verdicts.jsonl", "summary.json"):
        assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes(), name


def test_run_eval_writes_the_oracle_forests_outputs(tmp_path):
    """At 2 packets and depth 3 the forest errs, so its outputs depend on
    which trees grew: eval's forest metrics and out-of-bag score are those
    of the sort-every-node oracle's forest, trained and scored on eval's
    own split."""
    flows = synth_generate(default_templates(8), 60, seed=3)
    config = PipelineConfig(n_packets=2, max_depth=3)
    report = run_eval(flows, config, out_dir=tmp_path / "eval")
    fitted = fit_pipeline(flows, config)
    want = oracle.train_forest(fitted.model.vectors, fitted.model.labels, config)
    write_metrics_csv(tmp_path / "want.csv",
                      compute_metrics(fitted.y_test, want.predict_batch(fitted.X_test),
                                      sorted(set(fitted.model.labels))))
    assert ((tmp_path / "eval" / "metrics_forest.csv").read_bytes()
            == (tmp_path / "want.csv").read_bytes())
    summary = json.loads((tmp_path / "eval" / "summary.json").read_text())
    assert summary["forest_oob"] == want.oob_score
    assert report.metrics_forest.macro_f1() < 1.0


# ---------------------------------------------------------------- sweep


def test_packet_sweep_rejects_unsorted_counts():
    flows = flows_small(n_per_class=4)
    with pytest.raises(ValueError, match="ascending"):
        packet_sweep(flows, [4, 2], PipelineConfig())
    with pytest.raises(ValueError, match="ascending"):
        packet_sweep(flows, [2, 2, 4], PipelineConfig())


def test_packet_sweep_csv_and_range(tmp_path):
    flows = flows_small(n_per_class=8)
    path = tmp_path / "sweep.csv"
    points = packet_sweep(flows, [2, 6], PipelineConfig(seed=0), out_path=path)
    assert [p.n_packets for p in points] == [2, 6]
    assert all(0.0 <= p.accuracy <= 1.0 for p in points)
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["n_packets", "accuracy"]
    assert [r[0] for r in rows[1:]] == ["2", "6"]
    assert float(rows[1][1]) == points[0].accuracy


def test_find_plateau_first_small_gain():
    points = [SweepPoint(2, 0.30), SweepPoint(4, 0.80),
              SweepPoint(6, 0.95), SweepPoint(8, 0.952)]
    assert find_plateau(points) == 8


def test_find_plateau_none_while_still_rising():
    points = [SweepPoint(2, 0.3), SweepPoint(4, 0.5), SweepPoint(6, 0.7)]
    assert find_plateau(points) is None


def test_find_plateau_drop_counts_as_plateau():
    points = [SweepPoint(2, 0.9), SweepPoint(4, 0.85)]
    assert find_plateau(points) == 4


# ---------------------------------------------------------------- new class


def interleave_loop(n_base, n_held):
    """The stream order as a loop: up to ``ratio`` base rows, then one
    held-out row, until both run out."""
    ratio = max(1, n_base // max(1, n_held))
    order, bi, hi = [], 0, 0
    while bi < n_base or hi < n_held:
        for _ in range(ratio):
            if bi < n_base:
                order.append(bi)
                bi += 1
        if hi < n_held:
            order.append(n_base + hi)
            hi += 1
    return order


def test_interleave_matches_the_loop():
    for n_base in range(60):
        for n_held in range(60):
            assert _interleave(n_base, n_held).tolist() == interleave_loop(n_base, n_held), \
                (n_base, n_held)


def test_new_class_protocol_requires_present_class():
    flows = flows_small(n_per_class=3)
    with pytest.raises(InputError, match="held-out class 'nope' is not present"):
        new_class_protocol(flows, "nope", PipelineConfig())


def test_new_class_protocol_end_to_end(tmp_path):
    flows = synth_generate(fewshot_templates(4), 120, seed=42)
    report = new_class_protocol(flows, "class-x", PipelineConfig(seed=42),
                                out_dir=tmp_path)
    assert report.held_out_class == "class-x"
    assert report.registered_label == "novel-1"
    assert report.samples_consumed == 5
    assert report.n_post_registration == 36 - 5
    assert report.held_out_recall >= 0.8
    assert all(drop <= 0.03 for drop in f1_drops(report).values())
    base = {t.name for t in fewshot_templates(4)} - {"class-x"}
    assert set(report.metrics_before.per_class) == base
    assert set(f1_drops(report)) == base
    doc = json.loads((tmp_path / "new_class.json").read_text())
    assert doc["registered_label"] == report.registered_label
    assert (tmp_path / "metrics_before.csv").exists()
    assert (tmp_path / "metrics_after.csv").exists()


@pytest.fixture(scope="module")
def five_default_classes():
    return synth_generate(default_templates(5), 100, seed=5)


@pytest.mark.parametrize("held_out", ["class-a", "class-b", "class-c", "class-d", "class-e"])
def test_a_held_out_default_class_registers_only_past_the_default_ood_limit(
        five_default_classes, held_out):
    """On the default synthetic classes, a held-out class lies beyond
    theta_ood at the default settings, so every sample of it is OOD and
    nothing registers. With a wider OOD margin its samples wait as pending,
    and with c_min=3 it registers as novel-1 after exactly 3 of them."""
    default = new_class_protocol(five_default_classes, held_out, PipelineConfig())
    assert (default.registered_label, default.samples_consumed) == (None, None)
    assert default.n_held_out == 30
    loose = new_class_protocol(five_default_classes, held_out,
                               PipelineConfig(c_min=3, ood_margin=3.0))
    assert (loose.registered_label, loose.samples_consumed) == ("novel-1", 3)
