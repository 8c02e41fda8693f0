"""Acceptance checks for the full toolkit.

Each test covers one advertised guarantee end to end and prints a single
PASS/FAIL line (straight to the terminal, bypassing capture) with the
measured numbers, so a plain pytest run doubles as an acceptance report.
"""

import time

import numpy as np
import pytest

from flowcbr.cbr import VerdictKind
from flowcbr.features import GROUPS, WIDTH, extract_matrix
from flowcbr.forest import train_forest
from flowcbr.harness import (
    OOD_LABEL,
    PipelineConfig,
    combined_label,
    find_plateau,
    fit_pipeline,
    new_class_protocol,
    packet_sweep,
    run_cbr_stream,
    run_eval,
)
from flowcbr.index import NNIndex, row_distances
from flowcbr.model import fit_model, load_model, save_model
from flowcbr.synth import default_templates, sweep_templates, synth_generate
from forest_oracle import forest_text
from knn_helpers import classify_one, knn_one
from registration_fixtures import f1_drops, fewshot_templates


def report(capsys, num: int, passed: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[criterion {num:2d}] {'PASS' if passed else 'FAIL'}  {detail}")
    assert passed, detail


# Shared five-class dataset: moderate overlap, 200 flows per class.


@pytest.fixture(scope="module")
def flows5():
    return synth_generate(default_templates(5), 200, seed=42)


@pytest.fixture(scope="module")
def fitted5(flows5):
    return fit_pipeline(flows5, PipelineConfig(seed=42))


@pytest.fixture(scope="module")
def far_samples(fitted5):
    """100 vectors at >= 2x theta_ood from every training sample."""
    rng = np.random.default_rng(7)
    X = fitted5.model.vectors
    target = 2.0 * fitted5.model.thresholds.theta_ood
    out = []
    for _ in range(20000):
        if len(out) == 100:
            break
        anchor = X[rng.integers(X.shape[0])]
        step = rng.standard_normal(X.shape[1])
        cand = anchor + step / np.linalg.norm(step) * (target * 1.05)
        if row_distances(X, cand).min() >= target:
            out.append(cand)
    assert len(out) == 100, "rejection sampling failed to find far samples"
    return np.array(out)


def exhaustive_knn(vectors, q, k):
    """Oracle: (id, distance) of the k nearest rows by a full sort of every
    distance, ties by id; row i has id i."""
    diff = vectors - q
    dists = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    order = np.lexsort((np.arange(len(dists)), dists))[:k]
    return [(int(p), float(dists[p])) for p in order]


def test_criterion_01_index_matches_exhaustive_scan(capsys):
    sizes = [(n, d) for n in (100, 1000, 5000) for d in (11, 50, 183)]
    t0 = time.perf_counter()
    checked = 0
    for seed in range(20):
        n, d = sizes[seed % len(sizes)]
        rng = np.random.default_rng(seed)
        vectors = rng.random((n, d))
        queries = rng.random((15, d))
        index = NNIndex(vectors, [f"c{i % 5}" for i in range(n)])
        for k in (1, 5, 10):
            for q in queries:
                got = [(nb.entry_id, nb.distance) for nb in knn_one(index, q, k)]
                assert got == exhaustive_knn(vectors, q, k), \
                    f"index diverged at seed={seed} n={n} d={d} k={k}"
                checked += 1
    elapsed = time.perf_counter() - t0
    report(capsys, 1, elapsed < 60.0,
           f"index identical to an exhaustive scan on 20 datasets "
           f"({checked} query comparisons) in {elapsed:.1f}s (< 60s)")


def test_criterion_02_spectrum_matches_naive_dft(capsys):
    def naive_dft_magnitudes(signal):
        n = signal.size
        out = np.empty(n)
        for f in range(n):
            re = sum(signal[t] * np.cos(-2.0 * np.pi * f * t / n) for t in range(n))
            im = sum(signal[t] * np.sin(-2.0 * np.pi * f * t / n) for t in range(n))
            out[f] = np.hypot(re, im)
        return out

    # The wavelet slots, from the ordered (group, width, kernel) rows.
    names, widths, _ = zip(*GROUPS)
    start = sum(widths[:names.index("wavelet")])
    wavelet = slice(start, start + widths[names.index("wavelet")])
    rng = np.random.default_rng(2)
    worst_rel = 0.0
    worst_parseval = 0.0
    for _ in range(100):
        sizes = rng.integers(60, 1501, size=90)
        signs = rng.choice([-1, 1], size=90)
        signal = (sizes * signs).astype(np.float64)
        flow = _flow_with_signal(signal)
        got = extract_matrix([flow])[0][wavelet]
        want = naive_dft_magnitudes(signal)
        worst_rel = max(worst_rel, float(np.max(np.abs(got - want) / np.abs(want))))
        energy_freq = float(np.sum(got ** 2))
        energy_time = 90.0 * float(np.sum(signal ** 2))
        worst_parseval = max(worst_parseval,
                             abs(energy_freq - energy_time) / energy_time)
    report(capsys, 2, worst_rel <= 1e-9 and worst_parseval <= 1e-9,
           f"100 signals: max DFT relative error {worst_rel:.2e}, "
           f"max Parseval relative error {worst_parseval:.2e} (<= 1e-9)")


def _flow_with_signal(signal):
    from pcap_oracle import flow_from_packets

    from flowcbr.flows import Direction, FlowKey, FlowPacket, Protocol

    packets = []
    for i, v in enumerate(signal):
        size = int(abs(v))
        packets.append(FlowPacket(
            timestamp=0.01 * i,
            direction=Direction.FWD if v > 0 else Direction.BWD,
            total_length=size,
            payload_length=max(0, size - 40),
            tcp_flags=0,
            tcp_window=8192,
        ))
    key = FlowKey("10.0.0.1", "10.0.0.2", Protocol.TCP, 1111, 443)
    return flow_from_packets(packets, key=key, flow_id="sig")


def test_criterion_03_feature_vector_is_183_slots(capsys):
    widths = tuple(w for _, w, _ in GROUPS)
    flow = synth_generate(default_templates(2), 1, seed=0)[0]
    vector = extract_matrix([flow])[0]
    ok = widths == (3, 30, 20, 20, 4, 2, 2, 9, 1, 1, 1, 90) and vector.shape == (183,)
    report(capsys, 3, ok,
           f"group widths {widths}, total {vector.size} slots")


def test_criterion_04_retrieval_tracks_forest_baseline(capsys, flows5, tmp_path):
    t0 = time.perf_counter()
    out = run_eval(flows5, PipelineConfig(seed=42), out_dir=tmp_path)
    elapsed = time.perf_counter() - t0
    f1_cbr = out.metrics_cbr.macro_f1()
    f1_rf = out.metrics_forest.macro_f1()
    ok = f1_cbr >= 0.90 and f1_rf >= 0.90 and abs(f1_cbr - f1_rf) <= 0.05 \
        and elapsed < 300.0
    report(capsys, 4, ok,
           f"macro-F1 retrieval {f1_cbr:.4f}, forest {f1_rf:.4f}, "
           f"gap {abs(f1_cbr - f1_rf):.4f} (<= 0.05), {elapsed:.1f}s (< 5min)")


def test_criterion_05_few_shot_registration(capsys):
    flows = synth_generate(fewshot_templates(5), 200, seed=42)
    out = new_class_protocol(flows, "class-x", PipelineConfig(seed=42, c_min=5))
    drops = f1_drops(out)
    worst = max(drops.values())
    ok = out.registered_label is not None and out.held_out_recall >= 0.80 \
        and worst <= 0.03
    report(capsys, 5, ok,
           f"registered as {out.registered_label} after {out.samples_consumed} "
           f"samples, later recall {out.held_out_recall:.3f} (>= 0.80) over "
           f"{out.n_post_registration} samples, worst F1 drop {worst:.4f} (<= 0.03)")


def test_criterion_06_distance_threshold_rejection(capsys, fitted5, far_samples):
    index = fitted5.model.index.clone()
    registry = fitted5.model.registry.clone()
    flagged = sum(classify_one(index, registry, row, fitted5.model.thresholds).kind
                  is VerdictKind.OOD for row in far_samples)
    far_rate = flagged / len(far_samples)

    verdicts = run_cbr_stream(fitted5.model, fitted5.X_test)
    in_rate = sum(v.kind is VerdictKind.OOD for v in verdicts) / len(verdicts)
    ok = far_rate >= 0.95 and in_rate <= 0.05
    report(capsys, 6, ok,
           f"far samples flagged {far_rate:.3f} (>= 0.95), in-distribution "
           f"flagged {in_rate:.3f} (<= 0.05), theta_ood "
           f"{fitted5.model.thresholds.theta_ood:.3f}")


def test_criterion_07_packet_sweep_plateau(capsys):
    flows = synth_generate(sweep_templates(5), 60, seed=42)
    points = packet_sweep(flows, [2, 4, 6, 8, 10, 15, 20, 30],
                          PipelineConfig(seed=42))
    plateau = find_plateau(points)
    curve = ", ".join(f"{p.n_packets}:{p.accuracy:.3f}" for p in points)
    ok = plateau is not None and plateau <= 15
    report(capsys, 7, ok, f"plateau at n={plateau} (<= 15); accuracy {curve}")


def test_criterion_08_rejected_samples_never_get_forest_labels(capsys, fitted5,
                                                               far_samples):
    """Run the plain retrieval pass and the combined pass side by side on
    identical state; whatever the first rejects, the second must too."""
    model = fitted5.model
    forest = train_forest(model.vectors, model.labels, PipelineConfig(n_trees=30, seed=42))
    idx_solo, reg_solo = model.index.clone(), model.registry.clone()
    idx_both, reg_both = model.index.clone(), model.registry.clone()
    stream = np.vstack([fitted5.X_test, far_samples])
    ood_total = 0
    violations = 0
    for row in stream:
        solo = classify_one(idx_solo, reg_solo, row, model.thresholds)
        combined = combined_label(classify_one(idx_both, reg_both, row, model.thresholds),
                                  forest.predict_batch(row[None])[0])
        if solo.kind is VerdictKind.OOD:
            ood_total += 1
            if combined != OOD_LABEL:
                violations += 1
    ok = violations == 0 and ood_total >= 100
    report(capsys, 8, ok,
           f"{len(stream)} samples streamed, {ood_total} rejected by retrieval, "
           f"{violations} of them labeled otherwise by the combined pass (= 0)")


def test_criterion_09_determinism_and_snapshots(capsys, tmp_path):
    flows = synth_generate(default_templates(3), 30, seed=7)
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        run_eval(flows, PipelineConfig(seed=7, n_trees=20), out_dir=d)
    names = ["metrics_cbr.csv", "metrics_forest.csv", "metrics_ensemble.csv",
             "verdicts.jsonl", "summary.json"]
    identical = all((dirs[0] / n).read_bytes() == (dirs[1] / n).read_bytes()
                    for n in names)

    rng = np.random.default_rng(9)
    model = fit_model(rng.random((1000, WIDTH)),
                      [f"c{i % 4}" for i in range(1000)], PipelineConfig())
    save_model(tmp_path, model)
    restored = load_model(tmp_path)
    queries = rng.random((100, WIDTH))
    index_ok = restored.vectors.tobytes() == model.vectors.tobytes() and all(
        [(nb.entry_id, nb.distance) for nb in knn_one(model.index, q, 5)]
        == [(nb.entry_id, nb.distance) for nb in knn_one(restored.index, q, 5)]
        for q in queries)

    X = rng.random((300, 20))
    y = [f"lab{i % 4}" for i in rng.integers(0, 4, size=300)]
    forest = train_forest(X, np.array(y), PipelineConfig(n_trees=25, seed=3))
    again = train_forest(X, np.array(y), PipelineConfig(n_trees=25, seed=3))
    probes = rng.random((100, 20))
    forest_ok = (forest_text(forest) == forest_text(again)
                 and forest.predict_batch(probes) == again.predict_batch(probes))

    ok = identical and index_ok and forest_ok
    report(capsys, 9, ok,
           f"re-run reports byte-identical: {identical}; saved model "
           f"bit-identical and query-identical (100 queries): {index_ok}; forest "
           f"re-trained tree-identical and prediction-identical (100 probes): {forest_ok}")


def test_criterion_10_exact_knn_report(capsys):
    n, d, k = 5000, 183, 5
    rng = np.random.default_rng(0)
    vectors = rng.random((n, d))
    labels = [f"c{i % 7}" for i in range(n)]
    queries = rng.random((100, d))
    t0 = time.perf_counter()
    index = NNIndex(vectors, labels)
    build_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    results = [list(zip(ids, distances)) for ids, distances in index.knn(queries, k)]
    query_s = time.perf_counter() - t0
    exact = all(got == exhaustive_knn(vectors, q, k) for got, q in zip(results, queries))
    report(capsys, 10, exact,
           f"n={n} d={d} k={k}: build {build_s:.2f}s, {len(queries) / query_s:.0f} q/s, "
           f"{len(queries)} queries identical to the exhaustive scan: {exact}")
