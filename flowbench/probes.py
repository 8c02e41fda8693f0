"""The layers the traced run measures, and the per-layer metrics they give.

Each probe wraps one public flowcbr function or method. ``selection`` is on
no benchmarked path (``select_minimal`` is unreachable from the CLI) and
``synth`` only generates inputs, so neither is probed.
"""

from __future__ import annotations

import os
import statistics
from dataclasses import dataclass
from typing import Callable

from tracer import Span, Tracer, outermost, self_times


@dataclass(frozen=True)
class Probe:
    name: str
    target: str  # "module:qualname"
    per_flow: bool = False
    observe: Callable | None = None


def _records(t: Tracer, s: Span, args, result) -> None:
    t.count("flows.parse_pcap.packets", len(result.records))
    t.count("flows.parse_pcap.skipped", result.skipped)
    t.count("flows.parse_pcap.truncated", result.truncated)


def _flow_count(key: str):
    def observe(t: Tracer, s: Span, args, result) -> None:
        t.count(key, len(result))
    return observe


def _saved_bytes(t: Tracer, s: Span, args, result) -> None:
    t.count("index.save.bytes", os.path.getsize(args[1]))


def _verdict(t: Tracer, s: Span, args, result) -> None:
    index, registry = args[0], args[1]
    t.count(f"cbr.verdict.{result.kind.value}")
    t.sample("cbr.pending", len(registry.pending))
    t.set("cbr.index_rows.final", index.size)


PROBES = (
    Probe("flows.parse_pcap", "flowcbr.flows:parse_pcap", observe=_records),
    Probe("flows.assemble_flows", "flowcbr.flows:assemble_flows",
          observe=_flow_count("flows.assemble_flows.flows")),
    Probe("flows.load_flows_csv", "flowcbr.flows:load_flows_csv",
          observe=_flow_count("flows.load_flows_csv.flows")),
    Probe("features.extract_matrix", "flowcbr.features:extract_matrix",
          observe=_flow_count("features.extract_matrix.flows")),
    Probe("features.fit_normalizer", "flowcbr.features:fit_normalizer"),
    Probe("features.transform", "flowcbr.features:Normalizer.transform"),
    Probe("features.save_matrix_csv", "flowcbr.features:save_matrix_csv"),
    Probe("features.load_matrix_csv", "flowcbr.features:load_matrix_csv"),
    Probe("index.query_knn", "flowcbr.index:NNIndex.query_knn"),
    Probe("index.insert", "flowcbr.index:NNIndex.insert"),
    Probe("index.save", "flowcbr.index:NNIndex.save", observe=_saved_bytes),
    Probe("index.load", "flowcbr.index:NNIndex.load"),
    Probe("index.build", "flowcbr.index:NNIndex.build"),
    Probe("index.clone", "flowcbr.index:NNIndex.clone"),
    Probe("cbr.classify", "flowcbr.cbr:classify", per_flow=True, observe=_verdict),
    Probe("cbr.vote", "flowcbr.cbr:vote"),
    Probe("cbr.calibrate_thresholds", "flowcbr.cbr:calibrate_thresholds"),
    Probe("forest.train_forest", "flowcbr.forest:train_forest"),
    Probe("forest.predict", "flowcbr.forest:RandomForest.predict"),
    Probe("forest.predict_batch", "flowcbr.forest:RandomForest.predict_batch"),
    Probe("forest.ensemble_classify", "flowcbr.forest:ensemble_classify", per_flow=True),
    Probe("harness.fit_pipeline", "flowcbr.harness:fit_pipeline"),
    Probe("harness.run_cbr_stream", "flowcbr.harness:run_cbr_stream"),
    Probe("harness.run_eval", "flowcbr.harness:run_eval"),
)

# Schema group -> public extractor in flowcbr.features, timed one by one.
GROUPS = (
    ("bits_per_peak", "bits_per_peak"),
    ("first_packet_sizes", "first_packet_sizes"),
    ("beaconing", "beaconing_windows"),
    ("bandwidth", "bandwidth_windows"),
    ("packet_size_stats", "packet_size_stats"),
    ("size_delta_stats", "size_delta_stats"),
    ("packets_per_second", "packets_per_second"),
    ("inter_arrival", "inter_arrival_stats"),
    ("silence_windows", "silence_windows"),
    ("ack_count", "ack_count"),
    ("big_requests", "big_requests"),
    ("wavelet", "wavelet_coeffs"),
)

CLI_COMMANDS = ("extract", "index", "classify", "eval")
VERDICT_KINDS = ("Known", "OOD", "NewClassPending", "NewClassRegistered")

_TIMED = ("flows.parse_pcap", "flows.assemble_flows", "flows.load_flows_csv",
          "features.extract_matrix", "features.fit_normalizer", "features.transform",
          "index.query_knn", "index.insert", "index.load", "index.build", "index.clone",
          "cbr.classify", "cbr.vote", "cbr.calibrate_thresholds",
          "forest.train_forest", "forest.predict", "forest.predict_batch",
          "forest.ensemble_classify", "harness.fit_pipeline", "harness.run_cbr_stream",
          "harness.run_eval")
_CALLS = ("index.query_knn", "index.insert", "cbr.classify", "forest.predict",
          "forest.predict_batch")
_LATENCY = ("index.query_knn", "cbr.classify")
_SELF = ("cbr.classify", "forest.ensemble_classify")
_COUNTS = ("flows.parse_pcap.packets", "flows.parse_pcap.skipped",
           "flows.parse_pcap.truncated", "flows.assemble_flows.flows",
           "flows.load_flows_csv.flows", "features.extract_matrix.flows")
# Layers of the serve workloads' set-up commands (extract, then index),
# reported with a "setup." prefix; everything else describes one pass of
# the timed command.
_SETUP = ("flows.load_flows_csv.s", "flows.load_flows_csv.flows",
          "features.extract_matrix.s", "features.extract_matrix.flows",
          "features.save_matrix_csv.s", "features.load_matrix_csv.s",
          "features.fit_normalizer.s", "cbr.calibrate_thresholds.s",
          "index.build.s", "index.save.s", "index.save.bytes")
_SETUP_ONLY = ("features.save_matrix_csv", "features.load_matrix_csv", "index.save")

# Every per-layer metric, with its unit, in the order they are printed.
PER_LAYER = (
    [(f"{n}.s", "s") for n in _TIMED]
    + [(f"{n}.calls", "count") for n in _CALLS]
    + [(f"{n}.{q}_ms", "ms") for n in _LATENCY for q in ("p50", "p99")]
    + [(f"{n}.self_s", "s") for n in _SELF]
    + [(k, "count") for k in _COUNTS]
    + [(f"features.group.{g}.s", "s") for g, _ in GROUPS]
    + [(f"cbr.verdict.{k}", "count") for k in VERDICT_KINDS]
    + [("cbr.pending.max", "count"), ("cbr.pending.mean", "count"),
       ("cbr.cohort.useful_ratio", "ratio"), ("cbr.index_rows.final", "count")]
    + [(f"setup.{k}", "count" if k.endswith((".flows", ".bytes")) else "s") for k in _SETUP]
    + [(f"cli.{c}.s", "s") for c in CLI_COMMANDS]
    + [("trace_overhead_frac", "ratio")]
)


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))]


def layer_metrics(tracer: Tracer, setup_runs: set[str], main_run: str) -> dict[str, float]:
    """Per-layer values from the set-up runs and one run of the timed command.

    Layers not reached are 0; trace_overhead_frac and the feature-group
    timings are filled in by the caller.
    """
    out = _phase(tracer, {main_run})
    setup = _phase(tracer, setup_runs)
    out.update((f"setup.{k}", setup[k]) for k in _SETUP)
    spans = [s for s in tracer.spans if s.run in setup_runs | {main_run}]
    for c in CLI_COMMANDS:
        out[f"cli.{c}.s"] = sum(s.end - s.start for s in spans if s.name == f"cli.{c}")
    return out


def _phase(tracer: Tracer, runs: set[str]) -> dict[str, float]:
    spans = [s for s in tracer.spans if s.run in runs]
    selfs = self_times(spans)
    out: dict[str, float] = {}
    for name in _TIMED + _SETUP_ONLY:
        out[f"{name}.s"] = sum(s.end - s.start for s in outermost(spans, name))
    for name in _CALLS:
        out[f"{name}.calls"] = sum(1 for s in spans if s.name == name)
    for name in _LATENCY:
        ms = [(s.end - s.start) * 1e3 for s in spans if s.name == name]
        out[f"{name}.p50_ms"] = _quantile(ms, 0.50)
        out[f"{name}.p99_ms"] = _quantile(ms, 0.99)
    for name in _SELF:
        out[f"{name}.self_s"] = sum(selfs[s.id] for s in outermost(spans, name))
    counters = tracer.totals(runs)
    for key in _COUNTS + ("index.save.bytes",):
        out[key] = counters.get(key, 0)
    for k in VERDICT_KINDS:
        out[f"cbr.verdict.{k}"] = counters.get(f"cbr.verdict.{k}", 0)
    pending = tracer.samples_of(runs, "cbr.pending")
    out["cbr.pending.max"] = max(pending, default=0)
    out["cbr.pending.mean"] = statistics.fmean(pending) if pending else 0.0
    started = out["cbr.verdict.NewClassPending"] + out["cbr.verdict.NewClassRegistered"]
    out["cbr.cohort.useful_ratio"] = (out["cbr.verdict.NewClassRegistered"] / started
                                      if started else 0.0)
    out["cbr.index_rows.final"] = counters.get("cbr.index_rows.final", 0)
    return out
