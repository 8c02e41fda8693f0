"""Command-line entry point.

Subcommands wire the pipeline end to end: extract features from captures or
flow CSVs, build a self-contained model directory, classify new flows,
evaluate, sweep packet prefixes, and generate synthetic datasets. Settings
resolve as flags > config file > defaults; the config file is JSON holding
any subset of the default keys, and unknown keys are rejected. FLOWCBR_LOG
sets the log level by its standard name, in any case; an unknown name
exits 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from . import flows as flows_mod
from .cbr import VerdictKind, classify_stream, write_verdicts
from .features import SCHEMA, extract_matrix, load_matrix_csv, save_matrix_csv
from .flows import FlowCsvError, PcapFormatError, load_flows_csv, save_flows_csv
from .harness import (PipelineConfig, find_plateau, new_class_protocol,
                      packet_sweep, run_eval)
from .model import FitError, ModelFormatError, fit_model, load_model, save_model
from .synth import default_templates, sweep_templates, synth_generate

log = logging.getLogger("flowcbr")

DEFAULTS = {**dataclasses.asdict(PipelineConfig()),
            "idle_timeout": flows_mod.DEFAULT_IDLE_TIMEOUT}

SWEEP_DEFAULT_COUNTS = "2,4,6,8,10,15,20,30"


class ValidationError(Exception):
    """Bad inputs or configuration; maps to exit code 2."""


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ValidationError(f"config file not found: {path}") from None
    except OSError as exc:
        raise ValidationError(f"{exc.filename or path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValidationError("config file must hold a JSON object")
    unknown = sorted(set(doc) - set(DEFAULTS))
    if unknown:
        raise ValidationError(f"unknown config keys: {unknown}")
    return doc


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _int_ge_1(v) -> bool:
    return _is_int(v) and v >= 1


def _positive(v) -> bool:
    return _is_real(v) and v > 0


def _quantile(v) -> bool:
    return _is_real(v) and 0 < v <= 1


# Setting -> (check, what it must be). Range tests are written so NaN fails.
_CHECKS = {
    "seed": (_is_int, "an integer"),
    "k": (_int_ge_1, "an integer >= 1"),
    "c_min": (_int_ge_1, "an integer >= 1"),
    "n_trees": (_int_ge_1, "an integer >= 1"),
    "n_packets": (lambda v: v is None or _int_ge_1(v), "null or an integer >= 1"),
    "max_depth": (lambda v: v is None or _int_ge_1(v), "null or an integer >= 1"),
    "r_cohesion": (lambda v: v is None or _positive(v), "null or a number > 0"),
    "quantile_new": (_quantile, "a number in (0, 1]"),
    "quantile_ood": (_quantile, "a number in (0, 1]"),
    "ood_margin": (_positive, "a number > 0"),
    "train_fraction": (lambda v: _is_real(v) and 0 < v < 1, "a number in (0, 1)"),
    "idle_timeout": (_positive, "a number > 0"),
}


def _settings(args: argparse.Namespace) -> dict:
    """Resolve effective settings: flags > config file > defaults.

    Every merged value is checked for type and range, so a bad flag or
    config entry is a ValidationError (exit 2), not a failure deep inside
    the pipeline.
    """
    merged = dict(DEFAULTS)
    merged.update(_load_config_file(args.config))
    for key in DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    for key, (allowed, description) in _CHECKS.items():
        if not allowed(merged[key]):
            raise ValidationError(f"setting {key}={merged[key]!r} must be {description}")
    return merged


def _pipeline_config(s: dict) -> PipelineConfig:
    return PipelineConfig(**{f.name: s[f.name] for f in dataclasses.fields(PipelineConfig)})


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


@contextmanager
def _fitting(path: str):
    """Report a fit that fails on the training rows read from ``path`` as
    bad input. The commands that fit write nothing until the fit is done."""
    try:
        yield
    except FitError as exc:
        raise ValidationError(f"{path}: {exc}") from None


@contextmanager
def _reading(path: str):
    """Report an input under ``path`` that cannot be read (absent, a
    directory, no read permission) as bad input, naming the file."""
    try:
        yield
    except OSError as exc:
        raise ValidationError(f"{exc.filename or path}: {exc.strerror or exc}") from None


def _read_flows(path: str, fmt: str, idle_timeout: float) -> list:
    p = Path(path)
    if not p.exists():
        raise ValidationError(f"input not found: {path}")
    if fmt == "auto":
        fmt = "csv" if p.suffix.lower() == ".csv" else "pcap"
    if fmt == "csv":
        return _read_flow_csv(path)
    with _reading(path):
        data = p.read_bytes()
    result = flows_mod.parse_pcap(data)
    if result.skipped or result.truncated:
        log.warning("capture: %d frames skipped, %d truncated records",
                    result.skipped, result.truncated)
    return flows_mod.assemble_flows(result.records, idle_timeout=idle_timeout)


def _read_flow_csv(path: str, labeled: bool = False) -> list:
    """load_flows_csv; with ``labeled`` (the commands that train), a file
    without flows, or with a flow without a label, is bad input too."""
    with _reading(path):
        flows = load_flows_csv(path)
    if not labeled:
        return flows
    if not flows:
        raise ValidationError(f"{path} holds no flows")
    unlabeled = [f.flow_id for f in flows if not f.label]
    if unlabeled:
        raise ValidationError(f"{path}: flow {unlabeled[0]} has no label, and every flow "
                              "needs one to train and score")
    return flows


def _extract(flows: list, source: str):
    """extract_matrix, with flows whose features are not finite (such as
    timestamps too far apart to subtract) as bad input."""
    try:
        return extract_matrix(flows)
    except ValueError as exc:
        raise ValidationError(f"{source}: {exc}") from None


def cmd_extract(args: argparse.Namespace) -> int:
    s = _settings(args)
    flows = _read_flows(args.input, args.format, s["idle_timeout"])
    if s["n_packets"] is not None:
        flows = [flows_mod.truncate_flow(f, s["n_packets"]) for f in flows]
    matrix = _extract(flows, args.input)
    out = _out_dir(args) / "features.csv"
    save_matrix_csv(out, matrix,
                    [f.flow_id or f"f{i:06d}" for i, f in enumerate(flows)],
                    [f.label or "" for f in flows])
    log.info("wrote %d feature rows to %s", matrix.shape[0], out)
    print(f"{matrix.shape[0]} flows -> {out}")
    return 0


def _read_matrix(path: str) -> tuple:
    """load_matrix_csv, with a malformed file as a ValidationError."""
    try:
        with _reading(path):
            return load_matrix_csv(path)
    except ValueError as exc:
        raise ValidationError(f"malformed {path}: {exc}") from None


def cmd_index(args: argparse.Namespace) -> int:
    s = _settings(args)
    matrix, _, labels = _read_matrix(args.features)
    if matrix.shape[0] == 0:
        raise ValidationError("cannot index an empty feature matrix")
    if any(not lbl for lbl in labels):
        raise ValidationError("indexing needs a label on every row")
    if matrix.shape[1] != SCHEMA.width:
        raise ValidationError(f"{args.features} has {matrix.shape[1]} feature columns, "
                              f"the schema has {SCHEMA.width}")
    with _fitting(args.features):
        model = fit_model(matrix, labels, _pipeline_config(s))
    out = _out_dir(args)
    save_model(out, model)
    log.info("indexed %d vectors into %s", len(labels), out)
    print(f"{len(labels)} vectors -> {out}")
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    s = _settings(args)
    with _reading(args.model):
        model = load_model(args.model)

    if args.features:
        matrix, flow_ids, _ = _read_matrix(args.features)
        if matrix.shape[1] != model.index.dimension:
            raise ValidationError(f"{args.features} has {matrix.shape[1]} feature columns, "
                                  f"the model has {model.index.dimension}")
    else:
        flows = _read_flows(args.input, args.format, s["idle_timeout"])
        if s["n_packets"] is not None:
            flows = [flows_mod.truncate_flow(f, s["n_packets"]) for f in flows]
        matrix = _extract(flows, args.input)
        flow_ids = [f.flow_id or f"f{i:06d}" for i, f in enumerate(flows)]
    Xn = model.normalizer.transform(matrix)
    verdicts = classify_stream(model.index, model.registry, Xn, model.thresholds)
    out = _out_dir(args) / "verdicts.jsonl"
    write_verdicts(out, list(zip(flow_ids, verdicts)))
    counts = dict(Counter(v.kind.value for v in verdicts))
    log.info("verdicts: %s", counts)
    if model.registry.evictions:
        log.warning("pending buffer full: %d buffered samples evicted, oldest first",
                    model.registry.evictions)
    registered = counts.get(VerdictKind.REGISTERED.value, 0)
    if registered:
        log.warning("%d new classes registered, not saved to %s", registered, args.model)
    print(f"{len(flow_ids)} verdicts -> {out}  {counts}  "
          f"pending evictions {model.registry.evictions}"
          + (f"  registered {registered} (not saved)" if registered else ""))
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    s = _settings(args)
    flows = _read_flow_csv(args.flows, labeled=True)
    if args.held_out and args.held_out not in {f.label for f in flows}:
        raise ValidationError(f"--held-out {args.held_out} is not present in {args.flows}")
    out = Path(args.out or ".")
    if args.held_out:
        with _fitting(args.flows):
            report = new_class_protocol(flows, args.held_out, _pipeline_config(s),
                                        out_dir=out)
        print(f"held-out {args.held_out}: registered as {report.registered_label} "
              f"after {report.samples_consumed} samples, "
              f"recall {report.held_out_recall:.3f} on {report.n_post_registration} later samples")
        return 0
    with _fitting(args.flows):
        report = run_eval(flows, _pipeline_config(s), out_dir=out)
    print(f"macro-F1 retrieval {report.metrics_cbr.macro_f1():.3f}, "
          f"forest {report.metrics_forest.macro_f1():.3f}, "
          f"combined {report.metrics_ensemble.macro_f1():.3f} -> {out}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    s = _settings(args)
    flows = _read_flow_csv(args.flows, labeled=True)
    try:
        counts = [int(c) for c in args.counts.split(",") if c.strip()]
    except ValueError:
        raise ValidationError(f"bad --counts value: {args.counts!r}") from None
    if not counts:
        raise ValidationError("--counts must name at least one packet count")
    if counts != sorted(set(counts)):
        raise ValidationError("--counts must be strictly ascending")
    if counts[0] < 1:
        raise ValidationError(f"--counts {args.counts} must hold packet counts >= 1")
    with _fitting(args.flows):
        points = packet_sweep(flows, counts, _pipeline_config(s),
                              out_path=Path(args.out or ".") / "sweep.csv")
    plateau = find_plateau(points)
    for p in points:
        print(f"n={p.n_packets:3d}  accuracy={p.accuracy:.4f}")
    print(f"plateau at n={plateau}" if plateau is not None else "no plateau found")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    s = _settings(args)
    if not 2 <= args.classes <= 8:
        raise ValidationError(f"--classes {args.classes} must be in [2, 8]")
    if args.flows_per_class < 1:
        raise ValidationError(f"--flows-per-class {args.flows_per_class} must be >= 1")
    if args.profile == "default":
        templates = default_templates(args.classes)
    else:
        templates = sweep_templates(args.classes)
    flows = synth_generate(templates, args.flows_per_class, seed=s["seed"])
    out = _out_dir(args) / "flows.csv"
    save_flows_csv(flows, out)
    print(f"{len(flows)} flows ({args.classes} classes) -> {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowcbr",
        description="Classification-by-retrieval toolkit for network flows.")
    parser.add_argument("--seed", type=int, default=None, help="global RNG seed")
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--out", default=None, help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="flows in, feature matrix CSV out")
    p.add_argument("input", help="capture file or flow CSV")
    p.add_argument("--format", choices=("auto", "pcap", "csv"), default="auto")
    p.add_argument("--n-packets", dest="n_packets", type=int, default=None)
    p.add_argument("--idle-timeout", dest="idle_timeout", type=float, default=None)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("index", help="build a model directory from features")
    p.add_argument("features", help="feature matrix CSV with labels")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--c-min", dest="c_min", type=int, default=None)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("classify", help="emit verdict JSON lines")
    p.add_argument("model", help="model directory from the index command")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--features", default=None, help="feature matrix CSV")
    group.add_argument("--input", default=None, help="capture file or flow CSV")
    p.add_argument("--format", choices=("auto", "pcap", "csv"), default="auto")
    p.add_argument("--n-packets", dest="n_packets", type=int, default=None)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("eval", help="split, train, classify, report metrics")
    p.add_argument("flows", help="labeled flow CSV")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--n-trees", dest="n_trees", type=int, default=None)
    p.add_argument("--n-packets", dest="n_packets", type=int, default=None)
    p.add_argument("--train-fraction", dest="train_fraction", type=float, default=None)
    p.add_argument("--held-out", default=None,
                   help="run the new-class protocol holding out this class")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="accuracy per packet-count prefix")
    p.add_argument("flows", help="labeled flow CSV")
    p.add_argument("--counts", default=SWEEP_DEFAULT_COUNTS,
                   help="comma-separated ascending packet counts")
    p.add_argument("--k", type=int, default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("synth", help="generate labeled synthetic flows")
    p.add_argument("--classes", type=int, default=5)
    p.add_argument("--flows-per-class", dest="flows_per_class", type=int, default=200)
    p.add_argument("--profile", choices=("default", "sweep"), default="default")
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv: list[str] | None = None) -> int:
    name = os.environ.get("FLOWCBR_LOG", "WARNING")
    level = logging.getLevelName(name.upper())
    if not isinstance(level, int):
        print(f"error: FLOWCBR_LOG={name} is not a log level", file=sys.stderr)
        return 2
    logging.basicConfig(level=level,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, FlowCsvError, PcapFormatError, ModelFormatError,
            FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        log.exception("command failed")
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
