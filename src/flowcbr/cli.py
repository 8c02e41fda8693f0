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
from .features import extract_rows, load_matrix_csv, save_matrix_csv
from .flows import InputError, load_flows_csv, save_flows_csv
from .harness import (PipelineConfig, find_plateau, new_class_protocol,
                      packet_sweep, run_eval)
from .model import fit_model, load_model, save_model
from .synth import default_templates, sweep_templates, synth_generate

log = logging.getLogger("flowcbr")

DEFAULTS = dataclasses.asdict(PipelineConfig())

SWEEP_DEFAULT_COUNTS = "2,4,6,8,10,15,20,30"


@contextmanager
def _input(path: str):
    """Name ``path`` in front of the InputError raised for what was read
    from it, and turn a failed read of it, or of a file in it (absent, a
    directory, no read permission), into an InputError naming that file.
    An output that cannot be written, and an error that names no file (a
    full disk), stay an OSError: a runtime failure."""
    try:
        yield
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None
    except OSError as exc:
        if exc.filename is None or not Path(exc.filename).is_relative_to(path):
            raise
        raise InputError(f"{exc.filename}: {exc.strerror or exc}") from None


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    with _input(path):
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except ValueError as exc:  # a file that does not decode too
            raise InputError(f"not valid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise InputError("must hold a JSON object")
        unknown = sorted(set(doc) - set(DEFAULTS))
        if unknown:
            raise InputError(f"unknown config keys: {unknown}")
    return doc


def _settings(args: argparse.Namespace) -> PipelineConfig:
    """Resolve effective settings: flags > config file > defaults. PipelineConfig
    checks them, so a bad one is an InputError (exit 2), not a failure deep inside."""
    merged = _load_config_file(args.config)
    merged.update((key, getattr(args, key)) for key in DEFAULTS
                  if getattr(args, key, None) is not None)
    return PipelineConfig(**merged)


def _read_capture(path: str, idle_timeout: float) -> list:
    result = flows_mod.parse_pcap(Path(path).read_bytes())
    if result.skipped or result.truncated:
        log.warning("capture: %d frames skipped, %d truncated records",
                    result.skipped, result.truncated)
    return flows_mod.assemble_flows(result.records, idle_timeout=idle_timeout)


def _is_flow_csv(path: str) -> bool:
    return Path(path).suffix.lower() == ".csv"


def _read_flows(path: str, s: PipelineConfig) -> tuple:
    """extract_rows of the flows in ``path``, a flow CSV if it ends in
    ``.csv`` and a capture otherwise, each cut to ``n_packets``."""
    # The capture's packet columns are freed before extraction.
    flows = (load_flows_csv(path) if _is_flow_csv(path)
             else _read_capture(path, s.idle_timeout))
    return extract_rows(flows, s.n_packets)


def cmd_extract(args: argparse.Namespace) -> int:
    s = _settings(args)
    # A flag that cannot act is refused; the same key in a config file,
    # which several commands share, is not.
    if args.idle_timeout is not None and _is_flow_csv(args.input):
        raise InputError(f"--idle-timeout splits captures at idle gaps, and {args.input} "
                         "is a flow CSV, whose flows are already split")
    with _input(args.input):
        matrix, flow_ids, labels = _read_flows(args.input, s)
    out = Path(args.out or ".") / "features.csv"
    save_matrix_csv(out, matrix, flow_ids, labels)
    log.info("wrote %d feature rows to %s", matrix.shape[0], out)
    print(f"{matrix.shape[0]} flows -> {out}")
    return 0


def cmd_index(args: argparse.Namespace) -> int:
    s = _settings(args)
    with _input(args.features):
        matrix, _, labels = load_matrix_csv(args.features)
        model = fit_model(matrix, labels, s)
    out = Path(args.out or ".")
    save_model(out, model)
    log.info("indexed %d vectors into %s", len(labels), out)
    print(f"{len(labels)} vectors -> {out}")
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    s = _settings(args)
    if args.features and args.n_packets is not None:
        raise InputError("--n-packets cuts flows before their features are extracted, "
                         "and --features rows are extracted already")
    with _input(args.model):
        model = load_model(args.model)
    with _input(args.features or args.input):
        matrix, flow_ids, _ = (load_matrix_csv(args.features) if args.features
                               else _read_flows(args.input, s))
        Xn = model.normalizer.transform(matrix)
    verdicts = classify_stream(model.index, model.registry, Xn, model.thresholds)
    out = Path(args.out or ".") / "verdicts.jsonl"
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
    config, out = _settings(args), Path(args.out or ".")
    if args.held_out and args.n_trees is not None:
        raise InputError("--n-trees sizes the forest, and the --held-out protocol "
                         "trains none")
    with _input(args.flows):
        flows = load_flows_csv(args.flows)
        if args.held_out:
            report = new_class_protocol(flows, args.held_out, config, out_dir=out)
        else:
            report = run_eval(flows, config, out_dir=out)
    if args.held_out and report.registered_label is None:
        print(f"held-out {args.held_out}: no class registered after "
              f"{report.n_held_out} held-out samples")
    elif args.held_out:
        later = report.n_post_registration
        print(f"held-out {args.held_out}: registered as {report.registered_label} "
              f"after {report.samples_consumed} samples, "
              + (f"recall {report.held_out_recall:.3f} on {later} later sample{'s' * (later != 1)}"
                 if later else "no later held-out samples to score"))
    else:
        print(f"macro-F1 retrieval {report.metrics_cbr.macro_f1():.3f}, "
              f"forest {report.metrics_forest.macro_f1():.3f}, "
              f"combined {report.metrics_ensemble.macro_f1():.3f} -> {out}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    s = _settings(args)
    try:
        counts = [int(c) for c in args.counts.split(",") if c.strip()]
    except ValueError:
        raise InputError(f"bad --counts value: {args.counts!r}") from None
    if not counts:
        raise InputError("--counts must name at least one packet count")
    if counts != sorted(set(counts)):
        raise InputError("--counts must be strictly ascending")
    if counts[0] < 1:
        raise InputError(f"--counts {args.counts} must hold packet counts >= 1")
    with _input(args.flows):
        points = packet_sweep(load_flows_csv(args.flows), counts, s,
                              out_path=Path(args.out or ".") / "sweep.csv")
    plateau = find_plateau(points)
    for p in points:
        print(f"n={p.n_packets:3d}  accuracy={p.accuracy:.4f}")
    print(f"plateau at n={plateau}" if plateau is not None else "no plateau found")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    s = _settings(args)
    if not 2 <= args.classes <= 8:
        raise InputError(f"--classes {args.classes} must be in [2, 8]")
    if args.flows_per_class < 1:
        raise InputError(f"--flows-per-class {args.flows_per_class} must be >= 1")
    if args.profile == "default":
        templates = default_templates(args.classes)
    else:
        templates = sweep_templates(args.classes)
    flows = synth_generate(templates, args.flows_per_class, seed=s.seed)
    out = Path(args.out or ".") / "flows.csv"
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
    p.add_argument("input", help="flow CSV (.csv) or capture file (any other suffix)")
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
    group.add_argument("--input", default=None,
                       help="flow CSV (.csv) or capture file (any other suffix)")
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
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        log.exception("command failed")
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
