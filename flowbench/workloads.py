"""Workload definitions and seeded input generation.

Three workloads drive the flowcbr command line the way its users do:

* ``serve_known`` - operator path on in-distribution traffic. ``extract`` and
  ``index`` turn 8 classes x 400 labeled flows into a 3200-row model; the
  timed ``classify`` reads 600 shuffled flows of the same classes from a
  pcap. Exact k-NN over the large index is the biggest cost, and the pending
  buffer stays near empty, so cohort search is bypassed.
* ``serve_novel`` - the same two commands on a mostly near-but-unknown
  stream: a 1500-row index (5 x 300) and 400 "stray" flows, each from its
  own template shifted a fixed distance from one base class, so that most
  land between ``theta_new`` and ``theta_ood``. A tight ``r_cohesion`` keeps
  strays from forming cohorts, so the pending buffer grows to hundreds and
  cohort search dominates. Five tight few-shot classes (10 flows each) are
  interleaved so that registrations, and the index inserts they cause,
  happen beside the reads.
* ``eval`` - researcher path: ``flowcbr eval`` on 8 classes x 100 flows. The
  only path that trains and queries the random forest; no pcap, no model
  directory.

Inputs come from ``flowcbr.synth`` under the run's seed and are written as
files; the program under test receives only those files. ``synth`` is the
input generator here and is never timed.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from pcapwriter import write_pcap

# Capture start, in seconds since the epoch; flows start STRIDE_S apart.
EPOCH_S = 1_700_000_000.0
STRIDE_S = 0.05

KNOWN_CLASSES, KNOWN_TRAIN, KNOWN_TEST = 8, 400, 75
NOVEL_CLASSES, NOVEL_TRAIN = 5, 300
NOVEL_STRAYS, STRAY_SHIFT = 400, 250.0
NOVEL_TIGHT_FLOWS, TIGHT_SHIFT = 10, 230.0
NOVEL_R_COHESION = 1.2
EVAL_CLASSES, EVAL_PER_CLASS = 8, 100


WORKLOADS = ("serve_known", "serve_novel", "eval")
SERVE = ("serve_known", "serve_novel")


def setup_commands(workload: str) -> list[list[str]]:
    """CLI argument lists that build the model directory ``model``."""
    if workload not in SERVE:
        return []
    index = ["--out", "model", "index", "feats/features.csv"]
    if workload == "serve_novel":
        index = ["--config", "config.json"] + index
    return [["--out", "feats", "extract", "train.csv"], index]


def main_command(workload: str) -> list[str]:
    """CLI argument list of the timed command; it writes into ``out``."""
    if workload in SERVE:
        return ["--out", "out", "classify", "model", "--input", "test.pcap"]
    return ["--out", "out", "eval", "flows.csv"]


def _shuffled(flows: list, seed: int) -> list:
    order = np.random.default_rng([seed, 1]).permutation(len(flows))
    return [flows[i] for i in order]


def _shifted(base, name: str, radius: float, angle: float, **overrides):
    """A template whose (fwd, bwd) size means sit ``radius`` bytes from base's."""
    return replace(base, name=name,
                   fwd_size_mean=base.fwd_size_mean + radius * math.cos(angle),
                   bwd_size_mean=base.bwd_size_mean + radius * math.sin(angle),
                   **overrides)


def _novel_stream(seed: int) -> list:
    from flowcbr.synth import default_templates, synth_generate

    bases = default_templates(NOVEL_CLASSES)
    rng = np.random.default_rng([seed, 2])
    stream = []
    for j in range(NOVEL_STRAYS):
        tpl = _shifted(bases[j % len(bases)], f"stray-{j:04d}", STRAY_SHIFT,
                       rng.uniform(0.0, 2.0 * math.pi))
        # One flow per stray template; the seed list keeps streams distinct.
        stream.extend(synth_generate([tpl], 1, seed=seed * 100_003 + j + 1))
    tight = [_shifted(b, f"tight-{c}", TIGHT_SHIFT, 2.0 * math.pi * 0.618 * c,
                      fwd_size_std=6.0, bwd_size_std=10.0, gap_sigma=0.1,
                      min_packets=52, max_packets=52, window_step_std=100.0)
             for c, b in enumerate(bases)]
    few = synth_generate(tight, NOVEL_TIGHT_FLOWS, seed=seed)
    few = [few[i] for i in rng.permutation(len(few))]
    slots = np.sort(rng.choice(len(stream) + len(few), len(few), replace=False))
    for slot, flow in zip(slots, few):
        stream.insert(int(slot), flow)
    return stream


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write the workload's input files into ``out`` and return its manifest.

    The manifest holds what the checks need: the flow count of the timed
    command, packets written to the pcap, the true label behind each flow
    id, and the classes the model is trained on.
    """
    from flowcbr.flows import save_flows_csv
    from flowcbr.synth import default_templates, synth_generate

    if seed < 0:
        raise ValueError("seed must be >= 0")
    out.mkdir(parents=True, exist_ok=True)
    manifest: dict = {"workload": workload, "seed": seed}
    if workload == "serve_known":
        flows = synth_generate(default_templates(KNOWN_CLASSES),
                               KNOWN_TRAIN + KNOWN_TEST, seed=seed)
        per_class = KNOWN_TRAIN + KNOWN_TEST
        train = [f for i, f in enumerate(flows) if i % per_class < KNOWN_TRAIN]
        test = _shuffled([f for i, f in enumerate(flows) if i % per_class >= KNOWN_TRAIN], seed)
    elif workload == "serve_novel":
        train = synth_generate(default_templates(NOVEL_CLASSES), NOVEL_TRAIN, seed=seed)
        test = _novel_stream(seed)
        (out / "config.json").write_text(json.dumps({"r_cohesion": NOVEL_R_COHESION}) + "\n")
    elif workload == "eval":
        flows = synth_generate(default_templates(EVAL_CLASSES), EVAL_PER_CLASS, seed=seed)
        save_flows_csv(flows, out / "flows.csv")
        manifest.update(n_flows=len(flows), input_ids=[f.flow_id for f in flows],
                        classes=sorted({f.label for f in flows}))
        return manifest
    else:
        raise ValueError(f"unknown workload {workload!r}")

    save_flows_csv(train, out / "train.csv")
    starts = [EPOCH_S + STRIDE_S * i for i in range(len(test))]
    n_packets = write_pcap(out / "test.pcap", test, starts)
    # Flow assembly numbers flows f000000... in order of first packet, which
    # is the order they were written in.
    manifest.update(
        n_flows=len(test), n_train=len(train), n_packets=n_packets,
        truth={f"f{i:06d}": f.label for i, f in enumerate(test)},
        sizes=[len(f.packets) for f in test],
        classes=sorted({f.label for f in train}))
    return manifest


def check_pcap_round_trip(out: Path, manifest: dict) -> list[str]:
    """Problems found reading the written pcap back through flowcbr.flows."""
    from flowcbr.flows import assemble_flows, parse_pcap

    result = parse_pcap((out / "test.pcap").read_bytes())
    problems = []
    if result.skipped or result.truncated:
        problems.append(f"pcap read back with {result.skipped} skipped, "
                        f"{result.truncated} truncated records")
    if len(result.records) != manifest["n_packets"]:
        problems.append(f"pcap holds {len(result.records)} packets, "
                        f"wrote {manifest['n_packets']}")
    flows = assemble_flows(result.records)
    if [len(f.packets) for f in flows] != manifest["sizes"]:
        problems.append(f"pcap assembles into {len(flows)} flows that differ from "
                        f"the {manifest['n_flows']} written")
    return problems
